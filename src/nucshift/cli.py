"""Command-line interface: coefficient scans, Hamiltonians, oracle checks, cancellation.

Configuration is a line-oriented ``key = value`` file with ``#`` comments and
one optional ``[field]`` section describing the laser geometry.  Unknown keys
are errors.  Physical constants are accepted as ``*_khz_over_2pi`` keys and
converted to angular frequencies once at parse time.  All emitted data files
are byte-deterministic: fixed headers, fixed ordering, floats rendered with 17
significant digits.

Exit codes: 0 success, 1 oracle-diff threshold failure or I/O error, 2 input
error (every one, with one JSON line on stderr: a command line argparse
rejects, a config file that is not UTF-8, non-finite numbers, a non-positive
beam amplitude or wavenumber, an oracle-diff grid too crowded with poles, a
grid of more than MAX_GRID_ROWS rows and atom constants that overflow
included), 3 numeric-domain error (pole proximity, or a non-finite result,
which is never written out: b coefficients off the poles that overflow in a
scan row, a merit row or a single bichromatic solve, among others), 4
infeasible tensor cancellation.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
import typing
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .bichromatic import (
    BichromaticSpec,
    CancellationInfeasibleError,
    combined_coefficients,
    merit_scan,
    rephasing_length,
    solve_tensor_cancellation,
)
from .cg_oracle import oracle_vs_analytic_deviation
from .field_configs import (
    CounterPropCross,
    PerpendicularSoc,
    RawVector,
    SingleCircular,
    SingleLinear,
    assemble_heff,
    field_at,
)
from .hyperfine import AtomParams, derive_constants, hf_energies
from .shift_coefficients import (
    _BLOCK_ROWS,
    ComplexDetuning,
    NonFiniteResultError,
    PoleProximityError,
    _b_columns,
    _near_pole,
    a_coefficients,
    b_coefficients,
    offpole_grid,
)
from .spin_algebra import DEFAULT_MAX_DIMENSION, HalfInteger, make_spin_operators

TWO_PI = 2.0 * math.pi
ORACLE_DIFF_THRESHOLD = 1e-10
# Largest grid (steps, delta_small_steps) a run accepts; a scan of this many
# rows peaks near 430 MB, since the CSV text is held in memory.
MAX_GRID_ROWS = 1_000_000


class ConfigError(ValueError):
    """Configuration parse or validation failure (CLI exit code 2)."""


# A preset is the config keys it fixes; it overrides whatever the file gives for them.
ATOM_PRESETS = {
    "sr87": {"spin_twice": 9, "ahf_prime_khz_over_2pi": -260085.0, "bhf_khz_over_2pi": -35667.0,
             "loss_ratio": 3e-5, "linewidth_khz_over_2pi": None, "dge_sq": None},
}


def _parse_scalar(convert, what: str):
    def parse(value: str):
        try:
            return convert(value)
        except ValueError as exc:
            raise ConfigError(f"expected a {what}, got {value!r}") from exc
    return parse


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ConfigError(f"expected true or false, got {value!r}")


def _parse_handedness(value: str) -> int:
    if value in ("+", "+1"):
        return +1
    if value in ("-", "-1"):
        return -1
    raise ConfigError(f"expected + or -, got {value!r}")


def _parse_triple(convert, what: str):
    parse_one = _parse_scalar(convert, what)

    def parse(value: str) -> tuple:
        parts = value.split(",")
        if len(parts) != 3:
            raise ConfigError(f"expected three comma-separated {what}s, got {value!r}")
        return tuple(parse_one(p.strip()) for p in parts)
    return parse


@dataclass
class FieldSpec:
    """Raw [field] section values before they become a concrete geometry."""

    kind: Optional[str] = None
    amplitude: float = 1.0
    wavenumber: float = 1.0
    handedness: int = field(default=+1, metadata={"parser": _parse_handedness})
    delta_omega: float = 0.0
    e: Optional[tuple[complex, complex, complex]] = field(
        default=None, metadata={"parser": _parse_triple(complex, "complex number")})
    position: tuple[float, float, float] = field(
        default=(0.0, 0.0, 0.0), metadata={"parser": _parse_triple(float, "number")})
    time: float = 0.0


@dataclass
class RunConfig:
    """Validated key/value configuration for one CLI run."""

    atom: Optional[str] = None
    spin_twice: Optional[int] = None
    ahf_prime_khz_over_2pi: Optional[float] = None
    bhf_khz_over_2pi: Optional[float] = None
    linewidth_khz_over_2pi: Optional[float] = None
    loss_ratio: Optional[float] = None
    dge_sq: Optional[float] = None
    gamma: Optional[float] = None
    gamma_bar: Optional[float] = None
    delta_bar: Optional[float] = None
    delta_min: Optional[float] = None
    delta_max: Optional[float] = None
    steps: Optional[int] = None
    include_a: bool = False
    scan: bool = False
    delta_alpha: Optional[float] = None
    delta_beta: Optional[float] = None
    delta_small_min: Optional[float] = None
    delta_small_max: Optional[float] = None
    delta_small_steps: Optional[int] = None
    delta_rad_per_s: Optional[float] = None
    out: Optional[str] = None
    field_spec: Optional[FieldSpec] = None


_PARSERS = {int: _parse_scalar(int, "whole number"), float: _parse_scalar(float, "number"),
            bool: _parse_bool, str: str}


def _key_table(cls) -> dict:
    """Config key -> value parser for every field of cls but field_spec.

    The key is the attribute name.  A field's metadata may name its parser;
    otherwise its annotation, with Optional stripped, picks one.
    """
    hints = typing.get_type_hints(cls)
    table = {}
    for f in fields(cls):
        if f.name == "field_spec":
            continue
        if "parser" in f.metadata:
            table[f.name] = f.metadata["parser"]
        else:
            optional_of = typing.get_args(hints[f.name])  # (X, NoneType) for Optional[X]
            table[f.name] = _PARSERS[optional_of[0] if optional_of else hints[f.name]]
    return table


_MAIN_KEYS = _key_table(RunConfig)
_FIELD_KEYS = _key_table(FieldSpec)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration file body."""
    config = RunConfig()
    section = None
    seen: set[tuple[Optional[str], str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line != "[field]":
                raise ConfigError(f"line {lineno}: unknown section {line}")
            section = "field"
            if config.field_spec is None:
                config.field_spec = FieldSpec()
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        table = _FIELD_KEYS if section == "field" else _MAIN_KEYS
        if key not in table:
            where = " in [field]" if section == "field" else ""
            raise ConfigError(f"line {lineno}: unknown key {key!r}{where}")
        if (section, key) in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add((section, key))
        try:
            parsed = table[key](value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        setattr(config.field_spec if section == "field" else config, key, parsed)
    _validate(config)
    return config


def _check_finite(obj, table: dict) -> None:
    for key in table:
        value = getattr(obj, key)
        for x in value if isinstance(value, tuple) else (value,):
            if isinstance(x, (float, complex)) and not cmath.isfinite(x):
                raise ConfigError(f"{key}: must be finite, got {x!r}")


def _validate(config: RunConfig) -> None:
    _check_finite(config, _MAIN_KEYS)
    if config.field_spec is not None:
        _check_finite(config.field_spec, _FIELD_KEYS)
    if config.atom is not None and config.atom not in ATOM_PRESETS:
        raise ConfigError(f"atom: unknown preset {config.atom!r}")
    if config.atom is not None and config.ahf_prime_khz_over_2pi is not None:
        raise ConfigError("atom: preset conflicts with explicit ahf_prime_khz_over_2pi")
    if config.spin_twice is not None and config.spin_twice < 1:
        raise ConfigError("spin_twice: must be at least 1")
    if config.spin_twice is not None and config.spin_twice > sys.float_info.max:
        raise ConfigError("spin_twice: must not exceed the largest float")
    for key in ("steps", "delta_small_steps"):
        rows = getattr(config, key)
        if rows is not None and rows < 1:
            raise ConfigError(f"{key}: must be at least 1")
        if rows is not None and rows > MAX_GRID_ROWS:
            raise ConfigError(f"{key}: must be at most {MAX_GRID_ROWS}, got {rows}")
    if (config.delta_min is None) != (config.delta_max is None):
        raise ConfigError("delta_min/delta_max: both must be given")
    if config.delta_min is not None and not config.delta_min < config.delta_max:
        raise ConfigError("delta_min: must be strictly below delta_max")
    if (config.delta_small_min is None) != (config.delta_small_max is None):
        raise ConfigError("delta_small_min/delta_small_max: both must be given")
    if (config.delta_small_min is not None
            and not config.delta_small_min < config.delta_small_max):
        raise ConfigError("delta_small_min: must be strictly below delta_small_max")
    if config.delta_small_min is not None and config.delta_small_min <= 0:
        raise ConfigError("delta_small_min: must be positive")
    if config.gamma_bar is not None and config.gamma_bar < 0:
        raise ConfigError("gamma_bar: must be non-negative")
    if config.loss_ratio is not None and config.loss_ratio < 0:
        raise ConfigError("loss_ratio: must be non-negative")
    if config.linewidth_khz_over_2pi is not None and config.linewidth_khz_over_2pi < 0:
        raise ConfigError("linewidth_khz_over_2pi: must be non-negative")
    if config.field_spec is not None and config.field_spec.kind is not None:
        _build_field(config.field_spec)  # reject bad geometry early


def resolve_atom(config: RunConfig) -> Optional[AtomParams]:
    """Concrete atom constants, from the preset or the explicit physical keys."""
    if config.atom is not None:
        config = replace(config, atom=None, **ATOM_PRESETS[config.atom])
    if config.ahf_prime_khz_over_2pi is None:
        return None
    if config.spin_twice is None:
        raise ConfigError("spin_twice: required with explicit atom constants")
    spin = HalfInteger(config.spin_twice)
    ahf_prime = TWO_PI * config.ahf_prime_khz_over_2pi * 1e3
    bhf = TWO_PI * (config.bhf_khz_over_2pi or 0.0) * 1e3
    dge_sq = config.dge_sq if config.dge_sq is not None else 1.0
    try:
        a_hf = derive_constants(AtomParams(spin, ahf_prime, bhf, 0.0, dge_sq)).a_hf
    except ValueError as exc:
        raise ConfigError(f"atom constants: {exc}") from None
    if config.linewidth_khz_over_2pi is not None:
        linewidth = TWO_PI * config.linewidth_khz_over_2pi * 1e3
    elif config.loss_ratio is not None:
        linewidth = config.loss_ratio * abs(a_hf)
    else:
        linewidth = 0.0
    return AtomParams(spin, ahf_prime, bhf, linewidth, dge_sq)


def resolve_spin_gamma(config: RunConfig) -> tuple[HalfInteger, float, float]:
    """(spin, gamma, gamma_bar) from the preset, explicit constants, or bare overrides.

    At i = 1/2 the excited manifold has no quadrupole term (AtomParams forbids
    B_hf there), so a nonzero gamma is an input error on every branch.
    """
    atom = resolve_atom(config)
    if atom is not None:
        consts = derive_constants(atom)
        spin = atom.spin
        gamma = config.gamma if config.gamma is not None else consts.gamma
        if config.gamma_bar is not None:
            gamma_bar = config.gamma_bar
        else:
            gamma_bar = atom.linewidth / abs(consts.a_hf)
    else:
        if config.spin_twice is None:
            raise ConfigError("spin_twice: required (or give an atom preset)")
        if config.gamma is None:
            raise ConfigError("gamma: required without atom constants")
        spin = HalfInteger(config.spin_twice)
        gamma = config.gamma
        gamma_bar = config.gamma_bar if config.gamma_bar is not None else 0.0
    if spin.twice == 1 and gamma != 0.0:
        raise ConfigError(f"gamma: must be 0 at spin_twice = 1, got {gamma!r}")
    return spin, gamma, gamma_bar


def _check_dimension(spin: HalfInteger) -> None:
    # heff and oracle-diff build dense spin matrices; the closed forms have no cap
    if spin.twice + 1 > DEFAULT_MAX_DIMENSION:
        raise ConfigError(
            f"spin_twice: dimension {spin.twice + 1} exceeds {DEFAULT_MAX_DIMENSION}"
        )


_GEOMETRIES = {
    "single_linear": SingleLinear,
    "single_circular": SingleCircular,
    "counterprop_cross": CounterPropCross,
    "perpendicular_soc": PerpendicularSoc,
    "raw": RawVector,
}


def _build_field(spec: FieldSpec):
    """The geometry of spec.kind, given the [field] keys named like its fields."""
    if spec.kind is None:
        raise ConfigError("kind: required in [field] section")
    if spec.kind not in _GEOMETRIES:
        raise ConfigError(f"kind: unknown field geometry {spec.kind!r}")
    cls = _GEOMETRIES[spec.kind]
    kwargs = {f.name: getattr(spec, f.name) for f in fields(cls)}
    for key, value in kwargs.items():
        if value is None:
            raise ConfigError(f"{key}: required for kind = {spec.kind}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[field] kind = {spec.kind}: {exc}") from None


def _fmt(x: float) -> str:
    return f"{x + 0.0:.17g}"  # + 0.0 turns the negative zero into 0


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix_json(matrix: np.ndarray) -> list:
    return [[_pair(matrix[r, c]) for c in range(matrix.shape[1])] for r in range(matrix.shape[0])]


def _json_text(payload: dict) -> str:
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # a float in payload is inf or nan
        raise NonFiniteResultError(f"result is not finite: {exc}") from None


SCAN_HEADER = "delta_bar,re_b0,im_b0,re_b1,im_b1,re_b2,im_b2,status"
BICHROMATIC_HEADER = "delta_small_bar,w_alpha,re_b1_sum,im_b0_sum,ratio,status"
# one data line, each float as _fmt renders it once + 0.0 has been added
_SCAN_ROW = "%.17g," * 7 + "%s\n"
_BICHROMATIC_ROW = "%.17g," * 5 + "%s\n"
_SCAN_STATUS = ("ok", "pole")


def run_scan(config: RunConfig) -> str:
    """Coefficient scan over an ascending detuning grid, rendered as CSV text.

    Pole rows carry nan cells; a row off the poles whose coefficients are not
    finite raises NonFiniteResultError instead of being written.  The grid is
    evaluated _BLOCK_ROWS rows at a time by the array kernel _b_columns, so
    every row equals b_coefficients at its detuning rendered through _fmt.
    """
    spin, gamma, gamma_bar = resolve_spin_gamma(config)
    if config.delta_min is None or config.steps is None:
        raise ConfigError("delta_min/delta_max/steps: required for scan")
    grid = np.linspace(config.delta_min, config.delta_max, config.steps)
    levels = hf_energies(spin, gamma)
    lines = [SCAN_HEADER + "\n"]
    for start in range(0, len(grid), _BLOCK_ROWS):
        delta = grid[start:start + _BLOCK_ROWS]
        # the scalar guard applies to lossless detunings only
        pole = _near_pole(delta, levels) if gamma_bar == 0.0 else np.zeros(len(delta), bool)
        cells = np.array(_b_columns(spin, gamma, delta, gamma_bar))
        cells[:, pole] = math.nan
        bad = ~pole & ~np.isfinite(cells).all(axis=0)  # only pole rows may carry nan
        if bad.any():
            raise NonFiniteResultError(
                f"result is not finite at delta_bar = {_fmt(delta[bad.argmax()])}")
        values = (np.vstack((delta, cells)) + 0.0).T.tolist()
        lines += [_SCAN_ROW % (*row, _SCAN_STATUS[p]) for row, p in zip(values, pole.tolist())]
    return "".join(lines)


def _run_coeffs(config: RunConfig) -> tuple[str, int]:
    spin, gamma, gamma_bar = resolve_spin_gamma(config)
    if config.delta_bar is None:
        raise ConfigError("delta_bar: required for coeffs")
    det = ComplexDetuning.of(config.delta_bar, gamma_bar)
    bset = b_coefficients(spin, gamma, det)
    payload = {
        "spin_twice": spin.twice,
        "gamma": gamma,
        "gamma_bar": gamma_bar,
        "delta_bar": config.delta_bar,
        "b": {"b0": _pair(bset.c0), "b1": _pair(bset.c1), "b2": _pair(bset.c2)},
    }
    if config.include_a:
        aset = a_coefficients(spin, gamma, det)
        payload["a"] = {"a0": _pair(aset.c0), "a1": _pair(aset.c1), "a2": _pair(aset.c2)}
    return _json_text(payload), 0


def _run_heff(config: RunConfig) -> tuple[str, int]:
    spin, gamma, gamma_bar = resolve_spin_gamma(config)
    if config.delta_bar is None:
        raise ConfigError("delta_bar: required for heff")
    if config.field_spec is None:
        raise ConfigError("[field] section: required for heff")
    _check_dimension(spin)
    geometry = _build_field(config.field_spec)
    e = field_at(geometry, config.field_spec.position, config.field_spec.time)
    ops = make_spin_operators(spin)
    bset = b_coefficients(spin, gamma, ComplexDetuning.of(config.delta_bar, gamma_bar))
    heff = assemble_heff(bset, e, ops)
    payload = {
        "dim": ops.dimension,
        "matrix": _matrix_json(heff.matrix),
        "parts": {
            "scalar": _matrix_json(heff.parts.scalar),
            "vector": _matrix_json(heff.parts.vector),
            "tensor": _matrix_json(heff.parts.tensor),
        },
    }
    return _json_text(payload), 0


def _run_oracle_diff(config: RunConfig) -> tuple[str, int]:
    spin, gamma, gamma_bar = resolve_spin_gamma(config)
    _check_dimension(spin)
    given = {"lo": config.delta_min, "hi": config.delta_max, "n": config.steps}
    try:
        grid = offpole_grid(spin, gamma, **{k: v for k, v in given.items() if v is not None})
    except ValueError as exc:  # the interval holds too few points clear of the poles
        raise ConfigError(f"delta_min/delta_max/steps: {exc}") from None
    deviation = oracle_vs_analytic_deviation(spin, gamma, grid, gamma_bar)
    ok = deviation <= ORACLE_DIFF_THRESHOLD
    text = (
        f"max_relative_deviation = {_fmt(deviation)}\n"
        f"threshold = {_fmt(ORACLE_DIFF_THRESHOLD)}\n"
        f"status = {'PASS' if ok else 'FAIL'}\n"
    )
    return text, 0 if ok else 1


def _run_bichromatic(config: RunConfig) -> tuple[str, int]:
    spin, gamma, gamma_bar = resolve_spin_gamma(config)
    if config.scan:
        lo = config.delta_small_min if config.delta_small_min is not None else 0.5
        hi = config.delta_small_max if config.delta_small_max is not None else 5.0
        n = config.delta_small_steps if config.delta_small_steps is not None else 91
        grid = np.linspace(lo, hi, n)
        lines = [BICHROMATIC_HEADER + "\n"]
        lines += [_BICHROMATIC_ROW % (r.delta_small + 0.0, r.w_alpha + 0.0, r.re_b1_sum + 0.0,
                                      r.im_b0_sum + 0.0, r.ratio + 0.0, r.status)
                  for r in merit_scan(spin, gamma, gamma_bar, grid)]
        return "".join(lines), 0
    if config.delta_alpha is None or config.delta_beta is None:
        raise ConfigError("delta_alpha/delta_beta: required for bichromatic without scan")
    w_alpha, w_beta = solve_tensor_cancellation(
        config.delta_alpha, config.delta_beta, spin, gamma, gamma_bar
    )
    spec = BichromaticSpec(config.delta_alpha, config.delta_beta, w_alpha, w_beta, gamma_bar)
    combined = combined_coefficients(spec, spin, gamma)
    payload = {
        "w_alpha": w_alpha,
        "w_beta": w_beta,
        "b_sum": {
            "b0": _pair(combined.c0),
            "b1": _pair(combined.c1),
            "b2": _pair(combined.c2),
        },
    }
    return _json_text(payload), 0


def _run_rephasing(config: RunConfig) -> tuple[str, int]:
    if config.delta_rad_per_s is not None:
        delta = config.delta_rad_per_s
    elif config.delta_bar is not None:
        atom = resolve_atom(config)
        if atom is None:
            raise ConfigError("atom: required to convert delta_bar to a physical frequency")
        delta = config.delta_bar * abs(derive_constants(atom).a_hf)
    else:
        raise ConfigError("delta_rad_per_s or delta_bar: required for rephasing")
    if not 0 < delta < math.inf:
        raise ConfigError(f"delta_rad_per_s: must be positive and finite, got {delta!r}")
    length = rephasing_length(delta)
    if not math.isfinite(length):
        raise NonFiniteResultError(f"rephasing_length_m is not finite for delta = {delta!r}")
    return f"rephasing_length_m = {_fmt(length)}\n", 0


_SUBCOMMANDS = {
    "coeffs": _run_coeffs,
    "scan": lambda cfg: (run_scan(cfg), 0),
    "heff": _run_heff,
    "oracle-diff": _run_oracle_diff,
    "bichromatic": _run_bichromatic,
    "rephasing": _run_rephasing,
}


def run_subcommand(name: str, config: RunConfig) -> tuple[str, int]:
    """Execute one subcommand against a validated configuration."""
    if name not in _SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {name!r}")
    return _SUBCOMMANDS[name](config)


def _merge_flags(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    for key in ("atom", "delta_bar", "gamma_bar", "out"):
        if getattr(args, key) is not None:
            setattr(config, key, getattr(args, key))
    if args.scan:
        config.scan = True
    _validate(config)
    return config


class _ArgumentParser(argparse.ArgumentParser):
    """argparse whose usage errors raise ConfigError (exit 2 with one JSON line)."""

    def error(self, message):
        raise ConfigError(f"arguments: {message}")


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="nucshift",
        description="Light-induced effective Hamiltonians for nuclear spins",
    )
    parser.add_argument("subcommand", choices=sorted(_SUBCOMMANDS))
    parser.add_argument("--config", help="path to a key = value configuration file")
    parser.add_argument("--atom", help="atom preset name (e.g. sr87)")
    parser.add_argument("--delta-bar", type=float, dest="delta_bar",
                        help="dimensionless detuning override")
    parser.add_argument("--gamma-bar", type=float, dest="gamma_bar",
                        help="dimensionless linewidth override")
    parser.add_argument("--scan", action="store_true",
                        help="bichromatic: run the merit scan instead of a single solve")
    parser.add_argument("--out", help="write the data file here instead of stdout")
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                try:
                    text = fh.read()
                except UnicodeDecodeError as exc:
                    raise ConfigError(f"{args.config}: not UTF-8 text: {exc}") from None
            config = parse_config(text)
        else:
            config = RunConfig()
        config = _merge_flags(config, args)
        text, code = run_subcommand(args.subcommand, config)
        if config.out is not None:
            with open(config.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except PoleProximityError as exc:
        print(json.dumps({"error": "pole", "message": str(exc)}), file=sys.stderr)
        return 3
    except NonFiniteResultError as exc:
        print(json.dumps({"error": "numeric", "message": str(exc)}), file=sys.stderr)
        return 3
    except CancellationInfeasibleError as exc:
        print(json.dumps({"error": "infeasible", "message": str(exc)}), file=sys.stderr)
        return 4
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
