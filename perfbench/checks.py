"""Output checks for every benchmark workload.

A CLI data file passes when its bytes hash to the golden digest recorded for
its seed at the baseline commit.  For a seed without a golden digest, every
row is recomputed one point at a time through the scalar public API
(b_coefficients; solve_tensor_cancellation and combined_coefficients;
oracle_d_tensor and extract_b_from_d) and compared byte for byte.

A NaN counts as a failure wherever it is not the documented marker of a
`pole` or `same-sign` row.  That includes the oracle recomputation: at
i = 1/2 the projection yields b2 = NaN, which oracle_vs_analytic_deviation
folds away through max(0.0, nan), so the CLI reports 0 and PASS without
having compared anything.  The recomputation rejects that report.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

ORACLE_THRESHOLD = 1e-10
LATTICE_RTOL = 1e-12

SCAN_HEADER = "delta_bar,re_b0,im_b0,re_b1,im_b1,re_b2,im_b2,status"
MERIT_HEADER = "delta_small_bar,w_alpha,re_b1_sum,im_b0_sum,ratio,status"
# documented CSV layouts: header and row statuses; only `ok` rows carry numbers
CSV_LAYOUTS = {
    "scan": (SCAN_HEADER, ("ok", "pole")),
    "merit": (MERIT_HEADER, ("ok", "pole", "same-sign")),
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fmt(x: float) -> str:
    """The CLI's documented float rendering: 17 significant digits, no negative zero."""
    if x == 0.0:
        x = 0.0
    return f"{x:.17g}"


def sr87_spin_gamma() -> tuple[int, float, float]:
    """(spin_twice, gamma, gamma_bar) of the sr87 preset, from the published constants."""
    from nucshift import AtomParams, HalfInteger, derive_constants

    two_pi = 2.0 * math.pi
    ahf_prime, bhf = two_pi * -260085e3, two_pi * -35667e3
    trial = AtomParams(HalfInteger(9), ahf_prime, bhf, 0.0, 1.0)
    atom = AtomParams(HalfInteger(9), ahf_prime, bhf,
                      3e-5 * abs(derive_constants(trial).a_hf), 1.0)
    consts = derive_constants(atom)
    return 9, consts.gamma, atom.linewidth / abs(consts.a_hf)


def resolve(params: dict) -> tuple[int, float, float]:
    if params.get("atom") == "sr87":
        return sr87_spin_gamma()
    return params["spin_twice"], params["gamma"], params["gamma_bar"]


def scan_reference(params: dict) -> list[str]:
    """Every `nucshift scan` row, recomputed one detuning at a time."""
    from nucshift import ComplexDetuning, HalfInteger, PoleProximityError, b_coefficients

    spin_twice, gamma, gamma_bar = resolve(params)
    spin = HalfInteger(spin_twice)
    rows = []
    for d in np.linspace(params["lo"], params["hi"], params["steps"]):
        d = float(d)
        try:
            b = b_coefficients(spin, gamma, ComplexDetuning.of(d, gamma_bar))
            values, status = [b.c0.real, b.c0.imag, b.c1.real, b.c1.imag,
                              b.c2.real, b.c2.imag], "ok"
        except PoleProximityError:
            values, status = [math.nan] * 6, "pole"
        rows.append(",".join(fmt(v) for v in [d, *values]) + f",{status}")
    return rows


def merit_reference(params: dict) -> list[str]:
    """Every `nucshift bichromatic --scan` row, from the scalar solve and sum per point."""
    from nucshift import (BichromaticSpec, CancellationInfeasibleError, HalfInteger,
                          PoleProximityError, combined_coefficients, hf_energies,
                          solve_tensor_cancellation)

    spin_twice, gamma, gamma_bar = resolve(params)
    spin = HalfInteger(spin_twice)
    e_mid = hf_energies(spin, gamma).e_mid
    rows = []
    for small in np.linspace(params["lo"], params["hi"], params["steps"]):
        small = float(small)
        d_alpha, d_beta = e_mid + small, e_mid - small
        values, status = [math.nan] * 4, "ok"
        try:
            w_alpha, w_beta = solve_tensor_cancellation(d_alpha, d_beta, spin, gamma, gamma_bar)
        except PoleProximityError:
            status = "pole"
        except CancellationInfeasibleError:
            status = "same-sign"
        if status == "ok":
            spec = BichromaticSpec(d_alpha, d_beta, w_alpha, w_beta, gamma_bar)
            combined = combined_coefficients(spec, spin, gamma)
            re_b1, im_b0 = combined.c1.real, combined.c0.imag
            if im_b0 != 0.0:
                ratio = re_b1 / im_b0
            else:
                ratio = math.copysign(math.inf, re_b1) if re_b1 != 0.0 else math.nan
            values = [w_alpha, re_b1, im_b0, ratio]
        rows.append(",".join(fmt(v) for v in [small, *values]) + f",{status}")
    return rows


REFERENCES = {"scan": scan_reference, "merit": merit_reference}


def check_csv(kind: str, data: bytes, params: dict, golden: str | None) -> tuple[list[str], dict]:
    """Structure, NaN placement and bytes of a scan or merit CSV; returns (errors, status counts)."""
    header, statuses = CSV_LAYOUTS[kind]
    counts = {s: 0 for s in statuses}
    text = data.decode("utf-8", errors="replace")
    if not text.endswith("\n"):
        return ["file does not end with a newline"], counts
    lines = text[:-1].split("\n")
    if lines[0] != header:
        return [f"header {lines[0]!r} differs from {header!r}"], counts
    rows = lines[1:]
    if len(rows) != params["steps"]:
        return [f"wrong row count: {len(rows)} rows for {params['steps']} grid points"], counts
    ncols = header.count(",") + 1
    errors: list[str] = []
    for k, row in enumerate(rows):
        fields = row.split(",")
        status = fields[-1]
        if len(fields) != ncols or status not in counts:
            errors.append(f"row {k}: malformed {row!r}")
            break
        counts[status] += 1
        values = [v.lower() for v in fields[:-1]]
        has_nan = ["nan" in v for v in values]
        if status == "ok" and any(has_nan):
            errors.append(f"row {k}: NaN in an ok row {row!r}")
            break
        if status != "ok" and (has_nan[0] or not all(has_nan[1:])):
            errors.append(f"row {k}: a {status} row must hold NaN values only {row!r}")
            break
    if errors:
        return errors, counts
    if golden is not None:
        if digest(data) != golden:
            errors.append("output bytes differ from the golden digest of this seed")
        return errors, counts
    for k, (got, want) in enumerate(zip(rows, REFERENCES[kind](params))):
        if got != want:
            errors.append(f"row {k}: {got!r} differs from the scalar API's {want!r}")
            break
    return errors, counts


def oracle_reference(params: dict) -> tuple[list[str], float]:
    """Worst relative deviation over the oracle-diff grid, one point at a time.

    Returns (errors, worst); a non-finite coefficient on either side is an error.
    """
    from nucshift import (ComplexDetuning, HalfInteger, b_coefficients, extract_b_from_d,
                          make_spin_operators, offpole_grid, oracle_d_tensor)

    spin_twice, gamma, gamma_bar = resolve(params)
    spin = HalfInteger(spin_twice)
    grid = offpole_grid(spin, gamma, params["lo"], params["hi"], params["steps"], clearance=0.05)
    ops = make_spin_operators(spin)
    worst = 0.0
    for delta in grid:
        det = ComplexDetuning.of(float(delta), gamma_bar)
        analytic = b_coefficients(spin, gamma, det).as_array()
        oracle = extract_b_from_d(oracle_d_tensor(spin, gamma, det), ops)[0].as_array()
        if not (np.isfinite(analytic).all() and np.isfinite(oracle).all()):
            return [f"non-finite coefficient at delta={float(delta)!r}: oracle {oracle}, "
                    f"closed form {analytic}"], math.nan
        dev = np.abs(analytic - oracle) / np.maximum(np.abs(oracle), 1e-300)
        worst = max(worst, float(dev.max()))
    return [], worst


def check_oracle(data: bytes, params: dict, golden: str | None) -> list[str]:
    """oracle-diff must print PASS with a finite deviation no larger than 1e-10,
    equal to the worst deviation recomputed point by point."""
    lines = data.decode("utf-8", errors="replace").split("\n")
    if len(lines) != 4 or lines[3] != "":
        return [f"expected three lines, got {len(lines) - 1}"]
    key, _, value = lines[0].partition(" = ")
    if key != "max_relative_deviation":
        return [f"unexpected first line {lines[0]!r}"]
    try:
        reported = float(value)
    except ValueError:
        return [f"deviation {value!r} is not a number"]
    if not math.isfinite(reported) or reported > ORACLE_THRESHOLD:
        return [f"deviation {value} is not finite or exceeds {ORACLE_THRESHOLD}"]
    if lines[1] != f"threshold = {fmt(ORACLE_THRESHOLD)}" or lines[2] != "status = PASS":
        return [f"expected threshold and PASS lines, got {lines[1]!r}, {lines[2]!r}"]
    if golden is not None:
        return [] if digest(data) == golden else [
            "output bytes differ from the golden digest of this seed"]
    errors, worst = oracle_reference(params)
    if not errors and value != fmt(worst):
        errors.append(f"reported deviation {value} differs from the recomputed {fmt(worst)}")
    return errors


def check_lattice_point(dim: int, pairs, lattice, others, hermitian: bool) -> list[str]:
    """Checks at one lattice point.

    pairs holds (b-form, a-form) Hamiltonians, one per geometry; lattice is the
    counterprop_components tuple; others are further matrices that must be
    finite.  a-form and b-form must agree and h2 must equal h2_lab, both to
    LATTICE_RTOL relative; at zero loss every b-form Hamiltonian is Hermitian.
    """
    matrices = [m for pair in pairs for m in pair] + list(lattice) + list(others)
    for m in matrices:
        if m.shape != (dim, dim):
            return [f"matrix of shape {m.shape}, expected {(dim, dim)}"]
        if not np.isfinite(m).all():
            return ["non-finite matrix entry"]
    errors = []
    for g, (hb, ha) in enumerate(pairs):
        scale = np.abs(hb).max()
        if np.abs(ha - hb).max() > LATTICE_RTOL * scale:
            errors.append(f"geometry {g}: a-form and b-form Hamiltonians differ")
        if hermitian and np.abs(hb - hb.conj().T).max() > LATTICE_RTOL * scale:
            errors.append(f"geometry {g}: Hamiltonian not Hermitian at zero loss")
    h2, h2_lab = lattice.h2, lattice.h2_lab
    if np.abs(h2 - h2_lab).max() > LATTICE_RTOL * max(np.abs(h2).max(), np.abs(h2_lab).max()):
        errors.append("h2 differs from h2_lab")
    return errors
