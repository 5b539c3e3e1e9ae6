"""The array kernel and the block-evaluated scans against the scalar reference path.

Every value the kernel returns must equal, bit for bit, what b_coefficients
returns at the same detuning, and every line `scan` and `bichromatic --scan`
write must equal the line rendered point by point through the scalar public
API and _fmt, the way perfbench/checks.py recomputes a data file.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucshift import (
    BichromaticSpec,
    CancellationInfeasibleError,
    ComplexDetuning,
    HalfInteger,
    PoleProximityError,
    b_coefficients,
    combined_coefficients,
    hf_energies,
    solve_tensor_cancellation,
)
from nucshift.cli import BICHROMATIC_HEADER, SCAN_HEADER, _fmt, parse_config, run_subcommand
from nucshift.shift_coefficients import _BLOCK_ROWS, _b_columns, _near_pole

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

spins = st.integers(1, 21).map(HalfInteger)
gammas = st.floats(0.0, 0.01)
gamma_bars = st.one_of(st.just(0.0), st.floats(1e-6, 1e-2))
# more rows than one block, on a binary step that lands exactly on the
# gamma = 0 poles i, -1 and -(i+1)
POLE_GRID = np.linspace(-16.0, 16.0, 2 * _BLOCK_ROWS + 1)


def same_float(x: float, y: float) -> bool:
    """Equal, zeros with the same sign, or both nan."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def assert_kernel_matches_scalar(spin, gamma, grid, gamma_bar):
    grid = np.asarray(grid, dtype=float)
    columns = _b_columns(spin, gamma, grid, gamma_bar)
    near = _near_pole(grid, hf_energies(spin, gamma))
    for k, delta in enumerate(grid.tolist()):
        try:
            b = b_coefficients(spin, gamma, ComplexDetuning.of(delta, gamma_bar))
        except PoleProximityError:
            assert gamma_bar == 0.0 and near[k], delta
            continue
        assert not (gamma_bar == 0.0 and near[k]), delta
        want = (b.c0.real, b.c0.imag, b.c1.real, b.c1.imag, b.c2.real, b.c2.imag)
        got = [float(column[k]) for column in columns]
        assert all(map(same_float, got, want)), (delta, got, want)


class TestKernelBitIdentity:
    @PROPERTY
    @given(spins, gammas, st.lists(st.floats(-15.0, 15.0), min_size=1, max_size=40), gamma_bars)
    def test_random_detunings(self, spin, gamma, grid, gamma_bar):
        assert_kernel_matches_scalar(spin, gamma, grid, gamma_bar)

    @pytest.mark.parametrize("twice", [1, 2, 3, 9, 21])
    @pytest.mark.parametrize("gamma_bar", [0.0, 1e-3])
    def test_binary_grid_on_the_poles(self, twice, gamma_bar):
        spin = HalfInteger(twice)
        assert all(e in POLE_GRID for e in hf_energies(spin, 0.0).as_tuple())
        assert_kernel_matches_scalar(spin, 0.0, POLE_GRID, gamma_bar)

    @pytest.mark.parametrize("gamma", [1e150, 1e300])
    @pytest.mark.parametrize("gamma_bar", [0.0, 1e-3])
    def test_overflow(self, gamma, gamma_bar):
        grid = np.linspace(-15.0, 15.0, 61)
        assert_kernel_matches_scalar(HalfInteger(9), gamma, grid, gamma_bar)


def render(values, status: str) -> str:
    return ",".join(_fmt(v) for v in values) + f",{status}"


def scalar_scan_text(spin, gamma, gamma_bar, grid) -> str:
    lines = [SCAN_HEADER]
    for delta in grid.tolist():
        try:
            b = b_coefficients(spin, gamma, ComplexDetuning.of(delta, gamma_bar))
        except PoleProximityError:
            lines.append(render([delta] + [math.nan] * 6, "pole"))
            continue
        values = [b.c0.real, b.c0.imag, b.c1.real, b.c1.imag, b.c2.real, b.c2.imag]
        lines.append(render([delta] + values, "ok"))
    return "\n".join(lines) + "\n"


def scalar_merit_text(spin, gamma, gamma_bar, grid) -> str:
    e_mid = hf_energies(spin, gamma).e_mid
    lines = [BICHROMATIC_HEADER]
    for small in grid.tolist():
        d_alpha, d_beta = e_mid + small, e_mid - small
        try:
            w_alpha, w_beta = solve_tensor_cancellation(d_alpha, d_beta, spin, gamma, gamma_bar)
        except PoleProximityError:
            lines.append(render([small] + [math.nan] * 4, "pole"))
            continue
        except CancellationInfeasibleError:
            lines.append(render([small] + [math.nan] * 4, "same-sign"))
            continue
        spec = BichromaticSpec(d_alpha, d_beta, w_alpha, w_beta, gamma_bar)
        combined = combined_coefficients(spec, spin, gamma)
        re_b1, im_b0 = combined.c1.real, combined.c0.imag
        if im_b0 != 0.0:
            ratio = re_b1 / im_b0
        else:
            ratio = math.copysign(math.inf, re_b1) if re_b1 != 0.0 else math.nan
        lines.append(render([small, w_alpha, re_b1, im_b0, ratio], "ok"))
    return "\n".join(lines) + "\n"


def cli_gamma(spin, gamma: float) -> float:
    """The drawn gamma, or 0 at i = 1/2, the only value the CLI takes there."""
    return gamma if spin.twice > 1 else 0.0


def atom_keys(spin, gamma, gamma_bar) -> str:
    return f"spin_twice = {spin.twice}\ngamma = {gamma!r}\ngamma_bar = {gamma_bar!r}\n"


def scan_text(spin, gamma, gamma_bar, lo, hi, steps) -> str:
    body = atom_keys(spin, gamma, gamma_bar) + (
        f"delta_min = {lo!r}\ndelta_max = {hi!r}\nsteps = {steps}\n")
    return run_subcommand("scan", parse_config(body))[0]


def merit_text(spin, gamma, gamma_bar, lo, hi, steps) -> str:
    body = atom_keys(spin, gamma, gamma_bar) + (
        f"scan = true\ndelta_small_min = {lo!r}\n"
        f"delta_small_max = {hi!r}\ndelta_small_steps = {steps}\n")
    return run_subcommand("bichromatic", parse_config(body))[0]


class TestScanText:
    @PROPERTY
    @given(spins, gammas, gamma_bars, st.floats(-15.0, 0.0), st.floats(0.5, 15.0),
           st.integers(1, 200))
    def test_random_grids(self, spin, gamma, gamma_bar, lo, hi, steps):
        gamma = cli_gamma(spin, gamma)
        want = scalar_scan_text(spin, gamma, gamma_bar, np.linspace(lo, hi, steps))
        assert scan_text(spin, gamma, gamma_bar, lo, hi, steps) == want

    @pytest.mark.parametrize("gamma_bar", [0.0, 1e-3])
    def test_pole_grid_across_blocks(self, gamma_bar):
        spin = HalfInteger(9)
        text = scan_text(spin, 0.0, gamma_bar, -16.0, 16.0, len(POLE_GRID))
        assert text == scalar_scan_text(spin, 0.0, gamma_bar, POLE_GRID)
        assert text.count(",pole\n") == (3 if gamma_bar == 0.0 else 0)


class TestMeritText:
    @PROPERTY
    @given(spins, gammas, gamma_bars, st.floats(0.01, 1.0), st.floats(1.5, 15.0),
           st.integers(1, 150))
    def test_random_grids(self, spin, gamma, gamma_bar, lo, hi, steps):
        gamma = cli_gamma(spin, gamma)
        want = scalar_merit_text(spin, gamma, gamma_bar, np.linspace(lo, hi, steps))
        assert merit_text(spin, gamma, gamma_bar, lo, hi, steps) == want

    def test_pole_grid_across_blocks(self):
        # step 8 / 2**12 from 0.25 hits the imbalances i and i + 1, where one
        # detuning sits on a pole
        spin, steps = HalfInteger(9), 2**12 + 1
        text = merit_text(spin, 0.0, 3e-5, 0.25, 8.25, steps)
        assert text == scalar_merit_text(spin, 0.0, 3e-5, np.linspace(0.25, 8.25, steps))
        assert text.count(",pole\n") == 2
        assert text.count(",same-sign\n") > 0


@pytest.mark.parametrize("x, text", [(-0.0, "0"), (0.0, "0"), (-1.5, "-1.5"),
                                     (0.1, "0.10000000000000001"), (math.nan, "nan"),
                                     (-math.inf, "-inf")])
def test_fmt(x, text):
    assert _fmt(x) == text
