import math

import numpy as np
import pytest

from nucshift import (
    BichromaticSpec,
    CancellationInfeasibleError,
    ComplexDetuning,
    HalfInteger,
    NonFiniteResultError,
    PoleProximityError,
    assemble_heff,
    b_coefficients,
    combined_coefficients,
    hf_energies,
    local_ratio_optima,
    make_spin_operators,
    merit_scan,
    rephasing_length,
    solve_tensor_cancellation,
)

SPIN92 = HalfInteger(9)
GAMMA = 0.0057


class TestBichromaticSpec:
    def test_weights_must_normalize(self):
        with pytest.raises(ValueError):
            BichromaticSpec(1.0, -1.0, 0.6, 0.6)
        with pytest.raises(ValueError):
            BichromaticSpec(1.0, -1.0, 1.2, -0.2)
        BichromaticSpec(1.0, -1.0, 0.25, 0.75)

    def test_gamma_bar_nonnegative(self):
        with pytest.raises(ValueError):
            BichromaticSpec(1.0, -1.0, 0.5, 0.5, gamma_bar=-1e-6)


class TestCombinedCoefficients:
    def test_degenerate_weight_reduces_to_single_field(self):
        spec = BichromaticSpec(2.0, -3.0, 1.0, 0.0, gamma_bar=3e-5)
        combined = combined_coefficients(spec, SPIN92, GAMMA)
        single = b_coefficients(SPIN92, GAMMA, ComplexDetuning.of(2.0, 3e-5))
        assert np.abs(combined.as_array() - single.as_array()).max() <= 1e-16

    def test_equal_weights_cancel_opposite_tensor_shifts(self):
        # symmetric spread around the central line at zero quadrupole gives
        # antisymmetric Re b2 up to the outer-level asymmetry; solve instead at
        # hand-picked detunings with exactly opposite values
        e_mid = hf_energies(SPIN92, 0.0).e_mid
        d_alpha, d_beta = e_mid + 2.0, e_mid - 2.0
        b2a = b_coefficients(SPIN92, 0.0, d_alpha).c2.real
        b2b = b_coefficients(SPIN92, 0.0, d_beta).c2.real
        assert b2a * b2b < 0.0
        w_alpha, w_beta = solve_tensor_cancellation(d_alpha, d_beta, SPIN92, 0.0)
        spec = BichromaticSpec(d_alpha, d_beta, w_alpha, w_beta)
        combined = combined_coefficients(spec, SPIN92, 0.0)
        assert abs(combined.c2.real) <= 1e-14

    def test_pole_guard_applies_to_either_detuning(self):
        from nucshift import PoleProximityError

        e_up = hf_energies(SPIN92, GAMMA).e_upper
        spec = BichromaticSpec(e_up, -3.0, 0.5, 0.5, gamma_bar=3e-5)
        with pytest.raises(PoleProximityError):
            combined_coefficients(spec, SPIN92, GAMMA)


class TestSolveCancellation:
    def test_equal_and_opposite_gives_half_half(self):
        # find a pair with exactly opposite Re b2 by bisection symmetry: at
        # zero quadrupole, mirror detunings about the central line cross zero
        e_mid = hf_energies(SPIN92, 0.0).e_mid
        d_alpha, d_beta = e_mid + 1.0, e_mid - 1.0
        b2a = b_coefficients(SPIN92, 0.0, d_alpha).c2.real
        b2b = b_coefficients(SPIN92, 0.0, d_beta).c2.real
        w_alpha, w_beta = solve_tensor_cancellation(d_alpha, d_beta, SPIN92, 0.0)
        assert w_alpha == pytest.approx(abs(b2b) / (abs(b2a) + abs(b2b)), rel=1e-15)
        assert w_alpha + w_beta == pytest.approx(1.0, abs=1e-15)

    def test_same_sign_rejected(self):
        with pytest.raises(CancellationInfeasibleError):
            solve_tensor_cancellation(5.5, 6.0, SPIN92, GAMMA)

    @pytest.mark.parametrize("delta_alpha, delta_beta", [(1e200, 1.0), (1.0, -1e200)])
    def test_non_finite_b_set_raises(self, delta_alpha, delta_beta):
        with pytest.raises(NonFiniteResultError):
            solve_tensor_cancellation(delta_alpha, delta_beta, SPIN92, GAMMA)

    def test_reference_configuration(self):
        e_mid = hf_energies(SPIN92, GAMMA).e_mid
        w_alpha, w_beta = solve_tensor_cancellation(
            e_mid + 3.0, e_mid - 3.0, SPIN92, GAMMA, 3e-5
        )
        assert 0.0 < w_alpha < 1.0 and 0.0 < w_beta < 1.0
        spec = BichromaticSpec(e_mid + 3.0, e_mid - 3.0, w_alpha, w_beta, 3e-5)
        combined = combined_coefficients(spec, SPIN92, GAMMA)
        assert abs(combined.c2.real) <= 1e-12
        assert combined.c1.real != 0.0


class TestAdditivity:
    def test_operator_level_additivity(self):
        # the combined-coefficient Hamiltonian is the sum of the two
        # weighted single-field Hamiltonians for the same geometry
        ops = make_spin_operators(SPIN92)
        e_mid = hf_energies(SPIN92, GAMMA).e_mid
        d_alpha, d_beta = e_mid + 2.5, e_mid - 2.5
        w_alpha, w_beta = solve_tensor_cancellation(d_alpha, d_beta, SPIN92, GAMMA, 3e-5)
        spec = BichromaticSpec(d_alpha, d_beta, w_alpha, w_beta, 3e-5)
        combined = combined_coefficients(spec, SPIN92, GAMMA)
        rng = np.random.default_rng(3)
        e = rng.normal(size=3) + 1j * rng.normal(size=3)
        h_sum = assemble_heff(combined, e, ops).matrix
        b_alpha = b_coefficients(SPIN92, GAMMA, ComplexDetuning.of(d_alpha, 3e-5))
        b_beta = b_coefficients(SPIN92, GAMMA, ComplexDetuning.of(d_beta, 3e-5))
        h_parts = (
            assemble_heff(b_alpha, math.sqrt(w_alpha) * e, ops).matrix
            + assemble_heff(b_beta, math.sqrt(w_beta) * e, ops).matrix
        )
        assert np.abs(h_sum - h_parts).max() <= 1e-13 * max(1.0, np.abs(h_sum).max())


class TestMeritScan:
    def test_feasible_rows_solve_cancellation(self):
        rows = merit_scan(SPIN92, GAMMA, 3e-5, np.linspace(0.5, 5.0, 91))
        ok = [r for r in rows if r.status == "ok"]
        assert len(ok) > 50
        for row in ok:
            assert 0.0 < row.w_alpha < 1.0
            spec = BichromaticSpec(
                hf_energies(SPIN92, GAMMA).e_mid + row.delta_small,
                hf_energies(SPIN92, GAMMA).e_mid - row.delta_small,
                row.w_alpha, 1.0 - row.w_alpha, 3e-5,
            )
            assert abs(combined_coefficients(spec, SPIN92, GAMMA).c2.real) <= 1e-12

    def test_vector_shifts_add_with_same_sign(self):
        e_mid = hf_energies(SPIN92, GAMMA).e_mid
        rows = merit_scan(SPIN92, GAMMA, 3e-5, np.linspace(0.5, 5.0, 91))
        for row in rows:
            if row.status != "ok":
                continue
            b1a = b_coefficients(SPIN92, GAMMA,
                                 ComplexDetuning.of(e_mid + row.delta_small, 3e-5)).c1.real
            b1b = b_coefficients(SPIN92, GAMMA,
                                 ComplexDetuning.of(e_mid - row.delta_small, 3e-5)).c1.real
            assert b1a * b1b > 0.0

    def test_pole_hit_marks_row_infeasible(self):
        en = hf_energies(SPIN92, GAMMA)
        on_pole = en.e_upper - en.e_mid  # alpha detuning lands on the upper level
        rows = merit_scan(SPIN92, GAMMA, 3e-5, [on_pole])
        assert rows[0].status == "pole"
        assert math.isnan(rows[0].w_alpha)

    def test_same_sign_marks_row_infeasible(self):
        # far beyond the lower level both detunings see the same tensor sign
        rows = merit_scan(SPIN92, GAMMA, 3e-5, [4.9])
        assert rows[0].status == "same-sign"

    def test_doubled_linewidth_scales_loss_linearly(self):
        grid = [2.0, 3.0]
        base = merit_scan(SPIN92, GAMMA, 3e-5, grid)
        doubled = merit_scan(SPIN92, GAMMA, 6e-5, grid)
        for r1, r2 in zip(base, doubled):
            assert r2.im_b0_sum == pytest.approx(2.0 * r1.im_b0_sum, rel=1e-3)
            assert r2.ratio == pytest.approx(r1.ratio / 2.0, rel=1e-3)

    def test_rows_equal_per_point_solve_and_sum(self):
        # gamma = 0 puts the poles on the grid: imbalance 4.5 drives the beta
        # detuning onto the lower level, 5.5 the alpha detuning onto the upper one
        gamma_bar = 3e-5
        grid = np.linspace(0.25, 8.25, 2**5 + 1)
        e_mid = hf_energies(SPIN92, 0.0).e_mid
        nan = float("nan")
        want = []
        for small in grid:
            d_alpha, d_beta = e_mid + small, e_mid - small
            try:
                w_alpha, w_beta = solve_tensor_cancellation(d_alpha, d_beta, SPIN92, 0.0,
                                                            gamma_bar)
            except PoleProximityError:
                want.append((small, nan, nan, nan, nan, "pole"))
                continue
            except CancellationInfeasibleError:
                want.append((small, nan, nan, nan, nan, "same-sign"))
                continue
            spec = BichromaticSpec(d_alpha, d_beta, w_alpha, w_beta, gamma_bar)
            combined = combined_coefficients(spec, SPIN92, 0.0)
            re_b1, im_b0 = combined.c1.real, combined.c0.imag
            want.append((small, w_alpha, re_b1, im_b0, re_b1 / im_b0, "ok"))
        rows = merit_scan(SPIN92, 0.0, gamma_bar, grid)
        assert {r.status for r in rows} == {"ok", "pole", "same-sign"}

        def render(row):
            return [f"{v:.17g}" for v in row[:5]] + [row[5]]

        got = [(r.delta_small, r.w_alpha, r.re_b1_sum, r.im_b0_sum, r.ratio, r.status)
               for r in rows]
        assert [render(r) for r in got] == [render(r) for r in want]

    def test_rejects_nonpositive_imbalance(self):
        with pytest.raises(ValueError):
            merit_scan(SPIN92, GAMMA, 3e-5, [0.0])

    @pytest.mark.parametrize("grid", [[math.nan], [math.inf], [-math.inf], [1.0, math.nan, math.inf]])
    def test_rejects_non_finite_imbalance(self, grid):
        # nan <= 0 is False, so a sign test alone let these through as same-sign rows
        with pytest.raises(ValueError, match="positive and finite"):
            merit_scan(SPIN92, GAMMA, 3e-5, grid)

    def test_non_finite_b_columns_raise(self):
        # at gamma_bar = 1e200 every Re b2 is nan; (nan > 0) == (nan > 0) must not read as same-sign
        with pytest.raises(NonFiniteResultError, match="delta_small_bar = 0.5"):
            merit_scan(SPIN92, GAMMA, 1e200, [0.5, 1.0])

    def test_local_optimum_location(self):
        rows = merit_scan(SPIN92, GAMMA, 3e-5, np.linspace(0.5, 5.0, 91))
        peaks = local_ratio_optima(rows)
        assert peaks
        best = max(peaks, key=lambda k: abs(rows[k].ratio))
        assert 2.0 <= rows[best].delta_small <= 4.0
        assert 0.5e4 <= abs(rows[best].ratio) <= 2e4


class TestRephasing:
    def test_sr87_scale(self):
        # merged hyperfine constant of the 9/2 reference species
        a_hf = 2.0 * math.pi * (-260085e3 + 3.0 * -35667e3 / 144.0)
        length = rephasing_length(3.0 * abs(a_hf))
        assert length == pytest.approx(0.10, abs=0.01)

    def test_inverse_proportionality(self):
        assert rephasing_length(2.0e9) == pytest.approx(rephasing_length(1.0e9) / 2.0, rel=1e-15)

    def test_definition(self):
        assert rephasing_length(math.pi / 2.0, speed_of_light=1.0) == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rephasing_length(0.0)
