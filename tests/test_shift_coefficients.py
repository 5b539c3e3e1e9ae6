import math

import numpy as np
import pytest

from nucshift import (
    AtomParams,
    CoeffForm,
    ComplexDetuning,
    HalfInteger,
    PoleProximityError,
    a_coefficients,
    asymptotic_b,
    b_coefficients,
    extract_b_from_d,
    hf_energies,
    im_b_first_order,
    loss_ratio_limit,
    make_spin_operators,
    offpole_grid,
    oracle_d_tensor,
    oracle_vs_analytic_deviation,
    physical_b,
    to_b_form,
)

TWO_PI = 2.0 * math.pi
SPIN92 = HalfInteger(9)


def solved_a_forms(d, e_lo, e_mid, e_up, gamma, ibar2):
    """The solved-linear-system form of the a coefficients, written independently.

    a0 = (d + 1 - g(i(i+1)+1)) / [(d-e+)(d-e-)]
    a1 = -(1-g) / [(d-e+)(d-e-)]
    a2 = -[1 + g(d-2) - g^2(i(i+1)-1)] / [(d-e+)(d-em)(d-e-)]

    Its literals are ints, so it evaluates on floats and exactly on symbols.
    """
    two = (d - e_up) * (d - e_lo)
    three = two * (d - e_mid)
    a0 = (d + 1 - gamma * (ibar2 + 1)) / two
    a1 = -(1 - gamma) / two
    a2 = -(1 + gamma * (d - 2) - gamma**2 * (ibar2 - 1)) / three
    return a0, a1, a2


def direct_a_forms(spin, gamma, d):
    """solved_a_forms at the levels of hf_energies."""
    ibar2 = spin.value * (spin.value + 1.0)
    return np.array(solved_a_forms(d, *hf_energies(spin, gamma).as_tuple(), gamma, ibar2),
                    dtype=complex)


class TestComplexDetuning:
    def test_of(self):
        det = ComplexDetuning.of(-0.5, 3e-5)
        assert det.value == complex(-0.5, -3e-5)
        assert det.delta_bar == -0.5
        assert det.gamma_bar == 3e-5

    def test_rejects_negative_gamma_bar(self):
        with pytest.raises(ValueError):
            ComplexDetuning.of(1.0, -1e-6)

    def test_rejects_inconsistent_imaginary_part(self):
        with pytest.raises(ValueError):
            ComplexDetuning(value=complex(1.0, -2e-5), gamma_bar=3e-5)

    @pytest.mark.parametrize("make, message", [
        (lambda: ComplexDetuning.of(1.0, math.nan), "gamma_bar must be finite, got nan"),
        (lambda: ComplexDetuning.of(1.0, math.inf), "gamma_bar must be finite, got inf"),
        (lambda: ComplexDetuning.of(math.nan), "Re(value) must be finite, got nan"),
        (lambda: ComplexDetuning.of(-math.inf, 1e-3), "Re(value) must be finite, got -inf"),
        (lambda: ComplexDetuning(complex(1.0, math.nan)), "Im(value) must be finite, got nan"),
        (lambda: ComplexDetuning(complex(1.0, -math.inf), math.inf),
         "gamma_bar must be finite, got inf"),
        (lambda: ComplexDetuning.of(1.0, -1e-6), "gamma_bar must be non-negative, got -1e-06"),
        (lambda: b_coefficients(SPIN92, 0.0, math.nan), "Re(value) must be finite, got nan"),
        (lambda: a_coefficients(SPIN92, 0.0, math.inf), "Re(value) must be finite, got inf"),
        (lambda: oracle_d_tensor(SPIN92, 0.0, math.nan), "Re(value) must be finite, got nan"),
        (lambda: oracle_vs_analytic_deviation(SPIN92, 0.0, [1.0], math.inf),
         "gamma_bar must be finite, got inf"),
        (lambda: oracle_vs_analytic_deviation(SPIN92, 0.0, [1.0], math.nan),
         "gamma_bar must be finite, got nan"),
    ])
    def test_rejects_non_finite_input(self, make, message):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message


class TestACoefficients:
    def test_matches_direct_solved_forms(self):
        # two printed forms of the same solution agree to rounding
        got = a_coefficients(SPIN92, 0.0057, -0.5637).as_array()
        want = direct_a_forms(SPIN92, 0.0057, -0.5637)
        assert np.all(np.abs(got - want) / np.abs(want) <= 1e-14)

    def test_leading_asymptotics(self):
        a0 = a_coefficients(SPIN92, 0.0, 1e8).c0
        assert a0 * 1e8 == pytest.approx(1.0, rel=1e-7)

    def test_cross_check_against_summation_oracle(self):
        det = -0.5637
        aset = a_coefficients(SPIN92, 0.0057, det)
        ops = make_spin_operators(SPIN92)
        reference, _ = extract_b_from_d(oracle_d_tensor(SPIN92, 0.0057, det), ops)
        mapped = to_b_form(aset, SPIN92)
        rel = np.abs(mapped.as_array() - reference.as_array()) / np.abs(reference.as_array())
        assert rel.max() <= 1e-12


class TestBCoefficients:
    def test_reference_point_values(self):
        en = hf_energies(SPIN92, 0.0057)
        d = sum(en.as_tuple()) / 3.0
        assert d == pytest.approx(-0.5688, abs=1e-4)
        bset = b_coefficients(SPIN92, 0.0057, d)
        assert bset.c0.real == pytest.approx(0.76, abs=0.01)
        assert bset.c1.real == pytest.approx(0.09, abs=0.01)
        assert bset.c2.real == pytest.approx(0.05, abs=0.01)

    @pytest.mark.parametrize("d", [-6.5, -2.0, -1.5, 0.3, 2.2, 5.5])
    def test_ratio_law_without_quadrupole(self, d):
        bset = b_coefficients(SPIN92, 0.0, d)
        if bset.c2 != 0:
            assert abs(bset.c1 / bset.c2 - (2.0 * d + 3.0)) <= 1e-12

    def test_vector_zero_crossing(self):
        assert b_coefficients(SPIN92, 0.0, -1.5).c1 == 0.0

    @pytest.mark.parametrize("twice", [3, 5, 7, 9])
    @pytest.mark.parametrize("gamma", [0.0, 0.0057])
    def test_b_equals_mapped_a(self, twice, gamma):
        # relative to the triple magnitude: a per-component measure is ill-posed
        # at the isolated zero crossings of individual coefficients
        spin = HalfInteger(twice)
        for d in offpole_grid(spin, gamma):
            direct = b_coefficients(spin, gamma, d).as_array()
            mapped = to_b_form(a_coefficients(spin, gamma, d), spin).as_array()
            scale = max(np.abs(direct).max(), np.abs(mapped).max())
            assert np.abs(direct - mapped).max() <= 1e-14 * scale

    def test_reality_without_losses(self):
        for d in offpole_grid(SPIN92, 0.0057):
            arr = b_coefficients(SPIN92, 0.0057, d).as_array()
            assert np.all(arr.imag == 0.0)

    def test_tensor_diverges_at_poles(self):
        en = hf_energies(SPIN92, 0.0057)
        for pole in en.as_tuple():
            b2 = b_coefficients(SPIN92, 0.0057, pole + 1e-6).c2
            assert abs(b2) > 1e3

    def test_residues_match_printed_rational_functions(self):
        # numeric residues by two-sided Richardson extrapolation of eps*b(p+eps)
        gamma = 0.0057
        en = hf_energies(SPIN92, gamma)
        e_lo, e_mid, e_up = en.as_tuple()
        ibar2 = SPIN92.value * (SPIN92.value + 1.0)

        def numerators(d):
            e_plus = (e_up + e_mid + e_lo) / 2.0 - d
            e_minus = (e_up - e_mid + e_lo) / 2.0 - d
            tn = gamma * e_minus - e_mid**2
            return np.array([
                (-3.0 * e_plus * (d - e_mid) + ibar2 * tn) / 3.0,
                (2.0 * e_mid * (d - e_mid) + tn) / 2.0,
                tn / 2.0,
            ])

        poles = (e_lo, e_mid, e_up)
        for pole in poles:
            others = [p for p in poles if p != pole]
            analytic = numerators(pole) / np.prod([pole - p for p in others])

            def avg(eps):
                up = eps * b_coefficients(SPIN92, gamma, pole + eps).as_array()
                dn = -eps * b_coefficients(SPIN92, gamma, pole - eps).as_array()
                return (up + dn) / 2.0

            eps = 1e-3
            numeric = (4.0 * avg(eps / 2.0) - avg(eps)) / 3.0
            assert np.abs(numeric - analytic).max() <= 1e-10


class TestLossModel:
    @pytest.mark.parametrize("d", [-8.0, -3.0, 0.0, 2.0, 6.0])
    def test_first_order_matches_complex_path(self, d):
        gamma_bar = 1e-6
        approx = np.array(im_b_first_order(SPIN92, d, gamma_bar))
        full = b_coefficients(SPIN92, 0.0, ComplexDetuning.of(d, gamma_bar)).as_array().imag
        assert np.all(np.abs(approx - full) <= 1e-4 * np.abs(full))

    def test_first_order_at_stated_point(self):
        approx = np.array(im_b_first_order(SPIN92, 10.0, 1e-6))
        full = b_coefficients(SPIN92, 0.0, ComplexDetuning.of(10.0, 1e-6)).as_array().imag
        assert np.all(np.abs(approx - full) / np.abs(full) <= 1e-4)

    def test_scalar_loss_far_detuned_limit(self):
        gamma_bar = 1e-9
        d = 1e6
        im0 = im_b_first_order(SPIN92, d, gamma_bar)[0]
        assert im0 == pytest.approx(gamma_bar / d**2, rel=1e-4)

    @pytest.mark.parametrize("d", [-8.0, -3.0, 0.0, 2.0, 6.0])
    def test_scalar_loss_positive(self, d):
        gamma_bar = 3e-5
        full = b_coefficients(SPIN92, 0.0, ComplexDetuning.of(d, gamma_bar))
        assert full.c0.imag > 0.0
        # positively-weighted sum over states: the summation oracle agrees
        ops = make_spin_operators(SPIN92)
        oracle, _ = extract_b_from_d(
            oracle_d_tensor(SPIN92, 0.0, ComplexDetuning.of(d, gamma_bar)), ops
        )
        assert oracle.c0.imag > 0.0

    def test_pole_guard_restricted_to_lossless(self):
        with pytest.raises(PoleProximityError):
            im_b_first_order(SPIN92, -1.0 + 1e-10, 1e-6)

    def test_limit_law(self):
        gamma_bar = 3e-5
        bset = b_coefficients(SPIN92, 0.0, ComplexDetuning.of(1e4, gamma_bar))
        ratio = abs(bset.c0.imag / bset.c1.real)
        assert ratio == pytest.approx(gamma_bar, rel=1e-3)

    def test_loss_ratio_limit_sr87(self):
        params = AtomParams(SPIN92, TWO_PI * -260085e3, TWO_PI * -35667e3, 0.0, 1.0)
        a_hf = params.ahf_prime + 3.0 * params.bhf / 144.0
        params = AtomParams(SPIN92, params.ahf_prime, params.bhf, 3e-5 * abs(a_hf), 1.0)
        assert loss_ratio_limit(params) == pytest.approx(3e-5, rel=1e-12)

    def test_loss_ratio_limit_yb171(self):
        # 556 nm line: A'/2pi = 3957.875 MHz, lifetime 872 ns -> Gamma/2pi = 182.5 kHz
        params = AtomParams(HalfInteger(1), TWO_PI * 3957.875e6, 0.0, TWO_PI * 182.5e3, 1.0)
        assert loss_ratio_limit(params) == pytest.approx(5e-5, abs=1e-5)

    def test_loss_ratio_limit_zero_linewidth(self):
        params = AtomParams(SPIN92, TWO_PI * -260085e3, TWO_PI * -35667e3, 0.0, 1.0)
        assert loss_ratio_limit(params) == 0.0


class TestAsymptoticSeries:
    def test_against_exact_at_moderate_detuning(self):
        d = 100.0
        series = asymptotic_b(SPIN92, 0.0, d).as_array().real
        exact = b_coefficients(SPIN92, 0.0, d).as_array().real
        rel = np.abs(series - exact) / np.abs(exact)
        # truncation error is one inverse power of the detuning per coefficient order
        assert rel[0] <= 1e-5
        assert rel[1] <= 1e-2
        assert rel[2] <= 5e-2

    def test_scalar_series_terms(self):
        d = 100.0
        ibar2 = 24.75
        b0 = asymptotic_b(SPIN92, 0.0, d).c0.real
        assert b0 == pytest.approx(1.0 / d + (2.0 / 3.0) * ibar2 / d**3, rel=1e-15)

    def test_no_quadratic_tensor_term_without_quadrupole(self):
        d = 50.0
        b2 = asymptotic_b(SPIN92, 0.0, d).c2.real
        assert b2 == pytest.approx(-0.5 / d**3, rel=1e-15)

    def test_tensor_crossover_to_quadrupole_decay(self):
        # beyond 1/gamma the quadratic term dominates the cubic one
        gamma = 0.0057
        d = 2e4
        b2 = b_coefficients(SPIN92, gamma, d).c2.real
        assert b2 == pytest.approx(-gamma / 2.0 / d**2, rel=5e-3)
        quadratic = abs(gamma / 2.0 / d**2)
        cubic = abs(0.5 / d**3)
        assert quadratic > 10 * cubic

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            asymptotic_b(SPIN92, 0.0, 5.0)


class TestPhysicalScaling:
    def test_negative_a_hf_flips_sign(self):
        params = AtomParams(SPIN92, TWO_PI * -260085e3, TWO_PI * -35667e3, 0.0, 1.0)
        from nucshift import PolarizabilitySet

        unit = PolarizabilitySet(CoeffForm.B_FORM, 1.0, 1.0, 1.0)
        dim = physical_b(unit, params)
        assert dim.dimensional
        assert dim.c0.real < 0.0

    def test_round_trip(self):
        params = AtomParams(SPIN92, TWO_PI * -260085e3, TWO_PI * -35667e3, 0.0, 2.5)
        from nucshift import derive_constants

        bset = b_coefficients(SPIN92, 0.0057, -0.5688)
        dim = physical_b(bset, params)
        scale = params.dge_sq / derive_constants(params).a_hf
        back = dim.as_array() / scale
        assert np.abs(back - bset.as_array()).max() <= 1e-15 * np.abs(bset.as_array()).max()

    def test_scale_is_definitional(self):
        params = AtomParams(SPIN92, TWO_PI * -260085e3, TWO_PI * -35667e3, 0.0, 1.0)
        from nucshift import PolarizabilitySet, derive_constants

        pset = PolarizabilitySet(CoeffForm.B_FORM, 0.76, 0.0, 0.0)
        dim = physical_b(pset, params)
        assert dim.c0 == 0.76 * params.dge_sq / derive_constants(params).a_hf

    def test_rejects_double_scaling(self):
        params = AtomParams(SPIN92, TWO_PI * -260085e3, TWO_PI * -35667e3, 0.0, 1.0)
        dim = physical_b(b_coefficients(SPIN92, 0.0, 2.0), params)
        with pytest.raises(ValueError):
            physical_b(dim, params)


class TestPoleGuard:
    def test_raises_on_pole_when_lossless(self):
        en = hf_energies(SPIN92, 0.0)
        with pytest.raises(PoleProximityError):
            b_coefficients(SPIN92, 0.0, en.e_mid + 5e-10)
        with pytest.raises(PoleProximityError):
            a_coefficients(SPIN92, 0.0, en.e_upper - 5e-10)

    def test_tolerates_pole_with_losses(self):
        en = hf_energies(SPIN92, 0.0)
        det = ComplexDetuning.of(en.e_mid, 3e-5)
        bset = b_coefficients(SPIN92, 0.0, det)
        assert np.all(np.isfinite(bset.as_array()))

    def test_formal_lower_pole_guarded_for_spin_half(self):
        with pytest.raises(PoleProximityError):
            b_coefficients(HalfInteger(1), 0.0, -1.5 + 1e-10)


class TestOffpoleGrid:
    def test_clearance_and_size(self):
        grid = offpole_grid(SPIN92, 0.0057)
        assert len(grid) == 200
        assert grid.min() >= -8.0 and grid.max() <= 6.0
        en = hf_energies(SPIN92, 0.0057)
        for e in en.as_tuple():
            assert np.abs(grid - e).min() >= 0.05
        assert np.all(np.diff(grid) > 0)
