import math

import numpy as np
import pytest

from nucshift import (
    CoeffForm,
    ComplexDetuning,
    CounterPropCross,
    HalfInteger,
    HeffUnits,
    PerpendicularSoc,
    PolarizabilitySet,
    PoleProximityError,
    RawVector,
    SingleCircular,
    SingleLinear,
    a_coefficients,
    assemble_heff,
    b_coefficients,
    counterprop_components,
    field_at,
    ixy_operator,
    make_spin_operators,
    rotation_about_z,
    soc_components,
    soc_rotating_frame,
    to_b_form,
    tuned_delta_omega,
)

SPIN92 = HalfInteger(9)


class TestFieldAt:
    def test_single_linear_at_origin(self):
        e = field_at(SingleLinear(2.0, 1.0), (0.0, 0.0, 0.0))
        assert np.allclose(e, [0.0, 0.0, 2.0])

    def test_counterprop_at_eighth_wave(self):
        k = 3.0
        z = math.pi / (4.0 * k)
        e = field_at(CounterPropCross(1.0, k), (0.0, 0.0, z))
        expected = np.array([np.exp(1j * math.pi / 4), np.exp(-1j * math.pi / 4), 0.0])
        expected /= math.sqrt(2.0)
        assert np.allclose(e, expected, atol=1e-15)

    def test_perpendicular_at_origin(self):
        e = field_at(PerpendicularSoc(1.0, 1.0, 0.5), (0.0, 0.0, 0.0), time=0.0)
        assert np.allclose(e, [0.5, 0.5j, 1.0 / math.sqrt(2.0)], atol=1e-15)

    def test_circular_handedness(self):
        ep = field_at(SingleCircular(1.0, 1.0, +1), (0.0, 0.0, 0.0))
        em = field_at(SingleCircular(1.0, 1.0, -1), (0.0, 0.0, 0.0))
        assert np.allclose(ep, [1.0 / math.sqrt(2), 1j / math.sqrt(2), 0.0])
        assert np.allclose(em, [1.0 / math.sqrt(2), -1j / math.sqrt(2), 0.0])

    def test_raw_vector_passthrough(self):
        e = field_at(RawVector((1.0, 2j, -0.5)), (9.0, 9.0, 9.0), time=42.0)
        assert np.array_equal(e, np.array([1.0, 2j, -0.5]))

    def test_rejects_nonpositive_amplitude(self):
        with pytest.raises(ValueError):
            field_at(SingleLinear(0.0, 1.0), (0, 0, 0))
        # construction alone raises, before any field_at call
        for geometry in (SingleLinear, SingleCircular, CounterPropCross, PerpendicularSoc):
            with pytest.raises(ValueError, match="amplitude"):
                geometry(-1.0, 1.0)
            with pytest.raises(ValueError, match="wavenumber"):
                geometry(1.0, 0.0)

    def test_soc_time_dependence(self):
        cfg = PerpendicularSoc(1.0, 2.0, 0.3)
        e0 = field_at(cfg, (0.0, 1.0, 0.5), time=0.0)
        e1 = field_at(cfg, (0.0, 1.0, 0.5), time=2.0)
        assert e0[2] != e1[2]
        assert e0[0] == e1[0]


class TestAssembly:
    def test_single_linear_diagonal_eigenvalues(self):
        amp = 1.3
        ops = make_spin_operators(SPIN92)
        bset = b_coefficients(SPIN92, 0.0057, -0.5688)
        heff = assemble_heff(bset, [0.0, 0.0, amp], ops)
        off_diag = heff.matrix - np.diag(np.diag(heff.matrix))
        assert np.abs(off_diag).max() <= 1e-15
        ibar2 = SPIN92.value * (SPIN92.value + 1.0)
        for k, m in enumerate(ops.m_values()):
            want = amp**2 / 4.0 * (bset.c0 + 2.0 * bset.c2 * (m * m - ibar2 / 3.0))
            assert abs(heff.matrix[k, k] - want) <= 1e-13

    @pytest.mark.parametrize("handedness", [+1, -1])
    def test_single_circular_diagonal_eigenvalues(self, handedness):
        amp = 0.8
        spin = HalfInteger(3)
        ops = make_spin_operators(spin)
        bset = b_coefficients(spin, 0.0, 2.0)
        e = field_at(SingleCircular(amp, 1.0, handedness), (0.0, 0.0, 0.0))
        heff = assemble_heff(bset, e, ops)
        assert np.abs(heff.matrix - np.diag(np.diag(heff.matrix))).max() <= 1e-15
        ibar2 = spin.value * (spin.value + 1.0)
        for k, m in enumerate(ops.m_values()):
            want = amp**2 / 4.0 * (
                bset.c0 - handedness * bset.c1 * m - bset.c2 * (m * m - ibar2 / 3.0)
            )
            assert abs(heff.matrix[k, k] - want) <= 1e-13

    def test_scalar_only_a_form_is_identity(self):
        ops = make_spin_operators(SPIN92)
        aset = PolarizabilitySet(CoeffForm.A_FORM, 2.0, 0.0, 0.0)
        e = np.array([0.3, 0.4j, 0.5])
        heff = assemble_heff(aset, e, ops)
        want = 2.0 / 4.0 * np.vdot(e, e) * np.eye(ops.dimension)
        assert np.abs(heff.matrix - want).max() <= 1e-15

    @pytest.mark.parametrize("twice", [1, 3, 5, 9])
    def test_a_form_equals_b_form(self, twice):
        spin = HalfInteger(twice)
        ops = make_spin_operators(spin)
        rng = np.random.default_rng(twice)
        aset = a_coefficients(spin, 0.0057 if twice > 1 else 0.0, 1.9)
        bset = to_b_form(aset, spin)
        for _ in range(5):
            e = rng.normal(size=3) + 1j * rng.normal(size=3)
            ha = assemble_heff(aset, e, ops).matrix
            hb = assemble_heff(bset, e, ops).matrix
            assert np.abs(ha - hb).max() <= 1e-13 * max(1.0, np.abs(ha).max())

    def test_parts_sum_and_tracelessness(self):
        ops = make_spin_operators(SPIN92)
        rng = np.random.default_rng(5)
        e = rng.normal(size=3) + 1j * rng.normal(size=3)
        bset = b_coefficients(SPIN92, 0.0057, -2.3)
        heff = assemble_heff(bset, e, ops)
        total = heff.parts.scalar + heff.parts.vector + heff.parts.tensor
        assert np.abs(heff.matrix - total).max() <= 1e-13
        assert abs(np.trace(heff.parts.vector)) <= 1e-13
        assert abs(np.trace(heff.parts.tensor)) <= 1e-13
        aset = a_coefficients(SPIN92, 0.0057, -2.3)
        heff_a = assemble_heff(aset, e, ops)
        total_a = heff_a.parts.scalar + heff_a.parts.vector + heff_a.parts.tensor
        assert np.abs(heff_a.matrix - total_a).max() <= 1e-13

    def test_hermitian_without_losses(self):
        ops = make_spin_operators(SPIN92)
        rng = np.random.default_rng(9)
        e = rng.normal(size=3) + 1j * rng.normal(size=3)
        h = assemble_heff(b_coefficients(SPIN92, 0.0057, -2.3), e, ops).matrix
        assert np.abs(h - h.conj().T).max() <= 1e-13

    def test_loss_part_sign_definite_for_single_beams(self):
        # dimensionless core: Im b0 > 0, so single-beam eigenvalue imaginary
        # parts share one sign; the physical scale for a negative hyperfine
        # constant flips them to decaying
        ops = make_spin_operators(SPIN92)
        bset = b_coefficients(SPIN92, 0.0, ComplexDetuning.of(2.0, 3e-5))
        for cfg in (SingleLinear(1.0, 1.0), SingleCircular(1.0, 1.0, +1)):
            e = field_at(cfg, (0.0, 0.0, 0.0))
            h = assemble_heff(bset, e, ops).matrix
            anti = (h - h.conj().T) / 2.0
            assert np.abs(anti).max() > 0.0
            imags = np.diag(h).imag
            assert np.all(imags > 0.0)

    def test_units_tag(self):
        ops = make_spin_operators(SPIN92)
        bset = b_coefficients(SPIN92, 0.0, 2.0)
        assert assemble_heff(bset, [0, 0, 1.0], ops).units is HeffUnits.DIMENSIONLESS

    def test_rejects_bad_vector(self):
        ops = make_spin_operators(SPIN92)
        with pytest.raises(ValueError):
            assemble_heff(b_coefficients(SPIN92, 0.0, 2.0), [0.0, 1.0], ops)


class TestCounterPropagating:
    def setup_method(self):
        self.ops = make_spin_operators(SPIN92)
        self.bset = b_coefficients(SPIN92, 0.0057, -0.3)
        self.amp = 1.1
        self.k = 2.0

    def test_vector_part_vanishes_at_origin(self):
        parts = counterprop_components(self.bset, self.amp, self.k, 0.0, self.ops)
        assert np.abs(parts.h1).max() == 0.0

    def test_rotated_equals_lab_frame(self):
        rng = np.random.default_rng(20)
        for z in rng.uniform(-3.0, 3.0, size=20):
            parts = counterprop_components(self.bset, self.amp, self.k, z, self.ops)
            assert np.abs(parts.h2 - parts.h2_lab).max() <= 1e-13

    def test_quarter_period_closed_form(self):
        z = math.pi / (4.0 * self.k)
        parts = counterprop_components(self.bset, self.amp, self.k, z, self.ops)
        i_sq = self.ops.total_squared()
        want = self.bset.c2 * self.amp**2 / 2.0 * (i_sq / 6.0 - (self.ops.iz @ self.ops.iz) / 2.0)
        assert np.abs(parts.h2 - want).max() <= 1e-13

    def test_components_match_direct_assembly(self):
        for z in (0.17, -0.6):
            e = field_at(CounterPropCross(self.amp, self.k), (0.0, 0.0, z))
            heff = assemble_heff(self.bset, e, self.ops)
            parts = counterprop_components(self.bset, self.amp, self.k, z, self.ops)
            assert np.abs(heff.parts.scalar - parts.h0).max() <= 1e-13
            assert np.abs(heff.parts.vector - parts.h1).max() <= 1e-13
            assert np.abs(heff.parts.tensor - parts.h2).max() <= 1e-13


class TestSpinOrbitCoupling:
    def setup_method(self):
        self.spin = HalfInteger(3)
        self.ops = make_spin_operators(self.spin)
        self.bset = b_coefficients(self.spin, 0.0, 2.4)
        self.amp = 1.0
        self.k = 1.7
        self.delta_omega = 0.05

    def test_ixy_at_zero_phase(self):
        assert np.array_equal(ixy_operator(self.ops, 0.0), self.ops.ix.real + 0j * self.ops.ix)

    def test_ladder_form_relation(self):
        # I+ e^{is} + I- e^{-is} equals twice the winding operator at -s
        raising = self.ops.ix + 1j * self.ops.iy
        lowering = self.ops.ix - 1j * self.ops.iy
        for s in (0.3, 1.2, -2.0):
            ladder = raising * np.exp(1j * s) + lowering * np.exp(-1j * s)
            assert np.abs(ladder - 2.0 * ixy_operator(self.ops, -s)).max() <= 1e-14

    def test_vector_part_at_zero_phase(self):
        h1, _ = soc_components(self.bset, self.amp, self.k, 0.0, (0.0, 0.0, 0.0), 0.0, self.ops)
        want = -(self.amp**2 / 8.0) * self.bset.c1 * (
            self.ops.iz - math.sqrt(2.0) * self.ops.ix
        )
        assert np.abs(h1 - want).max() <= 1e-14

    def test_components_match_direct_assembly(self):
        position = (0.0, 0.4, -0.9)
        time = 1.3
        e = field_at(PerpendicularSoc(self.amp, self.k, self.delta_omega), position, time)
        heff = assemble_heff(self.bset, e, self.ops)
        h1, h2 = soc_components(
            self.bset, self.amp, self.k, self.delta_omega, position, time, self.ops
        )
        assert np.abs(heff.parts.vector - h1).max() <= 1e-13
        assert np.abs(heff.parts.tensor - h2).max() <= 1e-13

    def test_rotating_frame_is_static(self):
        position = (0.0, 0.7, 0.2)
        h1s, h2s = soc_rotating_frame(
            self.bset, self.amp, self.k, self.delta_omega, position, self.ops
        )
        static = h1s + h2s
        rng = np.random.default_rng(31)
        for t in rng.uniform(0.0, 50.0, size=10):
            h1, h2 = soc_components(
                self.bset, self.amp, self.k, self.delta_omega, position, t, self.ops
            )
            u = rotation_about_z(self.ops, self.delta_omega * t)
            conjugated = u @ (h1 + h2) @ u.conj().T + self.delta_omega * self.ops.iz
            assert np.abs(conjugated - static).max() <= 1e-12

    def test_rotating_frame_equals_explicit_formula(self):
        def explicit(b, amplitude, k, delta_omega, position, ops):
            _, y, z = position
            s0 = k * y - k * z
            amp_sq = amplitude * amplitude
            ixy = ixy_operator(ops, s0)
            h1 = -(amp_sq / 8.0) * b.c1 * (ops.iz - math.sqrt(2.0) * ixy) + delta_omega * ops.iz
            anticomm = ixy @ ops.iz + ops.iz @ ixy
            h2 = (amp_sq / 4.0) * b.c2 * (
                -ops.total_squared() / 6.0 + (ops.iz @ ops.iz) / 2.0 + anticomm / math.sqrt(2.0)
            )
            return h1, h2

        rng = np.random.default_rng(5)
        for twice in (1, 3, 9, 21):
            ops = make_spin_operators(HalfInteger(twice))
            for _ in range(20):
                delta = rng.uniform(-12.0, 12.0)
                bset = b_coefficients(HalfInteger(twice), rng.uniform(0.0, 0.01),
                                      ComplexDetuning.of(delta, rng.choice((0.0, 1e-4))))
                args = (bset, rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0),
                        rng.uniform(-0.5, 0.5), tuple(rng.uniform(-5.0, 5.0, size=3)), ops)
                for got, want in zip(soc_rotating_frame(*args), explicit(*args)):
                    assert np.array_equal(got, want)

    def test_tuned_offset_removes_uniform_vector_shift(self):
        tuned = tuned_delta_omega(self.bset, self.amp)
        h1s, _ = soc_rotating_frame(self.bset, self.amp, self.k, tuned, (0.0, 0.3, 0.8), self.ops)
        iz = self.ops.iz
        projection = np.trace(iz.conj().T @ h1s) / np.trace(iz.conj().T @ iz)
        assert abs(projection) <= 1e-13
        # what remains is the pure winding term
        s0 = self.k * 0.3 - self.k * 0.8
        want = self.amp**2 * self.bset.c1 / (4.0 * math.sqrt(2.0)) * ixy_operator(self.ops, s0)
        assert np.abs(h1s - want).max() <= 1e-13

    def test_gauge_transform_unwinds_position_dependence(self):
        rng = np.random.default_rng(17)
        for y, z in rng.uniform(-2.0, 2.0, size=(10, 2)):
            s0 = self.k * y - self.k * z
            u1 = rotation_about_z(self.ops, -s0)  # exp(-i(kz-ky)Iz)
            unwound = u1 @ ixy_operator(self.ops, s0) @ u1.conj().T
            assert np.abs(unwound - self.ops.ix).max() <= 1e-12


def _reference_b_parts(b, e, ops):
    # the expressions assemble_heff used before the spin-only products were
    # cached and the field terms shared: np.cross, I^2 rebuilt on each call
    eye = np.eye(ops.dimension, dtype=complex)
    e_conj = e.conj()
    intensity = complex(e_conj @ e)
    cross = np.cross(e_conj, e)
    e_dot_i = sum(ec * op for ec, op in zip(e, ops.vector()))
    econj_dot_i = sum(ec * op for ec, op in zip(e_conj, ops.vector()))
    i_sq = ops.ix @ ops.ix + ops.iy @ ops.iy + ops.iz @ ops.iz
    scalar = (b.c0 / 4.0) * intensity * eye
    vector = (1j * b.c1 / 4.0) * sum(c * op for c, op in zip(cross, ops.vector()))
    tensor = (b.c2 / 4.0) * (
        econj_dot_i @ e_dot_i + e_dot_i @ econj_dot_i - (2.0 / 3.0) * intensity * i_sq
    )
    return scalar, vector, tensor


def _reference_heff(coeffs, e, ops):
    if coeffs.form is CoeffForm.B_FORM:
        parts = _reference_b_parts(coeffs, e, ops)
        return parts[0] + parts[1] + parts[2], parts
    # the a-form branch wrote out its own copy of the field terms
    eye = np.eye(ops.dimension, dtype=complex)
    e_conj = e.conj()
    intensity = complex(e_conj @ e)
    cross = np.cross(e_conj, e)
    e_dot_i = sum(ec * op for ec, op in zip(e, ops.vector()))
    econj_dot_i = sum(ec * op for ec, op in zip(e_conj, ops.vector()))
    matrix = (
        (coeffs.c0 / 4.0) * intensity * eye
        + (1j * coeffs.c1 / 4.0) * sum(c * op for c, op in zip(cross, ops.vector()))
        + (coeffs.c2 / 4.0) * (econj_dot_i @ e_dot_i)
    )
    return matrix, _reference_b_parts(to_b_form(coeffs, ops.spin), e, ops)


def _reference_counterprop(b, amplitude, k, z, ops):
    eye = np.eye(ops.dimension, dtype=complex)
    amp_sq = amplitude * amplitude
    i_sq = ops.ix @ ops.ix + ops.iy @ ops.iy + ops.iz @ ops.iz
    h0 = (amp_sq / 4.0) * b.c0 * eye
    h1 = (amp_sq / 4.0) * b.c1 * math.sin(2.0 * k * z) * ops.iz
    ix_rot = (ops.ix - ops.iy) / math.sqrt(2.0)
    iy_rot = (ops.ix + ops.iy) / math.sqrt(2.0)
    cos_kz = math.cos(k * z)
    sin_kz = math.sin(k * z)
    h2 = 0.5 * b.c2 * amp_sq * (
        cos_kz**2 * (iy_rot @ iy_rot) + sin_kz**2 * (ix_rot @ ix_rot) - i_sq / 3.0
    )
    anticomm = ops.ix @ ops.iy + ops.iy @ ops.ix
    h2_lab = 0.5 * b.c2 * amp_sq * (
        i_sq / 6.0 - (ops.iz @ ops.iz) / 2.0 + 0.5 * math.cos(2.0 * k * z) * anticomm
    )
    return h0, h1, h2, h2_lab


def _reference_soc(b, amplitude, k, delta_omega, position, time, ops):
    _, y, z = (float(c) for c in position)
    s = k * y - k * z - delta_omega * time
    amp_sq = amplitude * amplitude
    ixy = ixy_operator(ops, s)
    h1 = -(amp_sq / 8.0) * b.c1 * (ops.iz - math.sqrt(2.0) * ixy)
    anticomm = ixy @ ops.iz + ops.iz @ ixy
    i_sq = ops.ix @ ops.ix + ops.iy @ ops.iy + ops.iz @ ops.iz
    h2 = -(amp_sq / 4.0) * b.c2 * (
        i_sq / 6.0 - (ops.iz @ ops.iz) / 2.0 - anticomm / math.sqrt(2.0)
    )
    return h1, h2


def assert_same_bits(got, want):
    got, want = got.view(float), want.view(float)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # array_equal has -0.0 == 0.0


class TestBitIdentityWithReference:
    # Fields with exact zeros, signed zeros among them, make the sign of zero
    # in the cross product and the operator sums part of the comparison.
    ZERO_FIELDS = [
        [0.0, 0.0, 1.3],
        [0.0, -0.0, 1.3 + 0.0j],
        [complex(-0.0, 0.0), 0.2, 0.0],
        [0.7, 0.7j, 0.0],
        [complex(0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, 0.0)],
    ]

    @pytest.mark.parametrize("twice", [1, 3, 9, 21])
    @pytest.mark.parametrize("gamma_bar", [0.0, 1e-4])
    def test_assembly_matches_previous_expressions(self, twice, gamma_bar):
        spin = HalfInteger(twice)
        ops = make_spin_operators(spin)
        rng = np.random.default_rng(twice)
        fields = [np.array(f, dtype=complex) for f in self.ZERO_FIELDS]
        for _ in range(10):
            e = rng.normal(size=3) + 1j * rng.normal(size=3)
            e[rng.integers(3)] = 0.0
            fields += [e, rng.normal(size=3) + 1j * rng.normal(size=3)]
        for e in fields:
            delta = rng.uniform(-12.0, 12.0)
            gamma = rng.uniform(0.0, 0.01) if twice > 1 else 0.0
            det = ComplexDetuning.of(delta, gamma_bar)
            try:
                sets = (b_coefficients(spin, gamma, det), a_coefficients(spin, gamma, det))
            except PoleProximityError:
                continue
            for coeffs in sets:
                heff = assemble_heff(coeffs, e, ops)
                matrix, parts = _reference_heff(coeffs, e, ops)
                assert_same_bits(heff.matrix, matrix)
                for got, want in zip(heff.parts, parts):
                    assert_same_bits(got, want)
            bset = sets[0]
            amp, k, d_omega = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0), rng.uniform(-0.5, 0.5)
            position, time = tuple(rng.uniform(-5.0, 5.0, size=3)), rng.uniform(0.0, 50.0)
            for got, want in zip(counterprop_components(bset, amp, k, position[2], ops),
                                 _reference_counterprop(bset, amp, k, position[2], ops)):
                assert_same_bits(got, want)
            for got, want in zip(soc_components(bset, amp, k, d_omega, position, time, ops),
                                 _reference_soc(bset, amp, k, d_omega, position, time, ops)):
                assert_same_bits(got, want)
            h1, h2 = _reference_soc(bset, amp, k, d_omega, position, 0.0, ops)
            for got, want in zip(soc_rotating_frame(bset, amp, k, d_omega, position, ops),
                                 (h1 + d_omega * ops.iz, h2)):
                assert_same_bits(got, want)
