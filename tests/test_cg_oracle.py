from contextlib import nullcontext
from types import MappingProxyType

import numpy as np
import pytest

from nucshift import (
    ComplexDetuning,
    DTensor,
    HalfInteger,
    a_coefficients,
    assemble_heff,
    b_coefficients,
    dipole_matrix_elements,
    extract_b_from_d,
    hf_energies,
    make_spin_operators,
    offpole_grid,
    oracle_d_tensor,
    oracle_vs_analytic_deviation,
)
from nucshift import cg_oracle
from nucshift.cg_oracle import (
    _divisors,
    _pole_entries,
    _pole_sum,
    _pole_tensors,
    _project,
    _projection_basis,
    _stack_size,
)
from nucshift.shift_coefficients import _BLOCK_ROWS, POLE_EPSILON, PoleProximityError

LEVIC = np.zeros((3, 3, 3))
LEVIC[0, 1, 2] = LEVIC[1, 2, 0] = LEVIC[2, 0, 1] = 1.0
LEVIC[0, 2, 1] = LEVIC[2, 1, 0] = LEVIC[1, 0, 2] = -1.0


def synthetic_d(b0, b1, b2, ops):
    eye3 = np.eye(3)
    eye = np.eye(ops.dimension, dtype=complex)
    spin_vec = np.stack(ops.vector())
    vec = 1j * np.einsum("ksq,kmn->sqmn", LEVIC, spin_vec)
    sym = np.einsum("smk,qkn->sqmn", spin_vec, spin_vec)
    sym = sym + sym.transpose(1, 0, 2, 3)
    tens = sym - (2.0 / 3.0) * np.einsum("sq,mn->sqmn", eye3, ops.total_squared())
    blocks = b0 * np.einsum("sq,mn->sqmn", eye3, eye) + b1 * vec + b2 * tens
    return DTensor(blocks)


class TestDipoleElements:
    def test_total_strength(self):
        d = dipole_matrix_elements()
        assert np.sum(np.abs(d) ** 2) == pytest.approx(3.0, abs=1e-15)

    def test_pi_selection_rule(self):
        d = dipole_matrix_elements()
        assert d[2, 0] == 0 and d[2, 2] == 0 and d[2, 1] == 1.0

    def test_sign_convention(self):
        d = dipole_matrix_elements()
        assert d[0, 2] == pytest.approx(-1.0 / np.sqrt(2.0))

    def test_vector_operator_commutation(self):
        # <g|[J_z, d_x]|e, m> = -m d_x(m) must equal i d_y(m)
        d = dipole_matrix_elements()
        for idx, m in enumerate((-1, 0, 1)):
            assert -m * d[0, idx] == pytest.approx(1j * d[1, idx], abs=1e-15)


class TestExtraction:
    def test_identity_round_trip(self):
        ops = make_spin_operators(HalfInteger(5))
        got, residual = extract_b_from_d(synthetic_d(1.0, 0.0, 0.0, ops), ops)
        assert got.c0 == pytest.approx(1.0, abs=1e-15)
        assert abs(got.c1) <= 1e-15 and abs(got.c2) <= 1e-15
        assert residual <= 1e-15

    def test_generic_round_trip(self):
        ops = make_spin_operators(HalfInteger(5))
        got, residual = extract_b_from_d(synthetic_d(0.3, -0.2, 0.07, ops), ops)
        assert got.c0 == pytest.approx(0.3, abs=1e-14)
        assert got.c1 == pytest.approx(-0.2, abs=1e-14)
        assert got.c2 == pytest.approx(0.07, abs=1e-14)
        assert residual <= 1e-14

    def test_physical_tensor_decomposes(self):
        ops = make_spin_operators(HalfInteger(9))
        _, residual = extract_b_from_d(oracle_d_tensor(HalfInteger(9), 0.0, 3.0), ops)
        assert residual <= 1e-12

    def test_dimension_mismatch(self):
        ops = make_spin_operators(HalfInteger(5))
        bad = make_spin_operators(HalfInteger(3))
        with pytest.raises(ValueError):
            extract_b_from_d(synthetic_d(1.0, 0.0, 0.0, ops), bad)


class TestOracleTensor:
    def test_matches_analytic_at_reference_point(self):
        spin = HalfInteger(9)
        ops = make_spin_operators(spin)
        det = -0.5688
        got, _ = extract_b_from_d(oracle_d_tensor(spin, 0.0057, det), ops)
        want = b_coefficients(spin, 0.0057, det)
        rel = np.abs(got.as_array() - want.as_array()) / np.abs(want.as_array())
        assert rel.max() <= 1e-12

    def test_hermitian_block_tensor(self):
        blocks = oracle_d_tensor(HalfInteger(9), 0.0057, 1.7).blocks
        swapped = blocks.transpose(1, 0, 3, 2).conj()
        assert np.abs(blocks - swapped).max() <= 1e-13

    def test_scalar_trace_matches_analytic(self):
        spin = HalfInteger(7)
        dt = oracle_d_tensor(spin, 0.0057, 2.3)
        b0_trace = np.einsum("ssmm->", dt.blocks) / (3.0 * dt.dimension)
        assert b0_trace == pytest.approx(b_coefficients(spin, 0.0057, 2.3).c0, rel=1e-13)

    def test_spin_half_has_two_poles_only(self):
        # approaching the formal lower level leaves the summed tensor finite
        spin = HalfInteger(1)
        near = oracle_d_tensor(spin, 0.0, -1.5 + 1e-6)
        far = oracle_d_tensor(spin, 0.0, -1.5 + 1e-3)
        assert np.abs(near.blocks).max() < 10.0
        assert np.abs(near.blocks - far.blocks).max() <= 1e-2

    def test_partial_fraction_split(self):
        # solve for the three pole tensors from three evaluations, then verify
        # the split reconstructs held-out points and that each pole term halves
        # when its distance doubles
        spin = HalfInteger(9)
        gamma = 0.0057
        en = hf_energies(spin, gamma)
        poles = np.array(en.as_tuple())
        sample = np.array([-7.3, 0.9, 5.7])
        a = 1.0 / (sample[:, None] - poles[None, :])
        stacked = np.stack([oracle_d_tensor(spin, gamma, d).blocks for d in sample])
        terms = np.linalg.solve(a, stacked.reshape(3, -1)).reshape(stacked.shape)
        for held_out in (-4.1, 2.6):
            recon = sum(terms[i] / (held_out - poles[i]) for i in range(3))
            direct = oracle_d_tensor(spin, gamma, held_out).blocks
            assert np.abs(recon - direct).max() <= 1e-10
        # isolated-pole contribution halves at doubled distance
        k = 2  # upper level, isolated on the right
        for dist in (0.5, 1.0):
            near = terms[k] / dist
            far = terms[k] / (2.0 * dist)
            assert np.abs(near - 2.0 * far).max() <= 1e-12

    def test_pole_guard(self):
        with pytest.raises(Exception):
            oracle_d_tensor(HalfInteger(9), 0.0, -1.0 + 1e-10)


class TestOracleVsAnalytic:
    @pytest.mark.parametrize("twice,gamma", [(9, 0.0057), (3, 0.0)])
    def test_deviation_over_grid(self, twice, gamma):
        spin = HalfInteger(twice)
        grid = offpole_grid(spin, gamma)
        assert oracle_vs_analytic_deviation(spin, gamma, grid, 0.0) <= 1e-10

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            oracle_vs_analytic_deviation(HalfInteger(9), 0.0, [], 0.0)

    def test_lossy_evaluation(self):
        spin = HalfInteger(5)
        grid = offpole_grid(spin, 0.0057)
        assert oracle_vs_analytic_deviation(spin, 0.0057, grid, 3e-5) <= 1e-10

    @pytest.mark.parametrize("grid,message", [
        ([np.nan], "point 0 is not finite: nan"),
        ([np.inf], "point 0 is not finite: inf"),
        ([1.0, np.nan], "point 1 is not finite: nan"),
        ([2.0, -np.inf, np.nan], "point 1 is not finite: -inf"),
    ], ids=["nan", "inf", "after-a-finite-point", "first-of-two"])
    @pytest.mark.parametrize("gamma_bar", [0.0, 3e-5], ids=["lossless", "lossy"])
    def test_non_finite_point_rejected_before_evaluation(self, monkeypatch, grid, message,
                                                         gamma_bar):
        def evaluated(*args):
            raise AssertionError("a grid with a non-finite point was evaluated")

        monkeypatch.setattr(cg_oracle, "_b_columns", evaluated)
        monkeypatch.setattr(cg_oracle, "_divisors", evaluated)
        with pytest.raises(ValueError, match=message):
            oracle_vs_analytic_deviation(HalfInteger(9), 0.0057, grid, gamma_bar)


class TestSharedCaches:
    def test_pole_tensors_and_entries_are_read_only(self):
        spin = HalfInteger(9)
        grid = offpole_grid(spin, 0.0057, n=40)
        before = oracle_vs_analytic_deviation(spin, 0.0057, grid, 3e-5)
        tensors = _pole_tensors(9)
        assert isinstance(tensors, MappingProxyType)
        with pytest.raises(ValueError, match="read-only"):
            tensors["mid"] *= 1.001
        with pytest.raises(TypeError):
            tensors["mid"] = np.zeros_like(tensors["mid"])
        entries = _pole_entries(9)
        for array in (entries.values, entries.slots):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert oracle_vs_analytic_deviation(spin, 0.0057, grid, 3e-5) == before


class TestSparseDivision:
    """_pole_sum divides only the nonzero floats of the pole tensors; it must
    give the bits of numpy's dense complex division summed over the poles."""

    @staticmethod
    def dense_pole_sum(twice, en, values):
        levels = {"lower": en.e_lower, "mid": en.e_mid, "upper": en.e_upper}
        want = np.zeros((len(values), 3, 3, twice + 1, twice + 1), dtype=complex)
        for label, tensor in _pole_tensors(twice).items():
            want = want + tensor / (values - levels[label])[:, None, None, None, None]
        return want

    def test_every_entry_is_real_or_imaginary(self):
        # d_x, d_z real and d_y imaginary: an entry is purely real for every
        # pole or purely imaginary for every pole; the build rests on it
        for twice in range(1, 64):
            tensors = np.stack(list(_pole_tensors(twice).values()))
            real = (tensors.real != 0.0).any(axis=0)
            imaginary = (tensors.imag != 0.0).any(axis=0)
            assert not (real & imaginary).any(), twice

    @pytest.mark.parametrize("twice", range(1, 64))
    def test_build_equals_dense_division(self, twice):
        rng = np.random.default_rng(twice)
        en = hf_energies(HalfInteger(twice), rng.uniform(-0.01, 0.01))
        poles = np.array(en.as_tuple())
        gamma_bar = rng.uniform(1e-6, 0.1)
        lossless = np.concatenate([rng.uniform(-40.0, 40.0, 6),
                                   poles + rng.choice([-1.0, 1.0], 3) * rng.uniform(1e-3, 0.3, 3)])
        lossy = np.concatenate([rng.uniform(-40.0, 40.0, 4),
                                poles + gamma_bar * rng.uniform(-1.0, 1.0, 3)])
        second_branch = 0
        for delta, gb in ((lossless, 0.0), (lossy, gamma_bar)):
            values = delta.astype(complex)
            values.imag = -gb if gb != 0.0 else 0.0  # as ComplexDetuning.of
            den = values[:, None] - poles
            second_branch += int((np.abs(den.real) < np.abs(den.imag)).sum())
            got = _pole_sum(twice, *_divisors(twice, en, values))
            want = self.dense_pole_sum(twice, en, values)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), gb
        assert second_branch >= 3  # the lossy points within gamma_bar of a pole


class TestOracleBitIdentity:
    """The grid path builds and projects blocks of detunings and takes the
    closed forms from the array kernel; the public per-point route does one
    point at a time.  Both must give the same bits, across block boundaries."""

    @staticmethod
    def point_by_point(spin, gamma, grid, gamma_bar):
        ops = make_spin_operators(spin)
        worst = 0.0
        for delta in grid:
            det = ComplexDetuning.of(float(delta), gamma_bar)
            analytic = b_coefficients(spin, gamma, det).as_array()
            oracle = extract_b_from_d(oracle_d_tensor(spin, gamma, det), ops)[0].as_array()
            dev = np.abs(analytic - oracle) / np.maximum(np.abs(oracle), 1e-300)
            worst = max(worst, float(dev.max()))
        return worst

    @pytest.mark.parametrize("twice,gamma,gamma_bar", [
        (9, 0.005, 5e-5), (21, 0.0057, 3e-5), (9, 0.0057, 0.0),
    ], ids=["i-9/2-lossy", "spin-twice-21-lossy", "lossless"])
    def test_grid_equals_point_by_point(self, twice, gamma, gamma_bar):
        spin = HalfInteger(twice)
        grid = offpole_grid(spin, gamma, n=120)
        got = oracle_vs_analytic_deviation(spin, gamma, grid, gamma_bar)
        assert got == self.point_by_point(spin, gamma, grid, gamma_bar)

    @staticmethod
    def block_sizes(twice):
        b = _stack_size(twice + 1)
        return sorted({1, max(b - 1, 1), b, b + 1, 2 * b + 1})

    @pytest.mark.parametrize("gamma_bar", [0.0, 4e-5], ids=["lossless", "lossy"])
    @pytest.mark.parametrize("twice", [9, 21], ids=["N-10", "N-22"])
    def test_block_boundaries(self, twice, gamma_bar):
        spin = HalfInteger(twice)
        for size in self.block_sizes(twice):
            grid = offpole_grid(spin, 0.0057, lo=-9.0, hi=7.5, n=size)
            got = oracle_vs_analytic_deviation(spin, 0.0057, grid, gamma_bar)
            assert got == self.point_by_point(spin, 0.0057, grid, gamma_bar), size

    def test_grid_longer_than_one_closed_form_block(self):
        spin = HalfInteger(9)
        grid = offpole_grid(spin, 0.0057, n=_BLOCK_ROWS + 7)
        got = oracle_vs_analytic_deviation(spin, 0.0057, grid, 3e-5)
        assert got == self.point_by_point(spin, 0.0057, grid, 3e-5)

    def test_spin_half_keeps_the_fold(self):
        # b2 is NaN at i = 1/2 (no tensor basis); the fold from 0.0 skips it
        spin = HalfInteger(1)
        grid = offpole_grid(spin, 0.0, n=2 * _stack_size(2) + 1)
        with pytest.warns(RuntimeWarning):
            got = oracle_vs_analytic_deviation(spin, 0.0, grid, 0.0)
        with pytest.warns(RuntimeWarning):
            want = self.point_by_point(spin, 0.0, grid, 0.0)
        assert got == want

    def test_first_pole_in_grid_order_raises(self):
        spin = HalfInteger(9)
        en = hf_energies(spin, 0.0057)
        b = _stack_size(spin.twice + 1)
        first = en.e_mid + 0.5 * POLE_EPSILON
        grid = np.concatenate([offpole_grid(spin, 0.0057, n=b + 2), [first, en.e_upper]])
        with pytest.raises(PoleProximityError) as want:
            oracle_d_tensor(spin, 0.0057, first)
        with pytest.raises(PoleProximityError) as got:
            oracle_vs_analytic_deviation(spin, 0.0057, grid, 0.0)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("twice", [1, 9, 21])
    def test_shared_build_and_projection_keep_the_scalar_arithmetic(self, twice):
        # one tensor and one projection per point, as oracle-diff's output was
        # first computed; the shared block code must reproduce its bits
        spin = HalfInteger(twice)
        ops = make_spin_operators(spin)
        basis = _projection_basis(ops)
        en = hf_energies(spin, 0.0)
        levels = {"lower": en.e_lower, "mid": en.e_mid, "upper": en.e_upper}
        for delta in offpole_grid(spin, 0.0, n=15):
            for gamma_bar in (0.0, 4e-5):
                det = ComplexDetuning.of(float(delta), gamma_bar)
                want = np.zeros((3, 3, twice + 1, twice + 1), dtype=complex)
                for label, tensor in _pole_tensors(twice).items():
                    want = want + tensor / (det.value - levels[label])
                got = oracle_d_tensor(spin, 0.0, det).blocks
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
                # b2 at i = 1/2 is 0/0: the tensor basis vanishes
                with pytest.warns(RuntimeWarning) if twice == 1 else nullcontext():
                    coeffs = extract_b_from_d(DTensor(got), ops)[0].as_array()
                    scalar = [np.einsum("ssmm->", want) / (3.0 * basis.dim),
                              np.einsum("sqmn,sqmn->", basis.vec_conj, want) / basis.vec_norm,
                              np.einsum("sqmn,sqmn->", basis.tens_conj, want) / basis.tens_norm]
                assert np.array_equal(coeffs.view(np.uint64),
                                      np.array(scalar, dtype=complex).view(np.uint64))

    def test_public_projection_still_checks_dimension(self):
        tensor = oracle_d_tensor(HalfInteger(9), 0.0057, 3.0)
        with pytest.raises(ValueError, match="mismatched dimensions"):
            extract_b_from_d(tensor, make_spin_operators(HalfInteger(7)))


class TestStackSize:
    """_stack_size keeps B > 1 only where a stack projects with the bits of its
    tensors alone: up to N = 30, 9 N^2 <= 8192."""

    @pytest.mark.parametrize("twice", [1, 9, 21, 29, 30, 40])
    def test_stack_projects_as_its_tensors_alone(self, twice):
        # einsum reduces a tensor of more than 8192 entries (N >= 31) in
        # buffered chunks and then sums a stack of B > 1 in another order;
        # _stack_size keeps B = 1 there
        spin = HalfInteger(twice)
        basis = _projection_basis(make_spin_operators(spin))
        en = hf_energies(spin, 0.0057)
        size = _stack_size(twice + 1)
        values = offpole_grid(spin, 0.0057, n=min(size, 64)).astype(complex)
        values.imag = -4e-5
        stack = _pole_sum(twice, *_divisors(twice, en, values))
        with pytest.warns(RuntimeWarning) if twice == 1 else nullcontext():
            got = np.stack(_project(stack, basis), axis=1)
            alone = np.concatenate([np.stack(_project(stack[k:k + 1], basis), axis=1)
                                    for k in range(len(values))])
        assert np.array_equal(got.view(np.uint64), alone.view(np.uint64))

    @pytest.mark.parametrize("gamma_bar", [0.0, 4e-5], ids=["lossless", "lossy"])
    def test_largest_stacked_dimension_keeps_the_grid_bits(self, gamma_bar):
        spin = HalfInteger(29)
        assert _stack_size(30) > 1 and _stack_size(31) == 1
        grid = offpole_grid(spin, 0.0057, lo=-9.0, hi=7.5, n=2 * _stack_size(30) + 1)
        got = oracle_vs_analytic_deviation(spin, 0.0057, grid, gamma_bar)
        assert got == TestOracleBitIdentity.point_by_point(spin, 0.0057, grid, gamma_bar)


class TestSpinHalfAssembly:
    @pytest.mark.parametrize("delta", [-1.7, -1.3, 1.0])
    def test_three_pole_forms_match_two_pole_sum(self, delta):
        # the formal third pole of the closed forms cancels in the assembled
        # operator, even 0.2 away from it
        spin = HalfInteger(1)
        ops = make_spin_operators(spin)
        rng = np.random.default_rng(11)
        e = rng.normal(size=3) + 1j * rng.normal(size=3)
        aset = a_coefficients(spin, 0.0, delta)
        analytic = assemble_heff(aset, e, ops).matrix
        blocks = oracle_d_tensor(spin, 0.0, delta).blocks
        summed = np.einsum("s,sqmn,q->mn", e.conj(), blocks, e) / 4.0
        scale = max(np.abs(summed).max(), 1.0)
        assert np.abs(analytic - summed).max() <= 1e-10 * scale
