import math

import numpy as np
import pytest

from nucshift import (
    AtomParams,
    HalfInteger,
    derive_constants,
    hf_energies,
    hf_hamiltonian_matrix,
    make_spin_operators,
)

TWO_PI = 2.0 * math.pi


def sr87_params(linewidth=0.0):
    return AtomParams(
        spin=HalfInteger(9),
        ahf_prime=TWO_PI * -260085e3,
        bhf=TWO_PI * -35667e3,
        linewidth=linewidth,
        dge_sq=1.0,
    )


class TestAtomParams:
    def test_rejects_zero_spin(self):
        with pytest.raises(ValueError):
            AtomParams(HalfInteger(0), 1.0, 0.0, 0.0, 1.0)

    def test_rejects_negative_linewidth(self):
        with pytest.raises(ValueError):
            AtomParams(HalfInteger(9), 1.0, 0.0, -1.0, 1.0)

    def test_rejects_nonpositive_dipole(self):
        with pytest.raises(ValueError):
            AtomParams(HalfInteger(9), 1.0, 0.0, 0.0, 0.0)

    def test_spin_half_requires_zero_quadrupole(self):
        with pytest.raises(ValueError):
            AtomParams(HalfInteger(1), 1.0, 0.5, 0.0, 1.0)
        AtomParams(HalfInteger(1), 1.0, 0.0, 0.0, 1.0)


class TestDeriveConstants:
    def test_sr87_gamma(self):
        consts = derive_constants(sr87_params())
        assert consts.gamma == pytest.approx(0.0057, abs=1e-4)
        assert round(consts.gamma, 3) == 0.006

    def test_sr87_merged_constant(self):
        # 4 i (2i - 1) = 144 for i = 9/2, so the quadrupole adds 3*B/144
        consts = derive_constants(sr87_params())
        expected = TWO_PI * (-260085e3 + 3.0 * -35667e3 / 144.0)
        assert consts.a_hf == pytest.approx(expected, rel=1e-15)
        assert consts.a_hf / TWO_PI / 1e3 == pytest.approx(-260085 - 743.0625, rel=1e-12)

    def test_zero_quadrupole(self):
        params = AtomParams(HalfInteger(9), 5.0, 0.0, 0.0, 1.0)
        consts = derive_constants(params)
        assert consts.gamma == 0.0
        assert consts.a_hf == 5.0

    @pytest.mark.parametrize("ahf_prime,bhf", [(1.0, 1e308), (math.inf, 0.0)])
    def test_rejects_non_finite_merged_constant(self, ahf_prime, bhf):
        # finite constants whose quadrupole term 3*bhf overflows, then an infinite one
        with pytest.raises(ValueError, match="not finite"):
            derive_constants(AtomParams(HalfInteger(9), ahf_prime, bhf, 0.0, 1.0))

    def test_spin_half(self):
        params = AtomParams(HalfInteger(1), -3.0, 0.0, 0.0, 1.0)
        consts = derive_constants(params)
        assert consts.a_hf == -3.0
        assert consts.gamma == 0.0


class TestHfEnergies:
    def test_sr87_values(self):
        en = hf_energies(HalfInteger(9), 0.0057)
        assert en.e_lower == pytest.approx(-5.3276, abs=1e-4)
        assert en.e_mid == pytest.approx(-0.9943, abs=1e-4)
        assert en.e_upper == pytest.approx(4.6155, abs=1e-4)
        assert not en.formal_lower

    def test_no_quadrupole_limit(self):
        en = hf_energies(HalfInteger(9), 0.0)
        assert en.as_tuple() == (-5.5, -1.0, 4.5)

    def test_spin_half_formal_lower(self):
        en = hf_energies(HalfInteger(1), 0.0)
        assert en.e_upper == 0.5
        assert en.e_mid == -1.0
        assert en.e_lower == -1.5
        assert en.formal_lower

    def test_rejects_zero_spin(self):
        with pytest.raises(ValueError):
            hf_energies(HalfInteger(0), 0.0)


class TestHfHamiltonian:
    def test_spectrum_spin_nine_half(self):
        eig = np.linalg.eigvalsh(hf_hamiltonian_matrix(HalfInteger(9), 0.0))
        values, counts = np.unique(np.round(eig, 9), return_counts=True)
        assert np.allclose(values, [-5.5, -1.0, 4.5])
        assert list(counts) == [8, 10, 12]

    def test_spectrum_spin_half_two_levels(self):
        eig = np.linalg.eigvalsh(hf_hamiltonian_matrix(HalfInteger(1), 0.0))
        values, counts = np.unique(np.round(eig, 9), return_counts=True)
        assert np.allclose(values, [-1.0, 0.5])
        assert list(counts) == [2, 4]

    @pytest.mark.parametrize("twice", range(1, 20))
    @pytest.mark.parametrize("gamma", [0.0, 0.0057, 0.05])
    def test_spectrum_matches_closed_forms(self, twice, gamma):
        spin = HalfInteger(twice)
        matrix = hf_hamiltonian_matrix(spin, gamma)
        assert np.abs(matrix - matrix.conj().T).max() <= 1e-13
        eig = np.sort(np.linalg.eigvalsh(matrix))
        en = hf_energies(spin, gamma)
        expected = []
        if twice >= 2:
            expected += [(en.e_lower, twice - 1)]
        expected += [(en.e_mid, twice + 1), (en.e_upper, twice + 3)]
        # degeneracy 2f+1 per level, formal lower level absent for spin 1/2
        flat = np.sort(np.concatenate([np.full(n, e) for e, n in expected]))
        assert np.abs(eig - flat).max() <= 1e-12

    @pytest.mark.parametrize("twice", [1, 3, 9])
    def test_commutes_with_fz(self, twice):
        spin = HalfInteger(twice)
        matrix = hf_hamiltonian_matrix(spin, 0.0057)
        je = make_spin_operators(HalfInteger(2))
        nuc = make_spin_operators(spin)
        fz = np.kron(je.iz, np.eye(nuc.dimension)) + np.kron(np.eye(3), nuc.iz)
        assert np.abs(matrix @ fz - fz @ matrix).max() <= 1e-13

    def test_linear_part_traceless(self):
        for twice in (1, 4, 9):
            matrix = hf_hamiltonian_matrix(HalfInteger(twice), 0.0)
            assert abs(np.trace(matrix)) <= 1e-12
