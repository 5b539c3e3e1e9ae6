"""Hyperfine constants and level structure of the excited j = 1 manifold.

Dimensionless conventions used across the package: energies are measured in
units of hbar*A_hf (A_hf the merged magnetic-dipole constant, signed), so the
three excited hyperfine levels sit at

    e_upper = i(1 + g*i),  e_mid = -(1 - g),  e_lower = -(i+1)(1 - g(i+1)),

where i is the nuclear spin and g the relative quadrupole strength.  The
uniform part of the quadrupole coupling proportional to I^2 J^2 is absorbed
into the excitation energy, which is what makes the three-level formula above
hold; detunings are referenced accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin_algebra import HalfInteger, make_spin_operators


@dataclass(frozen=True)
class AtomParams:
    """Physical constants of one species (angular frequencies in rad/s, hbar = 1).

    dge_sq is the squared dipole matrix element |d_ge|^2 in any consistent
    unit; it only enters overall scales.
    """

    spin: HalfInteger
    ahf_prime: float
    bhf: float
    linewidth: float
    dge_sq: float

    def __post_init__(self):
        object.__setattr__(self, "spin", HalfInteger.coerce(self.spin))
        if self.spin.twice < 1:
            raise ValueError("nuclear spin must be at least 1/2")
        if self.linewidth < 0:
            raise ValueError("linewidth must be non-negative")
        if self.dge_sq <= 0:
            raise ValueError("dge_sq must be positive")
        if self.spin.twice == 1 and self.bhf != 0.0:
            raise ValueError(
                "quadrupole constant undefined for spin 1/2 (denominator 2i-1 vanishes)"
            )


@dataclass(frozen=True)
class DerivedHfConstants:
    """Merged dipole constant A_hf (signed, rad/s) and relative quadrupole strength."""

    a_hf: float
    gamma: float


@dataclass(frozen=True)
class HfEnergies:
    """Excited hyperfine energies in units of hbar*A_hf, ascending f: i-1, i, i+1.

    For spin 1/2 the f = i-1 state does not exist; e_lower is still emitted as
    the formal value entering the closed-form coefficient denominators and is
    flagged formal_lower.
    """

    e_lower: float
    e_mid: float
    e_upper: float
    formal_lower: bool = False

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.e_lower, self.e_mid, self.e_upper)


def derive_constants(params: AtomParams) -> DerivedHfConstants:
    """Merge the bare dipole and quadrupole constants into (A_hf, gamma) for j = 1."""
    i = params.spin.value
    # j(2j-1) = 1 for j = 1; denom vanishes for spin 1/2, which has no
    # quadrupole term (AtomParams rejects a nonzero bhf there)
    quadrupole = params.spin.twice > 1
    denom = 4.0 * i * (2.0 * i - 1.0)
    a_hf = params.ahf_prime + 3.0 * params.bhf / denom if quadrupole else params.ahf_prime
    if a_hf == 0.0:
        raise ValueError("A_hf vanishes; dimensionless quantities are undefined")
    if not np.isfinite(a_hf):
        raise ValueError("A_hf is not finite; the constants overflow")
    gamma = 6.0 * params.bhf / (a_hf * denom) if quadrupole else 0.0
    return DerivedHfConstants(a_hf=a_hf, gamma=gamma)


def hf_energies(spin, gamma: float) -> HfEnergies:
    """Dimensionless excited-state energies for nuclear spin `spin` and quadrupole ratio `gamma`."""
    spin = HalfInteger.coerce(spin)
    if spin.twice < 1:
        raise ValueError("nuclear spin must be at least 1/2")
    i = spin.value
    e_upper = i * (1.0 + gamma * i)
    e_mid = -(1.0 - gamma)
    e_lower = -(i + 1.0) * (1.0 - gamma * (i + 1.0))
    return HfEnergies(
        e_lower=e_lower, e_mid=e_mid, e_upper=e_upper, formal_lower=(spin.twice == 1)
    )


def hf_hamiltonian_matrix(spin, gamma: float) -> np.ndarray:
    """Dimensionless hyperfine Hamiltonian I.J + gamma (I.J)^2 on the product basis.

    The basis is |j=1, m_j> (x) |i, m_i| with both factors ordered by ascending
    m, built from Kronecker products of the spin-1 and spin-i matrices.  Its
    eigenvalues reproduce hf_energies with degeneracies 2f+1; the matrix is
    Hermitian and commutes with F_z.
    """
    spin = HalfInteger.coerce(spin)
    if spin.twice < 1:
        raise ValueError("nuclear spin must be at least 1/2")
    je = make_spin_operators(HalfInteger(2))
    nuc = make_spin_operators(spin)
    idotj = sum(np.kron(j_k, i_k) for j_k, i_k in zip(je.vector(), nuc.vector()))
    return idotj + gamma * (idotj @ idotj)
