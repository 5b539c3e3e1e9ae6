"""Sum-over-states light-shift tensor built from Clebsch-Gordan coefficients.

This is the conventional numerical route: couple the j = 1 excited electron to
the nuclear spin, insert the resolvent of the hyperfine Hamiltonian between
explicit dipole matrix elements, and sum over the physical hyperfine levels.
It shares no algebra with the closed forms in shift_coefficients, which makes
it the ground-truth cross-check for them.

The circular polarization states are related to the linear ones through
|sigma+> = (-|x> - i|y>)/sqrt(2) and |sigma-> = (+|x> - i|y>)/sqrt(2); the
more common sign choice (|x> +- i|y>)/sqrt(2) breaks the raising/lowering
convention of the coupled basis and corrupts the tensor part of the shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hyperfine import hf_energies
from .shift_coefficients import (
    CoeffForm,
    ComplexDetuning,
    PolarizabilitySet,
    _BLOCK_ROWS,
    _as_detuning,
    _b_columns,
    _check_poles,
    _check_real_poles,
    _near_pole,
)
from .spin_algebra import HalfInteger, SpinOperators, clebsch_gordan, make_spin_operators

_LEVIC = np.zeros((3, 3, 3))
_LEVIC[0, 1, 2] = _LEVIC[1, 2, 0] = _LEVIC[2, 0, 1] = 1.0
_LEVIC[0, 2, 1] = _LEVIC[2, 1, 0] = _LEVIC[1, 0, 2] = -1.0


@dataclass(frozen=True)
class DTensor:
    """Light-shift tensor: blocks[s, q] is the N x N spin matrix of the (s, q) component."""

    blocks: np.ndarray  # shape (3, 3, N, N), complex

    @property
    def dimension(self) -> int:
        return self.blocks.shape[-1]


def dipole_matrix_elements() -> np.ndarray:
    """Ground-to-excited dipole elements, Cartesian component x m_j in {-1, 0, +1}.

    Rows are d_x, d_y, d_z in units of d_ge: expanding the m_j = +-1 states as
    (-+|x> - i|y>)/sqrt(2) gives d_x = (delta_{m,-1} - delta_{m,+1})/sqrt(2),
    d_y = -i (delta_{m,+1} + delta_{m,-1})/sqrt(2), and d_z couples only
    m_j = 0.  The signs satisfy the vector-operator commutation relation
    [J_z, d_x] = i d_y between these matrix elements; flipping d_y (or using
    the (|x> +- i|y>)/sqrt(2) circular states) breaks rotational covariance of
    the summed tensor and corrupts the extracted tensor shift.
    """
    d = np.zeros((3, 3), dtype=complex)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    d[0, 0] = inv_sqrt2           # d_x, m_j = -1
    d[0, 2] = -inv_sqrt2          # d_x, m_j = +1
    d[1, 0] = -1j * inv_sqrt2     # d_y, m_j = -1
    d[1, 2] = -1j * inv_sqrt2     # d_y, m_j = +1
    d[2, 1] = 1.0                 # d_z, m_j = 0
    return d


def _physical_f_twice(spin: HalfInteger) -> list[tuple[str, int]]:
    labels = [("mid", spin.twice), ("upper", spin.twice + 2)]
    if spin.twice >= 2:
        labels.insert(0, ("lower", spin.twice - 2))
    return labels


@lru_cache(maxsize=None)
def _pole_tensors(spin_twice: int) -> dict[str, np.ndarray]:
    """Detuning-independent numerator tensor of each physical hyperfine pole.

    The full tensor is the sum over physical levels f of T_f / (delta - e_f);
    T_f collects dipole elements and Clebsch-Gordan factors only, so it is
    computed once per spin and reused across detuning grids.
    """
    spin = HalfInteger(spin_twice)
    dim = spin_twice + 1
    d_el = dipole_matrix_elements()
    je = HalfInteger(2)
    out: dict[str, np.ndarray] = {}
    for label, tf in _physical_f_twice(spin):
        # amp[s, idx_mf, idx_mi] = sum_mj d_s(mj) <1 mj i mi|f mf>, mf = mj + mi
        n_mf = tf + 1
        amp = np.zeros((3, n_mf, dim), dtype=complex)
        for i_mi, tmi in enumerate(range(-spin_twice, spin_twice + 1, 2)):
            for i_mj, tmj in enumerate((-2, 0, 2)):
                tmf = tmj + tmi
                if abs(tmf) > tf:
                    continue
                cg = clebsch_gordan(je, spin, HalfInteger(tmj), HalfInteger(tmi),
                                    HalfInteger(tf), HalfInteger(tmf))
                if cg == 0.0:
                    continue
                i_mf = (tmf + tf) // 2
                amp[:, i_mf, i_mi] += d_el[:, i_mj] * cg
        out[label] = np.einsum("sfm,qfn->sqmn", amp, amp.conj())
    return out


def _pole_sum(spin_twice: int, energies, values: np.ndarray) -> np.ndarray:
    """Sum over the physical levels f of T_f / (delta_k - e_f), shape (B, 3, 3, N, N).

    values holds B complex detunings.  The terms are added in the fixed pole
    order, starting from zeros, so slice k is the tensor at values[k] with the
    same arithmetic for any B.
    """
    levels = {"lower": energies.e_lower, "mid": energies.e_mid, "upper": energies.e_upper}
    dim = spin_twice + 1
    blocks = np.zeros((len(values), 3, 3, dim, dim), dtype=complex)
    term = np.empty_like(blocks)
    for label, tensor in _pole_tensors(spin_twice).items():
        np.divide(tensor, (values - levels[label])[:, None, None, None, None], out=term)
        blocks += term
    return blocks


def oracle_d_tensor(spin, gamma: float, delta) -> DTensor:
    """Light-shift tensor by explicit summation over the physical hyperfine levels."""
    spin = HalfInteger.coerce(spin)
    det = _as_detuning(delta)
    en = hf_energies(spin, gamma)
    _check_poles(det, en)
    return DTensor(blocks=_pole_sum(spin.twice, en, np.array([det.value]))[0])


def _hs_inner(x_conj: np.ndarray, y: np.ndarray):
    # sum_sq Tr(x_sq^dag y_sq) as an elementwise product, x given conjugated
    return np.einsum("sqmn,sqmn->", x_conj, y)


@dataclass(frozen=True)
class _ProjectionBasis:
    """Everything the projection needs that depends on the spin alone."""

    dim: int
    identity: np.ndarray       # delta_sq * 1, shape (3, 3, N, N)
    vec_basis: np.ndarray      # i * eps_ksq I_k
    vec_conj: np.ndarray
    vec_norm: float            # <vec_basis, vec_basis>, real part
    tens_basis: np.ndarray     # {I_s, I_q} - (2/3) delta_sq I^2
    tens_conj: np.ndarray
    tens_norm: float


def _projection_basis(ops: SpinOperators) -> _ProjectionBasis:
    dim = ops.dimension
    eye = np.eye(dim, dtype=complex)
    spin_vec = np.stack(ops.vector())
    i_sq = ops.total_squared()

    # antisymmetric part against i * eps_ksq I_k
    vec_basis = 1j * np.einsum("ksq,kmn->sqmn", _LEVIC, spin_vec)
    vec_conj = vec_basis.conj()

    # symmetric-traceless part against {I_s, I_q} - (2/3) d_sq I^2
    sym = np.einsum("smk,qkn->sqmn", spin_vec, spin_vec)
    sym = sym + sym.transpose(1, 0, 2, 3)
    tens_basis = sym - (2.0 / 3.0) * np.einsum("sq,mn->sqmn", np.eye(3), i_sq)
    tens_conj = tens_basis.conj()

    return _ProjectionBasis(
        dim=dim,
        identity=np.einsum("sq,mn->sqmn", np.eye(3), eye),
        vec_basis=vec_basis,
        vec_conj=vec_conj,
        vec_norm=_hs_inner(vec_conj, vec_basis).real,
        tens_basis=tens_basis,
        tens_conj=tens_conj,
        tens_norm=_hs_inner(tens_conj, tens_basis).real,
    )


def _project(blocks: np.ndarray, basis: _ProjectionBasis) -> tuple[np.ndarray, ...]:
    """b0, b1, b2 of every tensor in a (B, 3, 3, N, N) stack, each an array of length B."""
    b0 = np.einsum("bssmm->b", blocks) / (3.0 * basis.dim)
    b1 = np.einsum("sqmn,bsqmn->b", basis.vec_conj, blocks) / basis.vec_norm
    b2 = np.einsum("sqmn,bsqmn->b", basis.tens_conj, blocks) / basis.tens_norm
    return b0, b1, b2


def extract_b_from_d(d: DTensor, ops: SpinOperators) -> tuple[PolarizabilitySet, float]:
    """Project a light-shift tensor onto its scalar / vector / tensor components.

    Returns the b-form coefficient set and the relative Frobenius residual of
    the reconstruction.  Projection normalizations are computed from the
    operator traces rather than hard-coded, so a convention slip in the basis
    would show up as a nonzero residual instead of a silently wrong scale.
    The projection is the one oracle_vs_analytic_deviation applies to its
    blocks of detunings, so both routes give bit-identical coefficients.
    """
    if d.dimension != ops.dimension:
        raise ValueError("tensor and spin operators have mismatched dimensions")
    basis = _projection_basis(ops)
    b0, b1, b2 = (c[0] for c in _project(d.blocks[None], basis))
    recon = b0 * basis.identity + b1 * basis.vec_basis + b2 * basis.tens_basis
    denom = np.linalg.norm(d.blocks)
    residual = float(np.linalg.norm(d.blocks - recon) / denom) if denom > 0 else 0.0
    pset = PolarizabilitySet(form=CoeffForm.B_FORM, c0=complex(b0), c1=complex(b1), c2=complex(b2))
    return pset, residual


#: Bytes of one (B, 3, 3, N, N) complex tensor stack in oracle_vs_analytic_deviation;
#: _pole_sum holds two such stacks at a time.
_ORACLE_BLOCK_BYTES = 256 * 1024


def _stack_size(dim: int) -> int:
    """Detunings B per tensor stack at dimension N: as many as fit the budget, at least 1."""
    return max(1, _ORACLE_BLOCK_BYTES // (9 * dim * dim * np.dtype(complex).itemsize))


def oracle_vs_analytic_deviation(spin, gamma: float, grid, gamma_bar: float = 0.0) -> float:
    """Worst relative disagreement of the closed forms against the CG summation.

    grid is an iterable of real dimensionless detunings; every point is
    evaluated with the complex detuning delta - i*gamma_bar.  A point's
    deviation is the largest of its three relative coefficient errors, and the
    result is the Python max over the points starting from 0.0, which skips a
    NaN point: at i = 1/2 the tensor basis vanishes, b2 is NaN, and the result
    is 0.0.

    The grid is evaluated in blocks, with no numpy call per point: the closed
    forms come from _b_columns for _BLOCK_ROWS detunings at a time, and the
    oracle tensors are built and projected in stacks of as many detunings as
    fit in _ORACLE_BLOCK_BYTES.  Every coefficient equals, bit for bit, what
    the per-point public route gives (b_coefficients against extract_b_from_d
    of oracle_d_tensor), so the result equals that route's loop.  Memory is
    bounded per block, not by the grid size.  At gamma_bar = 0 the first grid
    point within POLE_EPSILON of a level raises PoleProximityError.
    """
    spin = HalfInteger.coerce(spin)
    grid = np.asarray(list(grid), dtype=float)
    if grid.size == 0:
        raise ValueError("empty detuning grid")
    basis = _projection_basis(make_spin_operators(spin))
    ComplexDetuning.of(float(grid[0]), gamma_bar)  # validates gamma_bar for every point
    en = hf_energies(spin, gamma)
    step = _stack_size(basis.dim)
    worst = 0.0
    for start in range(0, grid.size, _BLOCK_ROWS):
        delta = grid[start:start + _BLOCK_ROWS]
        if gamma_bar == 0.0:
            near = _near_pole(delta, en)
            if near.any():
                _check_real_poles(float(delta[near.argmax()]), en)
        values = delta.astype(complex)
        values.imag = -gamma_bar if gamma_bar != 0.0 else 0.0  # as ComplexDetuning.of
        analytic = np.stack(_b_columns(spin, gamma, delta, gamma_bar), axis=1).view(complex)
        reference = np.concatenate([
            np.stack(_project(_pole_sum(spin.twice, en, values[k:k + step]), basis), axis=1)
            for k in range(0, len(values), step)])
        dev = np.abs(analytic - reference) / np.maximum(np.abs(reference), 1e-300)
        for point in dev.max(axis=1).tolist():
            worst = max(worst, point)
    return worst
