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
from types import MappingProxyType
from typing import Mapping

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
def _pole_tensors(spin_twice: int) -> Mapping[str, np.ndarray]:
    """Detuning-independent numerator tensor of each physical hyperfine pole.

    The full tensor is the sum over physical levels f of T_f / (delta - e_f);
    T_f collects dipole elements and Clebsch-Gordan factors only, so it is
    computed once per spin and reused across detuning grids.  The mapping and
    its arrays are shared by every caller and read-only.
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
        out[label].setflags(write=False)
    return MappingProxyType(out)


@dataclass(frozen=True)
class _PoleEntries:
    """The nonzero entries of the pole tensors, as floats of a (3, 3, N, N) complex stack.

    Every entry of every T_f is purely real, a, or purely imaginary, i b: d_x
    and d_z are real and d_y is imaginary.  Viewed as 18 N^2 floats (re, im
    interleaved), such an entry has one nonzero float, v = a or b, and its
    partner float is zero.  numpy divides by c + i d, for |c| >= |d|, as
    rat = d / c, scl = 1 / (c + d rat), giving

        a / (c + i d) = a scl - i (a rat) scl,
        i b / (c + i d) = (b rat) scl + i b scl,

    so the float of v takes v scl and its partner takes (w rat) scl, with
    w = -a for a real entry and w = b for an imaginary one; for |c| < |d|,
    rat = c / d and scl = 1 / (d + c rat), and the two swap: v takes
    (v rat) scl and the partner w scl.  A numerator part that is exactly zero
    drops out of numpy's (p + q rat) scl without rounding, so these are
    numpy's bits.
    """

    labels: tuple[str, ...]    # pole order, as _pole_tensors
    slots: np.ndarray          # float positions: the union of the nonzero floats, then their partners
    values: np.ndarray         # (P, 2, M): v and w of pole f, zero where T_f is zero


@lru_cache(maxsize=None)
def _pole_entries(spin_twice: int) -> _PoleEntries:
    """The pole tensors' nonzero entries, once per spin; read-only.

    An entry's nonzero float is the same part for every pole, since its type
    follows from (s, q) alone; tests/test_cg_oracle.py checks both that and
    the purity of every entry for 2i+1 up to 64.
    """
    tensors = _pole_tensors(spin_twice)
    floats = np.stack([t.reshape(-1).view(float) for t in tensors.values()])
    own = np.flatnonzero((floats != 0.0).any(axis=0))
    partner = own ^ 1  # re <-> im of the same entry
    v = floats[:, own]
    values = np.stack([v, np.where(own % 2 == 0, -v, v)], axis=1)
    slots = np.concatenate([own, partner])
    for array in (values, slots):
        array.setflags(write=False)
    return _PoleEntries(labels=tuple(tensors), slots=slots, values=values)


def _divisors(spin_twice: int, energies, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's factors for dividing by values_k - e_f, every pole f and detuning k.

    numpy divides by c + i d with rat = d / c and scl = 1 / (c + d rat) when
    |c| >= |d|, and with rat = c / d and scl = 1 / (d + c rat) otherwise.
    Returns the factors of v and w before scl (see _PoleEntries), (1, rat) or
    (rat, 1), shape (P, B, 2), and scl, shape (P, B).
    """
    levels = {"lower": energies.e_lower, "mid": energies.e_mid, "upper": energies.e_upper}
    labels = _pole_entries(spin_twice).labels
    den = values[None, :] - np.array([levels[label] for label in labels])[:, None]
    swap = ~(np.abs(den.real) >= np.abs(den.imag))  # as numpy, NaN takes the second branch
    big = np.where(swap, den.imag, den.real)
    small = np.where(swap, den.real, den.imag)
    rat = small / big
    scl = 1.0 / (big + small * rat)
    return np.stack([np.where(swap, rat, 1.0), np.where(swap, 1.0, rat)], axis=-1), scl


def _pole_sum(spin_twice: int, factors: np.ndarray, scl: np.ndarray) -> np.ndarray:
    """Sum over the physical levels f of T_f / (delta_k - e_f), shape (B, 3, 3, N, N).

    factors and scl are _divisors of B complex detunings.  Each quotient is
    numpy's complex division, bit for bit, computed on the nonzero floats of
    _pole_entries only: (v * factor) * scl for the entry's own float and its
    partner.  The terms are added in the fixed pole order, starting from
    zeros, and scattered into a zeroed dense stack, so slice k is the tensor
    at detuning k with the same arithmetic for any B.  The dense division
    would also add the quotients of zero entries; they are +-0 and leave a
    sum that starts from +0 unchanged.  tests/test_cg_oracle.py pins the
    result to the dense sum by bit pattern.
    """
    entries = _pole_entries(spin_twice)
    count = scl.shape[1]
    sums = np.zeros((count,) + entries.values.shape[1:])
    term = np.empty_like(sums)
    for values, factor, scale in zip(entries.values, factors, scl):
        np.multiply(values, factor[:, :, None], out=term)
        term *= scale[:, None, None]
        sums += term
    dim = spin_twice + 1
    blocks = np.zeros((count, 18 * dim * dim))
    blocks[:, entries.slots] = sums.reshape(count, -1)
    return blocks.view(complex).reshape(count, 3, 3, dim, dim)


def oracle_d_tensor(spin, gamma: float, delta) -> DTensor:
    """Light-shift tensor by explicit summation over the physical hyperfine levels."""
    spin = HalfInteger.coerce(spin)
    det = _as_detuning(delta)
    en = hf_energies(spin, gamma)
    _check_poles(det, en)
    return DTensor(blocks=_pole_sum(spin.twice, *_divisors(spin.twice, en, np.array([det.value])))[0])


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


#: Bytes of one (B, 3, 3, N, N) complex tensor stack in oracle_vs_analytic_deviation,
#: the one dense array of a stack's build; _pole_sum's two buffers of nonzero
#: floats take a fifth of it each at N = 10 and a tenth at N = 22.
_ORACLE_BLOCK_BYTES = 512 * 1024

#: Entries in numpy's fixed iterator buffer.  einsum reduces an operand longer
#: than this in chunks, and then _project of a stack of B > 1 tensors sums in
#: another order than of one tensor alone.
_EINSUM_BUFFER = 8192


def _stack_size(dim: int) -> int:
    """Detunings B per tensor stack at dimension N.

    As many as fit _ORACLE_BLOCK_BYTES, at least 1 (36 at N = 10, 7 at
    N = 22), and 1 once a tensor's 9 N^2 entries exceed _EINSUM_BUFFER, from
    N = 31: only then does _project give every tensor of a stack the bits it
    gives that tensor alone.
    """
    entries = 9 * dim * dim
    if entries > _EINSUM_BUFFER:
        return 1
    return max(1, _ORACLE_BLOCK_BYTES // (entries * np.dtype(complex).itemsize))


def oracle_vs_analytic_deviation(spin, gamma: float, grid, gamma_bar: float = 0.0) -> float:
    """Worst relative disagreement of the closed forms against the CG summation.

    grid is an iterable of real dimensionless detunings; every point is
    evaluated with the complex detuning delta - i*gamma_bar.  A non-finite
    point raises ValueError naming the first one, before anything is
    evaluated.  A point's deviation is the largest of its three relative
    coefficient errors, and the result is the Python max over the points
    starting from 0.0, which skips a NaN point: at i = 1/2 the tensor basis
    vanishes, b2 is NaN, and the result is 0.0.

    The grid is evaluated in blocks, with no numpy call per point: the closed
    forms and numpy's division factors (_divisors) come for _BLOCK_ROWS
    detunings at a time, and the oracle tensors are built from the pole
    tensors' nonzero entries and projected in stacks of _stack_size
    detunings.  Every coefficient equals, bit for bit, what the per-point
    public route gives (b_coefficients against extract_b_from_d of
    oracle_d_tensor), so the result equals that route's loop.  Memory is
    bounded per block, not by the grid size.  At gamma_bar = 0 the first grid
    point within POLE_EPSILON of a level raises PoleProximityError.
    """
    spin = HalfInteger.coerce(spin)
    grid = np.asarray(list(grid), dtype=float)
    if grid.size == 0:
        raise ValueError("empty detuning grid")
    finite = np.isfinite(grid)
    if not finite.all():
        k = int(finite.argmin())
        raise ValueError(f"detuning grid point {k} is not finite: {grid[k]}")
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
        factors, scl = _divisors(spin.twice, en, values)
        reference = np.concatenate([
            np.stack(_project(_pole_sum(spin.twice, factors[:, k:k + step], scl[:, k:k + step]),
                              basis), axis=1)
            for k in range(0, len(values), step)])
        dev = np.abs(analytic - reference) / np.maximum(np.abs(reference), 1e-300)
        for point in dev.max(axis=1).tolist():
            worst = max(worst, point)
    return worst
