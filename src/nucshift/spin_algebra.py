"""Exact half-integer quantum numbers, spin matrices and Clebsch-Gordan coefficients.

Everything downstream works in the ``|i, m>`` basis ordered by ascending m,
with hbar = 1 (dimensionless spin matrices).  All containers are immutable and
all functions are pure, so the module is safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

#: Largest dense matrix dimension make_spin_operators builds unless overridden.
DEFAULT_MAX_DIMENSION = 64


@dataclass(frozen=True, order=True)
class HalfInteger:
    """A half-integer quantum number stored as twice its value.

    Storing 2x keeps sums, differences and comparisons exact integer
    arithmetic; no floating rounding can creep into level bookkeeping.
    """

    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, (int, np.integer)):
            raise TypeError(f"twice must be an integer, got {type(self.twice).__name__}")
        object.__setattr__(self, "twice", int(self.twice))

    @classmethod
    def coerce(cls, value) -> "HalfInteger":
        """Accept a HalfInteger, an int, or a float lying exactly on the half-integer grid."""
        if isinstance(value, HalfInteger):
            return value
        twice = 2 * float(value)
        if twice != round(twice):
            raise ValueError(f"{value!r} is not a half-integer")
        return cls(int(round(twice)))

    @property
    def value(self) -> float:
        return self.twice / 2.0

    def __float__(self) -> float:
        return self.twice / 2.0

    def __add__(self, other: "HalfInteger") -> "HalfInteger":
        return HalfInteger(self.twice + other.twice)

    def __sub__(self, other: "HalfInteger") -> "HalfInteger":
        return HalfInteger(self.twice - other.twice)

    def __neg__(self) -> "HalfInteger":
        return HalfInteger(-self.twice)

    def __abs__(self) -> "HalfInteger":
        return HalfInteger(abs(self.twice))

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


@dataclass(frozen=True)
class SpinOperators:
    """Dense spin matrices ix, iy, iz for one angular momentum, basis ascending in m.

    The spin-only products the Hamiltonian assembly reuses are built once, at
    construction: the complex identity ``eye``, ``iz_sq`` = I_z^2, the
    anticommutator ``ixy_anticomm`` = {I_x, I_y}, the squares ``ix_rot_sq`` and
    ``iy_rot_sq`` of the rotated operators (I_x - I_y)/sqrt(2) and
    (I_x + I_y)/sqrt(2), and I^2, which total_squared() returns.  These
    arrays, and ix, iy, iz as make_spin_operators builds them, are shared by
    every caller that holds this object and are read-only: writing into one
    raises ValueError.
    """

    spin: HalfInteger
    dimension: int
    ix: np.ndarray
    iy: np.ndarray
    iz: np.ndarray
    eye: np.ndarray = field(init=False, repr=False, compare=False)
    iz_sq: np.ndarray = field(init=False, repr=False, compare=False)
    ixy_anticomm: np.ndarray = field(init=False, repr=False, compare=False)
    ix_rot_sq: np.ndarray = field(init=False, repr=False, compare=False)
    iy_rot_sq: np.ndarray = field(init=False, repr=False, compare=False)
    _i_sq: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ix, iy, iz = self.ix, self.iy, self.iz
        ix_rot = (ix - iy) / math.sqrt(2.0)
        iy_rot = (ix + iy) / math.sqrt(2.0)
        products = {
            "eye": np.eye(self.dimension, dtype=complex),
            "iz_sq": iz @ iz,
            "ixy_anticomm": ix @ iy + iy @ ix,
            "ix_rot_sq": ix_rot @ ix_rot,
            "iy_rot_sq": iy_rot @ iy_rot,
            "_i_sq": ix @ ix + iy @ iy + iz @ iz,
        }
        for name, matrix in products.items():
            matrix.setflags(write=False)
            object.__setattr__(self, name, matrix)

    def vector(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.ix, self.iy, self.iz)

    def total_squared(self) -> np.ndarray:
        """ix^2 + iy^2 + iz^2; equals i(i+1) times the identity up to rounding."""
        return self._i_sq

    def m_values(self) -> np.ndarray:
        i = self.spin.value
        return np.arange(self.dimension) - i


def make_spin_operators(spin, max_dimension: int = DEFAULT_MAX_DIMENSION) -> SpinOperators:
    """Build the dense spin matrices for a spin quantum number.

    The basis is ordered by ascending m = -i ... +i, iz is diagonal with
    entries m, and ix, iy come from the ladder matrix elements
    sqrt(i(i+1) - m(m+1)).

    Args:
        spin: spin quantum number (HalfInteger or half-integer-valued number),
            must be >= 1/2.
        max_dimension: reject spins whose matrix dimension would exceed this.
    """
    spin = HalfInteger.coerce(spin)
    if spin.twice < 1:
        raise ValueError("spin must be at least 1/2; there is no spin manifold to manipulate")
    dim = spin.twice + 1
    if dim > max_dimension:
        raise ValueError(f"dimension {dim} exceeds max_dimension={max_dimension}")

    i = spin.value
    m = np.arange(dim) - i
    iz = np.diag(m).astype(complex)
    raising = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        raising[k + 1, k] = math.sqrt(i * (i + 1) - m[k] * (m[k] + 1))
    lowering = raising.conj().T
    ix = (raising + lowering) / 2.0
    iy = (raising - lowering) / 2.0j
    for op in (ix, iy, iz):
        op.setflags(write=False)  # the cached products are only valid for these values
    return SpinOperators(spin=spin, dimension=dim, ix=ix, iy=iy, iz=iz)


def _ladder_down(tj: int, tm: int) -> float:
    # <j, m-1| J- |j, m> = sqrt(j(j+1) - m(m-1)), arguments in twice-units
    j = tj / 2.0
    m = tm / 2.0
    return math.sqrt(j * (j + 1) - m * (m - 1))


def _ladder_up(tj: int, tm: int) -> float:
    j = tj / 2.0
    m = tm / 2.0
    return math.sqrt(j * (j + 1) - m * (m + 1))


@lru_cache(maxsize=None)
def _cg_table(tj1: int, tj2: int) -> dict[tuple[int, int, int], float]:
    """All coefficients <j1 m1 j2 m2|f mf> for one (j1, j2), keyed (2f, 2mf, 2m1).

    Built per f by the downward m recursion from the stretched state, with the
    top row fixed by annihilation under the total raising operator and the
    Condon-Shortley sign (largest-m1 coefficient positive).
    """
    table: dict[tuple[int, int, int], float] = {}
    for tf in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        # top row, mf = f
        tm1_lo = max(-tj1, tf - tj2)
        tm1s = list(range(tm1_lo, tj1 + 1, 2))
        row = [1.0]
        for tm1 in tm1s[:-1]:
            # total raising operator annihilates |f, f>
            num = _ladder_up(tj1, tm1)
            den = _ladder_up(tj2, tf - tm1 - 2)
            row.append(-row[-1] * num / den)
        norm = math.sqrt(sum(c * c for c in row))
        sign = 1.0 if row[-1] > 0 else -1.0
        row = [c * sign / norm for c in row]
        current = dict(zip(tm1s, row))
        for tm1, c in current.items():
            table[(tf, tf, tm1)] = c
        # recur downward in mf
        for tmf in range(tf, -tf + 1, -2):
            nxt: dict[int, float] = {}
            denom = _ladder_down(tf, tmf)
            tm1_lo = max(-tj1, (tmf - 2) - tj2)
            tm1_hi = min(tj1, (tmf - 2) + tj2)
            for tm1 in range(tm1_lo, tm1_hi + 1, 2):
                acc = 0.0
                c_up = current.get(tm1 + 2)
                if c_up is not None:
                    acc += c_up * _ladder_down(tj1, tm1 + 2)
                c_same = current.get(tm1)
                if c_same is not None:
                    acc += c_same * _ladder_down(tj2, tmf - tm1)
                nxt[tm1] = acc / denom
            for tm1, c in nxt.items():
                table[(tf, tmf - 2, tm1)] = c
            current = nxt
    return table


def _check_projection(j: HalfInteger, m: HalfInteger, name: str) -> None:
    if abs(m.twice) > j.twice:
        raise ValueError(f"|{name}| exceeds its angular momentum: m={m}, j={j}")
    if (j.twice - m.twice) % 2 != 0:
        raise ValueError(f"{name}={m} is not an integer step away from j={j}")


def clebsch_gordan(j1, j2, m1, m2, f, mf) -> float:
    """Clebsch-Gordan coefficient <j1 m1 j2 m2|f mf> in the Condon-Shortley convention.

    Returns 0 when m1 + m2 != mf; raises on triangle-rule violations or
    inconsistent projections.
    """
    j1 = HalfInteger.coerce(j1)
    j2 = HalfInteger.coerce(j2)
    m1 = HalfInteger.coerce(m1)
    m2 = HalfInteger.coerce(m2)
    f = HalfInteger.coerce(f)
    mf = HalfInteger.coerce(mf)
    _check_projection(j1, m1, "m1")
    _check_projection(j2, m2, "m2")
    _check_projection(f, mf, "mf")
    if f.twice < abs(j1.twice - j2.twice) or f.twice > j1.twice + j2.twice:
        raise ValueError(f"triangle rule violated: |j1-j2| <= f <= j1+j2 fails for f={f}")
    if (j1.twice + j2.twice - f.twice) % 2 != 0:
        raise ValueError(f"f={f} is not an integer step inside the triangle range of ({j1},{j2})")
    if m1.twice + m2.twice != mf.twice:
        return 0.0
    return _cg_table(j1.twice, j2.twice).get((f.twice, mf.twice, m1.twice), 0.0)
