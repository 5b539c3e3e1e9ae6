"""Closed-form scalar, vector and tensor light-shift coefficients.

The coefficients come in two equivalent triples:

* a-form (c0, c1, c2): the unsymmetrized decomposition
  D_sq = c0 d_sq + i c1 eps_ksq I_k + c2 I_s I_q of the light-shift tensor;
* b-form (c0, c1, c2): the symmetric-traceless (Lande) decomposition, related
  exactly by b0 = a0 + i(i+1) a2 / 3, b1 = a1 + a2/2, b2 = a2/2.

All values here are dimensionless: the overall factor |d_ge|^2 / (hbar A_hf)
is applied only by physical_b.  Detunings are measured in units of hbar*A_hf.
Radiative losses are included by the complex detuning d - i*gbar, where
gbar = Gamma/|A_hf| >= 0; the loss rate is folded in with the magnitude of
A_hf so gbar stays non-negative for either sign of A_hf, and no half-width
factor is applied to the linewidth.  With this convention Im b0 >= 0 in the
dimensionless core; the physical coefficients of a species with A_hf < 0
acquire the decaying sign through physical_b.

A single complex code path serves both lossless and lossy evaluation; the
gbar = 0 case stays exactly real because complex arithmetic with zero
imaginary parts is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .hyperfine import AtomParams, derive_constants, hf_energies
from .spin_algebra import HalfInteger

#: Minimum distance from a (formal) pole required of real detunings when gbar = 0.
POLE_EPSILON = 1e-9


class PoleProximityError(ValueError):
    """Raised when a lossless evaluation lands within POLE_EPSILON of a hyperfine pole."""


class NonFiniteResultError(ArithmeticError):
    """A finite input overflowed to inf or nan inside the computation (CLI exit code 3)."""


class CoeffForm(Enum):
    A_FORM = "a"
    B_FORM = "b"


@dataclass(frozen=True)
class ComplexDetuning:
    """Detuning with an optional loss part: value = delta_bar - i*gamma_bar.

    Both parts of value and gamma_bar must be finite, and gamma_bar >= 0.
    """

    value: complex
    gamma_bar: float = 0.0

    def __post_init__(self):
        value = complex(self.value)
        for name, x in (("gamma_bar", self.gamma_bar), ("Re(value)", value.real),
                        ("Im(value)", value.imag)):
            if not math.isfinite(x):
                raise ValueError(f"{name} must be finite, got {x!r}")
        if self.gamma_bar < 0:
            raise ValueError(f"gamma_bar must be non-negative, got {self.gamma_bar!r}")
        if value.imag != -self.gamma_bar:
            raise ValueError("Im(value) must equal -gamma_bar")
        object.__setattr__(self, "value", value)

    @classmethod
    def of(cls, delta_bar: float, gamma_bar: float = 0.0) -> "ComplexDetuning":
        imag = -gamma_bar if gamma_bar != 0.0 else 0.0  # avoid the negative zero
        return cls(value=complex(delta_bar, imag), gamma_bar=gamma_bar)

    @property
    def delta_bar(self) -> float:
        return self.value.real


def _as_detuning(delta) -> ComplexDetuning:
    if isinstance(delta, ComplexDetuning):
        return delta
    return ComplexDetuning.of(float(delta))


@dataclass(frozen=True)
class PolarizabilitySet:
    """Coefficient triple (scalar, vector, tensor) in a-form or b-form.

    dimensional is False for the dimensionless core values and True after
    physical_b applied the |d_ge|^2/(hbar A_hf) scale.
    """

    form: CoeffForm
    c0: complex
    c1: complex
    c2: complex

    dimensional: bool = False

    def as_array(self) -> np.ndarray:
        return np.array([self.c0, self.c1, self.c2], dtype=complex)


def _near_pole(delta_bar, energies):
    """Whether the real detuning lies within POLE_EPSILON of a level; elementwise for an array."""
    return ((abs(delta_bar - energies.e_lower) <= POLE_EPSILON)
            | (abs(delta_bar - energies.e_mid) <= POLE_EPSILON)
            | (abs(delta_bar - energies.e_upper) <= POLE_EPSILON))


def _check_real_poles(delta_bar: float, energies) -> None:
    """Raise PoleProximityError when the real detuning lies within POLE_EPSILON of a level."""
    if _near_pole(delta_bar, energies):
        pole = min(energies.as_tuple(), key=lambda e: abs(delta_bar - e))
        raise PoleProximityError(
            f"detuning {delta_bar} within {POLE_EPSILON} of hyperfine pole at {pole}"
        )


def _check_poles(detuning: ComplexDetuning, energies) -> None:
    if detuning.gamma_bar == 0.0:
        _check_real_poles(detuning.value.real, energies)


def a_coefficients(spin, gamma: float, delta) -> PolarizabilitySet:
    """Unsymmetrized coefficient triple at a (possibly complex) dimensionless detuning.

    delta may be a real number (lossless) or a ComplexDetuning.
    """
    spin = HalfInteger.coerce(spin)
    det = _as_detuning(delta)
    en = hf_energies(spin, gamma)
    _check_poles(det, en)
    d = det.value
    e_lo, e_mid, e_up = en.as_tuple()

    e_plus = (e_up + e_mid + e_lo) / 2.0 - d
    e_minus = (e_up - e_mid + e_lo) / 2.0 - d
    two_pole = (d - e_up) * (d - e_lo)
    three_pole = two_pole * (d - e_mid)

    a0 = -e_plus / two_pole
    a1 = e_mid / two_pole
    a2 = (gamma * e_minus - e_mid * e_mid) / three_pole
    return PolarizabilitySet(form=CoeffForm.A_FORM, c0=a0, c1=a1, c2=a2)


def _b_formula(d, e_lo, e_mid, e_up, gamma, ibar2):
    """The b-form triple (b0, b1, b2) as rational functions of the detuning d.

    The one copy of the closed forms.  It takes any arithmetic that has the
    operators it uses: Python complex (b_coefficients), _Pair arrays
    (_b_columns) or exact symbols.  Its literals are ints, so they enter each
    arithmetic exactly.
    """
    e_plus = (e_up + e_mid + e_lo) / 2 - d
    e_minus = (e_up - e_mid + e_lo) / 2 - d
    tensor_num = gamma * e_minus - e_mid * e_mid
    three_pole = (d - e_up) * (d - e_mid) * (d - e_lo)

    b0 = (-3 * e_plus * (d - e_mid) + ibar2 * tensor_num) / (3 * three_pole)
    b1 = (2 * e_mid * (d - e_mid) + tensor_num) / (2 * three_pole)
    b2 = tensor_num / (2 * three_pole)
    return b0, b1, b2


def b_coefficients(spin, gamma: float, delta) -> PolarizabilitySet:
    """Symmetric-traceless coefficient triple; equals the exact map of a_coefficients."""
    spin = HalfInteger.coerce(spin)
    det = _as_detuning(delta)
    en = hf_energies(spin, gamma)
    _check_poles(det, en)
    ibar2 = spin.value * (spin.value + 1.0)
    b0, b1, b2 = _b_formula(det.value, *en.as_tuple(), gamma, ibar2)
    return PolarizabilitySet(form=CoeffForm.B_FORM, c0=b0, c1=b1, c2=b2)


#: Rows per block of the array kernel: large enough to amortize numpy's per-call
#: cost, small enough that a block's temporaries and formatted text stay small.
_BLOCK_ROWS = 2048


class _Pair:
    """A complex value as float64 (re, im) parts, with CPython's complex rules.

    The parts are floats or float64 arrays, so one _Pair holds a column of
    complex values.  Each operator repeats what CPython up to 3.13 does for
    complex operands: a real operand x counts as (x, 0.0), so its 0.0
    imaginary part enters every sum, difference and product, and division is
    _Py_c_quot step by step (numpy's complex division multiplies by 1/denom,
    which moves last bits; a zero divisor gives nan where CPython raises
    ZeroDivisionError).  Only the operators _b_formula and _merit_block use
    are defined.  __array_ufunc__ = None makes an ndarray operand return
    NotImplemented, so numpy defers to the reflected operator here.
    """

    __slots__ = ("re", "im")
    __array_ufunc__ = None

    def __init__(self, re, im):
        self.re = re
        self.im = im

    @staticmethod
    def _of(x) -> "_Pair":
        return x if isinstance(x, _Pair) else _Pair(x, 0.0)

    def __add__(self, other):
        other = _Pair._of(other)
        return _Pair(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _Pair._of(other)
        return _Pair(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _Pair._of(other) - self

    def __mul__(self, other):
        other = _Pair._of(other)
        return _Pair(self.re * other.re - self.im * other.im,
                     self.re * other.im + self.im * other.re)

    def __rmul__(self, other):
        return _Pair._of(other) * self

    def __truediv__(self, other):
        # _Py_c_quot: scale by the larger divisor part, then divide by denom
        other = _Pair._of(other)
        ar, ai, br, bi = self.re, self.im, other.re, other.im
        by_real = np.abs(br) >= np.abs(bi)
        ratio_r = bi / br
        denom_r = br + bi * ratio_r
        ratio_i = br / bi
        denom_i = br * ratio_i + bi
        # the second branch also covers a nan divisor, where both give nan
        re = np.where(by_real, (ar + ai * ratio_r) / denom_r, (ar * ratio_i + ai) / denom_i)
        im = np.where(by_real, (ai - ar * ratio_r) / denom_r, (ai * ratio_i - ar) / denom_i)
        return _Pair(re, im)


def _b_columns(spin, gamma: float, delta_bar, gamma_bar: float) -> tuple[np.ndarray, ...]:
    """b_coefficients over an array of real detunings: Re b0, Im b0, Re b1, Im b1, Re b2, Im b2.

    Every value equals, bit for bit, what b_coefficients returns at
    ComplexDetuning.of(delta_bar[k], gamma_bar): both evaluate _b_formula,
    here on a _Pair of the detunings, whose operators follow CPython's
    complex rules.  These are the mixed-mode rules of CPython up to 3.13;
    tests/test_array_kernel.py asserts the equality and fails if an
    interpreter changes them.

    There is no pole guard: rows on a pole hold whatever the formulas give,
    and the caller masks them with _near_pole.
    """
    spin = HalfInteger.coerce(spin)
    en = hf_energies(spin, gamma)
    ibar2 = spin.value * (spin.value + 1.0)
    d = _Pair(np.asarray(delta_bar, dtype=float),
              -gamma_bar if gamma_bar != 0.0 else 0.0)  # Im of ComplexDetuning.of
    with np.errstate(all="ignore"):  # overflow and pole rows stay silent, as in the scalar path
        b0, b1, b2 = _b_formula(d, *en.as_tuple(), gamma, ibar2)
    return b0.re, b0.im, b1.re, b1.im, b2.re, b2.im


def to_b_form(aset: PolarizabilitySet, spin) -> PolarizabilitySet:
    """Exact a-form -> b-form conversion (needs the spin for the i(i+1) trace term)."""
    if aset.form is not CoeffForm.A_FORM:
        raise ValueError("to_b_form expects an a-form coefficient set")
    spin = HalfInteger.coerce(spin)
    ibar2 = spin.value * (spin.value + 1.0)
    return PolarizabilitySet(
        form=CoeffForm.B_FORM,
        c0=aset.c0 + ibar2 * aset.c2 / 3.0,
        c1=aset.c1 + aset.c2 / 2.0,
        c2=aset.c2 / 2.0,
        dimensional=aset.dimensional,
    )


def asymptotic_b(spin, gamma: float, delta_bar: float) -> PolarizabilitySet:
    """Far-detuned b-form series, truncated at the cubic inverse power of the detuning.

    Valid only for |delta_bar| beyond the outermost hyperfine level; raises
    ValueError otherwise.
    """
    spin = HalfInteger.coerce(spin)
    en = hf_energies(spin, gamma)
    if abs(delta_bar) <= max(abs(e) for e in en.as_tuple()):
        raise ValueError("asymptotic series requires |delta| beyond the outermost level")
    ibar2 = spin.value * (spin.value + 1.0)
    x = 1.0 / delta_bar
    b0 = x + (2.0 / 3.0) * gamma * ibar2 * x**2 \
        + (2.0 / 3.0) * ibar2 * (1.0 + gamma * (gamma * ibar2 - 1.0)) * x**3
    b1 = -(1.0 - gamma / 2.0) * x**2 \
        + 0.5 * (1.0 - 4.0 * gamma * ibar2 + gamma**2 * (3.0 * ibar2 - 1.0)) * x**3
    b2 = -(gamma / 2.0) * x**2 \
        + 0.5 * (-1.0 + 4.0 * gamma - gamma**2 * (ibar2 + 3.0)) * x**3
    return PolarizabilitySet(form=CoeffForm.B_FORM, c0=complex(b0), c1=complex(b1), c2=complex(b2))


def im_b_first_order(spin, delta_bar: float, gamma_bar: float) -> tuple[float, float, float]:
    """First-order-in-linewidth imaginary parts of the b coefficients, quadrupole neglected.

    These expansions hold for detunings not too close to the hyperfine lines;
    for a finite quadrupole ratio use the full complex path instead.
    """
    spin = HalfInteger.coerce(spin)
    en = hf_energies(spin, 0.0)
    _check_poles(ComplexDetuning.of(delta_bar), en)
    d = delta_bar
    ibar2 = spin.value * (spin.value + 1.0)
    prod = (d - en.e_upper) * (d - en.e_mid) * (d - en.e_lower)
    prod2 = prod * prod

    im0 = (3.0 * (d + 1.0) ** 4 + 2.0 * (d + 1.0) * ibar2 + ibar2**2) / (3.0 * prod2) * gamma_bar
    im1 = -(4.0 * d**3 + 13.0 * d**2 + 12.0 * d - ibar2 + 3.0) / (2.0 * prod2) * gamma_bar
    im2 = -(3.0 * d**2 + 4.0 * d - ibar2 + 1.0) / (2.0 * prod2) * gamma_bar
    return (im0, im1, im2)


def loss_ratio_limit(params: AtomParams) -> float:
    """Far-detuned limit of |Im b0 / Re b1|: the linewidth over |A_hf|."""
    consts = derive_constants(params)
    return params.linewidth / abs(consts.a_hf)


def physical_b(pset: PolarizabilitySet, params: AtomParams) -> PolarizabilitySet:
    """Scale a dimensionless coefficient set by |d_ge|^2 / (hbar A_hf), signed A_hf."""
    if pset.dimensional:
        raise ValueError("coefficient set is already dimensional")
    consts = derive_constants(params)
    scale = params.dge_sq / consts.a_hf
    return PolarizabilitySet(
        form=pset.form,
        c0=pset.c0 * scale,
        c1=pset.c1 * scale,
        c2=pset.c2 * scale,
        dimensional=True,
    )


def offpole_grid(spin, gamma: float, lo: float = -8.0, hi: float = 6.0,
                 n: int = 200, clearance: float = 0.05) -> np.ndarray:
    """Deterministic grid of n detunings in [lo, hi] keeping `clearance` from every pole."""
    spin = HalfInteger.coerce(spin)
    en = hf_energies(spin, gamma)
    candidates = np.linspace(lo, hi, 4 * n)
    mask = np.ones(len(candidates), dtype=bool)
    for e in en.as_tuple():
        mask &= np.abs(candidates - e) >= clearance
    kept = candidates[mask]
    if len(kept) < n:
        raise ValueError("interval too crowded with poles for the requested grid size")
    idx = np.round(np.linspace(0, len(kept) - 1, n)).astype(int)
    return kept[idx]
