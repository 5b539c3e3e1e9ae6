"""Laser field geometries and assembly of the effective nuclear-spin Hamiltonian.

The assembled matrices are dimensionless: with a coefficient set from
shift_coefficients and a field vector whose magnitude is the numeric amplitude
E, entries carry the scale E^2/4 times the dimensionless coefficients (the
physical |d_ge|^2/(hbar A_hf) factor rides along only if the coefficients went
through physical_b first).  Spatial phase origins follow the geometry
definitions below, chosen so the field components are real at the coordinate
origin where possible.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Union

import numpy as np

from .shift_coefficients import CoeffForm, PolarizabilitySet, to_b_form
from .spin_algebra import SpinOperators


@dataclass(frozen=True)
class _Beam:
    """Amplitude E and wavenumber k shared by the plane-wave geometries, both positive."""

    amplitude: float
    wavenumber: float

    def __post_init__(self):
        if self.amplitude <= 0:
            raise ValueError("amplitude must be positive")
        if self.wavenumber <= 0:
            raise ValueError("wavenumber must be positive")


@dataclass(frozen=True)
class SingleLinear(_Beam):
    """One beam along z, linearly polarized along z: E e^{ikz} e_z."""


@dataclass(frozen=True)
class SingleCircular(_Beam):
    """One beam along z, circularly polarized: E e^{ikz} (e_x + handedness*i e_y)/sqrt(2)."""

    handedness: int = +1

    def __post_init__(self):
        super().__post_init__()
        if self.handedness not in (+1, -1):
            raise ValueError("handedness must be +1 or -1")


@dataclass(frozen=True)
class CounterPropCross(_Beam):
    """Cross-polarized counter-propagating pair: (E/sqrt(2)) (e^{ikz} e_x + e^{-ikz} e_y)."""


@dataclass(frozen=True)
class PerpendicularSoc(_Beam):
    """Circular beam along z plus z-polarized beam along y, detuned by delta_omega.

    (E/sqrt(2)) (e_+ e^{ikz} + e_z e^{i(ky - delta_omega t)}); the relative
    phase ky - kz - delta_omega*t winds the spin in the xy plane.
    """

    delta_omega: float = 0.0


@dataclass(frozen=True)
class RawVector:
    """An arbitrary complex field vector, position- and time-independent."""

    e: tuple[complex, complex, complex]


FieldConfig = Union[SingleLinear, SingleCircular, CounterPropCross, PerpendicularSoc, RawVector]


class HeffUnits(Enum):
    DIMENSIONLESS = "dimensionless"
    PHYSICAL = "physical"


class HeffParts(NamedTuple):
    scalar: np.ndarray
    vector: np.ndarray
    tensor: np.ndarray


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Assembled N x N effective Hamiltonian, with the scalar/vector/tensor split."""

    matrix: np.ndarray
    parts: Optional[HeffParts]
    units: HeffUnits


def field_at(config: FieldConfig, position, time: float = 0.0) -> np.ndarray:
    """Complex field amplitude of a geometry at a position (x, y, z) and time."""
    _, y, z = (float(c) for c in position)
    if isinstance(config, RawVector):
        return np.array(config.e, dtype=complex)
    amp = config.amplitude
    k = config.wavenumber
    if isinstance(config, SingleLinear):
        return np.array([0.0, 0.0, amp * cmath.exp(1j * k * z)])
    if isinstance(config, SingleCircular):
        phase = amp * cmath.exp(1j * k * z) / math.sqrt(2.0)
        return np.array([phase, config.handedness * 1j * phase, 0.0])
    if isinstance(config, CounterPropCross):
        return np.array(
            [amp * cmath.exp(1j * k * z) / math.sqrt(2.0),
             amp * cmath.exp(-1j * k * z) / math.sqrt(2.0),
             0.0]
        )
    if isinstance(config, PerpendicularSoc):
        pref = amp / math.sqrt(2.0)
        circ = pref * cmath.exp(1j * k * z) / math.sqrt(2.0)
        lin = pref * cmath.exp(1j * (k * y - config.delta_omega * time))
        return np.array([circ, 1j * circ, lin])
    raise TypeError(f"unknown field configuration {type(config).__name__}")


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # the same array ufuncs np.cross runs, so bit-identical to it, without its
    # axis handling; indexing component by component as Python scalars is not
    return a[[1, 2, 0]] * b[[2, 0, 1]] - a[[2, 0, 1]] * b[[1, 2, 0]]


class _FieldTerms(NamedTuple):
    intensity: complex
    cross_dot_i: np.ndarray     # (E* x E) . I
    e_dot_i: np.ndarray
    econj_dot_i: np.ndarray
    econj_i_e_i: np.ndarray     # (E* . I)(E . I)


def _field_terms(e: np.ndarray, ops: SpinOperators) -> _FieldTerms:
    """The field-dependent operators both coefficient forms are built from."""
    e_conj = e.conj()
    e_dot_i = sum(ec * op for ec, op in zip(e, ops.vector()))
    econj_dot_i = sum(ec * op for ec, op in zip(e_conj, ops.vector()))
    return _FieldTerms(
        intensity=complex(e_conj @ e),
        cross_dot_i=sum(c * op for c, op in zip(_cross(e_conj, e), ops.vector())),
        e_dot_i=e_dot_i,
        econj_dot_i=econj_dot_i,
        econj_i_e_i=econj_dot_i @ e_dot_i,
    )


def _b_parts(b: PolarizabilitySet, terms: _FieldTerms, ops: SpinOperators) -> HeffParts:
    scalar = (b.c0 / 4.0) * terms.intensity * ops.eye
    vector = (1j * b.c1 / 4.0) * terms.cross_dot_i
    tensor = (b.c2 / 4.0) * (
        terms.econj_i_e_i + terms.e_dot_i @ terms.econj_dot_i
        - (2.0 / 3.0) * terms.intensity * ops.total_squared()
    )
    return HeffParts(scalar=scalar, vector=vector, tensor=tensor)


def assemble_heff(coeffs: PolarizabilitySet, e, ops: SpinOperators) -> EffectiveHamiltonian:
    """Assemble the effective Hamiltonian (E*/2 . D . E/2 structure) for a field vector.

    a-form sets use the unsymmetrized operator ordering (E*.I)(E.I) verbatim;
    b-form sets use the symmetric-traceless split.  Both orderings produce the
    same matrix, and the scalar/vector/tensor parts are always reported in the
    symmetric split (for a-form input they agree with the matrix to rounding,
    not bit-exactly).
    """
    e = np.asarray(e, dtype=complex)
    if e.shape != (3,):
        raise ValueError("field must be a complex 3-vector")
    units = HeffUnits.PHYSICAL if coeffs.dimensional else HeffUnits.DIMENSIONLESS
    terms = _field_terms(e, ops)

    if coeffs.form is CoeffForm.B_FORM:
        parts = _b_parts(coeffs, terms, ops)
        matrix = parts.scalar + parts.vector + parts.tensor
        return EffectiveHamiltonian(matrix=matrix, parts=parts, units=units)

    matrix = (
        (coeffs.c0 / 4.0) * terms.intensity * ops.eye
        + (1j * coeffs.c1 / 4.0) * terms.cross_dot_i
        + (coeffs.c2 / 4.0) * terms.econj_i_e_i
    )
    parts = _b_parts(to_b_form(coeffs, ops.spin), terms, ops)
    return EffectiveHamiltonian(matrix=matrix, parts=parts, units=units)


class CounterPropComponents(NamedTuple):
    h0: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    h2_lab: np.ndarray


def counterprop_components(b: PolarizabilitySet, amplitude: float, k: float, z: float,
                           ops: SpinOperators) -> CounterPropComponents:
    """Scalar, vector and tensor parts of the counter-propagating lattice at height z.

    h2 is expressed through the rotated operators (I_x -+ I_y)/sqrt(2); h2_lab
    is the equivalent lab-frame form with the {I_x, I_y} anticommutator.  The
    two are the same matrix and are both returned so the identity can be
    checked where it is used.
    """
    if b.form is not CoeffForm.B_FORM:
        raise ValueError("counterprop_components expects b-form coefficients")
    amp_sq = amplitude * amplitude
    i_sq = ops.total_squared()

    h0 = (amp_sq / 4.0) * b.c0 * ops.eye
    h1 = (amp_sq / 4.0) * b.c1 * math.sin(2.0 * k * z) * ops.iz

    cos_kz = math.cos(k * z)
    sin_kz = math.sin(k * z)
    h2 = 0.5 * b.c2 * amp_sq * (
        cos_kz**2 * ops.iy_rot_sq + sin_kz**2 * ops.ix_rot_sq - i_sq / 3.0
    )
    h2_lab = 0.5 * b.c2 * amp_sq * (
        i_sq / 6.0 - ops.iz_sq / 2.0 + 0.5 * math.cos(2.0 * k * z) * ops.ixy_anticomm
    )
    return CounterPropComponents(h0=h0, h1=h1, h2=h2, h2_lab=h2_lab)


def ixy_operator(ops: SpinOperators, s: float) -> np.ndarray:
    """Spin component winding in the xy plane: I_x cos(s) + I_y sin(s)."""
    return ops.ix * math.cos(s) + ops.iy * math.sin(s)


def soc_components(b: PolarizabilitySet, amplitude: float, k: float, delta_omega: float,
                   position, time: float, ops: SpinOperators) -> tuple[np.ndarray, np.ndarray]:
    """Time-dependent vector and tensor parts of the perpendicular-beam geometry."""
    if b.form is not CoeffForm.B_FORM:
        raise ValueError("soc_components expects b-form coefficients")
    _, y, z = (float(c) for c in position)
    s = k * y - k * z - delta_omega * time
    amp_sq = amplitude * amplitude
    ixy = ixy_operator(ops, s)
    h1 = -(amp_sq / 8.0) * b.c1 * (ops.iz - math.sqrt(2.0) * ixy)
    anticomm = ixy @ ops.iz + ops.iz @ ixy
    h2 = -(amp_sq / 4.0) * b.c2 * (
        ops.total_squared() / 6.0 - ops.iz_sq / 2.0 - anticomm / math.sqrt(2.0)
    )
    return h1, h2


def soc_rotating_frame(b: PolarizabilitySet, amplitude: float, k: float, delta_omega: float,
                       position, ops: SpinOperators) -> tuple[np.ndarray, np.ndarray]:
    """Static vector and tensor parts after the spin rotation at delta_omega about z.

    This is soc_components at t = 0 plus delta_omega * I_z on the vector part:
    the frame change trades the time dependence for that extra term, and
    choosing delta_omega = tuned_delta_omega removes the I_z projection
    entirely.
    """
    h1, h2 = soc_components(b, amplitude, k, delta_omega, position, 0.0, ops)
    return h1 + delta_omega * ops.iz, h2


def tuned_delta_omega(b: PolarizabilitySet, amplitude: float) -> float:
    """Frequency offset that cancels the uniform I_z term in the rotating frame."""
    return float((b.c1 * amplitude * amplitude / 8.0).real)


def rotation_about_z(ops: SpinOperators, angle: float) -> np.ndarray:
    """Unitary exp(-i * angle * I_z); diagonal since the basis is ordered by m."""
    m = ops.m_values()
    return np.diag(np.exp(-1j * angle * m))
