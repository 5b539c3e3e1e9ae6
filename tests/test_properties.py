"""Physics invariants as properties over random spins, quadrupole ratios and detunings.

Spins run over 2i + 1 <= 22, gamma over [0, 0.01] and delta - i*gamma_bar over
delta in [-15, 15], at least CLEARANCE from every hyperfine level, with
gamma_bar = 0 or in [1e-6, 1e-2].  The tolerances are the ones the
example-based tests already use; these tests add coverage and replace none.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    hf_hamiltonian_matrix,
    make_spin_operators,
    oracle_d_tensor,
    oracle_vs_analytic_deviation,
    rotation_about_z,
    to_b_form,
)
from nucshift.cli import ORACLE_DIFF_THRESHOLD

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
CLEARANCE = 0.05  # offpole_grid's default distance from the poles

gamma_bars = st.one_of(st.just(0.0), st.floats(1e-6, 1e-2))


@st.composite
def off_pole(draw, min_twice: int = 1):
    """(spin, gamma, delta) with delta at least CLEARANCE from every level."""
    spin = HalfInteger(draw(st.integers(min_twice, 21)))
    gamma = draw(st.floats(0.0, 0.01))
    delta = draw(st.floats(-15.0, 15.0))
    assume(min(abs(delta - e) for e in hf_energies(spin, gamma).as_tuple()) >= CLEARANCE)
    return spin, gamma, delta


def clear_of_zero_crossings(values: np.ndarray) -> bool:
    # a per-component relative measure is ill-posed where one coefficient
    # crosses zero, so such points are drawn again
    magnitudes = np.abs(values)
    return magnitudes.min() > 1e-6 * magnitudes.max()


@PROPERTY
@given(off_pole(min_twice=2), gamma_bars)
def test_closed_forms_match_oracle(point, gamma_bar):
    # from i = 1 up: at i = 1/2 the tensor basis vanishes and the oracle's b2 is nan
    spin, gamma, delta = point
    analytic = b_coefficients(spin, gamma, ComplexDetuning.of(delta, gamma_bar)).as_array()
    assume(clear_of_zero_crossings(analytic))
    deviation = oracle_vs_analytic_deviation(spin, gamma, [delta], gamma_bar)
    assert deviation <= ORACLE_DIFF_THRESHOLD


@PROPERTY
@given(off_pole(), gamma_bars)
def test_a_form_maps_to_b_form(point, gamma_bar):
    spin, gamma, delta = point
    det = ComplexDetuning.of(delta, gamma_bar)
    direct = b_coefficients(spin, gamma, det).as_array()
    mapped = to_b_form(a_coefficients(spin, gamma, det), spin).as_array()
    assume(clear_of_zero_crossings(direct))
    assert (np.abs(mapped - direct) / np.abs(direct)).max() <= 1e-12
    assert np.abs(mapped - direct).max() <= 1e-14 * np.abs(direct).max()


@PROPERTY
@given(off_pole(), st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
def test_heff_hermitian_without_losses(point, parts):
    spin, gamma, delta = point
    e = np.array(parts[:3]) + 1j * np.array(parts[3:])
    ops = make_spin_operators(spin)
    for coeffs in (b_coefficients(spin, gamma, delta), a_coefficients(spin, gamma, delta)):
        h = assemble_heff(coeffs, e, ops).matrix
        assert np.abs(h - h.conj().T).max() <= 1e-13


def spin_rotation(op: np.ndarray, angle: float) -> np.ndarray:
    """exp(-i * angle * op) for a Hermitian spin matrix, through its eigenbasis."""
    w, v = np.linalg.eigh(op)
    return (v * np.exp(-1j * angle * w)) @ v.conj().T


def field_rotation(axis: int, angle: float) -> np.ndarray:
    """Proper rotation of a 3-vector by angle about coordinate axis 0, 1 or 2."""
    c, s = np.cos(angle), np.sin(angle)
    j, k = (axis + 1) % 3, (axis + 2) % 3
    r = np.eye(3)
    r[j, j], r[j, k], r[k, j], r[k, k] = c, -s, s, c
    return r


@PROPERTY
@given(off_pole(), gamma_bars, st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
       st.integers(0, 2), st.floats(-np.pi, np.pi))
def test_heff_covariant_under_rotations(point, gamma_bar, parts, axis, angle):
    # H(R.E) = U H(E) U^dagger with U = exp(-i angle I_axis), lossy or not
    spin, gamma, delta = point
    e = np.array(parts[:3]) + 1j * np.array(parts[3:])
    ops = make_spin_operators(spin)
    if axis == 2:
        u = rotation_about_z(ops, angle)
    else:
        u = spin_rotation(ops.vector()[axis], angle)
    rotated = field_rotation(axis, angle) @ e
    det = ComplexDetuning.of(delta, gamma_bar)
    for coeffs in (b_coefficients(spin, gamma, det), a_coefficients(spin, gamma, det)):
        h = assemble_heff(coeffs, e, ops).matrix
        scale = np.abs(h).max()
        assume(scale > 0.0)
        want = u @ h @ u.conj().T
        assert np.abs(assemble_heff(coeffs, rotated, ops).matrix - want).max() <= 1e-12 * scale


def green_tensor(spin, gamma: float, det: ComplexDetuning) -> np.ndarray:
    """D_sq = A_s^T (delta - i gamma_bar - H)^-1 A_q^*, A_s = d_s (x) 1_N, shape (3, 3, N, N).

    The resolvent of the hyperfine Hamiltonian on |m_j> (x) |m_i>, the
    paper's route: it needs neither the Clebsch-Gordan coefficients nor the
    level formula of hf_energies.
    """
    h = hf_hamiltonian_matrix(spin, gamma)
    green = np.linalg.inv(det.value * np.eye(len(h)) - h)
    dim = spin.twice + 1
    a = np.stack([np.kron(d_s[:, None], np.eye(dim)) for d_s in dipole_matrix_elements()])
    return np.einsum("sxm,xy,qyn->sqmn", a, green, a.conj())


@PROPERTY
@given(off_pole(), gamma_bars)
def test_green_operator_matches_oracle_tensor(point, gamma_bar):
    spin, gamma, delta = point
    det = ComplexDetuning.of(delta, gamma_bar)
    green = green_tensor(spin, gamma, det)
    oracle = oracle_d_tensor(spin, gamma, det).blocks
    assert np.abs(green - oracle).max() <= 1e-13 * np.abs(oracle).max()


@PROPERTY
@given(off_pole(min_twice=2), gamma_bars)
def test_green_operator_matches_closed_forms(point, gamma_bar):
    # from i = 1 up: at i = 1/2 the tensor basis vanishes and the projected b2 is nan
    spin, gamma, delta = point
    det = ComplexDetuning.of(delta, gamma_bar)
    analytic = b_coefficients(spin, gamma, det).as_array()
    assume(clear_of_zero_crossings(analytic))
    projected, _ = extract_b_from_d(DTensor(green_tensor(spin, gamma, det)),
                                    make_spin_operators(spin))
    assert (np.abs(projected.as_array() - analytic) / np.abs(analytic)).max() <= ORACLE_DIFF_THRESHOLD
