"""Bichromatic tensor-shift cancellation and the vector-shift-to-loss figure of merit.

Two fields far apart in frequency add their effective Hamiltonians (the cross
terms oscillate fast and average out; that validity condition is the caller's
responsibility and is not simulated here).  Weighted so the real tensor
coefficients cancel, the pair keeps a finite vector shift while the tensor
shift vanishes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .shift_coefficients import (
    _BLOCK_ROWS,
    CoeffForm,
    ComplexDetuning,
    NonFiniteResultError,
    PolarizabilitySet,
    _Pair,
    _b_columns,
    _check_real_poles,
    _near_pole,
    b_coefficients,
)
from .hyperfine import hf_energies
from .spin_algebra import HalfInteger

SPEED_OF_LIGHT = 299792458.0  # m/s


class CancellationInfeasibleError(ValueError):
    """Raised when the two real tensor coefficients share a sign and cannot cancel."""


@dataclass(frozen=True)
class BichromaticSpec:
    """Two detunings with intensity weights normalized to unit total."""

    delta_alpha: float
    delta_beta: float
    weight_alpha: float
    weight_beta: float
    gamma_bar: float = 0.0

    def __post_init__(self):
        for w in (self.weight_alpha, self.weight_beta):
            if not 0.0 <= w <= 1.0:
                raise ValueError("weights must lie in [0, 1]")
        if abs(self.weight_alpha + self.weight_beta - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if self.gamma_bar < 0:
            raise ValueError("gamma_bar must be non-negative")


def _b_pair(spin, gamma: float, delta_alpha: float, delta_beta: float,
            gamma_bar: float) -> tuple[PolarizabilitySet, PolarizabilitySet]:
    # real-part distance: the scan must flag on-pole rows even with losses on
    spin = HalfInteger.coerce(spin)
    en = hf_energies(spin, gamma)
    _check_real_poles(delta_alpha, en)
    _check_real_poles(delta_beta, en)
    pair = (b_coefficients(spin, gamma, ComplexDetuning.of(delta_alpha, gamma_bar)),
            b_coefficients(spin, gamma, ComplexDetuning.of(delta_beta, gamma_bar)))
    for delta, bset in zip((delta_alpha, delta_beta), pair):
        if not all(map(cmath.isfinite, (bset.c0, bset.c1, bset.c2))):
            raise NonFiniteResultError(f"result is not finite at delta_bar = {delta!r}")
    return pair


def _cancelling_weights(b_alpha: PolarizabilitySet,
                        b_beta: PolarizabilitySet) -> tuple[float, float]:
    b2_alpha = b_alpha.c2.real
    b2_beta = b_beta.c2.real
    if b2_alpha == 0.0 or b2_beta == 0.0 or (b2_alpha > 0) == (b2_beta > 0):
        raise CancellationInfeasibleError(
            f"Re b2 values {b2_alpha} and {b2_beta} do not have opposite signs"
        )
    w_alpha = abs(b2_beta) / (abs(b2_alpha) + abs(b2_beta))
    return w_alpha, 1.0 - w_alpha


def _weighted_sum(wa: float, wb: float, b_alpha: PolarizabilitySet,
                  b_beta: PolarizabilitySet) -> PolarizabilitySet:
    return PolarizabilitySet(
        form=CoeffForm.B_FORM,
        c0=wa * b_alpha.c0 + wb * b_beta.c0,
        c1=wa * b_alpha.c1 + wb * b_beta.c1,
        c2=wa * b_alpha.c2 + wb * b_beta.c2,
    )


def combined_coefficients(spec: BichromaticSpec, spin, gamma: float) -> PolarizabilitySet:
    """Intensity-weighted sum of the b coefficients of the two fields."""
    b_alpha, b_beta = _b_pair(spin, gamma, spec.delta_alpha, spec.delta_beta, spec.gamma_bar)
    return _weighted_sum(spec.weight_alpha, spec.weight_beta, b_alpha, b_beta)


def solve_tensor_cancellation(delta_alpha: float, delta_beta: float, spin, gamma: float,
                              gamma_bar: float = 0.0) -> tuple[float, float]:
    """Weights in (0, 1) summing to 1 that zero the combined real tensor coefficient.

    Requires Re b2 at the two detunings to have opposite signs; otherwise the
    cancellation is impossible and CancellationInfeasibleError is raised.
    """
    return _cancelling_weights(*_b_pair(spin, gamma, delta_alpha, delta_beta, gamma_bar))


@dataclass(frozen=True)
class MeritRow:
    """One detuning-imbalance point of the cancellation scan."""

    delta_small: float
    w_alpha: float
    re_b1_sum: float
    im_b0_sum: float
    ratio: float
    status: str  # "ok" | "pole" | "same-sign"


_MERIT_STATUS = ("ok", "pole", "same-sign")


def _merit_block(spin, gamma: float, gamma_bar: float,
                 small: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Status codes (indices into _MERIT_STATUS) and w_alpha, Re b1, Im b0, ratio columns.

    Row for row this is the scalar path: _b_pair's real-part pole guard and
    finiteness check on both detunings, _cancelling_weights, _weighted_sum
    and the ratio, with the same float operations in the same order (the
    weighted sums on _Pair, whose operators follow CPython's complex rules),
    so every value is bit-identical.  Rows that are not ok hold nan.  A row
    off the poles whose b columns are not all finite at either detuning
    raises NonFiniteResultError.
    """
    levels = hf_energies(spin, gamma)
    d_alpha = levels.e_mid + small
    d_beta = levels.e_mid - small
    pole = _near_pole(d_alpha, levels) | _near_pole(d_beta, levels)
    b_alpha = _b_columns(spin, gamma, d_alpha, gamma_bar)
    b_beta = _b_columns(spin, gamma, d_beta, gamma_bar)
    bad = ~pole & ~np.isfinite(np.array(b_alpha + b_beta)).all(axis=0)
    if bad.any():
        raise NonFiniteResultError(
            f"result is not finite at delta_small_bar = {float(small[bad.argmax()])!r}")
    re0a, im0a, re1a, im1a, re2a, _ = b_alpha
    re0b, im0b, re1b, im1b, re2b, _ = b_beta
    same_sign = ~pole & ((re2a == 0.0) | (re2b == 0.0) | ((re2a > 0) == (re2b > 0)))
    ok = ~(pole | same_sign)
    with np.errstate(all="ignore"):  # the rows that are not ok are overwritten below
        w_alpha = np.abs(re2b) / (np.abs(re2a) + np.abs(re2b))
        w_beta = 1.0 - w_alpha
        re_b1 = (w_alpha * _Pair(re1a, im1a) + w_beta * _Pair(re1b, im1b)).re
        im_b0 = (w_alpha * _Pair(re0a, im0a) + w_beta * _Pair(re0b, im0b)).im
        ratio = np.where(im_b0 != 0.0, re_b1 / im_b0,
                         np.where(re_b1 != 0.0, np.copysign(math.inf, re_b1), math.nan))
    columns = np.array([w_alpha, re_b1, im_b0, ratio])
    columns[:, ~ok] = math.nan
    return pole + 2 * same_sign, columns


def merit_scan(spin, gamma: float, gamma_bar: float, delta_grid) -> list[MeritRow]:
    """Sweep the symmetric detuning imbalance around the central hyperfine line.

    For every delta in delta_grid the two detunings are e_mid +- delta; the
    tensor cancellation is solved and the vector-shift-to-loss ratio
    Re b1 / Im b0 recorded.  Infeasible points are kept as rows with a status
    marker instead of being dropped.  Every delta must be positive and finite;
    the grid is checked before any row is computed.

    The grid is evaluated as arrays, _BLOCK_ROWS rows at a time (_merit_block);
    each row equals the one solve_tensor_cancellation and
    combined_coefficients give at its two detunings, bit for bit.
    """
    spin = HalfInteger.coerce(spin)
    smalls = np.fromiter(map(float, delta_grid), dtype=float)
    bad = ~((0.0 < smalls) & (smalls < math.inf))
    if bad.any():
        raise ValueError(
            f"detuning imbalance must be positive and finite, got {float(smalls[bad][0])!r}"
        )
    rows: list[MeritRow] = []
    for start in range(0, len(smalls), _BLOCK_ROWS):
        small = smalls[start:start + _BLOCK_ROWS]
        codes, columns = _merit_block(spin, gamma, gamma_bar, small)
        rows += [MeritRow(d, w, b1, b0, r, _MERIT_STATUS[c]) for d, w, b1, b0, r, c
                 in zip(small.tolist(), *columns.tolist(), codes.tolist())]
    return rows


def local_ratio_optima(rows: list[MeritRow]) -> list[int]:
    """Indices of rows where |ratio| peaks against both feasible neighbours."""
    peaks = []
    for k in range(1, len(rows) - 1):
        trio = rows[k - 1 : k + 2]
        if any(r.status != "ok" for r in trio):
            continue
        left, mid, right = (abs(r.ratio) for r in trio)
        if mid >= left and mid >= right and not math.isnan(mid):
            peaks.append(k)
    return peaks


def rephasing_length(delta_physical: float, speed_of_light: float = SPEED_OF_LIGHT) -> float:
    """Shortest mirror displacement after which the two lattices rephase: pi*c/(2*delta)."""
    if delta_physical <= 0:
        raise ValueError("frequency difference must be positive")
    return math.pi * speed_of_light / (2.0 * delta_physical)
