"""Exact check of the one b-form formula, for every spin at once.

_b_formula is the only copy of the b-form closed forms: b_coefficients
evaluates it in Python complex arithmetic and the array kernel on _Pair
columns.  Here it is evaluated on sympy symbols for the detuning d, the
quadrupole ratio g and the nuclear spin i, at the levels of hyperfine.py's
docstring and ibar2 = i(i+1).  Each coefficient must equal, as a rational
function, the exact b-form map of the independently solved a coefficients
(test_shift_coefficients.solved_a_forms):

    b0 = a0 + ibar2 a2 / 3,  b1 = a1 + a2 / 2,  b2 = a2 / 2.

sympy is imported plainly: without it this module fails to collect rather
than being skipped.
"""

import pytest
import sympy
from test_shift_coefficients import solved_a_forms

from nucshift.shift_coefficients import _b_formula

d, g, i = sympy.symbols("d g i")
# e_lower, e_mid, e_upper of hyperfine.py
LEVELS = (-(i + 1) * (1 - g * (i + 1)), -(1 - g), i * (1 + g * i))
IBAR2 = i * (i + 1)


def mapped_a_forms():
    a0, a1, a2 = solved_a_forms(d, *LEVELS, g, IBAR2)
    return a0 + IBAR2 * a2 / 3, a1 + a2 / 2, a2 / 2


@pytest.mark.parametrize("k", [0, 1, 2], ids=["b0", "b1", "b2"])
def test_b_formula_equals_the_mapped_solved_a_forms(k):
    b = _b_formula(d, *LEVELS, g, IBAR2)[k]
    assert sympy.cancel(b - mapped_a_forms()[k]) == 0


def test_b_formula_stays_exact_on_symbols():
    # int literals: no sympy Float may enter, or cancel would only be approximate
    assert all(not expr.atoms(sympy.Float) for expr in _b_formula(d, *LEVELS, g, IBAR2))
