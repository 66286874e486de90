"""Terminating 2F1 sums, evaluated exactly.

2F1(a, b; c; z) with a nonpositive integer numerator parameter is the
one-variable Lauricella F_A (``lauricella.lauricella_fa_terminating``):
its parameters are read as exact rationals, and the sum is exactly 0 iff
the 2F1 is, and otherwise rounded once to the active precision.
"""

from __future__ import annotations

from .families import _rational
from .lauricella import lauricella_fa_terminating

__all__ = ["hyp2f1_terminating"]


def hyp2f1_terminating(a, b, c, z):
    """2F1(a, b; c; z) where a or b is a nonpositive integer.

    The upper parameter is the nonpositive integer nearer 0, which ends
    the series.  ParameterError when neither is one, or when c + j
    reaches 0 before the series ends.
    """
    a, b = _rational(a), _rational(b)
    if a > 0 or a.denominator != 1 or (b.denominator == 1 and a < b <= 0):
        a, b = b, a
    return lauricella_fa_terminating(b, [a], [c], [z])
