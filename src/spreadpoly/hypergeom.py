"""Terminating hypergeometric sums (finite series, evaluated exactly).

All series here terminate because at least one numerator parameter is a
nonpositive integer; terms are built incrementally (term ratio), never
from Gamma quotients, so there is no large-argument cancellation beyond
the alternation inherent to the sums themselves.
"""

from __future__ import annotations

from mpmath import mp

from .context import ParameterError, cancellation_clamp

__all__ = ["hyp2f1_terminating", "nonpositive_int_bound"]


def nonpositive_int_bound(*params) -> int:
    """Termination length from the nonpositive-integer numerator params."""
    bounds = []
    for p in params:
        f = mp.mpf(p)
        if f <= 0 and mp.isint(f):
            bounds.append(int(-f))
    if not bounds:
        raise ParameterError("series does not terminate (no nonpositive integer)")
    return min(bounds)


def hyp2f1_terminating(a, b, c, z):
    """2F1(a, b; c; z) where a or b is a nonpositive integer."""
    m = nonpositive_int_bound(a, b)
    a, b, c, z = mp.mpf(a), mp.mpf(b), mp.mpf(c), mp.mpf(z)
    term = mp.mpf(1)
    acc = [term]
    for j in range(m):
        denom = (c + j) * (j + 1)
        if denom == 0:
            raise ParameterError("lower parameter hits a nonpositive integer")
        term = term * (a + j) * (b + j) * z / denom
        acc.append(term)
    return cancellation_clamp(mp.fsum(acc), acc, mp.prec)

