"""Working-precision policy shared by every numeric routine in the package.

All quantities are computed with mpmath arbitrary-precision floats.  A
:class:`PrecisionContext` fixes one setting, the number of mantissa bits
(256 unless the caller passes another; nothing is read from the
environment, so a value depends on its arguments alone).
The Bell and Lauricella routes sum exact integers and the explicit
coefficients are exact, so none of them escalates; the mpf integrator
(``quadrature.integrate_log_singular``) takes its absolute tolerance from
its caller.  The doubling loop :func:`with_escalation` (a value, or every
element of a tuple of values, is trusted once two consecutive precisions
agree to the tolerance it is given, and :class:`PrecisionError` reports
one that never does) has no caller in the package; ``bench/tracing.py``
still wraps it by name.

No routine rounds a small value to zero: an exact zero comes only from
the Bell and Lauricella integer sums and, at a parity zero, from the
Gauss route's node-free integer sum, which is exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from mpmath import mp

__all__ = [
    "PrecisionContext",
    "PrecisionError",
    "ParameterError",
    "agrees",
    "with_escalation",
]

#: Precision doublings :func:`with_escalation` tries before giving up.
_ESCALATIONS = 3


class ParameterError(ValueError):
    """Raised when weight-function or order parameters are out of range."""


class PrecisionError(ArithmeticError):
    """Raised when a computed value fails to converge or stabilise."""


@dataclass(frozen=True)
class PrecisionContext:
    """Numeric policy: the working precision in mantissa bits."""

    bits: int = 256

    def __post_init__(self) -> None:
        if self.bits < 53:
            raise ParameterError("working precision must be at least 53 bits")


def agrees(a, b, rel_tol) -> bool:
    """True when a and b match to rel_tol relatively (inf/zero aware)."""
    if mp.isinf(a) or mp.isinf(b):
        return a == b
    scale = max(abs(a), abs(b))
    if scale == 0:
        return True
    return abs(a - b) <= rel_tol * scale


def with_escalation(compute: Callable[[int], object], ctx: PrecisionContext, rel_tol):
    """Run ``compute(bits)`` at doubling precision until two runs agree.

    ``compute`` must evaluate the full quantity from scratch at the given
    number of bits and return an mpf, or a tuple of mpf every element of
    which must agree to ``rel_tol``.  Returns the highest-precision result;
    :class:`PrecisionError` after ``_ESCALATIONS`` doublings past the
    first comparison.
    """
    bits = ctx.bits
    prev = compute(bits)
    for _ in range(_ESCALATIONS + 1):
        bits *= 2
        cur = compute(bits)
        pairs = zip(prev, cur) if isinstance(cur, tuple) else ((prev, cur),)
        if all(agrees(a, b, rel_tol) for a, b in pairs):
            return cur
        prev = cur
    raise PrecisionError(
        f"value failed to stabilise after {_ESCALATIONS} escalations "
        f"(started at {ctx.bits} bits)"
    )
