"""Working-precision policy shared by every numeric routine in the package.

All quantities are computed with mpmath arbitrary-precision floats.  A
:class:`PrecisionContext` fixes the number of mantissa bits, the relative
tolerance used to decide that two computations of the same quantity agree,
and how many times the precision may be doubled before giving up; the
mpf integrator (``quadrature.integrate_log_singular``) is what reads them.
The Bell and Lauricella routes sum exact integers and the explicit
coefficients are exact, so none of them escalates, and ``rel_tol`` and
``max_escalations`` do not apply to them.  The doubling loop
:func:`with_escalation` (a value, or every element of a tuple of values,
is trusted once two consecutive precisions agree, and
:class:`PrecisionError` reports one that never does) has no caller in the
package; ``bench/tracing.py`` still wraps it by name.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from mpmath import mp

__all__ = [
    "PrecisionContext",
    "PrecisionError",
    "ParameterError",
    "default_context",
    "agrees",
    "cancellation_clamp",
    "with_escalation",
]

ENV_BITS = "SPREADPOLY_BITS"
ENV_RTOL = "SPREADPOLY_RTOL"


class ParameterError(ValueError):
    """Raised when weight-function or order parameters are out of range."""


class PrecisionError(ArithmeticError):
    """Raised when a computed value fails to converge or stabilise."""


@dataclass(frozen=True)
class PrecisionContext:
    """Numeric policy: mantissa bits, agreement tolerance, escalation budget."""

    bits: int = 256
    rel_tol: float = 1e-25
    max_escalations: int = 3

    def __post_init__(self) -> None:
        if self.bits < 53:
            raise ParameterError("working precision must be at least 53 bits")
        if not (0 < self.rel_tol < 1):
            raise ParameterError("rel_tol must lie in (0, 1)")
        if self.max_escalations < 0:
            raise ParameterError("max_escalations must be non-negative")


def default_context() -> PrecisionContext:
    """Context built from ``SPREADPOLY_BITS`` / ``SPREADPOLY_RTOL`` if set."""
    kwargs = {}
    bits = os.environ.get(ENV_BITS)
    if bits is not None:
        kwargs["bits"] = int(bits)
    rtol = os.environ.get(ENV_RTOL)
    if rtol is not None:
        kwargs["rel_tol"] = float(rtol)
    return PrecisionContext(**kwargs)


def agrees(a, b, rel_tol) -> bool:
    """True when a and b match to rel_tol relatively (inf/zero aware)."""
    if mp.isinf(a) or mp.isinf(b):
        return a == b
    scale = max(abs(a), abs(b))
    if scale == 0:
        return True
    return abs(a - b) <= rel_tol * scale


def cancellation_clamp(total, terms, bits):
    """Snap an alternating sum to exact zero when it is pure roundoff.

    ``total`` is ``fsum(terms)``.  When the summands cancel so completely
    that the result sits at the roundoff floor of the working precision
    (|total| below ~2**-bits times the magnitude scale of the terms) the
    digits are meaningless and the mathematically exact value is taken to
    be zero.  A genuinely tiny nonzero value re-emerges above the floor
    once the precision is escalated, so nothing real is ever discarded.
    """
    if not mp.isfinite(total) or total == 0:
        return total
    scale = mp.fsum(terms, absolute=True)
    if abs(total) <= scale * mp.mpf(2) ** (12 - bits):
        return mp.mpf(0)
    return total


def with_escalation(compute: Callable[[int], object], ctx: PrecisionContext):
    """Run ``compute(bits)`` at doubling precision until two runs agree.

    ``compute`` must evaluate the full quantity from scratch at the given
    number of bits and return an mpf, or a tuple of mpf every element of
    which must agree.  Returns the highest-precision result;
    :class:`PrecisionError` once the escalations run out.
    """
    bits = ctx.bits
    prev = compute(bits)
    for _ in range(ctx.max_escalations + 1):
        bits *= 2
        cur = compute(bits)
        pairs = zip(prev, cur) if isinstance(cur, tuple) else ((prev, cur),)
        if all(agrees(a, b, ctx.rel_tol) for a, b in pairs):
            return cur
        prev = cur
    raise PrecisionError(
        f"value failed to stabilise after {ctx.max_escalations} escalations "
        f"(started at {ctx.bits} bits)"
    )
