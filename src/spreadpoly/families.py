"""Classical weight families, their recurrence tables, and the Rényi order type.

A :class:`Family` names one of the three classical orthogonality weights

* Hermite   ``exp(-x^2)`` on (-inf, +inf),
* Laguerre  ``x^alpha exp(-x)`` on [0, +inf), alpha > -1,
* Jacobi    ``(1-x)^alpha (1+x)^beta`` on [-1, +1], alpha, beta > -1,

and is the key under which every other module looks up recurrence
coefficients, quadrature rules and closed-form measures.  Parameters are
stored as Python floats (exact binary values), so converting them to mpf
at any working precision is deterministic.

The recurrence coefficients (a_k, b_k) of the orthonormal polynomials and
the weight's zeroth moment mu_0 are written here once, as formulas that run
in mpf or in float64 arithmetic, and every table is read through one cache,
:func:`recurrence_table`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .context import ParameterError

__all__ = [
    "Family",
    "RenyiOrder",
    "HERMITE",
    "LAGUERRE",
    "JACOBI",
    "raw_recurrence",
    "norm_constant",
    "recurrence_table",
]

HERMITE = "hermite"
LAGUERRE = "laguerre"
JACOBI = "jacobi"

_KINDS = (HERMITE, LAGUERRE, JACOBI)


@dataclass(frozen=True)
class Family:
    """One classical weight: kind tag plus its exponent parameters."""

    kind: str
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown family kind {self.kind!r}")
        if self.kind == HERMITE and (self.alpha != 0.0 or self.beta != 0.0):
            raise ParameterError("hermite takes no parameters")
        if self.kind in (LAGUERRE, JACOBI) and not self.alpha > -1:
            raise ParameterError("alpha must exceed -1")
        if self.kind == LAGUERRE and self.beta != 0.0:
            raise ParameterError("laguerre takes a single parameter alpha")
        if self.kind == JACOBI and not self.beta > -1:
            raise ParameterError("beta must exceed -1")

    @classmethod
    def hermite(cls) -> "Family":
        return cls(HERMITE)

    @classmethod
    def laguerre(cls, alpha: float) -> "Family":
        return cls(LAGUERRE, float(alpha))

    @classmethod
    def jacobi(cls, alpha: float, beta: float) -> "Family":
        return cls(JACOBI, float(alpha), float(beta))

    @property
    def interval(self):
        """Orthogonality interval as a pair (mpf or +-inf endpoints)."""
        if self.kind == HERMITE:
            return (mp.ninf, mp.inf)
        if self.kind == LAGUERRE:
            return (mp.mpf(0), mp.inf)
        return (mp.mpf(-1), mp.mpf(1))

    @property
    def edge_exponents(self):
        """(left, right): the weight behaves like |x - e|^exponent at each
        finite end e of the interval; 0 at an infinite end."""
        if self.kind == HERMITE:
            return (0.0, 0.0)
        if self.kind == LAGUERRE:
            return (self.alpha, 0.0)
        return (self.beta, self.alpha)

    def weight(self, x):
        """Pointwise weight value at x (mpf arithmetic)."""
        x = mp.mpf(x)
        if self.kind == HERMITE:
            return mp.exp(-x * x)
        if self.kind == LAGUERRE:
            if x == 0:
                return mp.mpf(0) ** mp.mpf(self.alpha) if self.alpha != 0 else mp.mpf(1)
            return x ** mp.mpf(self.alpha) * mp.exp(-x)
        one = mp.mpf(1)
        return (one - x) ** mp.mpf(self.alpha) * (one + x) ** mp.mpf(self.beta)

    def describe(self) -> str:
        if self.kind == HERMITE:
            return "hermite"
        if self.kind == LAGUERRE:
            return f"laguerre(alpha={self.alpha:g})"
        return f"jacobi(alpha={self.alpha:g}, beta={self.beta:g})"


@dataclass(frozen=True)
class RenyiOrder:
    """Rényi order q stored through two_q = 2q (a positive integer).

    q = 1 (two_q = 2) is a legal *order* — power integrals are defined
    there and must equal 1 — but length computations reject it.
    """

    two_q: int

    def __post_init__(self) -> None:
        if not isinstance(self.two_q, int) or self.two_q < 1:
            raise ParameterError("2q must be a positive integer")

    @classmethod
    def from_q(cls, q) -> "RenyiOrder":
        """Accept q as int, Fraction, float or string ('2', '3/2', '1.5')."""
        if isinstance(q, RenyiOrder):
            return q
        frac = Fraction(q)
        two_q = 2 * frac
        if two_q.denominator != 1:
            raise ParameterError(f"2q must be an integer; got q={q}")
        return cls(int(two_q))

    @property
    def q(self) -> Fraction:
        return Fraction(self.two_q, 2)

    @property
    def is_unit(self) -> bool:
        """True for q=1, where the length exponent is undefined."""
        return self.two_q == 2

    def q_mpf(self):
        return mp.mpf(self.two_q) / 2

    def length_exponent(self):
        """-1/(q-1), the power turning the integral into a length."""
        if self.is_unit:
            raise ParameterError("Renyi length undefined at q=1")
        return mp.mpf(-2) / (self.two_q - 2)

    def __str__(self) -> str:
        q = self.q
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Recurrence coefficients
# ---------------------------------------------------------------------------


def _check_exponents(kind: str, alpha, beta) -> None:
    if kind != HERMITE and not alpha > -1:
        raise ParameterError("alpha must exceed -1")
    if kind == JACOBI and not beta > -1:
        raise ParameterError("beta must exceed -1")


def raw_recurrence(kind: str, alpha, beta, count: int, lib=mp):
    """(a_k, b_k) for k < count of the orthonormal recurrence

        x p_k = b_{k+1} p_{k+1} + a_k p_k + b_k p_{k-1},

    in the arithmetic of ``lib``: ``mp`` gives mpf at the active precision,
    ``math`` gives Python floats, by the same operations in the same order.
    ``alpha``/``beta`` may be any reals > -1 (quadrature uses shifted,
    non-integer parameters).  b_0 is returned as 0: it multiplies the
    nonexistent p_{-1}.
    """
    num = getattr(lib, "mpf", float)  # math has no number type of its own
    a = num(alpha)
    b = num(beta)
    _check_exponents(kind, a, b)
    diag, off = [], []
    for k in range(count):
        km = num(k)
        if kind == HERMITE:
            diag.append(num(0))
            off.append(lib.sqrt(km / 2))
        elif kind == LAGUERRE:
            diag.append(2 * km + a + 1)
            off.append(lib.sqrt(km * (km + a)))
        else:
            s = 2 * km + a + b
            if k == 0:
                diag.append((b - a) / (a + b + 2))
                off.append(num(0))
            else:
                diag.append((b * b - a * a) / (s * (s + 2)))
                if k == 1:
                    # limit form: the generic b_1^2 is 0/0 at alpha+beta = -1
                    off.append(2 * lib.sqrt((1 + a) * (1 + b) / (3 + a + b)) / (2 + a + b))
                else:
                    off.append(
                        2
                        * lib.sqrt(km * (km + a) * (km + b) * (km + a + b) / (s * s - 1))
                        / s
                    )
    return diag, off


def norm_constant(kind: str, alpha, beta, lib=mp):
    """mu_0, the integral of the bare weight over its interval, in the
    arithmetic of ``lib`` (as in :func:`raw_recurrence`)."""
    num = getattr(lib, "mpf", float)
    a = num(alpha)
    b = num(beta)
    if kind == HERMITE:
        return lib.sqrt(lib.pi)
    if kind == LAGUERRE:
        return lib.gamma(a + 1)
    return 2 ** (a + b + 1) * lib.gamma(a + 1) * lib.gamma(b + 1) / lib.gamma(a + b + 2)


@functools.lru_cache(maxsize=64)
def recurrence_table(kind: str, alpha, beta, count: int, prec=None):
    """((a_k), (b_k), p_0) for k < count, with p_0 = 1/sqrt(mu_0).

    With ``prec=None`` the entries are Python floats.  Otherwise they are
    libmp tuples built at ``prec`` bits, whatever the active precision.
    """
    if prec is None:
        diag, off = raw_recurrence(kind, alpha, beta, count, math)
        return tuple(diag), tuple(off), 1 / math.sqrt(norm_constant(kind, alpha, beta, math))
    with mp.workprec(prec):
        diag, off = raw_recurrence(kind, alpha, beta, count)
        p0 = 1 / mp.sqrt(norm_constant(kind, alpha, beta))
    return tuple(v._mpf_ for v in diag), tuple(v._mpf_ for v in off), p0._mpf_
