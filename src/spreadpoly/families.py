"""Classical weight families, their recurrence tables, and the Rényi order type.

A :class:`Family` names one of the three classical orthogonality weights

* Hermite   ``exp(-x^2)`` on (-inf, +inf),
* Laguerre  ``x^alpha exp(-x)`` on [0, +inf), alpha > -1,
* Jacobi    ``(1-x)^alpha (1+x)^beta`` on [-1, +1], alpha, beta > -1,

and is the key under which every other module looks up recurrence
coefficients, quadrature rules and closed-form measures.  Parameters are
stored as Python floats (exact binary values), so converting them to mpf
at any working precision is deterministic.

The recurrence coefficients (a_k, b_k) of the orthonormal polynomials are
written here once, in :func:`exact_recurrence`: the exponents are doubles
or exact mpf values, hence dyadic rationals (:func:`_rational`), so every
a_k and b_k^2 is an exact rational, written as one integer over another.
The mpf routes read those pairs; the float64 paths read them rounded once
(:func:`raw_recurrence`).  No entry depends on how many are asked for, so
each weight has one table (:func:`_weight_table`) that holds both forms and
grows when a caller asks for more entries than it holds
(:class:`_GrowingTable`); both functions return its head.  The float
columns are rounded from the exact ones on the first float call, so a
weight only the mpf routes read holds none.  The weight's
zeroth moment mu_0 is :func:`norm_constant`, in mpf at the precision its
caller names.
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
    "exact_recurrence",
    "power_integrable",
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
        for name in ("alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        if self.kind == HERMITE and (self.alpha != 0.0 or self.beta != 0.0):
            raise ParameterError("hermite takes no parameters")
        _check_exponents(self.kind, self.alpha, self.beta)
        if self.kind == LAGUERRE and self.beta != 0.0:
            raise ParameterError("laguerre takes a single parameter alpha")

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
        """Pointwise weight value at x (mpf); +inf at an end of negative exponent."""
        x = mp.mpf(x)
        if self.kind == HERMITE:
            return mp.exp(-x * x)
        if self.kind == LAGUERRE:
            return _end_power(x, self.alpha) * mp.exp(-x)
        one = mp.mpf(1)
        return _end_power(one - x, self.alpha) * _end_power(one + x, self.beta)

    def describe(self) -> str:
        if self.kind == HERMITE:
            return "hermite"
        if self.kind == LAGUERRE:
            return f"laguerre(alpha={self.alpha:g})"
        return f"jacobi(alpha={self.alpha:g}, beta={self.beta:g})"


def _end_power(d, e):
    """d^e, d >= 0; +inf at d = 0 for e < 0, where mpmath's 0^(-1/2) divides by 0."""
    if d == 0 and e < 0:
        return mp.inf
    return d ** mp.mpf(e)


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
        """The one parser of Rényi orders: q as int, Fraction, float, mpf or
        string ('2', '3/2', '1.5'); ParameterError unless q is a positive
        half-integer."""
        if isinstance(q, RenyiOrder):
            return q
        try:
            two_q = 2 * _rational(q)
        except (ArithmeticError, TypeError, ValueError):
            two_q = Fraction(0)
        if two_q.denominator != 1 or two_q < 1:
            raise ParameterError(f"bad Renyi order {str(q)!r}: q must be a positive half-integer")
        return cls(int(two_q))

    @property
    def q(self) -> Fraction:
        return Fraction(self.two_q, 2)

    @property
    def is_unit(self) -> bool:
        """True for q=1, where the length exponent is undefined."""
        return self.two_q == 2

    def __str__(self) -> str:
        q = self.q
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Recurrence coefficients
# ---------------------------------------------------------------------------


def _rational(x) -> Fraction:
    """x (int, float, Fraction or mpf) as an exact rational.

    An mpf is the dyadic rational (-1)^sign * man * 2^exp; its ``man``
    attribute is unsigned, so the sign comes from the raw tuple.
    """
    if isinstance(x, mp.mpf):
        if not mp.isfinite(x):
            raise ParameterError("parameters must be finite")
        sign, man, exp, _ = x._mpf_
        value = Fraction(-man if sign else man)
        return value * 2**exp if exp >= 0 else value / 2**-exp
    try:
        return Fraction(x)
    except (OverflowError, ValueError) as exc:
        raise ParameterError("parameters must be finite") from exc


@functools.lru_cache(maxsize=256)
def power_integrable(q, *exponents) -> bool:
    """True when e q > -1 for every weight exponent e, compared exactly
    (through :func:`_rational`): then w^q is integrable at the ends where
    w behaves like |x - end|^e.  Memoised on its arguments: the Rényi
    cross-check grid asks 82 questions."""
    q = _rational(q)
    return all(_rational(e) * q > -1 for e in exponents)


def _integrable_order(family: Family, q) -> RenyiOrder:
    """q as a :class:`RenyiOrder`; ParameterError unless w^q is integrable
    (:func:`power_integrable`): the refusal of every power-integral route."""
    order = RenyiOrder.from_q(q)
    if not power_integrable(order.q, family.alpha, family.beta):
        raise ParameterError(f"w^q is not integrable for {family.describe()} at q={order}")
    return order


def _check_degree(n: int) -> None:
    """ParameterError for a negative degree n."""
    if n < 0:
        raise ParameterError("degree must be nonnegative")


def _check_exponents(kind: str, alpha, beta) -> None:
    if kind != HERMITE and not alpha > -1:
        raise ParameterError("alpha must exceed -1")
    if kind == JACOBI and not beta > -1:
        raise ParameterError("beta must exceed -1")


@functools.lru_cache(maxsize=256)
def norm_constant(kind: str, alpha, beta, prec: int):
    """mu_0, the integral of the bare weight over its interval, as an mpf
    at ``prec`` bits whatever the caller's ``mp.prec``: the one mu_0 of the
    squared norms h_n, of p_0 and of the ground-state entropy.  Memoised
    on (weight, prec): the Rényi cross-check grid asks for 157 of them,
    within the 256 entries kept."""
    with mp.workprec(prec):
        a = mp.mpf(alpha)
        b = mp.mpf(beta)
        if kind == HERMITE:
            return mp.sqrt(mp.pi)
        if kind == LAGUERRE:
            return mp.gamma(a + 1)
        return 2 ** (a + b + 1) * mp.gamma(a + 1) * mp.gamma(b + 1) / mp.gamma((a + 1) + (b + 1))


class _GrowingTable:
    """Columns of a recurrence table whose entries do not depend on how many
    are asked for, kept and extended on demand: ``make(start, stop)`` gives
    the columns of entries start <= k < stop, and :meth:`head` appends them
    when asked for more than it holds."""

    __slots__ = ("_make", "columns")

    def __init__(self, make, width: int):
        self._make = make
        self.columns = ((),) * width

    def head(self, count: int) -> tuple:
        """Every column's first ``count`` entries, as tuples."""
        have = len(self.columns[0])
        if count > have:
            new = self._make(have, count)
            self.columns = tuple(old + tuple(add) for old, add in zip(self.columns, new))
        return tuple(column[:count] for column in self.columns)


def _exact_entries(kind: str, a: int, b: int, d: int, start: int, stop: int):
    """(a_k, b_k^2) of :func:`exact_recurrence` for start <= k < stop, with
    alpha = a/d and beta = b/d."""
    for k in range(start, stop):
        if kind == HERMITE:
            yield (0, 1), (k, 2)
        elif kind == LAGUERRE:
            yield ((2 * k + 1) * d + a, d), (k * (k * d + a), d)
        else:
            c = 2 * d + a + b  # D (alpha + beta + 2)
            if k == 0:
                yield (b - a, c), (0, 1)
                continue
            s = 2 * (k - 1) * d + c  # D (2k + alpha + beta)
            diag = ((b - a) * (b + a), s * (s + 2 * d))
            if k == 1:
                yield diag, (4 * d * (d + a) * (d + b), (3 * d + a + b) * c * c)
            else:
                kd = k * d
                yield diag, (4 * kd * (kd + a) * (kd + b) * (kd + a + b), s * s * (s * s - d * d))


#: Weights whose recurrence table :func:`_weight_table` keeps.
_TABLE_WEIGHTS = 128


@functools.lru_cache(maxsize=_TABLE_WEIGHTS)
def _weight_table(kind: str, alpha, beta) -> tuple:
    """The one recurrence table of the weight (kind, alpha, beta), as two
    column sets grown on demand: ``(exact, floats)``, the columns (a_k),
    (b_k^2) as exact ``(num, den)`` pairs and the columns (a_k), (b_k)
    rounded once to floats.  The float columns are rounded from the exact
    ones when :func:`raw_recurrence` first asks for them.  Kept for the
    last ``_TABLE_WEIGHTS`` weights; the Rényi cross-check grid reads 95
    (its weights and those of w^q)."""
    ra, rb = _rational(alpha), _rational(beta)
    _check_exponents(kind, ra, rb)
    d = math.lcm(ra.denominator, rb.denominator)
    a = ra.numerator * (d // ra.denominator)
    b = rb.numerator * (d // rb.denominator)
    exact = _GrowingTable(lambda start, stop: zip(*_exact_entries(kind, a, b, d, start, stop)), 2)

    def rounded(start, stop):
        diag, offsq = (column[start:] for column in exact.head(stop))
        return [num / den for num, den in diag], [math.sqrt(num / den) for num, den in offsq]

    return exact, _GrowingTable(rounded, 2)


def exact_recurrence(kind: str, alpha, beta, count: int):
    """((a_k), (b_k^2)) for k < count as exact ``(num, den)`` integer pairs,
    den > 0, with b_0^2 = 0.

    With alpha = A/D and beta = B/D over one denominator D (a power of two
    for doubles and mpf values), a_k and b_k^2 of the orthonormal recurrence

        x p_k = b_{k+1} p_{k+1} + a_k p_k + b_k p_{k-1}

    are ratios of integer polynomials in k, A, B and D; they are left
    unreduced.  b_1^2 takes the limit form, so alpha + beta = -1 needs no
    0/0.  The entries are the head of the weight's one table
    (:func:`_weight_table`).  ParameterError for count < 1: the table of a
    negative degree.
    """
    _check_degree(count - 1)
    return _weight_table(kind, alpha, beta)[0].head(count)


def raw_recurrence(kind: str, alpha, beta, count: int):
    """((a_k), (b_k)) for k < count as Python floats, b_0 = 0: the float64
    table.  Each a_k is the exact entry of :func:`exact_recurrence` rounded
    once (int / int is correctly rounded), and each b_k the square root of
    b_k^2 so rounded."""
    _check_degree(count - 1)
    return _weight_table(kind, alpha, beta)[1].head(count)
