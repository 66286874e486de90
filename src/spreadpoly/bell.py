"""Rényi lengths through partial Bell polynomials.

The 2q-th power of an orthonormal polynomial expands over monomials with
coefficients expressed by partial Bell polynomials of the (scaled)
monomial coefficients; contracting against the moments of the q-th power
of the weight gives the signed power integral

    W_q = integral p_n^{2q}(x) w(x)^q dx,

and the Rényi length is W_q^{-1/(q-1)}.  The moments m_0..m_{2qn} of w^q
come from one first-order (Laguerre, Hermite) or two-term (Jacobi)
recurrence started at a Gamma closed form, O(1) operations per moment.
Everything here is a finite sum; the enemy is cancellation (the
coefficient sequences alternate), handled by the context's
precision-doubling acceptance.  Each precision step builds the monomial
coefficients at its own bits, so the one agreement test on W also covers
their error.

B_{m,l} is computed by the standard recurrence

    B_{m,l} = sum_i C(m-1, i-1) x_i B_{m-i, l-1},

with a direct partition-enumeration evaluator kept alongside as the
combinatorial oracle.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp

from .context import (
    ParameterError,
    PrecisionContext,
    cancellation_clamp,
    with_escalation,
)
from .families import HERMITE, JACOBI, LAGUERRE, Family, RenyiOrder
from ._mpkernels import bell_row
from .hypergeom import hyp2f1_terminating
from .orthopoly import _explicit_coeffs

__all__ = [
    "partial_bell",
    "partial_bell_enumerated",
    "polynomial_power_coeffs",
    "jacobi_power_moment",
    "renyi_power_integral_bell",
    "renyi_length_bell",
    "length_from_power_integral",
]

_DEFAULT_CTX = PrecisionContext()


def _bell_row(args, max_m: int, l: int):
    """B_{m,l} for all m <= max_m, by the layered recurrence."""
    row = bell_row([a._mpf_ for a in args], max_m, l, mp.prec)
    return [mp.make_mpf(v) for v in row]


def partial_bell(m: int, l: int, args) -> object:
    """Partial Bell polynomial B_{m,l}(x_1, ..., x_{m-l+1})."""
    if m < 0 or l < 0:
        raise ParameterError("indices must be nonnegative")
    if l > m:
        return mp.mpf(0)
    args = tuple(mp.mpf(a) for a in args)
    return _bell_row(args, m, l)[m]


def _partitions(m: int, l: int, max_part: int):
    """Yield part-multiplicity tuples (j_1..j_max) with sum j = l, sum i*j = m."""
    def rec(i, rem_l, rem_m, acc):
        if i == max_part:
            if rem_m == rem_l * max_part and 0 <= rem_l:
                yield acc + (rem_l,)
            return
        for j in range(min(rem_l, rem_m // i) + 1):
            yield from rec(i + 1, rem_l - j, rem_m - i * j, acc + (j,))

    if max_part >= 1:
        yield from rec(1, l, m, ())


def partial_bell_enumerated(m: int, l: int, args) -> object:
    """B_{m,l} by explicit summation over partitions (test oracle)."""
    if l > m:
        return mp.mpf(0)
    if m == 0:
        return mp.mpf(1 if l == 0 else 0)
    width = m - l + 1
    args = tuple(mp.mpf(a) for a in args) + (mp.mpf(0),) * width
    total = []
    for js in _partitions(m, l, width):
        coeff = mp.factorial(m)
        term = mp.mpf(1)
        for i, j in enumerate(js, start=1):
            if j:
                term *= (args[i - 1] / mp.factorial(i)) ** j
            coeff /= mp.factorial(j)
        total.append(coeff * term)
    return mp.fsum(total)


def polynomial_power_coeffs(coeffs, p: int) -> list:
    """Monomial coefficients of (sum_t c_t x^t)^p, degree-n input.

    Entry t equals  p!/(t+p)! * B_{t+p, p}(1! c_0, 2! c_1, ..., (t+1)! c_t).
    """
    if p < 0:
        raise ParameterError("power must be nonnegative")
    n = len(coeffs) - 1
    top = n * p
    args = [mp.factorial(i + 1) * mp.mpf(c) for i, c in enumerate(coeffs)]
    rows = _bell_row(tuple(args), top + p, p)
    out = []
    ratio = mp.mpf(1)  # p!/(t+p)! built incrementally
    for t in range(top + 1):
        out.append(ratio * rows[t + p])
        ratio /= t + p + 1
    return out


def _jacobi_moment_prefactor(a, b):
    """2^{1+a+b} Gamma(a+1) Gamma(b+1) / Gamma(a+b+2), the k=0 moment of
    (1-x)^a (1+x)^b on [-1, 1]."""
    return mp.power(2, 1 + a + b) * mp.gamma(a + 1) * mp.gamma(b + 1) / mp.gamma(a + b + 2)


def jacobi_power_moment(k: int, q, alpha, beta):
    """Integral of x^k against (1-x)^{alpha q} (1+x)^{beta q} on [-1, 1].

    The closed form (-1)^k m_0 2F1(-k, 1+b; 2+a+b; 2) with a = alpha q,
    b = beta q; it is the test oracle of the moment recurrence the Bell
    route runs.  Negating a product rounds to the negated product, so the
    sign may be applied last.
    """
    qf = mp.mpf(q)
    a = mp.mpf(alpha) * qf
    b = mp.mpf(beta) * qf
    m = _jacobi_moment_prefactor(a, b) * hyp2f1_terminating(-k, 1 + b, 2 + a + b, 2)
    return -m if k % 2 else m


def _weight_power_moments(family: Family, q, count: int) -> list:
    """m_k = integral x^k w(x)^q for k < count, at the active precision.

    Each moment follows from its predecessors in O(1) operations, A = alpha q
    and B = beta q:

    * Jacobi: integrating d/dx[x^k (1-x^2) w^q] over [-1, 1] gives 0 (A, B > -1),
      so (k+2+A+B) m_{k+1} = k m_{k-1} + (B-A) m_k from m_0 =
      2^{1+A+B} Gamma(A+1) Gamma(B+1) / Gamma(A+B+2); odd moments are
      exactly 0 when A = B;
    * Laguerre: m_0 = Gamma(A+1)/q^{A+1} and m_{k+1} = m_k (A+k+1)/q;
    * Hermite: m_0 = sqrt(pi/q), m_{2j+2} = m_{2j} (j+1/2)/q, odd moments 0.

    No recurrence coefficient or Gauss node of w^q is used, so the Bell route
    stays independent of the Gauss route.
    """
    m = [mp.mpf(0)] * count
    if family.kind == HERMITE:
        mk = mp.sqrt(mp.pi / q)
        for k in range(0, count, 2):
            m[k] = mk
            mk = mk * (k // 2 + mp.mpf(1) / 2) / q
    elif family.kind == LAGUERRE:
        a = mp.mpf(family.alpha) * q
        mk = mp.gamma(a + 1) / mp.power(q, a + 1)
        for k in range(count):
            m[k] = mk
            mk = mk * (a + k + 1) / q
    else:
        a = mp.mpf(family.alpha) * q
        b = mp.mpf(family.beta) * q
        shift = (a + 1) + (b + 1)
        slope = b - a
        prev, mk = mp.mpf(0), _jacobi_moment_prefactor(a, b)
        for k in range(count):
            m[k] = mk
            prev, mk = mk, (k * prev + slope * mk) / (k + shift)
    return m


def _power_integral_at(family: Family, n: int, order: RenyiOrder, bits: int):
    with mp.workprec(bits):
        d = polynomial_power_coeffs(_explicit_coeffs(family, n, bits), order.two_q)
        moments = _weight_power_moments(family, order.q_mpf(), len(d))
        terms = [dk * mk for dk, mk in zip(d, moments)]
        total = mp.fsum(terms)
        if order.two_q % 2:
            # odd 2q has exact zeros (parity, alpha = (q-3)/(2q)); an even
            # 2q integrates rho^q > 0, so a sum at the roundoff floor is a
            # precision shortfall that must escalate, never a zero
            total = cancellation_clamp(total, terms, bits)
        return +total


def _check_integrable(family: Family, order: RenyiOrder) -> None:
    q = float(Fraction(order.two_q, 2))
    if family.kind == LAGUERRE and not family.alpha * q > -1:
        raise ParameterError(f"alpha*q={family.alpha * q} not integrable")
    if family.kind == JACOBI and not (
        family.alpha * q > -1 and family.beta * q > -1
    ):
        raise ParameterError("alpha*q and beta*q must exceed -1")


def renyi_power_integral_bell(
    family: Family, n: int, q, ctx: PrecisionContext = _DEFAULT_CTX
):
    """W_q by the Bell-expansion route; equals 1 at q=1 (normalization)."""
    order = RenyiOrder.from_q(q)
    _check_integrable(family, order)
    return with_escalation(lambda bits: _power_integral_at(family, n, order, bits), ctx)


def length_from_power_integral(W, order: RenyiOrder):
    """Map a signed power integral to the Rényi length W^{-1/(q-1)}."""
    if order.is_unit:
        raise ParameterError("Renyi length undefined at q=1")
    expo = Fraction(-2, order.two_q - 2)
    if W == 0:
        return mp.inf if expo < 0 else mp.mpf(0)
    if W < 0:
        if expo.denominator == 1 and expo.numerator % 2 == 0:
            return mp.power(-W, int(expo))
        raise ParameterError(
            f"negative power integral with non-even length exponent {expo}"
        )
    return mp.power(W, mp.mpf(expo.numerator) / expo.denominator)


def renyi_length_bell(family: Family, n: int, q, ctx: PrecisionContext = _DEFAULT_CTX):
    """Rényi length L_q via the Bell route (2q a positive integer, q != 1)."""
    order = RenyiOrder.from_q(q)
    W = renyi_power_integral_bell(family, n, order, ctx)
    with mp.workprec(ctx.bits):
        return +length_from_power_integral(W, order)
