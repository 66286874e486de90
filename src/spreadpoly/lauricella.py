"""Algebraic route for Laguerre Rényi lengths.

The 2q-th power of a Laguerre polynomial linearizes over the Laguerre
basis itself (with rate-q argument); orthogonality then collapses the
power integral to the k=0 linearization coefficient, a terminating
Lauricella F_A sum of 2q+1 variables.  The n=0 and n=1 cases compress to
a Gamma quotient and a terminating 2F0.

All sums are finite: every numerator parameter along a summed variable is
a nonpositive integer.  The F_A sum is regrouped by total degree into a
product of one terminating polynomial per variable, so its cost is
polynomial in the degrees rather than the number of multi-index terms.

Sign convention: the linearization is native to polynomials with leading
coefficient of sign (-1)^n; this package normalizes leading-positive, so
for odd 2q the general route multiplies by (-1)^(n*2q) to land in the
package convention (even 2q is unaffected).
"""

from __future__ import annotations

from mpmath import mp

from .context import (
    ParameterError,
    PrecisionContext,
    cancellation_clamp,
    with_escalation,
)
from .families import RenyiOrder
from .bell import length_from_power_integral
from .hypergeom import terminating_2f0

__all__ = [
    "lauricella_fa_terminating",
    "laguerre_power_integral_lauricella",
    "renyi_length_laguerre_lauricella",
    "renyi_length_laguerre_n0",
    "renyi_length_laguerre_n1",
    "terminating_2f0",
]

_DEFAULT_CTX = PrecisionContext()


def _poly_mul(p, c) -> list:
    """Coefficients of the product of two polynomials, each rounded once."""
    out = []
    for s in range(len(p) + len(c) - 1):
        js = range(max(0, s - len(c) + 1), min(s, len(p) - 1) + 1)
        out.append(mp.fdot([p[j] for j in js], [c[s - j] for j in js]))
    return out


def lauricella_fa_terminating(a, upper, lower, z, budget: int = 40_000_000):
    """F_A(a; upper; lower; z) with every upper parameter a nonpositive int.

    Multi-index sum over m_i <= -upper_i of
        (a)_{|m|} prod_i (upper_i)_{m_i} z_i^{m_i} / ((lower_i)_{m_i} m_i!).

    The factor (a)_{|m|} depends on m only through s = |m|, so the sum
    regroups as  sum_s (a)_s [x^s] prod_i C_i(x)  with the polynomials
        C_i(x) = sum_m (upper_i)_m z_i^m x^m / ((lower_i)_m m!)
    (Srivastava & Karlsson, Multiple Gaussian Hypergeometric Series,
    1985).  Multiplying out the C_i costs O(r * S * max_i(-upper_i))
    operations for r variables and S = sum_i (-upper_i).  The cancellation
    clamp is scaled by sum_s |(a)_s| [x^s] prod_i |C_i|, which is the sum
    of the absolute values of the multi-index terms.

    ``budget`` caps the size of the series, prod_i (-upper_i + 1)
    multi-index terms (~4e7 by default); larger requests raise
    ParameterError.
    """
    uppers = []
    for u in upper:
        uf = mp.mpf(u)
        if not (uf <= 0 and mp.isint(uf)):
            raise ParameterError("upper parameters must be nonpositive integers")
        uppers.append(int(-uf))
    if len(uppers) != len(lower) or len(uppers) != len(z):
        raise ParameterError("parameter sequences must have equal length")
    total = 1
    for u in uppers:
        total *= u + 1
    if total > budget:
        raise ParameterError(f"terminating sum has {total} terms (budget {budget})")
    a = mp.mpf(a)
    prod, abs_prod = [mp.mpf(1)], [mp.mpf(1)]
    for u, l, zz in zip(uppers, lower, z):
        l, zz = mp.mpf(l), mp.mpf(zz)
        c = [mp.mpf(1)]
        for m in range(u):
            c.append(c[m] * (-u + m) * zz / ((l + m) * (m + 1)))
        prod = _poly_mul(prod, c)
        abs_prod = _poly_mul(abs_prod, [abs(v) for v in c])
    smax = sum(uppers)
    poch_a = [mp.mpf(1)] * (smax + 1)
    for s in range(smax):
        poch_a[s + 1] = poch_a[s] * (a + s)
    scale = [abs(p) * v for p, v in zip(poch_a, abs_prod)]
    return cancellation_clamp(mp.fdot(poch_a, prod), scale, mp.prec)


def laguerre_power_integral_lauricella(
    n: int, alpha, q, ctx: PrecisionContext = _DEFAULT_CTX
):
    """W_q for Laguerre by the linearization route (package sign convention).

    Orthogonality leaves the k=0 linearization coefficient of the 2q-th
    power,
        Theta_0 = Gamma(alpha q + 1) * C(n+alpha, n)^{2q} *
        F_A^{(2q+1)}(alpha q + 1; -n,...,-n, 0; alpha+1,...,alpha+1, 1;
                     1/q,...,1/q, 1),
    evaluated under precision escalation.
    """
    order = RenyiOrder.from_q(q)
    two_q = order.two_q
    if not float(alpha) * float(order.q) > -1:
        raise ParameterError("alpha*q must exceed -1")

    def compute(bits):
        with mp.workprec(bits):
            qf = order.q_mpf()
            a = mp.mpf(alpha)
            fa = lauricella_fa_terminating(
                a * qf + 1,
                [-n] * two_q + [0],
                [a + 1] * two_q + [1],
                [1 / qf] * two_q + [1],
            )
            return +(mp.gamma(a * qf + 1) * mp.binomial(n + a, n) ** two_q * fa)

    theta0 = with_escalation(compute, ctx)
    with mp.workprec(ctx.bits):
        qf = order.q_mpf()
        a = mp.mpf(alpha)
        pref = mp.power(
            mp.factorial(n) / mp.gamma(a + n + 1), qf
        ) / mp.power(qf, a * qf + 1)
        sign = -1 if (n * two_q) % 2 else 1
        return +(sign * pref * theta0)


def renyi_length_laguerre_lauricella(
    n: int, alpha, q, ctx: PrecisionContext = _DEFAULT_CTX
):
    """Rényi length of the Laguerre density via the linearization route."""
    order = RenyiOrder.from_q(q)
    W = laguerre_power_integral_lauricella(n, alpha, order, ctx)
    with mp.workprec(ctx.bits):
        return +length_from_power_integral(W, order)


def renyi_length_laguerre_n0(alpha, q, ctx: PrecisionContext = _DEFAULT_CTX):
    """Closed form at n=0: [Gamma(alpha q+1) / (Gamma(alpha+1)^q q^{alpha q+1})]^(-1/(q-1))."""
    order = RenyiOrder.from_q(q)
    with mp.workprec(ctx.bits):
        qf = order.q_mpf()
        a = mp.mpf(alpha)
        W = mp.gamma(a * qf + 1) / (
            mp.power(mp.gamma(a + 1), qf) * mp.power(qf, a * qf + 1)
        )
        return +length_from_power_integral(W, order)


def renyi_length_laguerre_n1(alpha, q, ctx: PrecisionContext = _DEFAULT_CTX):
    """Closed form at n=1, via the terminating 2F0 (length-level value).

    The bracket is
        Gamma(alpha q+1) (1+alpha)^{2q} / (Gamma(alpha+2)^q q^{alpha q+1})
        * 2F0(-2q, alpha q+1; ; 1/(q(1+alpha))),
    raised to -1/(q-1).  For odd 2q the bracket carries the classical
    sign convention; the even length exponent makes the length identical.
    """
    order = RenyiOrder.from_q(q)
    with mp.workprec(ctx.bits):
        qf = order.q_mpf()
        a = mp.mpf(alpha)
        W = (
            mp.gamma(a * qf + 1)
            * mp.power(1 + a, order.two_q)
            / (mp.power(mp.gamma(a + 2), qf) * mp.power(qf, a * qf + 1))
            * terminating_2f0(-order.two_q, a * qf + 1, 1 / (qf * (1 + a)))
        )
        sign = -1 if order.two_q % 2 else 1  # classical -> leading-positive at n=1
        return +length_from_power_integral(sign * W, order)
