"""Algebraic route for Laguerre Rényi lengths.

The 2q-th power of a Laguerre polynomial linearizes over the Laguerre
basis itself (with rate-q argument); orthogonality then collapses the
power integral to the k=0 linearization coefficient, a terminating
Lauricella F_A sum of 2q+1 variables.

All sums are finite: every numerator parameter along a summed variable is
a nonpositive integer.  The F_A sum is regrouped by total degree into a
product of one terminating polynomial per variable, so its cost is
polynomial in the degrees rather than the number of multi-index terms.
The product runs on integers by Kronecker substitution
(``bell._kronecker_product``); the 2q equal polynomials of the Laguerre
route are raised with one integer power.

alpha is a double, so every F_A parameter (alpha q + 1, alpha + 1, 1/q) is
an exact rational (read by ``families._rational``, the package's one
exact-rational conversion, which also feeds the exact recurrence table),
and the sum runs on Python integers: it is exactly 0
iff the F_A sum is, and otherwise it is rounded once.  Nothing cancels at
a working precision, so this route needs no precision escalation: the
context sets only the bits at which W is returned.

Sign convention: the linearization is native to polynomials with leading
coefficient of sign (-1)^n; this package normalizes leading-positive, so
for odd 2q the general route multiplies by (-1)^(n*2q) to land in the
package convention (even 2q is unaffected).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from mpmath import libmp, mp

from .context import ParameterError, PrecisionContext
from .families import RenyiOrder, _rational, power_integrable
from .bell import _kronecker_product, _refuse_signed_length, length_from_power_integral

__all__ = [
    "lauricella_fa_terminating",
    "laguerre_power_integral_lauricella",
    "renyi_length_laguerre_lauricella",
]

_DEFAULT_CTX = PrecisionContext()

#: Extra bits at which the Gamma/binomial prefactor is formed; W is
#: returned at the context's bits.
_GUARD_BITS = 32


def _term_polynomial(u: int, lower: Fraction, z: Fraction) -> tuple:
    """``(N, D)`` with  sum_{m<=u} (-u)_m z^m x^m / ((lower)_m m!)
    = sum_m N[m] x^m / D  for integers N[m] and D.

    Built from the term ratio  c_{m+1}/c_m = (m-u) z / ((lower+m)(m+1)):
    N[m] is the product of the first m ratio numerators and the last u-m
    ratio denominators, D the product of all u denominators.
    """
    ln, ld = lower.as_integer_ratio()
    zn, zd = z.as_integer_ratio()
    num = [(m - u) * zn * ld for m in range(u)]
    den = [zd * (ln + m * ld) * (m + 1) for m in range(u)]
    if 0 in den:
        raise ParameterError(
            f"lower parameter {lower} reaches 0 before the series terminates"
        )
    tail = [1] * (u + 1)
    for m in range(u - 1, -1, -1):
        tail[m] = tail[m + 1] * den[m]
    coeffs, head = [], 1
    for m in range(u + 1):
        coeffs.append(head * tail[m])
        if m < u:
            head *= num[m]
    return coeffs, tail[0]


def lauricella_fa_terminating(a, upper, lower, z):
    """F_A(a; upper; lower; z) with every upper parameter a nonpositive int.

    Multi-index sum over m_i <= -upper_i of
        (a)_{|m|} prod_i (upper_i)_{m_i} z_i^{m_i} / ((lower_i)_{m_i} m_i!).

    The factor (a)_{|m|} depends on m only through s = |m|, so the sum
    regroups as  sum_s (a)_s [x^s] prod_i C_i(x)  with the polynomials
        C_i(x) = sum_m (upper_i)_m z_i^m x^m / ((lower_i)_m m!)
    (Srivastava & Karlsson, Multiple Gaussian Hypergeometric Series,
    1985).  Every parameter (int, float, Fraction or mpf) is taken as the
    exact rational it holds, each C_i as integer numerators over one
    integer denominator, and the product and the contraction with (a)_s
    run on integers, so the sum is exact: the result is exactly 0 iff the
    F_A sum is, and otherwise the exact sum rounded once to the active
    precision.  A lower parameter that reaches 0 before its series
    terminates raises ParameterError.
    """
    uppers = []
    for u in upper:
        u = _rational(u)
        if u > 0 or u.denominator != 1:
            raise ParameterError("upper parameters must be nonpositive integers")
        uppers.append(-int(u))
    if len(uppers) != len(lower) or len(uppers) != len(z):
        raise ParameterError("parameter sequences must have equal length")
    # equal variables give equal polynomials, raised once to their count
    counts = Counter(zip(uppers, map(_rational, lower), map(_rational, z)))
    terms = [(_term_polynomial(*key), count) for key, count in counts.items()]
    prod = _kronecker_product([(c, count) for (c, _), count in terms])
    den = math.prod(d**count for (_, d), count in terms)
    # sum_s (a)_s prod[s], a = an/ad, by Horner over s in integers:
    # G_s = prod[s] ad^(smax-s) + (an + s ad) G_{s+1},  the sum = G_0 / ad^smax
    an, ad = _rational(a).as_integer_ratio()
    smax = len(prod) - 1
    total, scale = 0, 1
    for s in range(smax, -1, -1):
        total = prod[s] * scale + (an + s * ad) * total
        scale *= ad
    return mp.make_mpf(
        libmp.from_rational(total, den * ad**smax, mp.prec, libmp.round_nearest)
    )


def laguerre_power_integral_lauricella(
    n: int, alpha, q, ctx: PrecisionContext = _DEFAULT_CTX
):
    """W_q for Laguerre by the linearization route (package sign convention).

    Orthogonality leaves the k=0 linearization coefficient of the 2q-th
    power,
        Theta_0 = Gamma(alpha q + 1) * C(n+alpha, n)^{2q} *
        F_A^{(2q+1)}(alpha q + 1; -n,...,-n, 0; alpha+1,...,alpha+1, 1;
                     1/q,...,1/q, 1).
    The F_A sum is exact (exactly 0 iff W is); it and the prefactor are
    formed at ``ctx.bits`` plus guard bits, and W is returned at
    ``ctx.bits``.
    """
    order = RenyiOrder.from_q(q)
    two_q = order.two_q
    if not power_integrable(order.q, alpha):
        raise ParameterError(f"alpha*q must exceed -1 (alpha={alpha}, q={order})")
    with mp.workprec(ctx.bits + _GUARD_BITS):
        am = mp.mpf(alpha)
        a = _rational(am)
        fa = lauricella_fa_terminating(
            a * order.q + 1,
            [-n] * two_q + [0],
            [a + 1] * two_q + [1],
            [Fraction(2, two_q)] * two_q + [1],
        )
        qf = order.q_mpf()
        theta0 = mp.gamma(am * qf + 1) * mp.binomial(n + am, n) ** two_q * fa
        pref = mp.power(
            mp.factorial(n) / mp.gamma(am + n + 1), qf
        ) / mp.power(qf, am * qf + 1)
        sign = -1 if (n * two_q) % 2 else 1
        W = sign * pref * theta0
    with mp.workprec(ctx.bits):
        return +W


def renyi_length_laguerre_lauricella(
    n: int, alpha, q, ctx: PrecisionContext = _DEFAULT_CTX
):
    """Rényi length of the Laguerre density via the linearization route;
    0 where alpha q <= -1, so that the integral of rho^q diverges.
    ParameterError for odd 2q at n >= 1, as on the Bell route."""
    order = RenyiOrder.from_q(q)
    if not power_integrable(order.q, alpha):
        return mp.mpf(0)
    _refuse_signed_length(n, order)
    W = laguerre_power_integral_lauricella(n, alpha, order, ctx)
    with mp.workprec(ctx.bits):
        return +length_from_power_integral(W, order)
