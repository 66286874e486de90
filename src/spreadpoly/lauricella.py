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

The transcendental part of Theta_0 and of the normalisation does not
depend on n: with r = C(n + alpha, n) = (alpha + 1)_n / n!, an exact
rational, W = +-K r^q F_A, where K = Gamma(alpha q + 1) /
(Gamma(alpha + 1)^q q^(alpha q + 1)) is formed once per (alpha, 2q,
precision) (:func:`_fa_constant`).  A cell rounds the F_A sum, then
r^[q] F_A ([q] the integer part of q), multiplies by sqrt(r) at odd 2q
and by K, and rounds W.

Sign convention: the linearization is native to polynomials with leading
coefficient of sign (-1)^n; this package normalizes leading-positive, so
for odd 2q the general route multiplies by (-1)^(n*2q) to land in the
package convention (even 2q is unaffected).

alpha names the weight ``Family.laguerre(alpha)``, so this route refuses
what the Bell and Gauss routes refuse (``families._integrable_order``),
and its length is mapped from W by the Bell route's ``_renyi_length``.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import from_rational, mpf_mul, mpf_neg, mpf_shift, mpf_sqrt, round_nearest

from .context import ParameterError, PrecisionContext
from .families import Family, _check_degree, _integrable_order, _rational
from .bell import _kronecker_product, _renyi_length

__all__ = [
    "lauricella_fa_terminating",
    "laguerre_power_integral_lauricella",
    "renyi_length_laguerre_lauricella",
]

_DEFAULT_CTX = PrecisionContext()

#: Extra bits at which K, the F_A sum and r^q F_A are formed; W is
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
    return mp.make_mpf(from_rational(total, den * ad**smax, mp.prec, round_nearest))


@functools.lru_cache(maxsize=256)
def _fa_constant(alpha, two_q: int, prec: int) -> tuple:
    """K = Gamma(alpha q + 1) / (Gamma(alpha + 1)^q q^(alpha q + 1)),
    q = two_q/2, as a raw mpf at ``prec`` bits, memoised on (alpha, 2q,
    prec): the n-free factor of W.  Gamma(alpha + 1)^q is an integer
    power, times one square root at odd 2q.  It equals the Bell route's
    constant C of the same weight but is formed apart from it, so the
    two routes share no rounded value."""
    with mp.workprec(prec):
        a = mp.mpf(alpha)
        q = mp.mpf(two_q) / 2
        g = mp.gamma(a + 1)
        gq = g ** (two_q // 2)
        if two_q % 2:
            gq *= mp.sqrt(g)
        return (mp.gamma(a * q + 1) / (gq * mp.power(q, a * q + 1)))._mpf_


def laguerre_power_integral_lauricella(
    n: int, alpha, q, ctx: PrecisionContext = _DEFAULT_CTX
):
    """W_q for Laguerre by the linearization route (package sign convention).

    Orthogonality leaves the k=0 linearization coefficient of the 2q-th
    power,
        Theta_0 = Gamma(alpha q + 1) * C(n+alpha, n)^{2q} *
        F_A^{(2q+1)}(alpha q + 1; -n,...,-n, 0; alpha+1,...,alpha+1, 1;
                     1/q,...,1/q, 1),
    and the normalisation (n! / Gamma(alpha + n + 1))^q / q^(alpha q + 1)
    turns it into W = +-K r^q F_A, with r = C(n+alpha, n) exact and the
    n-free constant K of :func:`_fa_constant`.  The F_A sum is exact
    (exactly 0 iff W is); it, r^[q] F_A, sqrt(r) at odd 2q and K are
    formed at ``ctx.bits`` plus guard bits, and W is returned at
    ``ctx.bits``.  The weight is ``Family.laguerre(alpha)``, so alpha <= -1,
    a w^q that is not integrable (``families._integrable_order``, the
    refusal of every route) and n < 0 raise ParameterError.
    """
    family = Family.laguerre(alpha)
    order = _integrable_order(family, q)
    _check_degree(n)
    two_q = order.two_q
    prec = ctx.bits + _GUARD_BITS
    a = _rational(family.alpha)
    with mp.workprec(prec):
        fa = lauricella_fa_terminating(
            a * order.q + 1,
            [-n] * two_q + [0],
            [a + 1] * two_q + [1],
            [Fraction(2, two_q)] * two_q + [1],
        )
    # r = (alpha + 1)_n / n! = rnum / rden, alpha = an / ad
    an, ad = a.as_integer_ratio()
    rnum = math.prod(an + ad * (j + 1) for j in range(n))
    rden = ad**n * math.factorial(n)
    sign, man, exp, _ = fa._mpf_
    whole = two_q // 2  # [q]
    X = mpf_shift(from_rational(man * rnum**whole, rden**whole, prec, round_nearest), exp)
    if two_q % 2:
        root = mpf_sqrt(from_rational(rnum, rden, prec, round_nearest), prec, round_nearest)
        X = mpf_mul(X, root, prec, round_nearest)
    W = mpf_mul(_fa_constant(family.alpha, two_q, prec), X, ctx.bits, round_nearest)
    return mp.make_mpf(mpf_neg(W) if sign ^ (n * two_q) % 2 else W)


def renyi_length_laguerre_lauricella(
    n: int, alpha, q, ctx: PrecisionContext = _DEFAULT_CTX
):
    """Rényi length of the Laguerre density via the linearization route,
    mapped from W as on the Bell route (``bell._renyi_length``): 0 where
    alpha q <= -1, so that the integral of rho^q diverges, and
    ParameterError for odd 2q at n >= 1."""
    return _renyi_length(
        Family.laguerre(alpha), n, q, ctx,
        lambda order: laguerre_power_integral_lauricella(n, alpha, order, ctx),
    )
