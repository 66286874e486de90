"""Closed-form spreading measures: standard deviation, Fisher information
and length, Cramér-Rao products with their large-degree rates, and
ordinary moments from one exact Laguerre sum, with a Gauss-rule oracle.

Parameter comparisons are exact (alpha = 0 means exactly zero).  One end
rule (:func:`_finite_ends`) decides the Fisher table, the Cramér-Rao rate
and the truncated windows; x -> -x, which swaps the Jacobi exponents, is
an identity of the density, not an extension of the table.  Fisher's
independent check is one exact Gauss sum (:func:`fisher_information_numeric`),
and float64 windows beside the irregular ends exhibit the divergent branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import libmp, mp

from ._vec import log_weight, poly_scaled
from .context import ParameterError, PrecisionContext
from .families import HERMITE, LAGUERRE, Family, RenyiOrder, _check_degree, _rational
from .orthopoly import _FIXED_GUARD, _RULE_GUARD, _fixed_table, _from_fixed, monic_fixed, to_fixed
from .orthopoly import zeros_raw
from .quadrature import _gauss_sum, gauss_rule, tanh_sinh_panels

__all__ = [
    "stddev",
    "fisher_information",
    "fisher_length",
    "fisher_information_numeric",
    "fisher_truncated",
    "cramer_rao_product",
    "AsymptoticRate",
    "asymptotic_cramer_rao",
    "moment",
    "moment_quadrature",
]

_DEFAULT_CTX = PrecisionContext()


def _finite_ends(family: Family):
    """(end, inward, e, regular) for each finite end, left to right, with e
    from ``Family.edge_exponents``.  F is finite exactly when every end is
    regular: e is 0 or e > 1, compared exactly (J. Sánchez-Ruiz and
    J. S. Dehesa, J. Comput. Appl. Math. 182 (2005))."""
    return [
        (float(end), inward, e, e == 0 or e > 1)
        for end, inward, e in zip(family.interval, (1.0, -1.0), family.edge_exponents)
        if mp.isfinite(end)
    ]


def _jacobi_bsq(k: int, a, b):
    """Squared off-diagonal recurrence coefficient b_k^2 for Jacobi, written
    apart from ``families.exact_recurrence`` on purpose: it is the closed side
    of the ``verify --scope stddev`` check of that table."""
    if k == 0:
        return mp.mpf(0)
    if k == 1:
        # cancelled form, finite also at alpha+beta = -1
        return 4 * (1 + a) * (1 + b) / ((2 + a + b) ** 2 * (3 + a + b))
    s = 2 * k + a + b
    return 4 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s * s - 1))


def stddev(family: Family, n: int, ctx: PrecisionContext = _DEFAULT_CTX):
    """Standard deviation of the degree-n density."""
    _check_degree(n)
    with mp.workprec(ctx.bits):
        a = mp.mpf(family.alpha)
        b = mp.mpf(family.beta)
        if family.kind == HERMITE:
            return mp.sqrt(n + mp.mpf(1) / 2)
        if family.kind == LAGUERRE:
            return mp.sqrt(2 * mp.mpf(n) ** 2 + 2 * (a + 1) * n + a + 1)
        return +mp.sqrt(_jacobi_bsq(n, a, b) + _jacobi_bsq(n + 1, a, b))


def fisher_information(family: Family, n: int, ctx: PrecisionContext = _DEFAULT_CTX):
    """Fisher information of the density; +inf when an end is irregular."""
    _check_degree(n)
    if not all(regular for *_, regular in _finite_ends(family)):
        return mp.inf
    with mp.workprec(ctx.bits):
        al = family.alpha
        be = family.beta
        nn = mp.mpf(n)
        if family.kind == HERMITE:
            return 4 * nn + 2
        if family.kind == LAGUERRE:
            if al == 0:
                return 4 * nn + 1
            a = mp.mpf(al)
            return ((2 * nn + 1) * a + 1) / (a * a - 1)
        if al == 0 and be == 0:
            return 2 * nn * (nn + 1) * (2 * nn + 1)
        if be == 0:
            # reflection x -> -x swaps the exponents and preserves F
            al, be = be, al
        if al == 0:
            b = mp.mpf(be)
            return (
                (2 * nn + b + 1)
                / 4
                * (
                    nn**2 / (b + 1)
                    + nn
                    + (4 * nn + 1) * (nn + b + 1)
                    + (nn + 1) ** 2 / (b - 1)
                )
            )
        a = mp.mpf(al)
        b = mp.mpf(be)
        return +(
            (2 * nn + a + b + 1)
            / (4 * (nn + a + b - 1))
            * (
                nn * (nn + a + b - 1) * ((nn + a) / (b + 1) + 2 + (nn + b) / (a + 1))
                + (nn + 1) * (nn + a + b) * ((nn + a) / (b - 1) + 2 + (nn + b) / (a - 1))
            )
        )


def fisher_length(family: Family, n: int, ctx: PrecisionContext = _DEFAULT_CTX):
    """1/sqrt(F); zero when the information diverges, +inf when it vanishes
    (constant density: the uniform Jacobi n=0 case)."""
    F = fisher_information(family, n, ctx)
    if mp.isinf(F):
        return mp.mpf(0)
    if F == 0:
        return mp.inf
    with mp.workprec(ctx.bits):
        return +(1 / mp.sqrt(F))


def _fisher_integrand(family: Family, n: int):
    """Vectorized (rho')^2 / rho  =  w * (2 p' + p (ln w)')^2, log-safe."""
    kind, al, be = family.kind, family.alpha, family.beta

    def fpanel(i, a, b, x, dl, dr):
        p, dp, logscale = poly_scaled(kind, al, be, n, x, derivative=True)
        logw, _, u = log_weight(kind, al, be, a, b, x, dl, dr, derivative=True)
        core = 2.0 * dp + p * u
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            mag = 2.0 * np.log(np.abs(core)) + 2.0 * logscale + logw
            vals = np.where(core == 0.0, 0.0, np.exp(mag))
        return vals

    return fpanel


def fisher_information_numeric(family: Family, n: int, ctx: PrecisionContext = _DEFAULT_CTX):
    """Fisher information by an exact Gauss sum (independent check route).

    (rho')^2 / rho = w (2 p' + p (ln w)')^2, and (ln w)' has a pole
    e / (x - end) at each finite end of nonzero exponent e.  Times
    (x - end) at each such end, 2 p' + p (ln w)' is a polynomial Q of
    degree at most n + 1, so F is the sum of Q^2 over the (n + 2)-node
    Gauss rule (:func:`~spreadpoly.quadrature.gauss_rule`) of w with each
    nonzero exponent lowered by 2, divided by h_n: Q is formed for the
    monic pi_n, whose value and derivative at each node come from
    ``orthopoly.monic_fixed`` on the table of ``orthopoly._fixed_table``,
    at the rule's precision.  Where a lowered exponent is -1 or less,
    ``Family`` refuses the weight: F diverges, and the route returns +inf.
    """
    _check_degree(n)
    try:
        lowered = Family(family.kind, *(e - 2 if e else e for e in (family.alpha, family.beta)))
    except ParameterError:
        return mp.inf
    nodes, weights = gauss_rule(lowered, n + 2, ctx)
    prec = ctx.bits + _RULE_GUARD
    fixed = prec + _FIXED_GUARD
    diag, offsq, h = _fixed_table(family.kind, family.alpha, family.beta, n + 1, prec)
    # (ln w)' = c0 + c1 x + the poles
    c0, c1 = {HERMITE: (0, -2), LAGUERRE: (-1, 0)}.get(family.kind, (0, 0))
    poles = [(end, e) for end, _, e, _ in _finite_ends(family) if e != 0]
    with mp.workprec(prec):
        total = 0
        for x, weight in zip(nodes, weights):
            p, dp, _, _, scale = monic_fixed(to_fixed(x._mpf_, fixed), diag, offsq, n, fixed)
            p, dp = _from_fixed(p, scale, prec), _from_fixed(dp, scale, prec)
            q, span = 2 * dp + p * (c0 + c1 * x), 1
            for end, e in poles:
                q, span = q * (x - end) + e * p * span, span * (x - end)
            total += weight * q * q
        return total / h


def fisher_truncated(family: Family, n: int, eps: float):
    """Fisher mass in a window [eps, c] beside each irregular end.

    Used to exhibit divergence: the window isolates the singular part of
    the integrand, so on the infinite-F branches the value grows without
    bound as eps -> 0 (the bounded interior never enters and cannot mask
    the growth).  The outer edge c is the nearer of the first zero and a
    fixed offset 0.5.  Regular ends add a finite amount and are skipped;
    ParameterError when no end is irregular, since F is then finite, and
    unless ``eps`` is finite and positive: at 0 the window diverges.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ParameterError(f"cutoff must be finite and positive, got {eps!r}")
    edges = [(end, inward) for end, inward, _, regular in _finite_ends(family) if not regular]
    if not edges:
        raise ParameterError("no divergent endpoint for these exponents")
    zs = zeros_raw(family.kind, family.alpha, family.beta, n)
    fpanel = _fisher_integrand(family, n)
    total = mp.mpf(0)
    for end, inward in edges:
        dist = min([0.5] + [abs(z - end) for z in zs])
        if dist <= eps:
            raise ParameterError(f"cutoff {eps} reaches past the first zero")
        pts = sorted([end + inward * eps, end + inward * dist])
        val, err = tanh_sinh_panels(fpanel, pts, tol=1e-8)
        total += mp.mpf(val)
    return total


def cramer_rao_product(family: Family, n: int, ctx: PrecisionContext = _DEFAULT_CTX):
    with mp.workprec(ctx.bits):
        return +(fisher_length(family, n, ctx) * stddev(family, n, ctx))


@dataclass(frozen=True)
class AsymptoticRate:
    """Leading behaviour coefficient * n**exponent (exact exponent)."""

    coefficient: object
    exponent: Fraction

    def at(self, n):
        expo = mp.mpf(self.exponent.numerator) / self.exponent.denominator
        return self.coefficient * mp.power(mp.mpf(n), expo)


def asymptotic_cramer_rao(family: Family, ctx: PrecisionContext = _DEFAULT_CTX) -> AsymptoticRate:
    """Large-n rate of delta_x * Delta_x: with s the sum over the finite ends
    of c(0) = 4, c(e) = 1/(e+1) + 1/(e-1), Hermite 1/2, Laguerre
    n^(1/2)/sqrt(s/2), Jacobi n^(-3/2)/sqrt(s); 0 when an end is irregular."""
    ends = _finite_ends(family)
    if not all(regular for *_, regular in ends):
        return AsymptoticRate(mp.mpf(0), Fraction(0))
    with mp.workprec(ctx.bits):
        if family.kind == HERMITE:
            return AsymptoticRate(mp.mpf(1) / 2, Fraction(0))
        s = 0
        for _, _, e, _ in ends:
            s += 4 if e == 0 else 1 / (mp.mpf(e) + 1) + 1 / (mp.mpf(e) - 1)
        if family.kind == LAGUERRE:
            return AsymptoticRate(1 / mp.sqrt(s / 2), Fraction(1, 2))
        return AsymptoticRate(1 / mp.sqrt(s), Fraction(-3, 2))


def moment(family: Family, n: int, k, ctx: PrecisionContext = _DEFAULT_CTX):
    """Ordinary moment <x^k> (Hermite and Laguerre only) from one exact sum.

    Laguerre(a), real k with a + k > -1 (DLMF 18.18.18 and orthogonality):
    n! Gamma(a+k+1)/Gamma(a+n+1) sum_r C(k,n-r)^2 C(a+k+r,r), terms >= 0.
    Hermite, integer k >= 0: 0 for odd k, else the Laguerre(e-1/2) moment of
    order k/2 at degree m, where n = 2m + e (DLMF 18.7.19-20).  The sum is
    one integer ratio.  For integer k the Gamma ratio is a Pochhammer product
    and the moment one exact rational rounded once at ``ctx.bits``; else the
    Gamma ratio takes 32 guard bits and the product is rounded once.
    """
    _check_degree(n)
    k = _rational(k)
    if family.kind == HERMITE:
        if k.denominator != 1 or k < 0:
            raise ParameterError("hermite moments need an integer order k >= 0")
        if k.numerator % 2:
            return mp.mpf(0)
        a, k, n = Fraction(n % 2 * 2 - 1, 2), k / 2, n // 2
    elif family.kind == LAGUERRE:
        a = _rational(family.alpha)
        if not a + k > -1:
            raise ParameterError("laguerre moments need alpha + k > -1")
    else:
        raise ParameterError("closed-form moments cover hermite and laguerre only")
    d = math.lcm(a.denominator, k.denominator)
    A, K = a.numerator * (d // a.denominator), k.numerator * (d // k.denominator)
    P = [1]  # P[j] = d^j j! C(k, j)
    for i in range(n):
        P.append(P[-1] * (K - i * d))
    num, q = 0, 1  # q = (d^r r!)^2 C(a+k+r, r)
    for r in range(n + 1):
        num += P[n - r] ** 2 * q * math.comb(n, r) ** 2
        q *= (K + A + (r + 1) * d) * d * (r + 1)
    den = d ** (2 * n) * math.factorial(n)  # num/den = n! sum_r ...
    if k.denominator == 1:  # the Gamma ratio is a product of (A + j d)/d
        lo, hi = sorted((k.numerator, n))
        poch, scale = math.prod(A + j * d for j in range(lo + 1, hi + 1)), d ** (hi - lo)
        num, den = (num * poch, den * scale) if k >= n else (num * scale, den * poch)
        return mp.make_mpf(libmp.from_rational(num, den, ctx.bits, libmp.round_nearest))
    with mp.workprec(ctx.bits + 32):
        value = mp.gamma(mp.mpf(K + A + d) / d) / mp.gamma(mp.mpf(A + (n + 1) * d) / d)
        value *= mp.make_mpf(libmp.from_rational(num, den, mp.prec, libmp.round_nearest))
    with mp.workprec(ctx.bits):
        return +value


def moment_quadrature(family: Family, n: int, k: int, ctx: PrecisionContext = _DEFAULT_CTX):
    """Oracle moment: the exact Gauss rule of w applied to x^k p_n^2 w,
    integer k >= 0, in its node-free form mu_0 v^T J^k v / h_n with
    v = pi_n(J) e_1 (``quadrature._gauss_sum``)."""
    k = _rational(k)
    if k.denominator != 1 or k < 0:
        raise ParameterError("quadrature moments need an integer order k >= 0")
    return _gauss_sum(family, n, RenyiOrder(2), int(k), ctx)
