"""Closed-form spreading measures: standard deviation, Fisher information
and length, Cramér-Rao products with their large-degree rates, and
ordinary moments.

Branch structure is implemented *exactly as the closed forms state it*:
parameter comparisons are exact (alpha = 0 means exactly zero), and the
branch tables are not symmetrized or extended beyond what they say, even
where a limit argument would suggest more.  The numerical Fisher
functional (an independent oracle) is also provided, plus truncated
integrals for exhibiting the divergent branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import libmp, mp

from ._vec import log_weight, poly_scaled
from .context import ParameterError, PrecisionContext
from .families import HERMITE, JACOBI, LAGUERRE, Family, _rational
from .orthopoly import zeros_raw
from .quadrature import QuadratureError, WeightSpec, _rule_sum, tanh_sinh_panels

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
    "laguerre_real_moment",
]

_DEFAULT_CTX = PrecisionContext()


def _jacobi_bsq(k: int, a, b):
    """Squared off-diagonal recurrence coefficient b_k^2 for Jacobi."""
    if k == 0:
        return mp.mpf(0)
    if k == 1:
        # cancelled form, finite also at alpha+beta = -1
        return 4 * (1 + a) * (1 + b) / ((2 + a + b) ** 2 * (3 + a + b))
    s = 2 * k + a + b
    return 4 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s * s - 1))


def stddev(family: Family, n: int, ctx: PrecisionContext = _DEFAULT_CTX):
    """Standard deviation of the degree-n density."""
    if n < 0:
        raise ParameterError("degree must be nonnegative")
    with mp.workprec(ctx.bits):
        a = mp.mpf(family.alpha)
        b = mp.mpf(family.beta)
        if family.kind == HERMITE:
            return mp.sqrt(n + mp.mpf(1) / 2)
        if family.kind == LAGUERRE:
            return mp.sqrt(2 * mp.mpf(n) ** 2 + 2 * (a + 1) * n + a + 1)
        return +mp.sqrt(_jacobi_bsq(n, a, b) + _jacobi_bsq(n + 1, a, b))


def fisher_information(family: Family, n: int, ctx: PrecisionContext = _DEFAULT_CTX):
    """Fisher information of the density; +inf on the divergent branches."""
    if n < 0:
        raise ParameterError("degree must be nonnegative")
    with mp.workprec(ctx.bits):
        al = family.alpha
        be = family.beta
        nn = mp.mpf(n)
        if family.kind == HERMITE:
            return 4 * nn + 2
        if family.kind == LAGUERRE:
            if al == 0:
                return 4 * nn + 1
            if al > 1:
                a = mp.mpf(al)
                return ((2 * nn + 1) * a + 1) / (a * a - 1)
            return mp.inf
        if al == 0 and be == 0:
            return 2 * nn * (nn + 1) * (2 * nn + 1)
        if al > 1 and be == 0:
            # reflection x -> -x swaps the exponents and preserves F
            al, be = be, al
        if al == 0 and be > 1:
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
        if al > 1 and be > 1:
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
        return mp.inf


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
        logw, u = log_weight(kind, al, be, a, b, x, dl, dr, derivative=True)
        core = 2.0 * dp + p * u
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            mag = 2.0 * np.log(np.abs(core)) + 2.0 * logscale + logw
            vals = np.where(core == 0.0, 0.0, np.exp(mag))
        return vals

    return fpanel


def _float_zeros(family: Family, n: int):
    return zeros_raw(family.kind, family.alpha, family.beta, n)


def fisher_information_numeric(family: Family, n: int, *, tol: float = 1e-10):
    """Adaptive-quadrature Fisher functional (independent check route).

    Beside an end where the weight exponent e is nonzero the integrand
    behaves like |x - end|^(e-2), so the engine's estimate counts the mass
    beyond its outermost node there, which is infinite for e <= 1 (the
    divergent branches).  QuadratureError when the estimate exceeds ``tol``.
    """
    lo, hi = family.interval
    pts = [lo] + _float_zeros(family, n) + [hi]
    edges = tuple(e - 2.0 if e != 0 else 0.0 for e in family.edge_exponents)
    val, err = tanh_sinh_panels(
        _fisher_integrand(family, n), pts, tol=tol, edge_exponents=edges
    )
    if not err <= tol:
        raise QuadratureError(
            f"numeric Fisher information of {family.describe()} at n={n}: "
            f"error estimate {err:.3g} exceeds tol {tol:g}"
        )
    return mp.mpf(val)


def fisher_truncated(family: Family, n: int, eps: float):
    """Fisher mass in a window [eps, c] beside each divergent endpoint.

    Used to exhibit divergence: the window isolates the singular part of
    the integrand, so on the infinite-F branches the value grows without
    bound as eps -> 0 (the bounded interior never enters and cannot mask
    the growth).  The outer edge c is the nearer of the first zero and a
    fixed offset 0.5.  Endpoints whose exponent is 0 contribute nothing
    singular and are skipped.
    """
    if family.kind == HERMITE:
        raise ParameterError("no truncation points on the real line")
    zs = _float_zeros(family, n)
    fpanel = _fisher_integrand(family, n)
    if family.kind == LAGUERRE:
        edges = [(0.0, 1.0)] if family.alpha != 0 else []
    else:
        edges = []
        if family.beta != 0:
            edges.append((-1.0, 1.0))
        if family.alpha != 0:
            edges.append((1.0, -1.0))
    if not edges:
        raise ParameterError("no divergent endpoint for these exponents")
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
    """Large-n rate of the product delta_x * Delta_x, branch-exact."""
    with mp.workprec(ctx.bits):
        al, be = family.alpha, family.beta
        if family.kind == HERMITE:
            return AsymptoticRate(mp.mpf(1) / 2, Fraction(0))
        if family.kind == LAGUERRE:
            if al == 0:
                return AsymptoticRate(1 / mp.sqrt(2), Fraction(1, 2))
            if al > 1:
                a = mp.mpf(al)
                return AsymptoticRate(mp.sqrt((a * a - 1) / a), Fraction(1, 2))
            return AsymptoticRate(mp.mpf(0), Fraction(0))
        if al == 0 and be == 0:
            return AsymptoticRate(mp.power(2, mp.mpf(-3) / 2), Fraction(-3, 2))
        if al == 0 and be > 1:
            b = mp.mpf(be)
            return AsymptoticRate(
                1 / mp.sqrt(1 / (b + 1) + 1 / (b - 1) + 4), Fraction(-3, 2)
            )
        if al > 1 and be > 1:
            a = mp.mpf(al)
            b = mp.mpf(be)
            return AsymptoticRate(
                1 / mp.sqrt(1 / (b + 1) + 1 / (b - 1) + 1 / (a + 1) + 1 / (a - 1)),
                Fraction(-3, 2),
            )
        return AsymptoticRate(mp.mpf(0), Fraction(0))


def moment(family: Family, n: int, k: int, ctx: PrecisionContext = _DEFAULT_CTX):
    """Ordinary moment <x^k> in closed form (Hermite and Laguerre only).

    alpha is a double, so the closed form is an exact rational, rounded
    once at ``ctx.bits``: for Hermite (k = 2h) (k-1)!!/2^h times the integer
    2F1(-n, -h; 1; 2) = sum_j C(n,j) C(h,j) 2^j, for Laguerre
    n! Gamma(k+alpha+1)/Gamma(n+alpha+1) sum_r C(k,n-r)^2 C(k+alpha+r, r).
    """
    if k < 0:
        raise ParameterError("moment order must be nonnegative")
    if family.kind == HERMITE:
        if k % 2:
            return mp.mpf(0)
        half = k // 2
        fa = sum((math.comb(n, j) * math.comb(half, j)) << j for j in range(min(n, half) + 1))
        exact = Fraction(fa * math.prod(range(1, k, 2)), 2**half)
    elif family.kind == LAGUERRE:
        a = _rational(family.alpha)
        ratio = Fraction(1)  # the Gamma ratio, a Pochhammer product
        for j in range(min(k, n) + 1, max(k, n) + 1):
            ratio *= j + a
        acc, binom = Fraction(0), Fraction(1)  # binom = C(k+a+r, r)
        for r in range(n + 1):
            acc += math.comb(k, n - r) ** 2 * binom
            binom = binom * (k + a + r + 1) / (r + 1)
        exact = math.factorial(n) * (ratio if k >= n else 1 / ratio) * acc
    else:
        raise ParameterError("closed-form moments cover hermite and laguerre only")
    return mp.make_mpf(
        libmp.from_rational(exact.numerator, exact.denominator, ctx.bits, libmp.round_nearest)
    )


def moment_quadrature(family: Family, n: int, k: int, ctx: PrecisionContext = _DEFAULT_CTX):
    """Oracle moment: exact Gauss rule applied to x^k p_n^2 w."""
    return _rule_sum(
        family, n, WeightSpec.from_family(family), (2 * n + k) // 2 + 1, ctx,
        lambda x, w, v: w * v * v * mp.power(x, k),
    )


def laguerre_real_moment(n: int, alpha: float, b, ctx: PrecisionContext = _DEFAULT_CTX):
    """<x^b> for real b > -1-alpha, via the exponent-shifted Gauss rule.

    The shifted exponent alpha + b is the exact mpf sum, as
    :meth:`WeightSpec.power` forms alpha q.
    """
    shifted = mp.fadd(alpha, b, exact=True)
    if not shifted > -1:
        raise ParameterError("shifted exponent alpha+b must exceed -1")
    return _rule_sum(
        Family.laguerre(alpha), n, WeightSpec(LAGUERRE, shifted), n + 1, ctx,
        lambda x, w, v: w * v * v,
    )
