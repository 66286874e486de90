"""Shannon entropy and length of squared-polynomial densities.

The entropy of rho_n = p_n^2 w splits as

    S = -<ln p_n^2> - <ln w>

where the weight-log expectation <ln w> has a closed form for every
family (digamma values; see ``_mean_log_weight``), so each value takes one
numeric integral: the polynomial-log term, which carries all the
logarithmic singularities, located at the zeros of p_n.  At n = 0 there is
none: p_0^2 = 1/mu_0, so S_0 = ln mu_0 - <ln w>_0 takes no integral.  At
n >= 1 the term is integrated with panel splits at those zeros by a
vectorized float64 engine, first for every family: Gauss-Legendre panels
with the logarithm of the zeros split off between them, tanh-sinh at the
ends of the interval (``quadrature.tanh_sinh_panels``).  Its error
estimate counts the mass it leaves out beside an endpoint where a negative
weight exponent makes the density blow up; when the estimate exceeds the
tolerance (exponents near -1, or tolerances below 1e-12), an adaptive
arbitrary-precision integrator takes over.  ``ShannonResult.path`` says
which of the two ran, or ``"exact"`` at n = 0.

Also here: the large-n entropy formulas, the universal linear relation
between the Shannon length N = exp(S) and the standard deviation, and
variational upper bounds on N built from ordinary moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .context import ParameterError, PrecisionContext
from .families import HERMITE, JACOBI, LAGUERRE, Family, _check_degree, norm_constant
from .quadrature import QuadratureError, _U, _check_tol, _engine_panels, _split_integral
from .quadrature import tanh_sinh_panels
from .closed_form import moment, stddev
from ._vec import log_weight, poly_scaled

__all__ = [
    "ShannonResult",
    "InequalityAudit",
    "shannon_numeric",
    "shannon_asymptotic",
    "ratio_constant",
    "shannon_bound_hermite",
    "shannon_bound_laguerre",
    "optimize_bound",
    "jacobi_trivial_bound",
    "shannon_inequality_check",
]

_DEFAULT_CTX = PrecisionContext()

PATH_FLOAT64 = "float64"
PATH_MPF = "mpf"
PATH_EXACT = "exact"


@dataclass(frozen=True)
class ShannonResult:
    """Entropy S (nats), length N = exp(S), and how they were obtained.

    ``path`` names the integrator of a numeric result: ``"float64"`` (the
    float64 panel engine) or ``"mpf"`` (the arbitrary-precision fallback), or
    ``"exact"`` for the ground state, which takes no integral.
    """

    entropy: object
    length: object
    method: str
    est_error: object
    path: str | None = None

    def __post_init__(self) -> None:
        if not self.length > 0:
            raise ParameterError("Shannon length must be positive")
        if self.method == "numeric" and not self.est_error > 0:
            raise ParameterError("numeric results need a positive error estimate")
        paths = (PATH_FLOAT64, PATH_MPF, PATH_EXACT) if self.method == "numeric" else (None,)
        if self.path not in paths:
            raise ParameterError(f"path {self.path!r} does not fit method {self.method!r}")


@dataclass(frozen=True)
class InequalityAudit:
    """One checked inequality lhs <= rhs: the compared values, the margin
    rhs - lhs (0 where it is rounding, as :func:`_bound_margin` reads it)
    and whether the margin is >= 0."""

    lhs: object
    rhs: object
    margin: object
    ok: bool

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# Numeric entropy
# ---------------------------------------------------------------------------


def _log_poly_panel(family: Family, n: int):
    """rho * ln p^2, overflow-safe; zero exactly at the zeros of p.

    Returns the values with bounds on their rounding error and the
    coefficient 2 rho of the logarithms that the zeros of p put in ln p^2
    (the ``(values, rounding, scatter, log_coef)`` of
    ``tanh_sinh_panels``).  An error d in ln p^2 moves rho ln p^2 by
    rho |ln p^2 + 1| d, and the value a zero panel's log-split weights
    form, rho (ln p^2 + 2 kappa) with |kappa| <= 1/2, by at most
    (rho |ln p^2 + 1| + rho) d, which the bounds count.  Rounding that
    differs from node to node (that of ln w, and of ln|p| at n >= 1) shows
    in the difference between rules, which is the engine's estimate.  The
    bound counts what does not average out that way:

    * the log-scale of ``poly_scaled`` is exact, but the low part of the
      scale that it folds into p, shared by every node with the same
      number of rescalings, is within u of its value, so 2u in ln p^2;
    * at n = 0, p = p_0 at every node, so the rounding of ln|p_0|, at
      most 2u of its size, is common to all of them;
    * the recurrence carries p to a relative error that grows like the
      square root of its steps, counted as 16 sqrt(n+1) u.

    The logarithm terms of ln w (alpha ln x - x for Laguerre, alpha ln(1-x)
    + beta ln(1+x) for Jacobi) carry the roundings of the logarithms, of
    the products and of the sum, within 3u of the size of the terms that
    ``log_weight`` returns.  They differ from node to node, but at a large
    exponent they meet |ln p^2| ~ |ln w| >> 1 and the rule differences
    show too little of them (Laguerre(350), n = 2, was 2.2 estimates off;
    Jacobi(1000, 0), n = 2, 1.5), so a third element returns them, 3u
    (|rho ln p^2| + rho) times that size, as ``scatter`` (None for Hermite).
    """
    kind, al, be = family.kind, family.alpha, family.beta
    recurrence = 32.0 * math.sqrt(n + 1) * _U

    def fpanel(i, a, b, x, dl, dr):
        p, logscale = poly_scaled(kind, al, be, n, x)
        logw, size = log_weight(kind, al, be, a, b, x, dl, dr)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            logp = np.log(np.abs(p))
            logp2 = 2.0 * (logp + logscale)
            rho = np.exp(logp2 + logw)
            vals = np.where(p == 0.0, 0.0, rho * logp2)
        shared = recurrence
        if n == 0:
            shared = shared + 4.0 * _U * np.abs(logp)
        if logscale.any():
            shared = shared + 2.0 * _U
        # rho |ln p^2 + 1| is |vals + rho|, which is 0, not nan, at a zero of p
        rounding = (np.abs(vals + rho) + rho) * shared
        scatter = None if size is None else 3.0 * _U * (np.abs(vals) + rho) * size
        return vals, rounding, scatter, 2.0 * rho

    return fpanel


def _mean_log_weight(family: Family, n: int):
    """<ln w> under rho_n in closed form, at the working precision, and the
    sum of the magnitudes of its terms: each term and partial sum is
    rounded once, so at p bits the value is within 2^(3-p) of that size.

    Hermite: -<x^2> = -(n + 1/2).  Laguerre: alpha psi(n+alpha+1) - <x>
    with <x> = 2n+alpha+1.  Jacobi: alpha E(alpha, beta) + beta E(beta,
    alpha), where E(a, b) = <ln(1-x)>
        = ln 2 + psi(n+a+1) + psi(n+a+b+1) - 2 psi(s) - 1/s,  s = 2n+a+b+1,
    and ln 2 + psi(a+1) - psi(a+b+2) at n = 0, where the general form has
    a removable 0/0 at a+b = -1 (Dehesa, Martinez-Finkelshtein and
    Sanchez-Ruiz, J. Comput. Appl. Math. 133, 2001).  The terms that E(a, b)
    and E(b, a) share are formed once, from sums taken with a before b, and
    the term of a zero exponent is left out: it is an exact 0 in the value
    and the size.
    """
    if family.kind == HERMITE:
        value = -mp.mpf(2 * n + 1) / 2
        return value, abs(value)
    a, b = mp.mpf(family.alpha), mp.mpf(family.beta)
    zero = mp.mpf(0)
    if family.kind == LAGUERRE:
        term = a * mp.digamma(n + a + 1) if a else zero
        return term - (2 * n + a + 1), abs(term) + 2 * n + abs(a) + 1
    value = size = zero
    if not (a or b):
        return value, size
    # the terms of E added and subtracted after ln 2 + psi(n+e+1), the same
    # for e = a and e = b
    if n == 0:
        plus, minus = (), (mp.digamma(a + b + 2),)
    else:
        s = 2 * n + a + b + 1
        plus, minus = (mp.digamma(n + a + b + 1),), (2 * mp.digamma(s), 1 / s)
    ln2 = mp.log(2)
    for e in (a, b):
        if e:
            own = mp.digamma(n + e + 1)
            mean = ln2 + own
            for t in plus:
                mean += t
            for t in minus:
                mean -= t
            value += e * mean
            size += abs(e) * (ln2 + sum(abs(t) for t in (own, *plus, *minus)))
    return value, size


@mp.workprec(53)
def _entropy_fast(family: Family, n: int, tol: float):
    """Float64 engine for any exponents > -1: one integral, <ln p^2>.

    The integral is split at the zeros of p_n.  Each panel between two
    zeros is a zero panel of ``tanh_sinh_panels``: ln p^2 = ln g^2 +
    2 ln(x - a) + 2 ln(b - x) there, with g = p / ((x - a)(b - x)) analytic
    and free of zeros on [a, b], so a 22-node Gauss-Legendre rule
    integrates rho ln g^2 and product weights on the same nodes the two
    logarithms; an 18-node rule on other nodes gives the panel's estimate.
    The panels at the ends of the interval, and the one beside a finite
    end of nonzero exponent, run tanh-sinh levels, and so does a zero
    panel whose pair differs by more than its share of the tolerance.
    Every panel's first nodes go to the integrand in one call, so in the
    common case p_n is evaluated in one sweep of the recurrence.

    S = -<ln p^2> - <ln w> is assembled in 53-bit mpf whatever the
    caller's ``mp.prec``, so the value does not depend on it; <ln w> is
    the closed form.  The estimate includes the engine's endpoint-tail
    term wherever a weight exponent is negative (the density is unbounded
    there), so it is compared with ``tol`` like any other; it grows
    without bound as an exponent approaches -1.  It also counts the
    rounding of the integrand (:func:`_log_poly_panel`), of the rule
    constants and sums, of the 53-bit <ln w> and of S, so it bounds the
    error of S, not only that of the quadrature.  A symmetric weight
    (Hermite, Jacobi with alpha = beta) makes rho ln p^2 even, so the
    integral runs over [0, hi] only, at tol/2, and its value and estimate
    are doubled (``quadrature._engine_panels``).
    """
    pts, edges, factor, zero_panels = _engine_panels(family, n)
    log_p2, est = tanh_sinh_panels(
        _log_poly_panel(family, n), pts, tol=tol / factor, edge_exponents=edges,
        zero_panels=zero_panels,
    )
    log_p2, est = factor * log_p2, factor * est
    mean_log_w, size = _mean_log_weight(family, n)
    S = -mp.mpf(log_p2) - mean_log_w
    return S, est + 8 * _U * float(size) + _U * abs(float(S))


def _entropy_mpf(family: Family, n: int, ctx: PrecisionContext, tol: float):
    """Arbitrary-precision route; handles singular (negative-exponent) densities.
    QuadratureError, naming the family and n, where the integral fails."""

    def log_p2_term(p, w):
        if p == 0:
            return mp.mpf(0)
        return p * p * w * mp.log(p * p)

    try:
        val, est = _split_integral(family, n, log_p2_term, ctx, tol=tol / 4)
    except QuadratureError as exc:
        raise QuadratureError(f"Shannon integral of {family.describe()} at n={n}: {exc}") from exc
    with mp.workprec(ctx.bits):
        return -val - _mean_log_weight(family, n)[0], +est


def _entropy_ground_state(family: Family, ctx: PrecisionContext):
    """S_0 = ln mu_0 - <ln w>_0 at ``ctx.bits``, with a bound on its rounding:
    rho_0 = w / mu_0, so there is no integral.  mu_0 is a few Gamma values,
    powers and quotients, each rounded once, and <ln w>_0 is within 2^(3-p)
    of the size of its terms (:func:`_mean_log_weight`), so at p bits S_0 is
    within 2^(4-p) (2 + |ln mu_0| + that size + |S_0|)."""
    with mp.workprec(ctx.bits):
        log_mu0 = mp.log(norm_constant(family.kind, family.alpha, family.beta, ctx.bits))
        mean_log_w, size = _mean_log_weight(family, 0)
        S = log_mu0 - mean_log_w
        return S, mp.ldexp(2 + abs(log_mu0) + size + abs(S), 4 - ctx.bits)


def shannon_numeric(
    family: Family, n: int, ctx: PrecisionContext = _DEFAULT_CTX, *, tol: float = 1e-9
) -> ShannonResult:
    """S = -integral rho ln rho, split at the zeros of p_n; N = exp(S).

    At n = 0 S is the closed form of :func:`_entropy_ground_state`, at
    ``ctx.bits`` whatever ``tol``.  Otherwise the float64 engine runs first
    when ``tol >= 1e-12``; the mpf integrator takes over when its estimate
    exceeds ``tol``.  ParameterError unless ``tol`` is finite and
    positive.  The result does not depend on the caller's ``mp.prec``.
    """
    _check_degree(n)
    _check_tol(tol)
    if n == 0:
        S, est = _entropy_ground_state(family, ctx)
        path = PATH_EXACT
    else:
        est = mp.inf
        if tol >= 1e-12:
            S, est = _entropy_fast(family, n, tol)
            path = PATH_FLOAT64
        if not est <= tol:
            S, est = _entropy_mpf(family, n, ctx, tol)
            path = PATH_MPF
    with mp.workprec(ctx.bits):
        est = max(mp.mpf(est), mp.eps * (1 + abs(S)))
        return ShannonResult(+S, +mp.exp(S), "numeric", +est, path)


# ---------------------------------------------------------------------------
# Asymptotics and the linear relation with the standard deviation
# ---------------------------------------------------------------------------


def shannon_asymptotic(family: Family, n: int) -> ShannonResult:
    """Large-n entropy displays; the o(1) remainder is not quantified.
    ParameterError for n < 0, and for n = 0 but on Jacobi."""
    _check_degree(n)
    if family.kind == JACOBI:
        S = mp.log(mp.pi) - 1
    else:
        if n < 1:
            raise ParameterError("large-n entropy display undefined at n=0")
        if family.kind == HERMITE:
            S = mp.log(mp.sqrt(2 * mp.mpf(n))) + mp.log(mp.pi) - 1
        else:
            a = mp.mpf(family.alpha)
            S = (
                (a + 1) * mp.log(n)
                - a * mp.digamma(a + n + 1)
                - 1
                + mp.log(2 * mp.pi)
            )
    return ShannonResult(+S, +mp.exp(S), "asymptotic", mp.inf)


def ratio_constant():
    """pi*sqrt(2)/e, the universal large-n value of N / stddev."""
    return +(mp.pi * mp.sqrt(2) / mp.e)


# ---------------------------------------------------------------------------
# Upper bounds
# ---------------------------------------------------------------------------


def _moment_bound(b, m):
    """Gamma(1/b) (b e)^{1/b} m^{1/b} / b: the length of the maximum-entropy
    density e^(-c x^b) on the half line with <x^b> = m, which bounds N for
    every density there with that moment (Dehesa, Martinez-Finkelshtein and
    Sanchez-Ruiz, J. Comput. Appl. Math. 133, 2001)."""
    b = mp.mpf(b)
    return mp.power(mp.e * b, 1 / b) / b * mp.gamma(1 / b) * mp.power(m, 1 / b)


def shannon_bound_hermite(n: int, k: int, ctx: PrecisionContext = _DEFAULT_CTX):
    """N <= 2 (e k)^{1/k} Gamma(1/k) <x^k>^{1/k} / k for even k >= 2."""
    if k < 2 or k % 2:
        raise ParameterError("the bound requires an even k >= 2")
    with mp.workprec(ctx.bits):
        return 2 * _moment_bound(k, moment(Family.hermite(), n, k, ctx))


def shannon_bound_laguerre(n: int, alpha, b, ctx: PrecisionContext = _DEFAULT_CTX):
    """N <= Gamma(1/b) (b e)^{1/b} <x^b>^{1/b} / b for any real b > 0."""
    if not b > 0:
        raise ParameterError("the bound requires b > 0")
    with mp.workprec(ctx.bits):
        return _moment_bound(b, moment(Family.laguerre(alpha), n, b, ctx))


#: b lies on a 64-bit grid, since ``moment`` at a full-precision b takes ten
#: times longer.  There mpmath's default ``diff`` step reads a difference of
#: 0, and the slope stops near 2^-64, which ``findroot``'s verify rejects.
_B_BITS = 64
_STEP = mp.ldexp(1, -40)


def optimize_bound(family: Family, n: int, ctx: PrecisionContext = _DEFAULT_CTX):
    """Tightest bound over the free parameter: (best value, best k or b).

    Both bounds grow without limit at either end of their parameter range,
    so the search walks out until the bound rises.  Hermite steps the even
    k up from 2 and keeps the last k before the bound rises.  Laguerre
    doubles or halves b from 1 until the bound rises, then runs a secant
    on the central difference of ln B in t = ln b from the best t of that
    walk.  Its b lies on a 64-bit grid, and the bound is within about
    2^-128 relative of its minimum over b.  The search runs at
    ``ctx.bits`` whatever the caller's ``mp.prec``.
    """
    if family.kind == HERMITE:
        best, k = shannon_bound_hermite(n, 2, ctx), 2
        while (nxt := shannon_bound_hermite(n, k + 2, ctx)) < best:
            best, k = nxt, k + 2
        return best, k
    if family.kind != LAGUERRE:
        raise ParameterError("parametrized bounds exist for hermite and laguerre only")

    def grid(t):  # b = e^t, rounded once
        with mp.workprec(_B_BITS):
            return mp.exp(t)

    def log_bound(t):
        return mp.log(shannon_bound_laguerre(n, family.alpha, grid(t), ctx))

    def slope(t):
        return (log_bound(t + _STEP) - log_bound(t - _STEP)) / (2 * _STEP)

    with mp.workprec(ctx.bits):
        step, t, f = +mp.ln2, mp.mpf(0), log_bound(0)
        if (up := log_bound(step)) < f:
            t, f = step, up
        else:
            step = -step
        while (nxt := log_bound(t + step)) < f:
            t, f = t + step, nxt
        b = grid(mp.findroot(slope, t, solver="secant", verify=False))
        return shannon_bound_laguerre(n, family.alpha, b, ctx), b


def jacobi_trivial_bound():
    """N <= 2 for any density supported on [-1, 1]."""
    return mp.mpf(2)


def _bound_margin(bound, sh: ShannonResult, bits: int):
    """bound - N for the length N of ``sh``, at ``bits``; 0 where it is
    within N's error plus the bound's rounding:
    |bound - N| <= est N + 2^(3-bits) |bound|, est being the entropy's
    estimate, so a relative error of N."""
    with mp.workprec(bits):
        margin = bound - sh.length
        if abs(margin) <= sh.est_error * sh.length + mp.ldexp(abs(bound), 3 - bits):
            return mp.mpf(0)
        return margin


def shannon_inequality_check(
    family: Family, n: int, ctx: PrecisionContext = _DEFAULT_CTX
) -> InequalityAudit:
    """Audit N <= sqrt(2 pi e) * stddev by the margin of :func:`_bound_margin`."""
    res = shannon_numeric(family, n, ctx)
    with mp.workprec(ctx.bits):
        rhs = +(mp.sqrt(2 * mp.pi * mp.e) * stddev(family, n, ctx))
        margin = _bound_margin(rhs, res, ctx.bits)
        return InequalityAudit(res.length, rhs, margin, bool(margin >= 0))
