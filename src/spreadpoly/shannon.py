"""Shannon entropy and length of squared-polynomial densities.

The entropy of rho_n = p_n^2 w splits as

    S = -<ln p_n^2> - <ln w>

where the weight-log expectation <ln w> has a closed form for every
family (digamma values; see ``_mean_log_weight``), so each value takes one
numeric integral: the polynomial-log term, which carries all the
logarithmic singularities, located at the zeros of p_n.  It is integrated
with panel splits at those zeros by a vectorized float64 tanh-sinh engine,
first for every family.  Its error estimate counts the mass it leaves out
beside an endpoint where a negative weight exponent makes the density blow
up; when the estimate exceeds the tolerance (exponents near -1, or
tolerances below 1e-12) an adaptive arbitrary-precision integrator takes
over.  ``ShannonResult.path`` says which of the two ran.

Also here: the large-n entropy formulas, the universal linear relation
between the Shannon length N = exp(S) and the standard deviation, and
variational upper bounds on N built from ordinary moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp
from scipy.optimize import minimize_scalar

from .context import ParameterError, PrecisionContext
from .families import HERMITE, JACOBI, LAGUERRE, Family
from .quadrature import _split_integral, tanh_sinh_panels
from .closed_form import _float_zeros, laguerre_real_moment, moment, stddev
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


@dataclass(frozen=True)
class ShannonResult:
    """Entropy S (nats), length N = exp(S), and how they were obtained.

    ``path`` names the integrator of a numeric result: ``"float64"`` (the
    tanh-sinh engine) or ``"mpf"`` (the arbitrary-precision fallback).
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
        paths = (PATH_FLOAT64, PATH_MPF) if self.method == "numeric" else (None,)
        if self.path not in paths:
            raise ParameterError(f"path {self.path!r} does not fit method {self.method!r}")


@dataclass(frozen=True)
class InequalityAudit:
    """One checked inequality lhs <= rhs, with the compared values kept."""

    lhs: object
    rhs: object
    slack: object
    ok: bool

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# Numeric entropy
# ---------------------------------------------------------------------------


#: Unit roundoff of float64 and of 53-bit mpf.
_U = 2.0**-53


def _log_poly_panel(family: Family, n: int):
    """rho * ln p^2, overflow-safe; zero exactly at the zeros of p.

    Returns the values with a bound on their rounding error (the
    ``(values, rounding)`` pair of ``tanh_sinh_panels``).  An error d in
    ln p^2 moves rho ln p^2 by rho |ln p^2 + 1| d.  Rounding that differs
    from node to node (that of ln w, and of ln|p| at n >= 1) shows in the
    difference between refinement levels, which is the engine's estimate.
    The bound counts what does not average out that way:

    * the log-scale of ``poly_scaled`` is exact, but the low part of the
      scale that it folds into p, shared by every node with the same
      number of rescalings, is within u of its value, so 2u in ln p^2;
    * at n = 0, p = p_0 at every node, so the rounding of ln|p_0|, at
      most 2u of its size, is common to all of them;
    * the recurrence carries p to a relative error that grows like the
      square root of its steps, counted as 16 sqrt(n+1) u.
    """
    kind, al, be = family.kind, family.alpha, family.beta
    recurrence = 32.0 * math.sqrt(n + 1) * _U

    def fpanel(i, a, b, x, dl, dr):
        p, logscale = poly_scaled(kind, al, be, n, x)
        logw = log_weight(kind, al, be, a, b, x, dl, dr)
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
        return vals, np.abs(vals + rho) * shared

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
    Sanchez-Ruiz, J. Comput. Appl. Math. 133, 2001).
    """
    if family.kind == HERMITE:
        value = -mp.mpf(2 * n + 1) / 2
        return value, abs(value)
    a, b = mp.mpf(family.alpha), mp.mpf(family.beta)
    if family.kind == LAGUERRE:
        term = a * mp.digamma(n + a + 1)
        return term - (2 * n + a + 1), abs(term) + 2 * n + abs(a) + 1

    def mean_log_one_minus_x(a, b):
        if n == 0:
            t = (mp.digamma(a + 1), mp.digamma(a + b + 2))
            value = mp.log(2) + t[0] - t[1]
        else:
            s = 2 * n + a + b + 1
            t = (mp.digamma(n + a + 1), mp.digamma(n + a + b + 1), 2 * mp.digamma(s), 1 / s)
            value = mp.log(2) + t[0] + t[1] - t[2] - t[3]
        return value, mp.log(2) + sum(abs(v) for v in t)

    ea, size_a = mean_log_one_minus_x(a, b)
    eb, size_b = mean_log_one_minus_x(b, a)
    return a * ea + b * eb, abs(a) * size_a + abs(b) * size_b


@mp.workprec(53)
def _entropy_fast(family: Family, n: int, tol: float):
    """Float64 engine for any exponents > -1: one integral, <ln p^2>.

    S = -<ln p^2> - <ln w> is assembled in 53-bit mpf whatever the
    caller's ``mp.prec``, so the value does not depend on it; <ln w> is
    the closed form.  The estimate includes the engine's endpoint-tail
    term wherever a weight exponent is negative (the density is unbounded
    there), so it is compared with ``tol`` like any other; it grows
    without bound as an exponent approaches -1.  It also counts the
    rounding of the integrand (:func:`_log_poly_panel`), of the 53-bit
    <ln w> and of S, so it bounds the error of S, not only that of the
    quadrature.
    """
    lo, hi = family.interval
    pts = [lo] + _float_zeros(family, n) + [hi]
    log_p2, est = tanh_sinh_panels(
        _log_poly_panel(family, n), pts, tol=tol, edge_exponents=family.edge_exponents
    )
    mean_log_w, size = _mean_log_weight(family, n)
    S = -mp.mpf(log_p2) - mean_log_w
    return S, est + 8 * _U * float(size) + _U * abs(float(S))


def _entropy_mpf(family: Family, n: int, ctx: PrecisionContext, tol: float):
    """Arbitrary-precision route; handles singular (negative-exponent) densities."""

    def log_p2_term(p, w):
        if p == 0:
            return mp.mpf(0)
        return p * p * w * mp.log(p * p)

    val, est = _split_integral(family, n, log_p2_term, ctx, tol=tol / 4)
    with mp.workprec(ctx.bits):
        return -val - _mean_log_weight(family, n)[0], +est


def shannon_numeric(
    family: Family, n: int, ctx: PrecisionContext = _DEFAULT_CTX, *, tol: float = 1e-9
) -> ShannonResult:
    """S = -integral rho ln rho, split at the zeros of p_n; N = exp(S).

    The float64 engine runs first when ``tol >= 1e-12``; the mpf integrator
    takes over when its estimate exceeds ``tol``.  The result does not
    depend on the caller's ``mp.prec``.
    """
    if n < 0:
        raise ParameterError("degree must be nonnegative")
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
    """Large-n entropy displays; the o(1) remainder is not quantified."""
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


def shannon_bound_hermite(n: int, k: int, ctx: PrecisionContext = _DEFAULT_CTX):
    """N <= 2 (e k)^{1/k} Gamma(1/k) <x^k>^{1/k} / k for even k >= 2."""
    if k < 2 or k % 2:
        raise ParameterError("the bound requires an even k >= 2")
    with mp.workprec(ctx.bits):
        mk = moment(Family.hermite(), n, k, ctx)
        kf = mp.mpf(k)
        return +(
            2 * mp.power(mp.e * kf, 1 / kf) / kf * mp.gamma(1 / kf)
            * mp.power(mk, 1 / kf)
        )


def shannon_bound_laguerre(
    n: int, alpha, b, ctx: PrecisionContext = _DEFAULT_CTX
):
    """N <= Gamma(1/b) (b e)^{1/b} <x^b>^{1/b} / b for any real b > 0."""
    if not b > 0:
        raise ParameterError("the bound requires b > 0")
    with mp.workprec(ctx.bits):
        mb = laguerre_real_moment(n, alpha, b, ctx)
        bf = mp.mpf(b)
        return +(
            mp.gamma(1 / bf) * mp.power(bf * mp.e, 1 / bf) / bf
            * mp.power(mb, 1 / bf)
        )


def optimize_bound(
    family: Family, n: int, params=None, ctx: PrecisionContext = _DEFAULT_CTX
):
    """Tightest bound over the free parameter: (best value, best k or b).

    Hermite scans an even-k grid (``params``: iterable of even k, or the
    largest k as an int; default up to 12).  Laguerre minimizes over b in
    a bracket (``params``: (b_lo, b_hi); default (0.05, 20)).
    """
    if family.kind == HERMITE:
        if params is None:
            ks = range(2, 13, 2)
        elif isinstance(params, int):
            ks = range(2, params + 1, 2)
        else:
            ks = list(params)
        best = None
        for k in ks:
            val = shannon_bound_hermite(n, k, ctx)
            if best is None or val < best[0]:
                best = (val, k)
        if best is None:
            raise ParameterError("empty k grid")
        return best
    if family.kind == LAGUERRE:
        lo, hi = params if params is not None else (0.05, 20.0)

        def objective(b):
            return float(shannon_bound_laguerre(n, family.alpha, b, ctx))

        res = minimize_scalar(objective, bounds=(lo, hi), method="bounded")
        b_best = float(res.x)
        return shannon_bound_laguerre(n, family.alpha, b_best, ctx), b_best
    raise ParameterError("parametrized bounds exist for hermite and laguerre only")


def jacobi_trivial_bound():
    """N <= 2 for any density supported on [-1, 1]."""
    return mp.mpf(2)


def shannon_inequality_check(
    family: Family, n: int, ctx: PrecisionContext = _DEFAULT_CTX
) -> InequalityAudit:
    """Audit N <= sqrt(2 pi e) * stddev (with the numeric error as slack)."""
    res = shannon_numeric(family, n, ctx)
    with mp.workprec(ctx.bits):
        rhs = mp.sqrt(2 * mp.pi * mp.e) * stddev(family, n, ctx)
        lhs = res.length
        slack = res.est_error * lhs  # entropy error -> relative length error
        return InequalityAudit(+lhs, +rhs, +slack, bool(lhs <= rhs + slack))
