"""Shannon entropy and length of squared-polynomial densities.

The entropy of rho_n = p_n^2 w splits as

    S = -<ln p_n^2> - <ln w>

where the weight-log expectation collapses onto exact moments (fully for
Hermite, partially for Laguerre) and the polynomial-log term carries all
the logarithmic singularities, located at the zeros of p_n.  Each
expectation is integrated with panel splits at those zeros by a vectorized
float64 tanh-sinh engine, first for every family.  Its error estimate
counts the mass it leaves out beside an endpoint where a negative weight
exponent makes the density blow up; when the estimate exceeds the
tolerance (exponents near -1, or tolerances below 1e-12) an adaptive
arbitrary-precision integrator takes over.  ``ShannonResult.path`` says
which of the two ran.

Also here: the large-n entropy formulas, the universal linear relation
between the Shannon length N = exp(S) and the standard deviation, and
variational upper bounds on N built from ordinary moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from mpmath import mp
from scipy.optimize import minimize_scalar

from .context import ParameterError, PrecisionContext
from .families import HERMITE, JACOBI, LAGUERRE, Family
from .orthopoly import evaluate_recurrence, raw_recurrence, zeros
from .quadrature import integrate_log_singular, tanh_sinh_panels
from .closed_form import _float_zeros, laguerre_real_moment, moment, stddev
from ._vec import poly_scaled

__all__ = [
    "ShannonResult",
    "InequalityAudit",
    "digamma",
    "shannon_numeric",
    "shannon_asymptotic",
    "ratio_constant",
    "ratio_check",
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


def digamma(x):
    """psi(x) for x > 0 at the active working precision.

    The argument is lifted by the downward recurrence
    psi(x) = psi(x+1) - 1/x until the large-argument series

        psi(z) = ln z - 1/(2z) - sum_{k>=1} B_{2k} / (2k z^{2k})

    can terminate below the target precision (the optimal-truncation tail
    behaves like exp(-2 pi z), so the lift threshold scales with the bit
    count).
    """
    with mp.extraprec(16):
        z = mp.mpf(x)
        if not z > 0:
            raise ParameterError("digamma implemented for positive arguments")
        thresh = 0.14 * mp.prec + 6
        shifts = []
        while z < thresh:
            shifts.append(1 / z)
            z += 1
        acc = mp.log(z) - 1 / (2 * z)
        z2 = z * z
        zpow = z2
        prev = mp.inf
        for k in range(1, 8 * max(mp.prec, 53)):
            term = mp.bernoulli(2 * k) / (2 * k * zpow)
            if abs(term) >= prev:
                break
            acc -= term
            prev = abs(term)
            if prev <= mp.eps * abs(acc):
                break
            zpow *= z2
        out = acc - mp.fsum(shifts)
    return +out


# ---------------------------------------------------------------------------
# Numeric entropy
# ---------------------------------------------------------------------------


def _log_poly_panel(family: Family, n: int):
    """rho * ln p^2, overflow-safe; zero exactly at the zeros of p."""
    kind, al, be = family.kind, family.alpha, family.beta

    def fpanel(i, a, b, x, dl, dr):
        p, logscale = poly_scaled(kind, al, be, n, x)
        if kind == HERMITE:
            logw = -x * x
        elif kind == LAGUERRE:
            xv = np.maximum(x, 1e-320)
            logw = al * np.log(xv) - x
        else:
            om = (1.0 - b) + dr
            op = (1.0 + a) + dl
            logw = al * np.log(om) + be * np.log(op)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            logp2 = 2.0 * (np.log(np.abs(p)) + logscale)
            vals = np.where(p == 0.0, 0.0, np.exp(logp2 + logw) * logp2)
        return vals

    return fpanel


def _log_factor_panel(family: Family, n: int, which: str):
    """rho times one of ln x, ln(1-x), ln(1+x) (weight-log pieces)."""
    kind, al, be = family.kind, family.alpha, family.beta

    def fpanel(i, a, b, x, dl, dr):
        p, logscale = poly_scaled(kind, al, be, n, x)
        if kind == LAGUERRE:
            xv = np.maximum(x, 1e-320)
            logw = al * np.log(xv) - x
            factor = np.log(xv)
        else:
            om = (1.0 - b) + dr
            op = (1.0 + a) + dl
            logw = al * np.log(om) + be * np.log(op)
            factor = np.log(om) if which == "om" else np.log(op)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            rho = np.where(p == 0.0, 0.0, np.exp(2.0 * (np.log(np.abs(p)) + logscale) + logw))
        return rho * factor

    return fpanel


@mp.workprec(53)
def _entropy_fast(family: Family, n: int, tol: float):
    """Float64 engine for any exponents > -1.

    S is assembled in 53-bit mpf whatever the caller's ``mp.prec``, so the
    value does not depend on it.  The estimate includes the engine's
    endpoint-tail term wherever a weight exponent is negative (the density
    is unbounded there), so it is compared with ``tol`` like any other; it
    grows without bound as an exponent approaches -1.
    """
    lo, hi = family.interval
    pts = [lo] + _float_zeros(family, n) + [hi]
    piece_tol = tol / 3.0
    edges = family.edge_exponents

    def integral(fpanel):
        return tanh_sinh_panels(fpanel, pts, tol=piece_tol, edge_exponents=edges)

    log_p2, err = integral(_log_poly_panel(family, n))
    S = mp.mpf(-log_p2)
    est = err
    diag, off = raw_recurrence(family.kind, family.alpha, family.beta, n + 2)
    if family.kind == HERMITE:
        # <ln w> = -<x^2>, exact from the recurrence
        S += diag[n] ** 2 + off[n] ** 2 + off[n + 1] ** 2
    elif family.kind == LAGUERRE:
        S += diag[n]  # <x> exactly
        if family.alpha != 0:
            lnx, err2 = integral(_log_factor_panel(family, n, "x"))
            S -= mp.mpf(family.alpha) * lnx
            est += abs(family.alpha) * err2
    else:
        for expo, which in ((family.alpha, "om"), (family.beta, "op")):
            if expo != 0:
                val, err2 = integral(_log_factor_panel(family, n, which))
                S -= mp.mpf(expo) * val
                est += abs(expo) * err2
    return S, est


def _entropy_mpf(family: Family, n: int, ctx: PrecisionContext, tol: float):
    """Arbitrary-precision route; handles singular (negative-exponent) densities."""
    lo, hi = family.interval
    with mp.workprec(ctx.bits):
        zs = list(zeros(family, n, ctx)) if n else []

        def log_p2_term(x):
            p = evaluate_recurrence(family, n, x)
            if p == 0:
                return mp.mpf(0)
            return p * p * family.weight(x) * mp.log(p * p)

        val, err = integrate_log_singular(
            log_p2_term, (lo, hi), zs, ctx, abs_floor=tol / 4
        )
        S = -val
        est = err
        diag, off = raw_recurrence(family.kind, family.alpha, family.beta, n + 2)
        if family.kind == HERMITE:
            S += diag[n] ** 2 + off[n] ** 2 + off[n + 1] ** 2
        elif family.kind == LAGUERRE:
            S += diag[n]
            if family.alpha != 0:

                def lnx_term(x):
                    p = evaluate_recurrence(family, n, x)
                    return p * p * family.weight(x) * mp.log(x)

                val, err = integrate_log_singular(
                    lnx_term, (lo, hi), zs, ctx, abs_floor=tol / 4
                )
                S -= mp.mpf(family.alpha) * val
                est += abs(family.alpha) * err
        else:
            for expo, side in ((family.alpha, 1), (family.beta, -1)):
                if expo == 0:
                    continue

                def weight_log_term(x, side=side):
                    p = evaluate_recurrence(family, n, x)
                    return p * p * family.weight(x) * mp.log(1 - side * x)

                val, err = integrate_log_singular(
                    weight_log_term, (lo, hi), zs, ctx, abs_floor=tol / 4
                )
                S -= mp.mpf(expo) * val
                est += abs(expo) * err
        return +S, +est


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
                - a * digamma(a + n + 1)
                - 1
                + mp.log(2 * mp.pi)
            )
    return ShannonResult(+S, +mp.exp(S), "asymptotic", mp.inf)


def ratio_constant():
    """pi*sqrt(2)/e, the universal large-n value of N / stddev."""
    return +(mp.pi * mp.sqrt(2) / mp.e)


def ratio_check(family: Family, n: int, ctx: PrecisionContext = _DEFAULT_CTX):
    """Finite-n quotient N_numeric / stddev (tends to ratio_constant())."""
    N = shannon_numeric(family, n, ctx).length
    with mp.workprec(ctx.bits):
        return +(N / stddev(family, n, ctx))


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
