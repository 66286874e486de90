"""Desk-scale self-checks behind the ``verify`` command.

Every check records a measured value next to its tolerance, so the
emitted report is useful even when everything passes.  Most compare two
independent routes to the same quantity (or a route against an exact or
frozen value) and pass when the deviation is at most the tolerance, a
fixed one except for the float64 Shannon anchors at n >= 1, whose
tolerance is the value's own error estimate.  The margin checks
(``bounds/dominance``, ``bounds/jacobi-trivial``, ``shannon/inequality``)
record bound - N, read as 0 within N's error estimate and the bound's
rounding (``shannon._bound_margin``, as in ``report.bounds_table``), and
pass when it is at least 0.  The Fisher divergence checks pass when a
growth factor reaches 10, and ``shannon/ratio-deviation-shrinks`` when
``report.asymptotics_table``'s ``ratio_dev`` at n = 40 is below that at
n = 10.  Scopes group the checks by module; ``all`` runs the full
registry in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from mpmath import mp

from .context import PrecisionContext
from .families import Family, RenyiOrder, power_integrable
from .quadrature import _split_integral, integrate_density_power
from .closed_form import (
    asymptotic_cramer_rao,
    cramer_rao_product,
    fisher_information,
    fisher_information_numeric,
    fisher_truncated,
    moment,
    moment_quadrature,
    stddev,
)
from .bell import length_from_power_integral, renyi_power_integral_bell
from .lauricella import laguerre_power_integral_lauricella
from .report import asymptotics_table, bounds_table
from .shannon import (
    PATH_FLOAT64,
    _mean_log_weight,
    shannon_bound_hermite,
    shannon_bound_laguerre,
    shannon_inequality_check,
    shannon_numeric,
)

__all__ = ["Check", "SCOPES", "run_scope", "available_scopes"]

_DEFAULT_CTX = PrecisionContext()


@dataclass(frozen=True)
class Check:
    """One verified statement with its measured deviation."""

    name: str
    ok: bool
    measured: float
    tolerance: float
    detail: str = ""

    def as_dict(self) -> dict:
        """The check as strict-JSON values: a non-finite ``measured`` is
        the string "inf", as in ``report.rows_to_json``."""
        return {
            "name": self.name,
            "ok": self.ok,
            "measured": self.measured if math.isfinite(self.measured) else "inf",
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


def _rel(a, b) -> float:
    if mp.isinf(a) or mp.isinf(b):
        return 0.0 if a == b else float("inf")
    scale = max(abs(a), abs(b))
    return float(abs(a - b) / scale) if scale else 0.0


def _deviation_check(name, a, b, tol, detail="") -> Check:
    d = _rel(a, b)
    return Check(name, d <= tol, d, tol, detail)


def _margin_check(name, row, detail="") -> Check:
    """A ``report.bounds_table`` row as a check: its margin against 0."""
    return Check(name, row["dominates"] == 1, float(row["margin"]), 0.0, detail)


# ---------------------------------------------------------------------------
# Scope builders
# ---------------------------------------------------------------------------


def _scope_stddev(ctx):
    out = []
    fams = [
        Family.hermite(),
        Family.laguerre(0.0),
        Family.laguerre(2.0),
        Family.jacobi(0.0, 0.0),
        Family.jacobi(2.0, 5.0),
        Family.jacobi(-0.5, -0.5),
    ]
    for fam in fams:
        for n in (0, 1, 5, 12):
            closed = stddev(fam, n, ctx)
            with mp.workprec(ctx.bits):
                m1 = moment_quadrature(fam, n, 1, ctx)
                m2 = moment_quadrature(fam, n, 2, ctx)
                orc = mp.sqrt(m2 - m1 * m1)
            out.append(
                _deviation_check(
                    f"stddev/{fam.describe()}/n={n}", closed, orc, 1e-12
                )
            )
    return out


def _scope_fisher(ctx):
    out = []
    fams = [
        Family.hermite(),
        Family.laguerre(0.0),
        Family.laguerre(5.0),
        Family.jacobi(0.0, 0.0),
        Family.jacobi(0.0, 2.0),
        Family.jacobi(2.0, 2.0),
    ]
    for fam in fams:
        for n in (0, 1, 4):
            F = fisher_information(fam, n, ctx)
            if mp.isinf(F):
                continue
            Fn = fisher_information_numeric(fam, n)
            out.append(
                _deviation_check(f"fisher/{fam.describe()}/n={n}", F, Fn, 1e-8)
            )
    for n in (0, 3, 10):
        cr = cramer_rao_product(Family.hermite(), n, ctx)
        out.append(
            _deviation_check(f"fisher/cramer-rao-product/n={n}", cr, mp.mpf(1) / 2, 1e-14)
        )
    for fam, n in ((Family.laguerre(-0.5), 1), (Family.jacobi(0.25, 0.25), 1)):
        lo = fisher_truncated(fam, n, 1e-3)
        hi = fisher_truncated(fam, n, 1e-6)
        growth = float(hi / lo)
        out.append(
            Check(
                f"fisher/divergence/{fam.describe()}/n={n}",
                growth >= 10.0,
                growth,
                10.0,
                "truncated integral growth for cutoff 1e-3 -> 1e-6",
            )
        )
    for n in (0, 2, 7):
        out.append(
            _deviation_check(
                f"fisher/reflection/jacobi(2,0)-vs-(0,2)/n={n}",
                fisher_information(Family.jacobi(2.0, 0.0), n, ctx),
                fisher_information(Family.jacobi(0.0, 2.0), n, ctx),
                0.0,
                "x -> -x swaps the exponents and preserves F",
            )
        )
    r, m = (asymptotic_cramer_rao(Family.jacobi(a, b), ctx) for a, b in ((2.0, 0.0), (0.0, 2.0)))
    d = max(_rel(r.coefficient, m.coefficient), float(abs(r.exponent - m.exponent)))
    out.append(Check("fisher/reflection/jacobi(2,0)-vs-(0,2)/rate", d <= 0.0, d, 0.0,
                     "the large-n Cramer-Rao rate, coefficient and exponent"))
    return out


def _renyi_cell_checks(fam, n, order, ctx, tol) -> list:
    """Every pair of routes to W_q on one cell (and W_1 against 1), by
    criterion 3's rule: relative, absolute where both are below 1e-30."""
    vals = {
        "bell": renyi_power_integral_bell(fam, n, order, ctx),
        "oracle": integrate_density_power(fam, n, order, ctx),
    }
    if fam.kind == "laguerre":
        vals["lauricella"] = laguerre_power_integral_lauricella(n, fam.alpha, order, ctx)
    if order.is_unit:
        vals["unit"] = mp.mpf(1)
    out = []
    for ki, kj in combinations(sorted(vals), 2):
        scale = max(abs(vals[ki]), abs(vals[kj]))
        d = float(abs(vals[ki] - vals[kj]) / (scale if scale > 1e-30 else 1))
        name = f"renyi/{fam.describe()}/2q={order.two_q}/n={n}/{ki}-vs-{kj}"
        out.append(Check(name, d <= tol, d, tol))
    return out


def _scope_renyi(ctx):
    out = []
    fams = [
        Family.hermite(),
        Family.laguerre(0.0),
        Family.laguerre(0.5),
        Family.laguerre(5.0),
        Family.jacobi(0.0, 0.0),
        Family.jacobi(2.0, 2.0),
        Family.jacobi(-0.5, 2.0),
    ]
    for fam in fams:
        for two_q in (2, 3, 4):
            order = RenyiOrder(two_q)
            if not power_integrable(order.q, fam.alpha, fam.beta):
                continue
            for n in (0, 1, 3):
                out.extend(_renyi_cell_checks(fam, n, order, ctx, 1e-10))
    return out


def _scope_erratum(ctx):
    """Onicescu length displays for the lowest Laguerre degrees.

    The printed n=0 and n=1 displays carry a spurious outer square root:
    the square of each display equals the independently integrated
    length.  Both comparisons are recorded; the check passes when the
    squared display matches the oracle.
    """
    out = []
    order = RenyiOrder(4)  # q = 2
    with mp.workprec(ctx.bits):
        for alpha in (0.0, 0.5, 1.0, 2.5, 5.0):
            a = mp.mpf(alpha)
            disp = {
                0: mp.sqrt(
                    mp.power(2, 2 * a + 1) * mp.gamma(a + 1) ** 2 / mp.gamma(2 * a + 1)
                ),
                1: mp.sqrt(
                    mp.power(2, 2 * a + 3)
                    * mp.gamma(a + 2) ** 2
                    / ((1 + a) * (2 + 3 * a) * mp.gamma(2 * a + 1))
                ),
            }
            for n, d in disp.items():
                fam = Family.laguerre(alpha)
                W = integrate_density_power(fam, n, order, ctx)
                oracle = length_from_power_integral(W, order)
                out.append(
                    _deviation_check(
                        f"erratum/onicescu-display-squared/alpha={alpha}/n={n}",
                        d * d,
                        oracle,
                        1e-12,
                        detail=(
                            f"display={mp.nstr(d, 17)} squared={mp.nstr(d * d, 17)} "
                            f"oracle={mp.nstr(oracle, 17)} "
                            f"display-vs-oracle rel dev={_rel(d, oracle):.3e}"
                        ),
                    )
                )
    return out


def _mean_log_weight_checks():
    """Closed-form <ln w> against the mpf integral of p^2 w ln w.

    The numeric weight-log integral is the independent route, over cells
    with negative exponents.  A fixed 128-bit context and an integrator
    tolerance of 1e-18 are ample for the check's absolute tolerance of 1e-15.
    """
    wctx = PrecisionContext(bits=128)
    tol = 1e-15
    cells = [
        (Family.laguerre(-0.5), 1),
        (Family.laguerre(-0.5), 4),
        (Family.laguerre(2.0), 3),
        (Family.jacobi(-0.5, 0.5), 1),
        (Family.jacobi(-0.5, 0.5), 4),
        (Family.jacobi(2.0, -0.25), 3),
    ]
    out = []
    with mp.workprec(wctx.bits):
        for fam, n in cells:
            val, _ = _split_integral(
                fam, n, lambda p, w: p * p * w * mp.log(w), wctx, tol=1e-18
            )
            d = float(abs(val - _mean_log_weight(fam, n)[0]))
            out.append(
                Check(f"shannon/mean-log-weight/{fam.describe()}/n={n}", d <= tol, d, tol)
            )
    return out


def _float64_anchor_checks(ctx):
    """Closed-form entropies at n >= 1, which the float64 engine must meet
    within its own estimate: ln pi - 1 - 1/(2n), ln pi - 1 + 1/(2n+2) and
    ln pi - 1 on the Chebyshev weights of Jacobi (x = cos t makes rho_n a
    squared cosine or sine in t), and ln(sqrt(pi)/2) - psi(3/2) + 3/2 for
    Hermite n = 1, where x^2 is Gamma(3/2)-distributed.  At n = 400 the
    panels between the zeros are graded towards the ends, where the
    engine's Gauss pairs meet its tanh-sinh panels."""
    cheb = mp.log(mp.pi) - 1
    cells = [(Family.hermite(), 1, mp.log(mp.sqrt(mp.pi) / 2) - mp.digamma(1.5) + 1.5)]
    for n in (1, 2, 3, 7, 40, 400):
        cells += [
            (Family.jacobi(-0.5, -0.5), n, cheb - mp.mpf(1) / (2 * n)),
            (Family.jacobi(0.5, 0.5), n, cheb + mp.mpf(1) / (2 * n + 2)),
            (Family.jacobi(-0.5, 0.5), n, cheb),
            (Family.jacobi(0.5, -0.5), n, cheb),
        ]
    out = []
    for fam, n, S_exact in cells:
        r = shannon_numeric(fam, n, ctx)
        d, est = float(abs(r.entropy - S_exact)), float(r.est_error)
        out.append(
            Check(f"shannon/anchor/{fam.describe()}/n={n}", r.path == PATH_FLOAT64 and d <= est,
                  d, est, detail=f"path {r.path}")
        )
    return out


def _scope_shannon(ctx):
    out = []
    tol = 1e-7
    with mp.workprec(ctx.bits):
        anchors = [
            (Family.hermite(), mp.log(mp.sqrt(mp.pi)) + mp.mpf(1) / 2),
            (Family.laguerre(0.0), mp.mpf(1)),
            (Family.jacobi(0.0, 0.0), mp.log(2)),
        ]
        for fam, S_exact in anchors:
            r = shannon_numeric(fam, 0, ctx)
            d = float(abs(r.entropy - S_exact))
            out.append(
                Check(f"shannon/anchor/{fam.describe()}/n=0", d <= tol, d, tol)
            )
        out.extend(_float64_anchor_checks(ctx))
        out.extend(_mean_log_weight_checks())
        # reflection invariance of the Jacobi entropy
        r1 = shannon_numeric(Family.jacobi(2.0, 5.0), 6, ctx)
        r2 = shannon_numeric(Family.jacobi(5.0, 2.0), 6, ctx)
        d = float(abs(r1.entropy - r2.entropy))
        out.append(
            Check("shannon/reflection-invariance/jacobi(2,5)/n=6", d <= 1e-12, d, 1e-12)
        )
        # the deviation from the universal ratio shrinks with n
        _, rows, _ = asymptotics_table(Family.hermite(), (10, 40), ctx)
        devs = {row["n"]: float(row["ratio_dev"]) for row in rows}
        out.append(
            Check(
                "shannon/ratio-deviation-shrinks/hermite",
                devs[40] < devs[10],
                devs[40],
                devs[10],
                detail="|N/stddev - pi*sqrt(2)/e| at n=40 vs n=10",
            )
        )
        for fam, n in ((Family.hermite(), 5), (Family.laguerre(2.0), 5), (Family.jacobi(2.0, 2.0), 5)):
            chk = shannon_inequality_check(fam, n, ctx)
            out.append(
                Check(
                    f"shannon/inequality/{fam.describe()}/n={n}",
                    chk.ok,
                    float(chk.margin),
                    0.0,
                    detail=f"N={mp.nstr(chk.lhs, 12)} bound={mp.nstr(chk.rhs, 12)}",
                )
            )
    return out


def _scope_moments(ctx):
    out = []
    for fam in (Family.hermite(), Family.laguerre(0.0), Family.laguerre(2.5)):
        for n in (0, 2, 7):
            for k in (1, 2, 4, 6):
                closed = moment(fam, n, k, ctx)
                if fam.kind == "hermite" and k % 2:
                    name = f"moments/odd-zero/{fam.describe()}/n={n}/k={k}"
                    out.append(Check(name, closed == 0, float(abs(closed)), 0.0))
                    continue
                orc = moment_quadrature(fam, n, k, ctx)
                out.append(
                    _deviation_check(
                        f"moments/{fam.describe()}/n={n}/k={k}", closed, orc, 1e-12
                    )
                )
    return out


def _scope_bounds(ctx):
    out = []
    sat_tol = 1e-9
    with mp.workprec(ctx.bits):
        d = float(
            abs(
                shannon_bound_hermite(0, 2, ctx)
                - shannon_numeric(Family.hermite(), 0, ctx).length
            )
        )
        out.append(Check("bounds/hermite-saturation/n=0/k=2", d <= sat_tol, d, sat_tol))
        d = float(
            abs(
                shannon_bound_laguerre(0, 0.0, 1.0, ctx)
                - shannon_numeric(Family.laguerre(0.0), 0, ctx).length
            )
        )
        out.append(Check("bounds/laguerre-saturation/n=0/b=1", d <= sat_tol, d, sat_tol))
        for fam in (Family.hermite(), Family.laguerre(0.0), Family.laguerre(5.0)):
            for row in bounds_table(fam, (0, 3, 10), ctx)[1]:
                out.append(_margin_check(
                    f"bounds/dominance/{fam.describe()}/n={row['n']}", row,
                    f"best parameter {row['bound_param']}",
                ))
        for row in bounds_table(Family.jacobi(2.0, 2.0), (0, 10, 40), ctx)[1]:
            out.append(_margin_check(f"bounds/jacobi-trivial/n={row['n']}", row))
    return out


SCOPES = {
    "stddev": _scope_stddev,
    "fisher": _scope_fisher,
    "renyi": _scope_renyi,
    "erratum": _scope_erratum,
    "shannon": _scope_shannon,
    "moments": _scope_moments,
    "bounds": _scope_bounds,
}


def available_scopes():
    return list(SCOPES) + ["all"]


def run_scope(scope: str, ctx: PrecisionContext = _DEFAULT_CTX):
    """Run one scope (or ``all``); returns the ordered list of checks."""
    if scope == "all":
        checks = []
        for name in SCOPES:
            checks.extend(SCOPES[name](ctx))
        return checks
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; choose from {available_scopes()}")
    return SCOPES[scope](ctx)
