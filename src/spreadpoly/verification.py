"""Desk-scale self-checks behind the ``verify`` command.

Every check compares two independent routes to the same quantity (or a
route against a frozen reference value) and records the measured
deviation next to its tolerance, so the emitted report is useful even
when everything passes.  Scopes group the checks by module; ``all`` runs
the full registry in a fixed order.
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
from .shannon import (
    _mean_log_weight,
    jacobi_trivial_bound,
    optimize_bound,
    ratio_constant,
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


# ---------------------------------------------------------------------------
# Scope builders
# ---------------------------------------------------------------------------


def _scope_stddev(ctx, tol_scale):
    tol = 1e-12 * tol_scale
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
                    f"stddev/{fam.describe()}/n={n}", closed, orc, tol
                )
            )
    return out


def _scope_fisher(ctx, tol_scale):
    out = []
    tol = 1e-8 * tol_scale
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
                _deviation_check(f"fisher/{fam.describe()}/n={n}", F, Fn, tol)
            )
    tol_cr = 1e-14 * tol_scale
    for n in (0, 3, 10):
        cr = cramer_rao_product(Family.hermite(), n, ctx)
        out.append(
            _deviation_check(f"fisher/cramer-rao-product/n={n}", cr, mp.mpf(1) / 2, tol_cr)
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


def _scope_renyi(ctx, tol_scale):
    tol = 1e-10 * tol_scale
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
                out.extend(_renyi_cell_checks(fam, n, order, ctx, tol))
    return out


def _scope_erratum(ctx, tol_scale):
    """Onicescu length displays for the lowest Laguerre degrees.

    The printed n=0 and n=1 displays carry a spurious outer square root:
    the square of each display equals the independently integrated
    length.  Both comparisons are recorded; the check passes when the
    squared display matches the oracle.
    """
    tol = 1e-12 * tol_scale
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
                        tol,
                        detail=(
                            f"display={mp.nstr(d, 17)} squared={mp.nstr(d * d, 17)} "
                            f"oracle={mp.nstr(oracle, 17)} "
                            f"display-vs-oracle rel dev={_rel(d, oracle):.3e}"
                        ),
                    )
                )
    return out


def _mean_log_weight_checks(tol_scale):
    """Closed-form <ln w> against the mpf integral of p^2 w ln w.

    The numeric weight-log integral is the independent route, over cells
    with negative exponents.  A fixed 128-bit context and an integrator
    tolerance of 1e-18 are ample for the check's absolute tolerance of 1e-15.
    """
    wctx = PrecisionContext(bits=128)
    tol = 1e-15 * tol_scale
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


def _scope_shannon(ctx, tol_scale):
    out = []
    tol = 1e-7 * tol_scale
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
        out.extend(_mean_log_weight_checks(tol_scale))
        # reflection invariance of the Jacobi entropy
        r1 = shannon_numeric(Family.jacobi(2.0, 5.0), 6, ctx)
        r2 = shannon_numeric(Family.jacobi(5.0, 2.0), 6, ctx)
        d = float(abs(r1.entropy - r2.entropy))
        out.append(
            Check("shannon/reflection-invariance/jacobi(2,5)/n=6", d <= 1e-12 * tol_scale, d, 1e-12 * tol_scale)
        )
        # the deviation from the universal ratio shrinks with n
        c = ratio_constant()
        devs = {}
        for n in (10, 40):
            r = shannon_numeric(Family.hermite(), n, ctx)
            devs[n] = float(abs(r.length / stddev(Family.hermite(), n, ctx) - c))
        out.append(
            Check(
                "shannon/ratio-deviation-shrinks/hermite",
                devs[40] < devs[10],
                devs[40],
                devs[10],
                detail=f"|N/stddev - pi*sqrt(2)/e| at n=40 vs n=10",
            )
        )
        for fam, n in ((Family.hermite(), 5), (Family.laguerre(2.0), 5), (Family.jacobi(2.0, 2.0), 5)):
            chk = shannon_inequality_check(fam, n, ctx)
            margin = float(chk.rhs - chk.lhs)
            out.append(
                Check(
                    f"shannon/inequality/{fam.describe()}/n={n}",
                    bool(chk),
                    margin,
                    0.0,
                    detail=f"N={mp.nstr(chk.lhs, 12)} bound={mp.nstr(chk.rhs, 12)}",
                )
            )
    return out


def _scope_moments(ctx, tol_scale):
    tol = 1e-12 * tol_scale
    out = []
    for fam in (Family.hermite(), Family.laguerre(0.0), Family.laguerre(2.5)):
        for n in (0, 2, 7):
            for k in (1, 2, 4, 6):
                if fam.kind == "hermite" and k % 2:
                    val = moment(fam, n, k, ctx)
                    out.append(
                        Check(
                            f"moments/odd-zero/{fam.describe()}/n={n}/k={k}",
                            val == 0,
                            float(abs(val)),
                            0.0,
                        )
                    )
                    continue
                closed = moment(fam, n, k, ctx)
                orc = moment_quadrature(fam, n, k, ctx)
                out.append(
                    _deviation_check(
                        f"moments/{fam.describe()}/n={n}/k={k}", closed, orc, tol
                    )
                )
    return out


def _scope_bounds(ctx, tol_scale):
    out = []
    sat_tol = 1e-9 * tol_scale
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
            for n in (0, 3, 10):
                N = shannon_numeric(fam, n, ctx).length
                val, par = optimize_bound(fam, n, None, ctx)
                margin = float(val - N)
                out.append(
                    Check(
                        f"bounds/dominance/{fam.describe()}/n={n}",
                        N <= val + mp.mpf(1e-12),
                        margin,
                        0.0,
                        detail=f"best parameter {par}",
                    )
                )
        for n in (0, 10, 40):
            N = shannon_numeric(Family.jacobi(2.0, 2.0), n, ctx).length
            margin = float(jacobi_trivial_bound() - N)
            out.append(
                Check(
                    f"bounds/jacobi-trivial/n={n}",
                    N <= jacobi_trivial_bound(),
                    margin,
                    0.0,
                )
            )
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


def run_scope(scope: str, ctx: PrecisionContext = _DEFAULT_CTX, tol_scale: float = 1.0):
    """Run one scope (or ``all``); returns the ordered list of checks."""
    if scope == "all":
        checks = []
        for name in SCOPES:
            checks.extend(SCOPES[name](ctx, tol_scale))
        return checks
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; choose from {available_scopes()}")
    return SCOPES[scope](ctx, tol_scale)
