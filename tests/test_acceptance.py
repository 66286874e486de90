"""Acceptance gate: nine end-to-end checks, one per released guarantee.

Each test computes every sub-check first, records a single PASS/FAIL line
into ``RESULTS`` (printed in the terminal summary), and only then asserts,
so one failing criterion never hides the others' outcomes.
"""

import math
import time

import numpy as np
import pytest
from mpmath import mp

from oracles import raw_recurrence
from spreadpoly.context import ParameterError, PrecisionContext
from spreadpoly.families import Family, RenyiOrder
from spreadpoly.quadrature import gauss_rule, integrate_density_power
from spreadpoly.closed_form import (
    cramer_rao_product,
    fisher_information,
    fisher_information_numeric,
    fisher_length,
    fisher_truncated,
    moment,
    stddev,
)
from spreadpoly.bell import renyi_length_bell, renyi_power_integral_bell
from spreadpoly.lauricella import laguerre_power_integral_lauricella
from spreadpoly.shannon import (
    optimize_bound,
    jacobi_trivial_bound,
    ratio_constant,
    shannon_bound_hermite,
    shannon_bound_laguerre,
    shannon_numeric,
)

RESULTS = {}

GRID = (-0.5, 0.0, 0.5, 2.0, 5.0)


def _families():
    fams = [Family.hermite()]
    fams += [Family.laguerre(a) for a in GRID]
    fams += [Family.jacobi(a, b) for a in GRID for b in GRID]
    return fams


def record(k: int, ok: bool, detail: str) -> None:
    RESULTS[k] = (bool(ok), detail)
    assert ok, f"criterion {k}: {detail}"


def _poly_sq_sums(fam, rule, nmax, powers, ctx):
    """Sums w * p_k(x)^2 * x^j for k <= nmax and each j in powers.

    One recurrence sweep per node; the rule must integrate degree
    2*nmax + max(powers) exactly.
    """
    with mp.workprec(ctx.bits):
        diag, off = raw_recurrence(fam.kind, fam.alpha, fam.beta, nmax + 2)
        nodes, weights = rule
        p0 = 1 / mp.sqrt(mp.fsum(weights))
        sums = {j: [mp.mpf(0)] * (nmax + 1) for j in powers}
        absums = {j: [mp.mpf(0)] * (nmax + 1) for j in powers}
        for x, w in zip(nodes, weights):
            xp = {j: x**j for j in powers}
            pkm1, pk = mp.mpf(0), p0
            for k in range(nmax + 1):
                wk = w * pk * pk
                for j in powers:
                    sums[j][k] += wk * xp[j]
                    absums[j][k] += abs(wk * xp[j])
                pk1 = ((x - diag[k]) * pk - off[k] * pkm1) / off[k + 1]
                pkm1, pk = pk, pk1
        return sums, absums


def test_criterion_1_stddev_closed_vs_quadrature(ctx):
    t0 = time.time()
    nmax = 30
    worst = mp.mpf(0)
    for fam in _families():
        rule = gauss_rule(fam, nmax + 3, ctx)
        sums, _ = _poly_sq_sums(fam, rule, nmax, (1, 2), ctx)
        with mp.workprec(ctx.bits):
            for n in range(nmax + 1):
                var = sums[2][n] - sums[1][n] ** 2
                got = mp.sqrt(var)
                want = stddev(fam, n, ctx)
                worst = max(worst, abs(got - want) / want)
    elapsed = time.time() - t0
    ok = worst <= mp.mpf(1e-12) and elapsed < 30
    record(
        1,
        ok,
        f"stddev closed vs 33-node quadrature, 31 families x n<=30: "
        f"worst rel dev {mp.nstr(worst, 3)} (tol 1e-12), {elapsed:.1f}s",
    )


def test_criterion_2_fisher_closed_numeric_and_divergence(ctx):
    finite = [Family.hermite()] + [Family.laguerre(a) for a in (0.0, 2.0, 5.0)]
    finite += [Family.jacobi(a, b) for a in (0.0, 2.0, 5.0) for b in (0.0, 2.0, 5.0)]
    worst_fin = mp.mpf(0)
    for fam in finite:
        for n in range(0, 11):
            F = fisher_information(fam, n)
            Fn = fisher_information_numeric(fam, n)
            dev = abs(Fn - F) / F if F != 0 else abs(Fn)
            worst_fin = max(worst_fin, dev)

    divergent = [Family.laguerre(-0.5), Family.laguerre(0.5),
                 Family.jacobi(0.5, 0.5), Family.jacobi(-0.5, -0.5),
                 Family.jacobi(-0.5, 0.0), Family.jacobi(0.0, 0.5),
                 Family.jacobi(0.5, 2.0)]
    min_growth = mp.inf
    for fam in divergent:
        for n in (1, 5):
            coarse = fisher_truncated(fam, n, 1e-4)
            fine = fisher_truncated(fam, n, 1e-6)
            min_growth = min(min_growth, fine / coarse)

    worst_cr = mp.mpf(0)
    with mp.workprec(ctx.bits):
        for n in range(0, 31):
            worst_cr = max(
                worst_cr, abs(cramer_rao_product(Family.hermite(), n, ctx) - mp.mpf(1) / 2)
            )

    ok = worst_fin <= mp.mpf(1e-8) and min_growth >= 10 and worst_cr <= mp.mpf(1e-14)
    record(
        2,
        ok,
        f"fisher: finite-branch worst rel dev {mp.nstr(worst_fin, 3)} (tol 1e-8); "
        f"divergent-branch growth per 100x cutoff shrink >= {mp.nstr(min_growth, 4)} "
        f"(need 10); hermite uncertainty product dev {mp.nstr(worst_cr, 3)} (tol 1e-14)",
    )


def test_criterion_3_renyi_triple_route_agreement(ctx):
    t0 = time.time()
    cells = 0
    worst = mp.mpf(0)
    for fam in _families():
        for two_q in (2, 3, 4, 6):
            order = RenyiOrder(two_q)
            for n in range(0, 9):
                try:
                    Wb = renyi_power_integral_bell(fam, n, order, ctx)
                except ParameterError:
                    continue
                vals = [Wb, integrate_density_power(fam, n, order, ctx)]
                if n <= 6 and fam.kind == "laguerre":
                    vals.append(
                        laguerre_power_integral_lauricella(n, fam.alpha, order, ctx)
                    )
                cells += 1
                with mp.workprec(ctx.bits):
                    for i in range(len(vals)):
                        for j in range(i + 1, len(vals)):
                            a, b = vals[i], vals[j]
                            scale = max(abs(a), abs(b))
                            dev = abs(a - b) / scale if scale > mp.mpf(1e-30) else abs(a - b)
                            worst = max(worst, dev)
    elapsed = time.time() - t0
    ok = worst <= mp.mpf(1e-10) and elapsed < 60
    record(
        3,
        ok,
        f"renyi power integrals, series vs quadrature vs laguerre-sum over "
        f"{cells} admissible cells: worst pairwise dev {mp.nstr(worst, 3)} "
        f"(tol 1e-10), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_4_onicescu_values(ctx):
    with mp.workprec(ctx.bits):
        root = mp.sqrt(2 * mp.pi)
        targets = [root, mp.mpf(4) / 3 * root, mp.mpf(64) / 41 * root]
        devs = []
        for n, want in enumerate(targets):
            got = renyi_length_bell(Family.hermite(), n, 2, ctx)
            devs.append(abs(got - want) / want)
        lag = renyi_length_bell(Family.laguerre(0.0), 1, 2, ctx)
        dev_lag = abs(lag - 4) / 4
        worst = max(devs + [dev_lag])
    record(
        4,
        worst <= mp.mpf(1e-12),
        f"onicescu lengths: hermite n=0,1,2 vs sqrt(2pi)*(1, 4/3, 64/41) and "
        f"laguerre(0) n=1 = 4 (the widely printed 2 is that value's square "
        f"root): worst rel dev {mp.nstr(worst, 3)} (tol 1e-12)",
    )


def test_criterion_5_shannon_ground_states(ctx):
    with mp.workprec(ctx.bits):
        cases = [
            (Family.hermite(), mp.log(mp.sqrt(mp.pi)) + mp.mpf(1) / 2),
            (Family.laguerre(0.0), mp.mpf(1)),
            (Family.jacobi(0.0, 0.0), mp.log(2)),
        ]
        worst = mp.mpf(0)
        for fam, S_exact in cases:
            S = shannon_numeric(fam, 0, ctx).entropy
            worst = max(worst, abs(S - S_exact))
    record(
        5,
        worst <= mp.mpf(1e-7),
        f"shannon ground states (gaussian, exponential, uniform): worst "
        f"entropy dev {mp.nstr(worst, 3)} (tol 1e-7)",
    )


def test_criterion_6_ratio_band(fast_ctx):
    # N/stddev tends to ratio_constant() = pi*sqrt(2)/e with a remainder that
    # decays like n^(-1/3): still ~0.29 above the limit at n=100, so a fixed
    # 0.10 band there checks nothing a correct program can meet.  Assert the
    # rate law itself on the log remainder ln(N / (stddev * limit)).
    ctx = fast_ctx
    degrees = (10, 25, 50, 100)
    with mp.workprec(ctx.bits):
        limit = ratio_constant()
    band = 0.10
    band_remainder = math.log1p(band / float(limit))

    def log_remainder(fam, n):
        N = shannon_numeric(fam, n, ctx).length
        with mp.workprec(ctx.bits):
            return float(mp.log(N / (stddev(fam, n, ctx) * limit)))

    problems, summary = [], []
    for name, fam in (("hermite", Family.hermite()), ("laguerre(5)", Family.laguerre(5.0))):
        rem = [log_remainder(fam, n) for n in degrees]
        dev = float(limit) * math.expm1(rem[-1])
        if not (all(b < a for a, b in zip(rem, rem[1:])) and rem[-1] > 0):
            problems.append(f"{name}: log remainders {[f'{r:.4f}' for r in rem]} "
                            f"not positive and strictly decreasing")
            continue
        slope, icpt = np.polyfit(np.log(degrees), np.log(rem), 1)
        if abs(slope + 1 / 3) > 0.05:
            problems.append(f"{name}: remainder slope {slope:.3f} vs -1/3")
        # degree at which |N/stddev - limit| reaches the band, by the fitted
        # law and by the plain n^(-1/3) law through n=100
        n_fit = math.exp((math.log(band_remainder) - icpt) / slope)
        n_third = degrees[-1] * (rem[-1] / band_remainder) ** 3
        summary.append(f"{name} dev {dev:.4f} at n=100, slope {slope:.3f}, band "
                       f"entered near n~{n_fit:.0f} (fit) / {n_third:.0f} (n^(-1/3))")

    with mp.workprec(ctx.bits):
        target = mp.pi / mp.e
        N_j = shannon_numeric(Family.jacobi(2.0, 2.0), 80, ctx).length
        jac_dev = abs(N_j - target) / target
    if not jac_dev <= mp.mpf("0.05"):
        problems.append(f"jacobi(2,2) n=80 length vs pi/e rel dev {mp.nstr(jac_dev, 4)}")

    record(
        6,
        not problems,
        ("; ".join(problems) if problems else
         f"length/stddev ratio vs pi*sqrt(2)/e={mp.nstr(limit, 7)}, log remainder "
         f"over n={','.join(map(str, degrees))} strictly decreasing with log-log "
         f"slope -1/3 within 0.05: {'; '.join(summary)} (band {band}); "
         f"jacobi(2,2) n=80 length vs pi/e rel dev {mp.nstr(jac_dev, 4)} (tol 0.05)"),
    )


def test_criterion_7_orderings_and_decay(ctx):
    problems = []

    for fam in (Family.hermite(), Family.laguerre(5.0)):
        name = fam.kind if fam.kind == "hermite" else "laguerre(5)"
        dx = [stddev(fam, n, ctx) for n in range(21)]
        dxf = [fisher_length(fam, n, ctx) for n in range(21)]
        L2 = [renyi_length_bell(fam, n, 2, ctx) for n in range(21)]
        N = [shannon_numeric(fam, n, ctx).length for n in range(21)]
        if not all(dx[n] < L2[n] < N[n] for n in range(1, 21)):
            problems.append(f"{name}: ordering stddev < L2 < N broken")
        if not all(dxf[n + 1] < dxf[n] for n in range(20)):
            problems.append(f"{name}: fisher length not strictly decreasing")

    jac = Family.jacobi(2.0, 2.0)
    dxf_j = [fisher_length(jac, n, ctx) for n in range(81)]
    if not all(dxf_j[n + 1] < dxf_j[n] for n in range(80)):
        problems.append("jacobi(2,2): fisher length not strictly decreasing")
    with mp.workprec(ctx.bits):
        limit = 1 / mp.sqrt(2)
        gaps = [abs(stddev(jac, n, ctx) - limit) for n in (20, 40, 80)]
    if not (gaps[2] < gaps[1] < gaps[0] and gaps[2] < mp.mpf(1e-3)):
        problems.append("jacobi(2,2): stddev does not approach 1/sqrt(2)")
    tail = (20, 30, 40, 60, 80)
    N_tail = [shannon_numeric(jac, n, ctx).length for n in tail]
    L2_tail = [renyi_length_bell(jac, n, 2, ctx) for n in tail]
    if not all(b < a for a, b in zip(N_tail, N_tail[1:])):
        problems.append("jacobi(2,2): shannon length not decreasing for large n")
    if not all(b < a for a, b in zip(L2_tail, L2_tail[1:])):
        problems.append("jacobi(2,2): onicescu length not decreasing for large n")

    slopes = {}
    for name, fam, target in (
        ("hermite", Family.hermite(), -1.0),
        ("laguerre(5)", Family.laguerre(5.0), -1.5),
        ("jacobi(2,2)", jac, -1.5),
    ):
        ns = range(20, 81)
        logs = [
            (float(mp.log(n)), float(mp.log(fisher_length(fam, n, ctx) / stddev(fam, n, ctx))))
            for n in ns
        ]
        slope = float(np.polyfit([p[0] for p in logs], [p[1] for p in logs], 1)[0])
        slopes[name] = slope
        if abs(slope - target) > 0.1:
            problems.append(f"{name}: ratio slope {slope:.3f} vs {target}")

    slope_txt = ", ".join(f"{k} {v:.3f}" for k, v in slopes.items())
    record(
        7,
        not problems,
        ("; ".join(problems) if problems else
         f"orderings hold for n=1..20, fisher lengths strictly decrease, "
         f"jacobi(2,2) stddev -> 1/sqrt(2); log-log ratio slopes: {slope_txt} "
         f"(targets -1, -1.5, -1.5 within 0.1)"),
    )


def test_criterion_8_bounds_dominate_and_saturate(fast_ctx):
    ctx = fast_ctx
    problems = []
    for fam, label in (
        (Family.hermite(), "hermite"),
        (Family.laguerre(0.0), "laguerre(0)"),
        (Family.laguerre(5.0), "laguerre(5)"),
    ):
        for n in range(21):
            res = shannon_numeric(fam, n, ctx)
            bound, _ = optimize_bound(fam, n, ctx)
            with mp.workprec(ctx.bits):  # the slack is below 2^-53 at n = 0
                ok = res.length <= bound + res.est_error * res.length
            if not ok:
                problems.append(f"{label} n={n}: bound {bound} < length {res.length}")
    for n in (0, 5, 10, 15, 20):
        res = shannon_numeric(Family.jacobi(2.0, 2.0), n, ctx)
        with mp.workprec(ctx.bits):
            ok = res.length <= jacobi_trivial_bound() + res.est_error * res.length
        if not ok:
            problems.append(f"jacobi(2,2) n={n}: support bound 2 exceeded")

    with mp.workprec(ctx.bits):
        sat_h = abs(shannon_bound_hermite(0, 2, ctx) - mp.sqrt(mp.pi * mp.e))
        sat_l = abs(shannon_bound_laguerre(0, 0.0, 1.0, ctx) - mp.e)
    if not (sat_h <= mp.mpf(1e-9) and sat_l <= mp.mpf(1e-9)):
        problems.append(f"saturation devs {mp.nstr(sat_h, 3)}, {mp.nstr(sat_l, 3)}")

    record(
        8,
        not problems,
        ("; ".join(problems[:4]) if problems else
         f"optimized bounds dominate shannon length for n<=20 "
         f"(hermite, laguerre 0/5, jacobi(2,2) support bound); ground-state "
         f"saturation devs {mp.nstr(sat_h, 3)}, {mp.nstr(sat_l, 3)} (tol 1e-9)"),
    )


def test_criterion_9_moments_closed_vs_quadrature(ctx):
    nmax, kmax = 20, 8
    fams = [Family.hermite()] + [Family.laguerre(a) for a in GRID]
    worst = mp.mpf(0)
    odd_exact = True
    for fam in fams:
        rule = gauss_rule(fam, nmax + kmax // 2 + 1, ctx)
        sums, absums = _poly_sq_sums(fam, rule, nmax, tuple(range(1, kmax + 1)), ctx)
        with mp.workprec(ctx.bits):
            for n in range(nmax + 1):
                for k in range(1, kmax + 1):
                    want = moment(fam, n, k, ctx)
                    if fam.kind == "hermite" and k % 2 == 1:
                        odd_exact = odd_exact and want == 0
                    scale = max(mp.mpf(1), abs(want), absums[k][n])
                    worst = max(worst, abs(sums[k][n] - want) / scale)
    ok = worst <= mp.mpf(1e-12) and odd_exact
    record(
        9,
        ok,
        f"density moments k<=8, n<=20, hermite + laguerre grid: worst dev "
        f"{mp.nstr(worst, 3)} (tol 1e-12); hermite odd moments exactly zero: "
        f"{odd_exact}",
    )
