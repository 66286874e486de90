"""Gauss rules, weight moments, density-power integrals, and the two
adaptive integrators, checked against scipy nodes and closed integrals."""

import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy import special

from oracles import rule_sum, weight_moment
from spreadpoly import orthopoly, quadrature
from spreadpoly.context import ParameterError, PrecisionContext
from spreadpoly.families import Family, RenyiOrder, exact_recurrence
from spreadpoly.quadrature import (
    QuadratureError,
    _BATCH_NODES,
    _GAUSS_PAIR,
    _gauss_legendre,
    _power_exponents,
    _rule_sum,
    _standard_rule,
    gauss_rule,
    integrate_density_power,
    integrate_log_singular,
    tanh_sinh_panels,
)

CTX = PrecisionContext()


def test_gauss_rule_builds_its_recurrence_table_once():
    # the seeds, the fixed-point table and the Christoffel weights' h all
    # read one exact table
    exact_recurrence.cache_clear()
    orthopoly._fixed_table.cache_clear()
    _standard_rule.__wrapped__("jacobi", 2.0, 0.5, 9, 113)
    assert exact_recurrence.cache_info().misses == 1
    assert orthopoly._fixed_table.cache_info().misses == 1


#: Exponents of the acceptance criterion 3 grid.
GRID = (-0.5, 0.0, 0.5, 2.0, 5.0)


def test_gauss_polish_takes_at_most_two_passes_per_node(monkeypatch):
    # one pass is one monic_fixed call; the weights come from the last
    # pass and the polish stops on the ODE bound of its next error.  Halley
    # steps from float64 seeds settle at 256 bits in two passes, where Newton
    # steps took 2.94 and the former loop 4.95, weight sums included
    kernel = orthopoly.monic_fixed
    passes = []
    monkeypatch.setattr(orthopoly, "monic_fixed", lambda *a: passes.append(1) or kernel(*a))
    fams = [Family.hermite()] + [Family.laguerre(a) for a in GRID]
    fams += [Family.jacobi(a, b) for a in GRID for b in GRID]
    polished = 0
    for fam in fams:
        for two_q in (2, 3, 4, 6):
            try:
                alpha, beta = _power_exponents(fam, RenyiOrder(two_q).q)
            except ParameterError:
                continue
            m = 4 * two_q // 2 + 1  # the n = 4 cells
            _standard_rule.__wrapped__(fam.kind, alpha, beta, m, CTX.bits)
            symmetric = orthopoly._is_symmetric(fam.kind, alpha, beta)
            polished += (m + 1) // 2 if symmetric else m
    assert len(passes) <= 2.0 * polished, len(passes) / polished


def test_gauss_nodes_match_scipy():
    nodes, weights = gauss_rule(Family.hermite(), 12, CTX)
    ref_x, ref_w = special.roots_hermite(12)
    assert np.allclose([float(x) for x in nodes], ref_x, atol=1e-12)
    assert np.allclose([float(w) for w in weights], ref_w, rtol=1e-12)

    nodes, weights = gauss_rule(Family.laguerre(0.5), 9, CTX)
    ref_x, ref_w = special.roots_genlaguerre(9, 0.5)
    assert np.allclose([float(x) for x in nodes], ref_x, rtol=1e-12)

    nodes, weights = gauss_rule(Family.jacobi(2.0, -0.5), 10, CTX)
    ref_x, ref_w = special.roots_jacobi(10, 2.0, -0.5)
    assert np.allclose([float(x) for x in nodes], ref_x, atol=1e-12)
    assert np.allclose([float(w) for w in weights], ref_w, rtol=1e-11)


def test_weights_sum_to_weight_mass():
    with mp.workprec(CTX.bits):
        _, weights = gauss_rule(Family.hermite(), 8, CTX)
        assert abs(mp.fsum(weights) - mp.sqrt(mp.pi)) < mp.mpf(1e-70)
        _, weights = gauss_rule(Family.laguerre(2.5), 8, CTX)
        assert abs(mp.fsum(weights) - mp.gamma(3.5)) < mp.mpf(1e-70)
        a, b = mp.mpf(2), mp.mpf(5)
        mass = mp.power(2, a + b + 1) * mp.gamma(a + 1) * mp.gamma(b + 1) / mp.gamma(a + b + 2)
        _, weights = gauss_rule(Family.jacobi(2.0, 5.0), 8, CTX)
        assert abs(mp.fsum(weights) - mass) < mp.mpf(1e-70)


def test_rule_polynomial_exactness():
    # a 6-node rule is exact to degree 11
    family = Family.laguerre(1.5)
    rule = gauss_rule(family, 6, CTX)
    with mp.workprec(CTX.bits):
        for j in range(0, 12):
            direct = rule_sum(rule, lambda x, j=j: mp.power(x, j))
            closed = weight_moment(family, j, CTX)
            assert abs(direct - closed) <= mp.mpf(1e-65) * max(1, abs(closed))


def test_weight_moment_closed_forms():
    with mp.workprec(CTX.bits):
        # hermite: integral x^4 e^-x^2 = 3 sqrt(pi)/4
        got = weight_moment(Family.hermite(), 4, CTX)
        assert abs(got - 3 * mp.sqrt(mp.pi) / 4) < mp.mpf(1e-70)
        # laguerre alpha=0: integral x^3 e^-x = 6
        got = weight_moment(Family.laguerre(0.0), 3, CTX)
        assert abs(got - 6) < mp.mpf(1e-70)
        # hermite odd moments vanish
        assert weight_moment(Family.hermite(), 3, CTX) == 0


def test_non_integrable_exponents_rejected():
    with pytest.raises(ParameterError):
        Family.laguerre(-1.0)
    with pytest.raises(ParameterError):
        Family.jacobi(0.0, -1.5)
    with pytest.raises(ParameterError):
        Family("circular")
    # w^q with alpha q <= -1: Laguerre(-1/2) at q = 2, Jacobi beta q = -1.5
    with pytest.raises(ParameterError):
        gauss_rule(Family.laguerre(-0.5), 4, CTX, q=2)
    with pytest.raises(ParameterError):
        gauss_rule(Family.jacobi(0.0, -0.5), 4, CTX, q=3)


@pytest.mark.parametrize(
    "family",
    [Family.hermite(), Family.laguerre(0.5), Family.jacobi(-0.5, 2.0)],
)
@pytest.mark.parametrize("n", [0, 1, 4])
def test_density_power_normalizes_at_unit_order(family, n):
    W = integrate_density_power(family, n, RenyiOrder(2), CTX)
    assert abs(W - 1) < mp.mpf(1e-70)


def test_density_power_gaussian_ground_state():
    # rho_0 = e^{-x^2}/sqrt(pi):  W_q = pi^{(1-q)/2} q^{-1/2}
    with mp.workprec(CTX.bits):
        for two_q in (3, 4, 6):
            q = mp.mpf(two_q) / 2
            want = mp.power(mp.pi, (1 - q) / 2) / mp.sqrt(q)
            got = integrate_density_power(Family.hermite(), 0, RenyiOrder(two_q), CTX)
            assert abs(got - want) < mp.mpf(1e-70)


def test_density_power_parity_zero_is_exact():
    assert integrate_density_power(Family.hermite(), 1, RenyiOrder(3), CTX) == 0
    assert integrate_density_power(Family.jacobi(0.5, 0.5), 3, RenyiOrder(3), CTX) == 0


@pytest.mark.parametrize(
    "family,n",
    [(Family.hermite(), 3), (Family.jacobi(0.5, 0.5), 3), (Family.jacobi(2.0, 2.0), 1)],
    ids=lambda v: v.describe() if isinstance(v, Family) else str(v),
)
def test_parity_zero_needs_no_clamp(family, n):
    # a symmetric rule's nodes mirror exactly, and p_n is evaluated on the
    # nonpositive half and mirrored with (-1)^n, so at n 2q odd the terms
    # cancel in pairs to exactly 0 in the plain sum
    order = RenyiOrder(3)
    assert integrate_density_power(family, n, order, CTX) == 0
    values = []

    def term(x, w, v):
        values.append(v)
        return w * v**3

    assert _rule_sum(family, n, order, 3 * n // 2 + 1, CTX, term) == 0
    with mp.workprec(CTX.bits + orthopoly._RULE_GUARD):
        assert values == [-v for v in reversed(values)]


#: 128 bits keep the properties quick; the Gauss route runs at bits + 20.
FAST = PrecisionContext(bits=128)
#: alpha q, beta q > -1 for every 2q <= 6
INTEGRABLE = st.floats(min_value=-0.3, max_value=6.0)
PROPERTY = settings(max_examples=30, deadline=None, database=None, derandomize=True)


@PROPERTY
@given(
    kind=st.sampled_from(["hermite", "laguerre", "jacobi"]),
    alpha=INTEGRABLE,
    beta=INTEGRABLE,
    n=st.integers(min_value=0, max_value=8),
    two_q=st.integers(min_value=1, max_value=6),
)
def test_gauss_route_is_free_of_ambient_precision(kind, alpha, beta, n, two_q):
    # the rule and the node values run at ctx.bits + 20 whatever mp.prec
    # the caller holds; the rule cache is cleared so each run builds it
    family = Family(kind, 0.0 if kind == "hermite" else alpha, beta if kind == "jacobi" else 0.0)
    values = []
    for prec in (53, 400):
        _standard_rule.cache_clear()
        with mp.workprec(prec):
            values.append(integrate_density_power(family, n, RenyiOrder(two_q), FAST))
    assert values[0]._mpf_ == values[1]._mpf_


@PROPERTY
@given(
    alpha=INTEGRABLE,
    beta=INTEGRABLE,
    n=st.integers(min_value=0, max_value=8),
    two_q=st.integers(min_value=1, max_value=6),
)
def test_gauss_route_jacobi_reflection(alpha, beta, n, two_q):
    # p_n^(beta, alpha)(-x) = (-1)^n p_n^(alpha, beta)(x), so
    # W_q(alpha, beta; n) = (-1)^(n 2q) W_q(beta, alpha; n)
    assume(alpha != beta)
    order = RenyiOrder(two_q)
    w = integrate_density_power(Family.jacobi(alpha, beta), n, order, FAST)
    w_reflected = integrate_density_power(Family.jacobi(beta, alpha), n, order, FAST)
    sign = -1 if n * two_q % 2 else 1
    with mp.workprec(2 * FAST.bits):
        tol = mp.mpf(2) ** (8 - FAST.bits) * max(1, abs(w))
        assert abs(w - sign * w_reflected) <= tol


def test_tanh_sinh_known_integrals():
    val, est = tanh_sinh_panels(
        lambda i, a, b, x, dl, dr: np.log(np.maximum(x, 1e-320)), [0.0, 1.0]
    )
    assert abs(val + 1.0) < 5e-13
    assert abs(val + 1.0) <= max(est, 5e-13)

    val, _ = tanh_sinh_panels(
        lambda i, a, b, x, dl, dr: np.exp(-x * x), [-np.inf, np.inf]
    )
    assert abs(val - np.sqrt(np.pi)) < 5e-13

    val, _ = tanh_sinh_panels(
        lambda i, a, b, x, dl, dr: x**3 * np.exp(-x), [0.0, np.inf]
    )
    assert abs(val - 6.0) < 1e-11


LEGENDRE_112 = list(special.roots_legendre(112)[0])


def test_tanh_sinh_split_invariance():
    f = lambda i, a, b, x, dl, dr: np.exp(-x * x)
    v1, _ = tanh_sinh_panels(f, [-np.inf, np.inf])
    v2, _ = tanh_sinh_panels(f, [-np.inf, -0.7, 0.3, np.inf])
    assert abs(v1 - v2) < 5e-13
    v3, _ = tanh_sinh_panels(f, [-np.inf] + LEGENDRE_112 + [np.inf])
    assert abs(v1 - v3) < 5e-13
    v4, _ = tanh_sinh_panels(f, [-1.0, 1.0])
    v5, _ = tanh_sinh_panels(f, [-1.0] + LEGENDRE_112 + [1.0])
    assert abs(v4 - v5) < 5e-13


def _first_levels(per: int) -> list:
    """The rules a panel with ``per`` nodes in one call gets: ["pair"] for
    a zero panel's Gauss pair, levels 0-4 on a finite panel's first
    tanh-sinh round (9 + 8 + 16 + 32 + 64 nodes), 0-6 on an infinite one's
    (+ 128 + 256), level L >= 5 alone (2^(L+2))."""
    if per == sum(quadrature._GAUSS_PAIR):
        return ["pair"]
    if per in (129, 513):
        return list(range(5 if per == 129 else 7))
    level = int(np.log2(per)) - 2
    assert per == 2 ** (level + 2) and level >= 5
    return [level]


def _recording(f, pts, calls, levels):
    """Integrand f(x) on the panels of ``pts`` that checks the call contract
    and records each call's panels with their rules and node counts, and
    the rules each panel receives."""

    def g(i, a, b, x, dl, dr):
        hash(i)
        assert len(set(i)) == len(i)
        assert a.shape == b.shape == x.shape == dl.shape == dr.shape
        # the nodes come one panel after another, in the order of i
        cuts = np.flatnonzero(a[1:] != a[:-1]) + 1
        runs = np.split(np.arange(a.size), cuts)
        assert len(runs) == len(i)
        assert x.size <= _BATCH_NODES or len(i) == 1
        got = []
        for k, run in zip(i, runs):
            assert np.all(a[run] == pts[k]) and np.all(b[run] == pts[k + 1])
            got.append(_first_levels(run.size))
            levels.setdefault(k, []).extend(got[-1])
        calls.append((i, got, [run.size for run in runs]))
        return f(x)

    return g


LEGENDRE_600 = list(special.roots_legendre(600)[0])


GAUSS_COS = lambda x: np.exp(-x * x) * np.cos(3 * x)


def _sin_log(periods: int):
    """rho ln rho for rho = sin^2(periods pi x) on [0, 1], with log_coef
    2 rho for the zero panels (near a zero e, ln rho = 2 ln|x - e| plus a
    smooth part); the integral over whole periods is 1/2 - ln 2."""

    def f(x):
        rho = np.sin(periods * np.pi * x) ** 2
        with np.errstate(divide="ignore"):
            vals = np.where(rho == 0.0, 0.0, rho * np.log(rho))
        return vals, None, None, 2.0 * rho

    return f


def test_tanh_sinh_batches_panels_per_level(monkeypatch):
    # a 4/8-node pair is far from converged on the zero panels of the last
    # case, so they go on with tanh-sinh rounds beside the end panels
    monkeypatch.setattr(quadrature, "_GAUSS_PAIR", (4, 8))
    sin_pts = list(np.arange(301) / 300)
    cases = [
        ([-1.0] + LEGENDRE_112 + [1.0], np.cos, 2 * np.sin(1.0), 1e-10, ()),
        # 601 panels of 129 nodes: the first round takes three calls
        ([-1.0] + LEGENDRE_600 + [1.0], np.cos, 2 * np.sin(1.0), 1e-10, ()),
        # the infinite panels share the first call with the finite ones, and
        # at this tol both refine past it, levels 7 and 5 in one call
        ([-np.inf] + LEGENDRE_112 + [np.inf], GAUSS_COS, np.sqrt(np.pi) * np.exp(-2.25), 1e-16, ()),
        # 298 zero panels fall back to tanh-sinh: levels 0-4 in two calls
        (sin_pts, _sin_log(300), 0.5 - np.log(2.0), 1e-10, range(1, 299)),
    ]
    for pts, f, exact, tol, zero in cases:
        calls, levels = [], {}
        val, est = tanh_sinh_panels(_recording(f, pts, calls, levels), pts, tol=tol, zero_panels=zero)
        assert abs(val - exact) <= max(est, 5e-13)
        # every panel gets levels 0 up to its own stop level, none missing or
        # repeated, after its Gauss pair if it is a zero panel
        assert sorted(levels) == list(range(len(pts) - 1))
        for k, got in levels.items():
            if k in zero:
                assert got[0] == "pair"
                got = got[1:]
            assert got == list(range(len(got))) and (k in zero or len(got) >= 5)
        # a panel takes one rule a round, so a call's round is the number of
        # calls its panels took before; round 0 holds every panel once
        rounds, seen = {}, np.zeros(len(pts) - 1, dtype=int)
        for i, _, sizes in calls:
            r = seen[i[0]]
            assert np.all(seen[list(i)] == r)
            seen[list(i)] += 1
            rounds.setdefault(r, []).append((i, sizes))
        assert sorted(k for i, _ in rounds[0] for k in i) == list(range(len(pts) - 1))
        # each round, whatever its rules, takes the fewest calls the cap
        # allows its nodes: a call ends only where the next panel does not fit
        for rnd in rounds.values():
            for (_, this), (_, after) in zip(rnd, rnd[1:]):
                assert sum(this) + after[0] > _BATCH_NODES
        later = {k for r in range(1, len(rounds)) for i, _ in rounds[r] for k in i}
        if np.isinf(pts[0]):
            assert {0, len(pts) - 2} <= set(calls[0][0])
            # round 1 holds both infinite panels and finite ones, in one call
            assert len(rounds[1]) == 1 and {0, len(pts) - 2} < set(rounds[1][0][0])
            assert len(levels[0]) == 8 and len(rounds) > 2
        if zero:
            # every zero panel fell back, round 1 took two calls
            assert set(zero) <= later and len(rounds[1]) == 2


@pytest.mark.parametrize(
    "pts, tol",
    [
        # the global stop comes before some panel's own
        ([-np.inf] + list(special.roots_legendre(24)[0]) + [np.inf], 1e-15),
        # the outer panels stop after their first round, the middle one refines
        ([-np.inf, -6.0, 6.0, np.inf], 1e-12),
        ([-np.inf, -3.0, -1.0, 0.0, 1.0, 3.0, np.inf], 1e-13),
    ],
)
def test_tanh_sinh_panel_stops_at_its_own_difference(pts, tol):
    # A panel's sums do not depend on the other panels, so alone, at
    # tol/P, it stops after the round where its own difference first is
    # <= tol/(8P).  With the others it stops there too, unless the sum of
    # all differences stops the loop first: none refines past its own stop,
    # and none whose difference is above tol/(8P) is stopped before the
    # loop ends.  Each round is one call here, and a panel refines one
    # level a round from levels 0-4 (finite) or 0-6 (infinite).
    panels = len(pts) - 1

    def stop_rounds(pts, tol):
        calls = []
        tanh_sinh_panels(_recording(GAUSS_COS, pts, calls, {}), pts, tol=tol)
        return [sum(k in i for i, *_ in calls) for k in range(len(pts) - 1)]

    together = stop_rounds(pts, tol)
    alone = [stop_rounds(pts[k : k + 2], tol / panels)[0] for k in range(panels)]
    last = max(together)
    assert together == [min(s, last) for s in alone]
    # each case has a panel that stops early or one that the loop cuts
    assert min(together) < last or max(alone) > last


@pytest.mark.parametrize("m", sorted({16, 20, *_GAUSS_PAIR}))
def test_gauss_legendre_product_weights(m):
    # the product weights of ln t integrate t^k ln t exactly for k < m, and
    # their mirror image t^k ln(1 - t); the Gauss weights t^k for k < 2m
    rule = _gauss_legendre(m)
    t = rule.t
    # the nodes mirror exactly; t and 1 - t are each rounded once
    assert np.all(np.diff(t) > 0) and np.array_equal(t, rule.one_minus_t[::-1])
    assert np.all(np.abs(t + rule.one_minus_t - 1.0) <= 2.0**-53)
    with mp.workprec(113):
        for k in range(2 * m):
            got = mp.fsum(mp.mpf(w) * mp.mpf(x) ** k for w, x in zip(rule.w, t))
            assert abs(got - mp.mpf(1) / (k + 1)) <= 1e-14 / (k + 1)
        for k in range(m):
            log_t = mp.fsum(mp.mpf(w) * mp.mpf(x) ** k for w, x in zip(rule.w_log, t))
            log_1mt = mp.fsum(mp.mpf(w) * mp.mpf(x) ** k for w, x in zip(rule.w_log[::-1], t))
            want_t = -mp.mpf(1) / (k + 1) ** 2
            want_1mt = -mp.harmonic(k + 1) / (k + 1)
            assert abs(log_t - want_t) <= 1e-14 * abs(want_t)
            assert abs(log_1mt - want_1mt) <= 1e-14 * abs(want_1mt)
            # the log-split weights: sum w f + split c integrates
            # f = c ln(t (1 - t)) for c = t^k
            split = mp.fsum(
                mp.mpf(w) * mp.mpf(x) ** k * mp.log(mp.mpf(x) * mp.mpf(s)) + mp.mpf(c) * mp.mpf(x) ** k
                for w, c, x, s in zip(rule.w, rule.split, t, rule.one_minus_t)
            )
            assert abs(split - want_t - want_1mt) <= 1e-14 * abs(want_t + want_1mt)
    # the integrand rounding of a zero panel is counted for |kappa| <= 1/2
    assert np.all(np.abs(rule.split) <= rule.w / 2)


def test_zero_panels_take_the_gauss_pair():
    # rho ln rho for rho = sin^2(3 pi x) on [0, 1], split at its zeros:
    # near a zero e, ln rho = 2 ln|x - e| + a smooth part, so log_coef is
    # 2 rho.  The inner panel takes the pair, the end panels levels 0-4,
    # all in one call; the integral over whole periods is 1/2 - ln 2
    pts = [0.0, 1 / 3, 2 / 3, 1.0]
    calls = []

    def f(i, a, b, x, dl, dr):
        calls.append({k: np.count_nonzero(a == pts[k]) for k in i})
        rho = np.sin(3 * np.pi * x) ** 2
        with np.errstate(divide="ignore"):
            vals = np.where(rho == 0.0, 0.0, rho * np.log(rho))
        return vals, None, None, 2.0 * rho

    val, est = tanh_sinh_panels(f, pts, tol=1e-10, zero_panels=[1])
    assert calls == [{0: 129, 1: sum(_GAUSS_PAIR), 2: 129}]
    assert abs(val - (0.5 - np.log(2.0))) <= est <= 1e-10
    # a zero panel is finite and clear of an end where the integrand blows up
    for zero, edges in (([2], (0.0, 0.0)), ([3], (0.0, 0.0)), ([0], (-0.5, 0.0))):
        with pytest.raises(ParameterError, match="zero panels"):
            tanh_sinh_panels(f, [0.0, 1 / 3, 2 / 3, np.inf], zero_panels=zero, edge_exponents=edges)


def test_tanh_sinh_rejects_non_finite_values():
    f = lambda i, a, b, x, dl, dr: np.where(np.abs(x - 0.3) < 0.05, np.nan, 1.0)
    with pytest.raises(QuadratureError, match=r"non-finite values on panel 1 "):
        tanh_sinh_panels(f, [0.0, 0.2, 0.4, 1.0])
    g = lambda i, a, b, x, dl, dr: np.where(x > 5.0, np.inf, np.exp(-x))
    with pytest.raises(QuadratureError, match=r"on panel 0 \[0.0, inf\]"):
        tanh_sinh_panels(g, [0.0, np.inf])


@pytest.mark.parametrize("gamma", [-0.9, -0.8])
def test_tanh_sinh_edge_tail_covers_truncated_mass(gamma):
    left = lambda i, a, b, x, dl, dr: x**gamma
    right = lambda i, a, b, x, dl, dr: ((1.0 - b) + dr) ** gamma
    laguerre = lambda i, a, b, x, dl, dr: x**gamma * np.exp(-x)
    cases = [
        (left, [0.0, 0.5, 1.0], 1 / (1 + gamma), (gamma, 0.0)),
        (right, [0.0, 0.5, 1.0], 1 / (1 + gamma), (0.0, gamma)),
        (laguerre, [0.0, np.inf], special.gamma(1 + gamma), (gamma, 0.0)),
    ]
    for f, pts, exact, edges in cases:
        val, est = tanh_sinh_panels(f, pts, edge_exponents=edges)
        assert abs(val - exact) <= est <= 4 * abs(val - exact)
        # without the tail term, or with it on the wrong end, the estimate
        # misses the mass beyond the outermost node
        for wrong in ((0.0, 0.0), edges[::-1]):
            if not np.isinf(pts[-1]) or wrong[1] == 0:
                assert tanh_sinh_panels(f, pts, edge_exponents=wrong)[1] < abs(val - exact)


def test_tanh_sinh_edge_tail_limits():
    f = lambda i, a, b, x, dl, dr: x**-0.5
    assert tanh_sinh_panels(f, [0.0, 1.0], edge_exponents=(-1.0, 0.0))[1] == np.inf
    with pytest.raises(ParameterError, match="infinite end"):
        tanh_sinh_panels(f, [0.0, np.inf], edge_exponents=(0.0, -0.5))
    g = lambda i, a, b, x, dl, dr: np.exp(-x * x)
    assert tanh_sinh_panels(g, [-1.0, 1.0], edge_exponents=(0.0, 0.5)) == tanh_sinh_panels(
        g, [-1.0, 1.0]
    )


def test_tanh_sinh_counts_the_integrand_rounding():
    # a (values, rounding) pair leaves the value alone and adds the
    # quadrature sum of the rounding bound to the estimate
    f = lambda i, a, b, x, dl, dr: np.cos(x)
    g = lambda i, a, b, x, dl, dr: (np.cos(x), np.full_like(x, 1e-6))
    for pts in ([0.0, 1.0], [0.0, 0.3, 1.0]):
        val, est = tanh_sinh_panels(f, pts)
        val2, est2 = tanh_sinh_panels(g, pts)
        assert val2 == val
        assert abs((est2 - est) - 1e-6) <= 1e-12
    val, est = tanh_sinh_panels(
        lambda i, a, b, x, dl, dr: (np.exp(-x), 1e-6 * np.exp(-x)), [0.0, np.inf]
    )
    assert abs(val - 1.0) < 1e-13 and 1e-6 <= est <= 1.01e-6


def test_integrate_log_singular():
    # integral_0^1 x^{-1/2} ln x dx = -4; the tolerance is absolute
    ctx = PrecisionContext(bits=128)
    with mp.workprec(ctx.bits):
        val, err = integrate_log_singular(
            lambda x: mp.log(x) / mp.sqrt(x), (mp.mpf(0), mp.mpf(1)), [], ctx, tol=4e-20
        )
        assert abs(val + 4) < mp.mpf(1e-25)
        assert err <= 4e-20
    with pytest.raises(TypeError):
        integrate_log_singular(lambda x: x, (0, 1), [], ctx)  # no default tolerance


@pytest.mark.parametrize("value", [-mp.inf, mp.inf, mp.nan])
def test_integrate_log_singular_refuses_a_non_finite_integral(value):
    # mp.quad returns an infinite or nan value with a small estimate when one
    # node is infinite; that is no integral, at any precision
    ctx = PrecisionContext(bits=128)
    with pytest.raises(QuadratureError, match="not finite at 128 bits"):
        integrate_log_singular(
            lambda x: value if x > mp.mpf(3) / 4 else x, (mp.mpf(0), mp.mpf(1)), [], ctx, tol=1e-20
        )


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
def test_integrators_reject_bad_tolerances(tol):
    # a nan tolerance used to double mp.quad's precision without end, and
    # tanh_sinh_panels returned a value that no tolerance backed
    start = time.perf_counter()
    with pytest.raises(ParameterError, match="tolerance"):
        tanh_sinh_panels(lambda i, a, b, x, dl, dr: np.ones_like(x), [0.0, 1.0], tol=tol)
    with pytest.raises(ParameterError, match="tolerance"):
        integrate_log_singular(lambda x: x, (mp.mpf(0), mp.mpf(1)), [], CTX, tol=tol)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "points", [[0.6, 0.3], [0.3, 0.3], [0.0], [1.0], [-0.5], [0.3, 1.5]],
    ids=["unsorted", "repeated", "at-lo", "at-hi", "below", "above"],
)
def test_integrate_log_singular_rejects_bad_split_points(points):
    # the panels are [lo, *points, hi] as given: nothing is sorted or merged
    with pytest.raises(ParameterError, match="strictly increasing"):
        integrate_log_singular(lambda x: x, (mp.mpf(0), mp.mpf(1)), points, CTX, tol=1e-20)
