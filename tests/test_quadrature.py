"""Gauss rules, weight moments, density-power integrals, and the two
adaptive integrators, checked against scipy nodes and closed integrals."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy import special

from oracles import rule_sum, weight_moment
from spreadpoly import orthopoly
from spreadpoly.context import ParameterError, PrecisionContext
from spreadpoly.families import Family, RenyiOrder, exact_recurrence
from spreadpoly.quadrature import (
    NonIntegrableError,
    QuadratureError,
    WeightSpec,
    _BATCH_NODES,
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


def test_gauss_polish_takes_at_most_three_passes_per_node(monkeypatch):
    # one pass is one monic_fixed call; the weights come from the last
    # pass and the polish stops on the ODE bound of its next error, where the
    # former loop took 4.95 passes per node, weight sums included
    kernel = orthopoly.monic_fixed
    passes = []
    monkeypatch.setattr(orthopoly, "monic_fixed", lambda *a: passes.append(1) or kernel(*a))
    fams = [Family.hermite()] + [Family.laguerre(a) for a in GRID]
    fams += [Family.jacobi(a, b) for a in GRID for b in GRID]
    polished = 0
    for fam in fams:
        for two_q in (2, 3, 4, 6):
            try:
                spec = WeightSpec.power(fam, RenyiOrder(two_q).q)
            except NonIntegrableError:
                continue
            m = 4 * two_q // 2 + 1  # the n = 4 cells
            _standard_rule.__wrapped__(spec.kind, spec.alpha, spec.beta, m, CTX.bits)
            symmetric = orthopoly._is_symmetric(spec.kind, spec.alpha, spec.beta)
            polished += (m + 1) // 2 if symmetric else m
    assert len(passes) <= 3.0 * polished, len(passes) / polished


def test_gauss_nodes_match_scipy():
    rule = gauss_rule(WeightSpec("hermite"), 12, CTX)
    ref_x, ref_w = special.roots_hermite(12)
    assert np.allclose([float(x) for x in rule.nodes], ref_x, atol=1e-12)
    assert np.allclose([float(w) for w in rule.weights], ref_w, rtol=1e-12)

    rule = gauss_rule(WeightSpec("laguerre", alpha=0.5), 9, CTX)
    ref_x, ref_w = special.roots_genlaguerre(9, 0.5)
    assert np.allclose([float(x) for x in rule.nodes], ref_x, rtol=1e-12)

    rule = gauss_rule(WeightSpec("jacobi", alpha=2.0, beta=-0.5), 10, CTX)
    ref_x, ref_w = special.roots_jacobi(10, 2.0, -0.5)
    assert np.allclose([float(x) for x in rule.nodes], ref_x, atol=1e-12)
    assert np.allclose([float(w) for w in rule.weights], ref_w, rtol=1e-11)


def test_weights_sum_to_weight_mass():
    with mp.workprec(CTX.bits):
        rule = gauss_rule(WeightSpec("hermite"), 8, CTX)
        assert abs(mp.fsum(rule.weights) - mp.sqrt(mp.pi)) < mp.mpf(1e-70)
        rule = gauss_rule(WeightSpec("laguerre", alpha=2.5), 8, CTX)
        assert abs(mp.fsum(rule.weights) - mp.gamma(3.5)) < mp.mpf(1e-70)
        a, b = mp.mpf(2), mp.mpf(5)
        mass = mp.power(2, a + b + 1) * mp.gamma(a + 1) * mp.gamma(b + 1) / mp.gamma(a + b + 2)
        rule = gauss_rule(WeightSpec("jacobi", alpha=2.0, beta=5.0), 8, CTX)
        assert abs(mp.fsum(rule.weights) - mass) < mp.mpf(1e-70)


def test_rule_polynomial_exactness():
    spec = WeightSpec("laguerre", alpha=1.5)
    rule = gauss_rule(spec, 6, CTX)
    assert rule.exact_degree == 11
    with mp.workprec(CTX.bits):
        for j in range(0, 12):
            direct = rule_sum(rule, lambda x, j=j: mp.power(x, j))
            closed = weight_moment(spec, j, CTX)
            assert abs(direct - closed) <= mp.mpf(1e-65) * max(1, abs(closed))


def test_weight_moment_closed_forms():
    with mp.workprec(CTX.bits):
        # hermite: integral x^4 e^-x^2 = 3 sqrt(pi)/4
        got = weight_moment(WeightSpec("hermite"), 4, CTX)
        assert abs(got - 3 * mp.sqrt(mp.pi) / 4) < mp.mpf(1e-70)
        # laguerre alpha=0: integral x^3 e^-x = 6
        got = weight_moment(WeightSpec("laguerre"), 3, CTX)
        assert abs(got - 6) < mp.mpf(1e-70)
        # hermite odd moments vanish
        assert weight_moment(WeightSpec("hermite"), 3, CTX) == 0


def test_non_integrable_exponents_rejected():
    with pytest.raises(NonIntegrableError):
        WeightSpec("laguerre", alpha=-1.0)
    with pytest.raises(NonIntegrableError):
        WeightSpec("jacobi", alpha=0.0, beta=-1.5)
    with pytest.raises(ParameterError):
        WeightSpec("jacobi", alpha=0.0, beta=0.0, scale=2.0)
    with pytest.raises(ParameterError):
        WeightSpec("circular")


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

    assert _rule_sum(family, n, WeightSpec.power(family, order.q), 3 * n // 2 + 1, CTX, term) == 0
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


def _recording(f, pts, calls, levels):
    """Integrand f(x) on the panels of ``pts`` that checks the call contract
    and records each call's panels and the levels each panel receives."""

    def g(i, a, b, x, dl, dr):
        hash(i)
        assert list(i) == sorted(set(i))
        assert a.shape == b.shape == x.shape == dl.shape == dr.shape
        per = x.size // len(i)
        assert x.size == per * len(i) <= _BATCH_NODES
        assert np.array_equal(a, np.repeat([pts[k] for k in i], per))
        assert np.array_equal(b, np.repeat([pts[k + 1] for k in i], per))
        # levels 0-3 come together (9 + 8 + 16 + 32 nodes), level L >= 4 alone (2^(L+2))
        got = list(range(4)) if per == 65 else [int(np.log2(per)) - 2]
        assert per == 65 or per == 2 ** (got[0] + 2)
        calls.append((i, got))
        for k in i:
            levels.setdefault(k, []).extend(got)
        return f(x)

    return g


LEGENDRE_600 = list(special.roots_legendre(600)[0])


def test_tanh_sinh_batches_panels_per_level():
    cases = [
        ([-1.0] + LEGENDRE_112 + [1.0], np.cos, 2 * np.sin(1.0)),
        # 601 panels of 65 nodes: the first round takes two calls
        ([-1.0] + LEGENDRE_600 + [1.0], np.cos, 2 * np.sin(1.0)),
        # the infinite panels refine past the first round
        ([-np.inf] + LEGENDRE_112 + [np.inf], lambda x: np.exp(-x * x), np.sqrt(np.pi)),
    ]
    for pts, f, exact in cases:
        calls, levels = [], {}
        val, _ = tanh_sinh_panels(_recording(f, pts, calls, levels), pts)
        assert abs(val - exact) < 5e-13
        # every panel gets levels 0 up to its own stop level, none missing or repeated
        assert sorted(levels) == list(range(len(pts) - 1))
        for got in levels.values():
            assert got == list(range(len(got))) and len(got) >= 4
        # a round takes the fewest calls the cap allows, finite and infinite panels together
        for got in {tuple(got) for _, got in calls}:
            rnd = [i for i, g in calls if tuple(g) == got]
            per = 65 if len(got) == 4 else 2 ** (got[0] + 2)
            assert len(rnd) == -(-sum(map(len, rnd)) // max(1, _BATCH_NODES // per))
        first = [i for i, got in calls if got == [0, 1, 2, 3]]
        assert [k for i in first for k in i] == list(range(len(pts) - 1))
        if np.isinf(pts[0]):
            assert len(levels[0]) > 4 and set(first[0]) >= {0, len(pts) - 2}


GAUSS_COS = lambda x: np.exp(-x * x) * np.cos(3 * x)


@pytest.mark.parametrize(
    "pts, tol",
    [
        ([-np.inf] + list(special.roots_legendre(24)[0]) + [np.inf], 1e-12),
        ([-np.inf, -1.0, 0.0, 1.0, np.inf], 1e-8),
        # the global stop comes before some panel's own
        ([-np.inf, -3.0, -1.0, 0.0, 1.0, 3.0, np.inf], 1e-13),
    ],
)
def test_tanh_sinh_panel_stops_at_its_own_difference(pts, tol):
    # A panel's sums do not depend on the other panels, so alone, at
    # tol/P, it stops where its own difference first is <= tol/(8P).  With
    # the others it stops there too, unless the sum of all differences
    # stops the loop first: none refines past its own stop, and none whose
    # difference is above tol/(8P) is stopped before the loop ends.
    panels = len(pts) - 1

    def stop_levels(pts, tol):
        levels = {}
        tanh_sinh_panels(_recording(GAUSS_COS, pts, [], levels), pts, tol=tol)
        return [levels[k][-1] for k in range(len(pts) - 1)]

    together = stop_levels(pts, tol)
    alone = [stop_levels(pts[k : k + 2], tol / panels)[0] for k in range(panels)]
    last = max(together)
    assert together == [min(s, last) for s in alone]
    # each case has a panel that stops early or one that the loop cuts
    assert min(together) < last or max(alone) > last


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


@pytest.mark.parametrize(
    "points", [[0.6, 0.3], [0.3, 0.3], [0.0], [1.0], [-0.5], [0.3, 1.5]],
    ids=["unsorted", "repeated", "at-lo", "at-hi", "below", "above"],
)
def test_integrate_log_singular_rejects_bad_split_points(points):
    # the panels are [lo, *points, hi] as given: nothing is sorted or merged
    with pytest.raises(ParameterError, match="strictly increasing"):
        integrate_log_singular(lambda x: x, (mp.mpf(0), mp.mpf(1)), points, CTX, tol=1e-20)
