"""Gauss rules, weight moments, density-power integrals, and the two
adaptive integrators, checked against scipy nodes and closed integrals."""

import numpy as np
import pytest
from mpmath import mp
from scipy import special

from spreadpoly.context import ParameterError, PrecisionContext
from spreadpoly.families import Family, RenyiOrder, recurrence_table
from spreadpoly.quadrature import (
    NonIntegrableError,
    QuadratureError,
    WeightSpec,
    _BATCH_NODES,
    _standard_rule,
    gauss_rule,
    integrate_density_power,
    integrate_log_singular,
    tanh_sinh_panels,
    weight_moment,
)

CTX = PrecisionContext()


def test_gauss_rule_builds_its_recurrence_table_once():
    # the Christoffel weights read the table the zeros were polished with
    recurrence_table.cache_clear()
    _standard_rule.__wrapped__("jacobi", 2.0, 0.5, 9, 113)
    assert recurrence_table.cache_info().misses == 1


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
            direct = rule.apply(lambda x, j=j: mp.power(x, j))
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


def test_tanh_sinh_batches_panels_per_level():
    pts = [-1.0] + LEGENDRE_112 + [1.0]
    calls = []

    def f(i, a, b, x, dl, dr):
        calls.append((i, x.size))
        assert a.shape == b.shape == x.shape == dl.shape == dr.shape
        per = x.size // len(i)
        assert np.array_equal(a, np.repeat([pts[k] for k in i], per))
        assert np.array_equal(b, np.repeat([pts[k + 1] for k in i], per))
        return np.cos(x)

    val, _ = tanh_sinh_panels(f, pts)
    assert abs(val - 2 * np.sin(1.0)) < 5e-13
    by_level = {}
    for i, size in calls:
        assert isinstance(i, range) and size <= _BATCH_NODES
        by_level.setdefault(size // len(i), []).append(i)
    for per_panel, ranges in by_level.items():
        # every panel once per level, in the fewest batches the cap allows
        assert [k for r in ranges for k in r] == list(range(len(pts) - 1))
        assert len(ranges) == -(-(len(pts) - 1) // max(1, _BATCH_NODES // per_panel))
    assert len(by_level) >= 4


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


def test_integrate_log_singular():
    # integral_0^1 x^{-1/2} ln x dx = -4
    ctx = PrecisionContext(bits=128, rel_tol=1e-20)
    with mp.workprec(ctx.bits):
        val, err = integrate_log_singular(
            lambda x: mp.log(x) / mp.sqrt(x), (mp.mpf(0), mp.mpf(1)), [], ctx
        )
        assert abs(val + 4) < mp.mpf(1e-25)
        assert err <= mp.mpf(1e-20) * 4 + mp.mpf(1e-30)
