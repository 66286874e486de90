"""Shannon entropy of the squared-polynomial densities: numeric values
against exactly known ground states, large-n displays, and entropy bounds."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import oracles
from spreadpoly import closed_form, quadrature, shannon
from spreadpoly.context import ParameterError, PrecisionContext, PrecisionError
from spreadpoly.families import Family, norm_constant
from spreadpoly._vec import _LN_RESCALE_HI, _LN_RESCALE_LO, _RESCALE, _p0, poly_scaled
from spreadpoly.orthopoly import evaluate_recurrence, zeros, zeros_raw
from spreadpoly.quadrature import _engine_panels, _standard_rule, tanh_sinh_panels
from spreadpoly.shannon import (
    InequalityAudit,
    ShannonResult,
    _entropy_fast,
    _entropy_mpf,
    _log_poly_panel,
    _mean_log_weight,
    jacobi_trivial_bound,
    optimize_bound,
    ratio_constant,
    shannon_asymptotic,
    shannon_bound_hermite,
    shannon_bound_laguerre,
    shannon_inequality_check,
    shannon_numeric,
)

CTX = PrecisionContext()
FAST = PrecisionContext(bits=128)


def test_gaussian_ground_state_entropy():
    # rho = e^{-x^2}/sqrt(pi):  S = ln sqrt(pi) + 1/2,  N = sqrt(pi e)
    res = shannon_numeric(Family.hermite(), 0, CTX)
    with mp.workprec(CTX.bits):
        S_exact = mp.log(mp.sqrt(mp.pi)) + mp.mpf(1) / 2
        assert abs(res.entropy - S_exact) < mp.mpf(1e-7)
        assert abs(res.length - mp.sqrt(mp.pi * mp.e)) < mp.mpf(1e-7)
    assert res.method == "numeric"
    assert res.est_error > 0


def test_exponential_ground_state_entropy():
    # rho = e^{-x} on (0, inf):  S = 1,  N = e
    res = shannon_numeric(Family.laguerre(0.0), 0, CTX)
    with mp.workprec(CTX.bits):
        assert abs(res.entropy - 1) < mp.mpf(1e-7)
        assert abs(res.length - mp.e) < mp.mpf(1e-7)


def test_uniform_ground_state_entropy():
    # rho = 1/2 on (-1, 1):  S = ln 2,  N = 2
    res = shannon_numeric(Family.jacobi(0.0, 0.0), 0, CTX)
    with mp.workprec(CTX.bits):
        assert abs(res.entropy - mp.log(2)) < mp.mpf(1e-7)
        assert abs(res.length - 2) < mp.mpf(1e-7)


_MEAN_LOG_WEIGHT_CELLS = (
    [(Family.laguerre(a), n) for a in (-0.5, 0.0, 2.0, 5.0) for n in (0, 1, 3, 7)]
    + [
        (Family.jacobi(a, b), n)
        for a, b in ((0.0, 0.0), (-0.5, 0.5), (2.0, 0.5), (0.5, 3.0))
        for n in (0, 1, 4, 7)
    ]
    # alpha + beta = -1: the removable 0/0 of the general form at n = 0
    + [(Family.jacobi(a, b), n) for a, b in ((-0.5, -0.5), (0.5, -0.5)) for n in (0, 1, 2)]
)


@pytest.mark.parametrize("fam, n", _MEAN_LOG_WEIGHT_CELLS)
def test_mean_log_weight_matches_quadrature(fam, n):
    ctx = PrecisionContext(bits=160)
    with mp.workprec(ctx.bits):

        def weight_log_term(x):
            w = fam.weight(x)
            return evaluate_recurrence(fam, n, x) ** 2 * w * mp.log(w)

        lo, hi = fam.interval
        want = mp.quad(weight_log_term, [lo] + (zeros(fam, n, ctx) if n else []) + [hi])
        assert abs(_mean_log_weight(fam, n)[0] - want) <= mp.mpf(1e-20)


#: Float64 Shannon cells, among them every one the golden tables pin.
FAST_CELLS = [
    (Family.laguerre(1.5), 3),
    (Family.laguerre(2.0), 10),
    (Family.jacobi(0.5, -0.25), 2),
    (Family.jacobi(0.5, -0.25), 3),
    (Family.jacobi(0.5, -0.25), 4),
    (Family.jacobi(0.0, 0.0), 5),
    (Family.jacobi(2.0, 2.0), 3),
]


@pytest.mark.parametrize(
    "fam,n", FAST_CELLS, ids=[f"{fam.describe()}-n{n}" for fam, n in FAST_CELLS]
)
def test_fast_and_mpf_paths_agree(fam, n):
    # the float64 value is within its own estimate of the mpf one
    fast = shannon_numeric(fam, n, CTX, tol=1e-9)
    slow = shannon_numeric(fam, n, CTX, tol=1e-13)
    assert fast.path == "float64" and slow.path == "mpf"
    assert abs(fast.entropy - slow.entropy) <= fast.est_error


@pytest.mark.parametrize(
    "fam",
    [Family.jacobi(0.0, 0.0), Family.jacobi(2.0, 2.0), Family.hermite(), Family.laguerre(1.5)],
    ids=lambda f: f.describe(),
)
def test_fast_and_mpf_engines_agree_at_the_ground_state(fam):
    # shannon_numeric takes no integral at n = 0; both engines still run
    # there, and each is within its estimate of the exact value
    exact = shannon_numeric(fam, 0, CTX)
    fast = _entropy_fast(fam, 0, 1e-9)
    slow = _entropy_mpf(fam, 0, CTX, 1e-13)
    assert exact.path == "exact" and fast[1] <= 1e-9
    with mp.workprec(CTX.bits):
        for S, est in (fast, slow):
            assert abs(S - exact.entropy) <= est + exact.est_error


@pytest.mark.parametrize("n", range(3))
@pytest.mark.parametrize(
    "fam", [Family.laguerre(200.0), Family.jacobi(100.0, 100.0)], ids=lambda f: f.describe()
)
def test_large_exponent_fast_path_matches_mpf(fam, n):
    # mu_0 is past the largest double; the float64 engine starts from p_0
    fast, est = _entropy_fast(fam, n, 1e-9)
    slow, _ = _entropy_mpf(fam, n, CTX, 1e-13)
    assert est <= 1e-9
    assert abs(fast - slow) <= mp.mpf(1e-9)


#: S by the mpf route at tol=1e-14 and 256 bits (n > 0), frozen; at n = 0,
#: rho_0 = w / mu_0 gives S_0 = ln mu_0 - <ln w>_0.  Before the float64
#: estimate counted the rounding of ln rho and of <ln w>, its error here
#: was 1.5 to 15 times the estimate.
ROUNDING_CELLS = [
    (Family.jacobi(0.0, 0.5), 48, "0.150894219084441326081433998776"),
    (Family.jacobi(0.0, 0.0), 24, "0.14895681435967002602279495452"),
    (Family.laguerre(5.0), 112, "5.71171255807770707713034686608"),
    (Family.laguerre(200.0), 0, None),
    (Family.jacobi(100.0, 100.0), 0, None),
]


@pytest.mark.parametrize(
    "fam,n,ref", ROUNDING_CELLS, ids=[f"{fam.describe()}-n{n}" for fam, n, _ in ROUNDING_CELLS]
)
def test_float64_estimate_bounds_the_error(fam, n, ref):
    S, est = _entropy_fast(fam, n, 1e-9)
    assert est <= 1e-9
    with mp.workprec(256):
        if ref is None:
            mu0 = norm_constant(fam.kind, fam.alpha, fam.beta, mp.prec)
            want = mp.log(mu0) - _mean_log_weight(fam, 0)[0]
        else:
            want = mp.mpf(ref)
        assert abs(S - want) <= est


#: S by the mpf route at tol=1e-30 and 256 bits, frozen.  At large alpha
#: the rounding of alpha ln x in ln w meets |ln p^2| ~ |ln w| ~ 10^3-10^4;
#: before the estimate counted it, the error here was 1.13, 1.14, 2.19,
#: 1.18 and 1.21 times the estimate.
LARGE_ALPHA_CELLS = [
    (130.5, 1, "4.12964935960969017124066980330"),
    (280.0, 2, "4.66637259581091507187817069013"),
    (350.0, 2, "4.77718775214586830852249668418"),
    (1000.0, 3, "5.41168861413988844911596941382"),
    (5000.0, 3, "6.21518752375701688710630405676"),
]


@pytest.mark.parametrize("alpha,n,ref", LARGE_ALPHA_CELLS)
def test_float64_estimate_counts_the_weight_log_rounding(alpha, n, ref):
    S, est = _entropy_fast(Family.laguerre(alpha), n, 1e-9)
    with mp.workprec(256):
        assert abs(S - mp.mpf(ref)) <= est


#: Cells with a closed-form entropy at n >= 1: Hermite n = 1 and the four
#: Chebyshev weights of Jacobi.
ANCHOR_CELLS = [(Family.hermite(), 1)] + [
    (Family.jacobi(a, b), n)
    for n in (1, 2, 3, 7, 40)
    for a, b in ((-0.5, -0.5), (0.5, 0.5), (-0.5, 0.5), (0.5, -0.5))
]


@pytest.mark.parametrize(
    "fam,n", ANCHOR_CELLS, ids=[f"{fam.describe()}-n{n}" for fam, n in ANCHOR_CELLS]
)
def test_float64_path_meets_closed_forms_at_positive_degree(fam, n):
    # x = cos t makes rho_n dx (2/pi) cos^2 or sin^2 of a multiple of t on a
    # Chebyshev weight; (1/pi) int_0^pi cos^2 u ln cos^2 u du = 1/2 - ln 2
    # and int_0^pi cos(2mt) ln sin t dt = -pi/(2m) (0 for odd 2m) give S_n.
    # Under rho_1 of Hermite, x^2 is Gamma(3/2)-distributed.
    res = shannon_numeric(fam, n, CTX)
    assert res.path == "float64"
    with mp.workprec(CTX.bits):
        if fam.kind == "hermite":
            want = mp.log(mp.sqrt(mp.pi) / 2) - mp.digamma(mp.mpf(3) / 2) + mp.mpf(3) / 2
        else:
            shift = {(-0.5, -0.5): -mp.mpf(1) / (2 * n), (0.5, 0.5): mp.mpf(1) / (2 * n + 2)}
            want = mp.log(mp.pi) - 1 + shift.get((fam.alpha, fam.beta), 0)
        assert abs(res.entropy - want) <= res.est_error


def test_log_scale_error_is_within_its_counted_share():
    # poly_scaled counts the rescalings by 1/_RESCALE = 2^-332 and returns
    # the scale count * _LN_RESCALE_HI, exact, with the low part of
    # count * ln 2^332 folded into p as a factor within u
    with mp.workprec(200):
        step = -mp.log(mp.mpf(1.0 / _RESCALE))
        assert abs(mp.mpf(_LN_RESCALE_HI) + _LN_RESCALE_LO - step) < 3e-24
        for count in [1, 2, 3, 19, 20, 1000, 2**20, 2**21 - 1]:
            scale = count * _LN_RESCALE_HI
            assert mp.mpf(scale) == count * mp.mpf(_LN_RESCALE_HI)
            low = mp.mpf(float(np.exp(count * _LN_RESCALE_LO)))
            assert abs(scale + mp.log(low) - count * step) <= 2.0**-53
    # so ln|p_n| at nodes far out, rescaled up to 112 times, is within the
    # recurrence share 16 sqrt(n+1) u that _log_poly_panel counts, plus u
    # for the low factor, and the error does not grow with the scale
    for fam, n, xs in [
        (Family.laguerre(5.0), 1200, [3000.0, 4500.0, 1e5, 1e12]),
        (Family.hermite(), 112, [30.0, 1e3, 1e8]),
    ]:
        p, logscale = poly_scaled(fam.kind, fam.alpha, fam.beta, n, np.array(xs))
        assert logscale.max() > 1e3
        share = (16 * math.sqrt(n + 1) + 1) * 2.0**-53
        with mp.workprec(200):
            for x, pk, scale in zip(xs, p, logscale):
                want = mp.log(abs(evaluate_recurrence(fam, n, mp.mpf(x))))
                assert abs(mp.log(abs(mp.mpf(pk))) + scale - want) <= share


def test_large_degree_laguerre_stays_on_float64():
    # past tol the cell goes to the mpf route, which takes minutes at this n
    S, est = _entropy_fast(Family.laguerre(5.0), 1200, 1e-9)
    assert est <= 1e-9


#: Cells of the bit-identity check of poly_scaled.  Hermite |x| <= 30 and
#: Laguerre exp-sinh nodes past the last zero, out to about 4e18, rescale.
POLY_SCALED_CELLS = (
    [(Family.hermite(), n) for n in (1, 24, 112, 400)]
    + [(Family.laguerre(a), n) for a in (-0.9, 0.0, 5.0, 301.0) for n in (2, 48, 1200)]
    + [(Family.jacobi(a, b), n) for a, b in [(-0.9, 0.5), (2.0, 2.0)] for n in (7, 112)]
)


@pytest.mark.parametrize(
    "fam,n", POLY_SCALED_CELLS, ids=[f"{f.describe()}-{n}" for f, n in POLY_SCALED_CELLS]
)
def test_poly_scaled_is_bit_identical_to_the_plain_recurrence(fam, n):
    # the in-place recurrence, which tests for rescaling only near overflow,
    # makes the values of the plain one, which rescales at every step
    if fam.kind == "hermite":
        x = np.linspace(-30.0, 30.0, 601)
    elif fam.kind == "laguerre":
        t = np.linspace(-4.0, 4.0, 257)
        x = max(zeros_raw(fam.kind, fam.alpha, 0.0, n)) + np.exp(0.5 * np.pi * np.sinh(t))
    else:
        x = np.linspace(-1.0, 1.0, 401)
    for derivative in (False, True):
        got = poly_scaled(fam.kind, fam.alpha, fam.beta, n, x, derivative=derivative)
        want = oracles.poly_scaled_plain(fam.kind, fam.alpha, fam.beta, n, x, derivative)
        assert len(got) == len(want) == 2 + derivative
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    # some nodes rescale more often than others
    rescales = (fam.kind, n) in [("hermite", 400)] or (fam.kind == "laguerre" and n >= 48)
    assert (np.ptp(got[-1]) > 0) == rescales


@pytest.mark.parametrize(
    "fam,n", [(Family.laguerre(5.0), 1200), (Family.hermite(), 400)], ids=["laguerre5-1200", "hermite-400"]
)
def test_poly_scaled_values_do_not_depend_on_the_batch(fam, n):
    # exp-sinh nodes out to about 4e18 make the batch's bound pass the
    # near-overflow test early and often, and rescale the far nodes by many
    # factors 2^332 at a time; the finite nodes come out with the same bits
    zs = zeros_raw(fam.kind, fam.alpha, fam.beta, n)
    finite = np.linspace(fam.interval[0] if fam.kind == "laguerre" else -zs[-1], zs[-1], 2001)
    far = zs[-1] + np.exp(0.5 * np.pi * np.sinh(np.linspace(-4.0, 4.0, 257)))
    assert far.max() > 1e18
    mixed = np.concatenate([far[::2], finite, far[1::2]])
    inside = slice(129, 129 + finite.size)
    for derivative in (False, True):
        alone = poly_scaled(fam.kind, fam.alpha, fam.beta, n, finite, derivative=derivative)
        together = poly_scaled(fam.kind, fam.alpha, fam.beta, n, mixed, derivative=derivative)
        assert alone[-1].max() > 0  # the finite nodes rescale too
        for a, t in zip(alone, together):
            assert a.tobytes() == t[inside].tobytes()


SYMMETRIC = [Family.hermite()] + [Family.jacobi(a, a) for a in (-0.5, 0.0, 0.5, 2.0)]


def _recording(seen):
    """tanh_sinh_panels that keeps its points and the abscissas it hands out."""

    def run(fpanel, points, **kwargs):
        seen["points"] = list(points)

        def recorded(i, a, b, x, dl, dr):
            seen["x_min"] = min(seen.get("x_min", np.inf), float(x.min()))
            return fpanel(i, a, b, x, dl, dr)

        return tanh_sinh_panels(recorded, points, **kwargs)

    return run


@pytest.mark.parametrize("n", [1, 2, 7, 40])
@pytest.mark.parametrize("fam", SYMMETRIC, ids=[f.describe() for f in SYMMETRIC])
def test_symmetric_weight_integrates_the_half_line(fam, n, monkeypatch):
    # an even weight and rho ln p^2: twice the integral over [0, hi], at
    # tol/2, agrees with the integral over the whole line split at all zeros
    seen = {}
    monkeypatch.setattr(shannon, "tanh_sinh_panels", _recording(seen))
    S, est = _entropy_fast(fam, n, 1e-9)
    assert seen["x_min"] >= 0.0
    zs = zeros_raw(fam.kind, fam.alpha, fam.beta, n)
    assert seen["points"][0] == 0.0 and seen["points"][1:-1] == [z for z in zs if z > 0]
    if n % 2:
        assert zs[n // 2] == 0.0  # the exact zero at 0 is the first panel end
    lo, hi = fam.interval
    full, full_est = tanh_sinh_panels(
        _log_poly_panel(fam, n), [lo] + zs + [hi], tol=1e-9, edge_exponents=fam.edge_exponents
    )
    with mp.workprec(53):
        S_full = -mp.mpf(full) - _mean_log_weight(fam, n)[0]
        assert abs(S - S_full) <= est + full_est
    assert est <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 7, 12])
@pytest.mark.parametrize(
    "fam", [Family.hermite(), Family.jacobi(0.0, 0.0), Family.jacobi(2.0, 2.0)],
    ids=["hermite", "legendre", "jacobi2-2"],
)
def test_symmetric_fisher_integrates_the_half_line(fam, n, monkeypatch):
    # (rho')^2 / rho is even with the weight: the half line, doubled, meets
    # the closed form within the 1e-10 the numeric route accepts
    seen = {}
    monkeypatch.setattr(closed_form, "tanh_sinh_panels", _recording(seen))
    F = closed_form.fisher_information_numeric(fam, n)
    assert seen["x_min"] >= 0.0 and seen["points"][0] == 0.0
    assert abs(F - closed_form.fisher_information(fam, n, CTX)) <= 1e-10


def test_p0_outside_the_doubles_stays_on_float64():
    # p_0 = 1/sqrt(Gamma(302)) is about 3e-309, below the normal doubles:
    # _p0 returns it scaled into range with a negative rescaling count, which
    # poly_scaled starts from, so the float64 engine runs; the mpf values
    # are those of the mpf route at this tol
    p0, count = _p0("laguerre", 301.0, 0.0)
    assert count == -3 and 1e-50 < p0 < 1e50
    with mp.workprec(200):
        want = mp.power(mp.mpf(1.0 / _RESCALE), count) / mp.sqrt(
            norm_constant("laguerre", 301.0, 0.0, mp.prec)
        )
        assert abs(p0 - want) <= abs(want) * 2.0**-53
    assert _p0("laguerre", 300.0, 0.0)[1] == 0
    for n, ref in [(2, "4.70226912383446"), (80, "6.17456190525526")]:
        start = time.perf_counter()
        res = shannon_numeric(Family.laguerre(301.0), n)
        assert time.perf_counter() - start < 1
        assert res.path == "float64" and res.est_error <= 1e-9
        assert abs(res.entropy - mp.mpf(ref)) <= 1e-9
    # a start count past what the scale holds is refused, not wrapped
    with pytest.raises(PrecisionError, match="rescalings"):
        poly_scaled("laguerre", 1e8, 0.0, 2, np.array([1e8]))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
@pytest.mark.parametrize("n", [0, 1])
def test_bad_tolerance_is_rejected(tol, n):
    # a nan tolerance used to send the cell to the mpf route, which doubled
    # its precision without end
    start = time.perf_counter()
    with pytest.raises(ParameterError, match="tolerance"):
        shannon_numeric(Family.hermite(), n, tol=tol)
    assert time.perf_counter() - start < 1


def test_converged_panels_stop_refining():
    # Laguerre(2) n=48: every interior panel's level-4 difference is below
    # tol/(8P), so they stop there while the infinite panel goes on to 6
    fam, n, tol = Family.laguerre(2.0), 48, 1e-9
    f = _log_poly_panel(fam, n)
    nodes = {}

    def counted(i, a, b, x, dl, dr):
        # the nodes come one panel after another, in the order of i
        for k in i:
            nodes[k] = nodes.get(k, 0) + np.count_nonzero(a == pts[k])
        return f(i, a, b, x, dl, dr)

    pts = [0.0] + zeros_raw(fam.kind, fam.alpha, fam.beta, n) + [np.inf]
    val, est = tanh_sinh_panels(counted, pts, tol=tol, edge_exponents=fam.edge_exponents)
    # levels 0..L hold 2^(L+3) + 1 nodes
    assert [nodes[k] for k in range(n)] == [2**7 + 1] * n
    assert nodes[n] == 2**9 + 1
    assert est <= tol


#: The bounded Jacobi cells of the shannon-large-n benchmark workload.
LARGE_N_JACOBI = [
    (a, b, n)
    for a, b in [(0.0, 0.0), (0.0, 0.5), (0.0, 2.0), (0.5, 0.0), (2.0, 0.0),
                 (0.5, 0.5), (0.5, 2.0), (2.0, 0.5), (2.0, 2.0)]
    for n in (24, 28, 32, 36, 40, 48, 56, 64, 72, 84, 96, 112)
]


def test_per_panel_stop_keeps_jacobi_cells_bit_identical():
    # on tanh-sinh levels alone (no zero panels), every panel of these
    # cells stops at level 4, where the loop does, and the sums up to a
    # level do not change, so the integral is the one that the loop
    # refining all panels to the same level gives, bit for bit
    for a, b, n in LARGE_N_JACOBI:
        fam = Family.jacobi(a, b)
        pts, edges, factor, _ = _engine_panels(fam, n)
        args = (_log_poly_panel(fam, n), pts)
        kwargs = {"tol": 1e-9 / factor, "edge_exponents": edges}
        value, est = tanh_sinh_panels(*args, **kwargs)
        assert value == oracles.tanh_sinh_panels_global(*args, **kwargs)[0]
        assert est <= 1e-9 / factor


def test_jacobi_cells_are_within_their_estimate():
    # the shipped engine, zero panels on their Gauss pair, meets tol on
    # every cell, and it is within its estimate of the mpf route at the
    # smallest degree and, on two of the weights, at the largest
    ctx = PrecisionContext(bits=64)
    for a, b, n in LARGE_N_JACOBI:
        fam = Family.jacobi(a, b)
        S, est = _entropy_fast(fam, n, 1e-9)
        assert est <= 1e-9
        if n == 24 or (n == 112 and (a, b) in ((0.0, 0.0), (2.0, 0.5))):
            assert abs(S - _entropy_mpf(fam, n, ctx, 1e-13)[0]) <= est


def _counting(monkeypatch, module):
    """Patch ``module.poly_scaled`` to count its calls; zeros_raw's Newton
    step reads its own binding, so it is not counted."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.size(args[4]))
        return poly_scaled(*args, **kwargs)

    monkeypatch.setattr(module, "poly_scaled", counted)
    return calls


SINGLE_SWEEP = [
    (fam, n)
    for fam in (Family.hermite(), Family.laguerre(5.0), Family.jacobi(2.0, 0.5),
                Family.jacobi(-0.25, 0.5))
    for n in (24, 112)
]


@pytest.mark.parametrize(
    "fam,n", SINGLE_SWEEP, ids=[f"{f.describe()}-{n}" for f, n in SINGLE_SWEEP]
)
def test_float64_integrals_take_one_sweep(fam, n, monkeypatch):
    # every panel's first nodes, Gauss pairs and tanh-sinh levels alike, go
    # to the integrand in one call, and every panel converges there
    calls = _counting(monkeypatch, shannon)
    S, est = _entropy_fast(fam, n, 1e-9)
    assert len(calls) == 1 and est <= 1e-9
    if fam.kind != "jacobi":
        # F is finite here (the Jacobi exponents below 1 make it diverge)
        calls = _counting(monkeypatch, closed_form)
        F = closed_form.fisher_information_numeric(fam, n)
        assert len(calls) == 1
        assert abs(F - closed_form.fisher_information(fam, n, CTX)) <= 1e-10 * F


@pytest.mark.parametrize(
    "fam,n",
    [(Family.hermite(), 6), (Family.laguerre(2.0), 7), (Family.jacobi(2.0, 0.5), 8)],
    ids=lambda v: v.describe() if isinstance(v, Family) else str(v),
)
def test_zero_panel_fallback_stays_within_its_estimate(fam, n, monkeypatch):
    # a 4/8-node pair differs by far more than a panel's share of tol, so
    # the zero panels go on with tanh-sinh levels, in further sweeps, and
    # the value is still within its estimate of the mpf route
    monkeypatch.setattr(quadrature, "_GAUSS_PAIR", (4, 8))
    calls = _counting(monkeypatch, shannon)
    fast = shannon_numeric(fam, n, CTX, tol=1e-9)
    assert len(calls) >= 2 and fast.path == "float64"
    slow = shannon_numeric(fam, n, CTX, tol=1e-13)
    assert abs(fast.entropy - slow.entropy) <= fast.est_error


def test_negative_exponent_takes_float64_path():
    res = shannon_numeric(Family.jacobi(-0.5, -0.5), 2, CTX)
    assert mp.isfinite(res.entropy)
    assert res.est_error < mp.mpf(1e-8)
    assert res.path == "float64"


def _ground_state_entropy(fam):
    """Closed-form S of rho_0 = w / mu_0 for Laguerre and Jacobi."""
    a, b = mp.mpf(fam.alpha), mp.mpf(fam.beta)
    if fam.kind == "laguerre":
        return mp.loggamma(a + 1) - a * mp.digamma(a + 1) + a + 1
    ln2, psi_ab = mp.log(2), mp.digamma(a + b + 2)
    return (
        (a + b + 1) * ln2
        + mp.log(mp.beta(a + 1, b + 1))
        - a * (ln2 + mp.digamma(a + 1) - psi_ab)
        - b * (ln2 + mp.digamma(b + 1) - psi_ab)
    )


@pytest.mark.parametrize(
    "fam, path",
    [
        (Family.laguerre(-0.4), "float64"),
        (Family.laguerre(-0.25), "float64"),
        (Family.jacobi(-0.5, 0.0), "float64"),
        (Family.jacobi(-0.25, -0.25), "float64"),
        (Family.laguerre(-0.5), "float64"),
        # singular end on the right of the single n = 0 panel
        (Family.jacobi(-0.7, 2.0), "float64"),
        (Family.jacobi(2.0, -0.7), "float64"),
        # the mass beyond the outermost node is too large for tol = 1e-9
        (Family.laguerre(-0.7), "mpf"),
        (Family.jacobi(-0.9, 0.5), "mpf"),
    ],
)
def test_negative_exponent_ground_states(fam, path):
    # the engines at n = 0, where shannon_numeric takes no integral: the
    # float64 one first, and the mpf one where its estimate exceeds tol
    S, est = _entropy_fast(fam, 0, 1e-9)
    assert (est <= 1e-9) == (path == "float64")
    if path == "mpf":
        S, est = _entropy_mpf(fam, 0, FAST, 1e-9)
    with mp.workprec(CTX.bits):
        err = abs(S - _ground_state_entropy(fam))
    assert err <= 1e-9
    if path == "float64":
        assert err <= est <= 1e-9


@pytest.mark.parametrize("bits", [53, 128, 256])
@pytest.mark.parametrize(
    "fam",
    [
        Family.laguerre(-0.99),
        Family.laguerre(300.0),
        Family.jacobi(-0.9, 0.5),
        Family.jacobi(100.0, 100.0),
        Family.jacobi(-0.5, -0.5),
        Family.jacobi(1e-300, 5.0),
    ],
    ids=lambda f: f.describe(),
)
def test_ground_state_takes_no_integral(fam, bits):
    # S_0 = ln mu_0 - <ln w>_0 at ctx.bits, within its rounding-level
    # estimate of the 512-bit closed form, whatever tol; these exponents
    # took the mpf fallback, or failed in it, when n = 0 was integrated.
    # The estimate scales with the terms, up to 2000 at Laguerre(300).
    ctx = PrecisionContext(bits=bits)
    res = shannon_numeric(fam, 0, ctx, tol=1e-13)
    assert res.path == "exact"
    assert res.est_error <= mp.ldexp(1, 16 - bits) * 2000
    with mp.workprec(512):
        assert abs(res.entropy - _ground_state_entropy(fam)) <= res.est_error
        assert abs(res.length - mp.exp(_ground_state_entropy(fam))) <= 2 * res.est_error * res.length


@pytest.mark.parametrize(
    "fam", [Family.laguerre(-0.7), Family.jacobi(-0.25, -0.25)]
)
def test_negative_exponent_float64_matches_mpf(fam):
    fast = shannon_numeric(fam, 5, FAST, tol=1e-9)
    slow = shannon_numeric(fam, 5, FAST, tol=1e-13)
    assert (fast.path, slow.path) == ("float64", "mpf")
    assert abs(fast.entropy - slow.entropy) <= fast.est_error <= 1e-9


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(
    kind=st.sampled_from(["laguerre", "jacobi"]),
    alpha=st.floats(-0.4, 3.0),
    beta=st.floats(-0.4, 3.0),
    n=st.integers(0, 8),
)
def test_float64_path_ignores_ambient_precision(kind, alpha, beta, n):
    fam = Family.laguerre(alpha) if kind == "laguerre" else Family.jacobi(alpha, beta)
    with mp.workprec(53):
        low = shannon_numeric(fam, n, CTX, tol=1e-9)
    with mp.workprec(1024):
        high = shannon_numeric(fam, n, CTX, tol=1e-9)
    assert low.path == ("exact" if n == 0 else "float64")
    assert (low.entropy, low.length, low.est_error) == (
        high.entropy, high.length, high.est_error
    )


def test_reflection_invariance():
    a = shannon_numeric(Family.jacobi(2.0, 5.0), 6, CTX)
    b = shannon_numeric(Family.jacobi(5.0, 2.0), 6, CTX)
    assert abs(a.entropy - b.entropy) < mp.mpf(1e-9)


def test_asymptotic_displays():
    with mp.workprec(CTX.bits):
        h = shannon_asymptotic(Family.hermite(), 50)
        assert abs(h.entropy - (mp.log(mp.sqrt(100)) + mp.log(mp.pi) - 1)) < mp.mpf(1e-30)
        l = shannon_asymptotic(Family.laguerre(2.0), 50)
        want = 3 * mp.log(50) - 2 * mp.digamma(mp.mpf(53)) - 1 + mp.log(2 * mp.pi)
        assert abs(l.entropy - want) < mp.mpf(1e-28)
        j = shannon_asymptotic(Family.jacobi(1.0, 3.0), 50)
        assert abs(j.entropy - (mp.log(mp.pi) - 1)) < mp.mpf(1e-30)
    assert h.method == "asymptotic"
    assert h.est_error == mp.inf


def test_asymptotic_rejects_degree_zero_on_unbounded_families():
    with pytest.raises(ParameterError):
        shannon_asymptotic(Family.hermite(), 0)
    with pytest.raises(ParameterError):
        shannon_asymptotic(Family.laguerre(1.0), 0)
    # bounded support: the constant applies at every n
    assert shannon_asymptotic(Family.jacobi(0.0, 0.0), 0).entropy == mp.log(mp.pi) - 1


def test_ratio_constant_value():
    with mp.workprec(CTX.bits):
        assert abs(ratio_constant() - mp.pi * mp.sqrt(2) / mp.e) == 0
        assert abs(ratio_constant() - mp.mpf("1.63444529")) < mp.mpf(1e-8)


def test_hermite_bound_saturated_by_gaussian():
    # at n=0, k=2 the bound equals sqrt(pi e) = N exactly
    with mp.workprec(CTX.bits):
        bound = shannon_bound_hermite(0, 2, CTX)
        assert abs(bound - mp.sqrt(mp.pi * mp.e)) < mp.mpf(1e-30)
    val, k = optimize_bound(Family.hermite(), 0, CTX)
    assert k == 2
    assert abs(val - bound) == 0


def test_hermite_bound_rejects_odd_or_small_k():
    with pytest.raises(ParameterError):
        shannon_bound_hermite(1, 3, CTX)
    with pytest.raises(ParameterError):
        shannon_bound_hermite(1, 0, CTX)


def test_laguerre_bound_saturated_by_exponential():
    # at n=0, alpha=0, b=1 the bound equals e = N exactly
    with mp.workprec(CTX.bits):
        bound = shannon_bound_laguerre(0, 0.0, 1.0, CTX)
        assert abs(bound - mp.e) < mp.mpf(1e-30)
    with pytest.raises(ParameterError):
        shannon_bound_laguerre(0, 0.0, 0.0, CTX)


def test_bounds_dominate_numeric_length():
    for fam, n in [
        (Family.hermite(), 5),
        (Family.laguerre(0.0), 4),
        (Family.laguerre(5.0), 7),
    ]:
        N = shannon_numeric(fam, n, FAST).length
        val, _ = optimize_bound(fam, n, FAST)
        assert N <= val
    assert shannon_numeric(Family.jacobi(0.5, 2.0), 9, FAST).length <= jacobi_trivial_bound()


@pytest.mark.parametrize("n", [5, 10, 20])
def test_hermite_bound_is_minimal_over_the_even_k(n):
    # the search used to stop at the end of a fixed range, k = 12, where
    # n = 10 reads 10.4759 against 10.2738 at k = 22
    value, k = optimize_bound(Family.hermite(), n, FAST)
    assert value == shannon_bound_hermite(n, k, FAST)
    assert value <= shannon_bound_hermite(n, k + 2, FAST)
    assert k == 2 or value <= shannon_bound_hermite(n, k - 2, FAST)
    assert value <= min(shannon_bound_hermite(n, j, FAST) for j in range(2, 81, 2))


@pytest.mark.parametrize("alpha", [0.0, 5.0, -0.9])
@pytest.mark.parametrize("n", [0, 20, 40])
def test_laguerre_bound_is_minimal_over_b(alpha, n):
    # the search used to stop at the ends of the fixed bracket (0.05, 20),
    # short of b = 0.011 at alpha = -0.9, n = 0 and of b = 37 at alpha = 0,
    # n = 40; a float64 objective resolves the bound to about 1e-16
    # relative, hence the 1e-15 allowance against the scan
    value, b = optimize_bound(Family.laguerre(alpha), n, FAST)

    def bound(b):
        return shannon_bound_laguerre(n, alpha, b, FAST)

    assert value == bound(b)
    assert value <= bound(b * 0.95) and value <= bound(b * 1.05)
    scan = min(bound(10.0 ** (j / 10)) for j in range(-30, 31))
    with mp.workprec(FAST.bits):
        assert value <= scan * (1 + mp.mpf(1e-15))


def test_laguerre_bound_search_builds_no_gauss_rule():
    misses = _standard_rule.cache_info().misses
    optimize_bound(Family.laguerre(5.0), 40, FAST)
    assert _standard_rule.cache_info().misses == misses


def test_laguerre_ground_state_bound_meets_e():
    # the bound is e exactly at b = 1; a search stopped at xatol 1e-5 read
    # 7.4e-13 relative above it
    value, b = optimize_bound(Family.laguerre(0.0), 0, FAST)
    with mp.workprec(FAST.bits):
        assert abs(value / mp.e - 1) < 1e-15
    assert abs(b - 1) < 1e-7


def test_jacobi_trivial_bound_value():
    assert jacobi_trivial_bound() == 2


def test_inequality_audit_gaussian_saturation():
    # Delta x = 1/sqrt(2) at n=0, so sqrt(2 pi e)*Delta x = sqrt(pi e) = N
    audit = shannon_inequality_check(Family.hermite(), 0, CTX)
    assert isinstance(audit, InequalityAudit)
    assert bool(audit)
    with mp.workprec(CTX.bits):
        assert abs(audit.lhs - audit.rhs) < mp.mpf(1e-7)


def test_inequality_strict_away_from_ground_state():
    audit = shannon_inequality_check(Family.laguerre(2.0), 3, FAST)
    assert audit.ok
    assert audit.rhs - audit.lhs > mp.mpf("0.1")


def test_result_validation():
    with pytest.raises(ParameterError):
        ShannonResult(mp.mpf(0), mp.mpf(0), "numeric", mp.mpf(1e-9))
    with pytest.raises(ParameterError):
        ShannonResult(mp.mpf(1), mp.exp(1), "numeric", mp.mpf(0), "float64")
    with pytest.raises(ParameterError):
        ShannonResult(mp.mpf(1), mp.exp(1), "numeric", mp.mpf(1e-9))
    with pytest.raises(ParameterError):
        ShannonResult(mp.mpf(1), mp.exp(1), "asymptotic", mp.inf, "mpf")
