"""Shannon entropy of the squared-polynomial densities: numeric values
against exactly known ground states, large-n displays, and entropy bounds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from spreadpoly.context import ParameterError, PrecisionContext
from spreadpoly.families import Family, norm_constant
from spreadpoly._vec import _LOG_RESCALE, _RESCALE
from spreadpoly.orthopoly import evaluate_recurrence, zeros
from spreadpoly.shannon import (
    InequalityAudit,
    ShannonResult,
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
    (Family.jacobi(0.0, 0.0), 0),
    (Family.jacobi(0.0, 0.0), 5),
    (Family.jacobi(2.0, 2.0), 0),
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


@pytest.mark.parametrize("n", range(3))
@pytest.mark.parametrize(
    "fam", [Family.laguerre(200.0), Family.jacobi(100.0, 100.0)], ids=lambda f: f.describe()
)
def test_large_exponent_fast_path_matches_mpf(fam, n):
    # mu_0 is past the largest double; the float64 engine starts from p_0
    fast = shannon_numeric(fam, n, CTX, tol=1e-9)
    slow = shannon_numeric(fam, n, CTX, tol=1e-13)
    assert fast.path == "float64"
    assert abs(fast.entropy - slow.entropy) <= mp.mpf(1e-9)


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
    res = shannon_numeric(fam, n, CTX)
    assert res.path == "float64"
    with mp.workprec(256):
        if ref is None:
            mu0 = norm_constant(fam.kind, fam.alpha, fam.beta)
            want = mp.log(mu0) - _mean_log_weight(fam, 0)[0]
        else:
            want = mp.mpf(ref)
        assert abs(res.entropy - want) <= res.est_error


def test_log_scale_error_is_within_its_counted_share():
    # poly_scaled adds _LOG_RESCALE once per rescaling by 1/_RESCALE; the
    # float sum after k of them, shared by every node rescaled k times, is
    # within 1.2u of its size of the scale the values carry
    total = 0.0
    with mp.workprec(200):
        step = -mp.log(mp.mpf(1.0 / _RESCALE))
        for k in range(1, 20):
            total += _LOG_RESCALE
            assert abs(mp.mpf(total) - k * step) <= 1.2 * 2.0**-53 * total


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
    res = shannon_numeric(fam, 0, FAST, tol=1e-9)
    assert res.path == path
    with mp.workprec(CTX.bits):
        err = abs(res.entropy - _ground_state_entropy(fam))
    assert err <= 1e-9
    if path == "float64":
        assert err <= res.est_error <= 1e-9


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
    assert low.path == "float64"
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
    val, k = optimize_bound(Family.hermite(), 0, None, CTX)
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
        val, _ = optimize_bound(fam, n, None, FAST)
        assert N <= val
    assert shannon_numeric(Family.jacobi(0.5, 2.0), 9, FAST).length <= jacobi_trivial_bound()


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
