"""Orthonormal polynomial construction against independent oracles.

The recurrence route is cross-checked against scipy's classical
evaluations (normalized by the textbook norm constants) and against the
explicit coefficient route; zeros against scipy's Gauss nodes and the
closed Chebyshev form; the eigenvalue seeds of the zeros against scipy's
tridiagonal solver, bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy import special
from scipy.linalg import eigh_tridiagonal

import oracles
from spreadpoly import orthopoly
from spreadpoly._vec import _p0, poly_scaled
from spreadpoly.context import ParameterError, PrecisionContext, PrecisionError
from spreadpoly.families import (
    Family,
    RenyiOrder,
    exact_recurrence,
    norm_constant,
    raw_recurrence,
)
from spreadpoly.orthopoly import (
    _FIXED_GUARD,
    _fixed_rows,
    _fixed_table,
    _gauss_polish,
    evaluate_recurrence,
    orthonormal_coeffs,
    zeros,
    zeros_raw,
)
from spreadpoly.bell import polynomial_power_coeffs, renyi_length_bell
from spreadpoly.closed_form import (
    fisher_information,
    fisher_information_numeric,
    fisher_truncated,
    moment,
    moment_quadrature,
    stddev,
)
from spreadpoly.lauricella import laguerre_power_integral_lauricella
from spreadpoly.quadrature import _power_exponents, gauss_rule, integrate_density_power
from spreadpoly.shannon import optimize_bound, shannon_asymptotic, shannon_numeric

CTX = PrecisionContext()

XS = [-2.3, -0.9, -0.2, 0.1, 0.7, 1.9]


def _polyval(coeffs, x):
    acc = mp.mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@pytest.mark.parametrize("n", range(0, 7))
def test_hermite_matches_scipy(n):
    norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    for x in XS:
        want = special.eval_hermite(n, x) / norm
        got = float(evaluate_recurrence(Family.hermite(), n, x))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0, 5.0, -0.5])
@pytest.mark.parametrize("n", [0, 1, 3, 6])
def test_laguerre_matches_scipy(alpha, n):
    norm = math.sqrt(
        special.gamma(n + alpha + 1) / math.factorial(n)
    )
    # classical L_n has leading sign (-1)^n; ours is leading-positive
    for x in [0.05, 0.7, 2.1, 9.3]:
        want = (-1.0) ** n * special.eval_genlaguerre(n, alpha, x) / norm
        got = float(evaluate_recurrence(Family.laguerre(alpha), n, x))
        assert got == pytest.approx(want, rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("ab", [(0.0, 0.0), (0.5, 0.5), (2.0, 5.0), (-0.5, 2.0)])
@pytest.mark.parametrize("n", [0, 1, 4])
def test_jacobi_matches_scipy(ab, n):
    a, b = ab
    h = (
        2.0 ** (a + b + 1)
        / (2 * n + a + b + 1)
        * special.gamma(n + a + 1)
        * special.gamma(n + b + 1)
        / (special.gamma(n + a + b + 1) * math.factorial(n))
    )
    for x in [-0.8, -0.15, 0.3, 0.95]:
        want = special.eval_jacobi(n, a, b, x) / math.sqrt(h)
        got = float(evaluate_recurrence(Family.jacobi(a, b), n, x))
        assert got == pytest.approx(want, rel=1e-11, abs=1e-12)


@pytest.mark.parametrize(
    "family",
    [
        Family.hermite(),
        Family.laguerre(0.0),
        Family.laguerre(-0.5),
        Family.jacobi(2.0, 5.0),
        Family.jacobi(-0.5, -0.5),
        Family.jacobi(0.25, 0.25),
    ],
)
@pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
def test_explicit_coeffs_match_recurrence(family, n):
    coeffs = orthonormal_coeffs(family, n, CTX)
    assert len(coeffs) == n + 1
    assert coeffs[-1] > 0
    with mp.workprec(CTX.bits):
        for x in (mp.mpf("-0.37"), mp.mpf("0.61"), mp.mpf("1.9")):
            a = _polyval(coeffs, x)
            b = evaluate_recurrence(family, n, x)
            assert abs(a - b) <= mp.mpf(2) ** (40 - CTX.bits) * max(1, abs(b))


def test_hermite_parity_zeros_exact():
    coeffs = orthonormal_coeffs(Family.hermite(), 6, CTX)
    assert all(coeffs[t] == 0 for t in (1, 3, 5))
    coeffs = orthonormal_coeffs(Family.hermite(), 5, CTX)
    assert all(coeffs[t] == 0 for t in (0, 2, 4))


def test_symmetric_jacobi_parity_zeros_exact():
    coeffs = orthonormal_coeffs(Family.jacobi(-0.5, -0.5), 5, CTX)
    assert all(coeffs[t] == 0 for t in (0, 2, 4))
    coeffs = orthonormal_coeffs(Family.jacobi(0.5, 0.5), 4, CTX)
    assert all(coeffs[t] == 0 for t in (1, 3))


def test_chebyshev_case_has_no_pole():
    # alpha + beta = -1 makes the raw normalization display 0/0 at n=0
    c = orthonormal_coeffs(Family.jacobi(-0.5, -0.5), 0, CTX)
    with mp.workprec(CTX.bits):
        assert abs(c[0] - 1 / mp.sqrt(mp.pi)) < mp.mpf(2) ** (20 - CTX.bits)


def test_recurrence_tables_are_kept_per_precision():
    fam = Family.jacobi(-0.25, 0.5)
    _fixed_rows.cache_clear()
    with mp.workprec(64):
        low = evaluate_recurrence(fam, 9, mp.mpf(1) / 3)
    with mp.workprec(512):
        high = evaluate_recurrence(fam, 9, mp.mpf(1) / 3)
    assert _fixed_rows.cache_info().misses == 2
    _fixed_rows.cache_clear()
    with mp.workprec(512):
        assert evaluate_recurrence(fam, 9, mp.mpf(1) / 3) == high
    assert abs(high - low) > 0


#: (family, 2q, bits) of the growth check of the J' rows: w^q of Hermite,
#: Laguerre and Jacobi, whose exponents alpha q are exact mpf values.
GROWN_ROWS = [
    (Family.hermite(), 3, 180),
    (Family.laguerre(0.1), 6, 180),
    (Family.laguerre(-0.5), 3, 300),
    (Family.jacobi(-0.25, 0.5), 3, 180),
    (Family.jacobi(-0.5, -0.5), 2, 180),
]


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    cell=st.sampled_from(GROWN_ROWS),
    counts=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=6),
)
def test_rows_grown_in_any_order_equal_a_fresh_build(cell, counts):
    # J' of w^q and the fixed-point table of w: asked for counts in any
    # order, each read is the head of the rows one build at 30 writes
    fam, two_q, prec = cell
    alpha, beta = _power_exponents(fam, RenyiOrder(two_q))
    jkey = (fam.kind, alpha, beta, two_q, prec)
    fkey = (fam.kind, fam.alpha, fam.beta, prec)
    jfresh = orthopoly._jacobi_rows.__wrapped__(*jkey).head(30)
    ffresh = orthopoly._fixed_rows.__wrapped__(*fkey).head(30)
    orthopoly._jacobi_rows.cache_clear()
    orthopoly._fixed_rows.cache_clear()
    for m in counts + [30]:
        jdiag, joff = orthopoly._jacobi_fixed(fam.kind, alpha, beta, m, two_q, prec)
        assert jdiag == jfresh[0][:m] and joff == jfresh[1][:m] + (0,)
        assert _fixed_table(*fkey[:3], m, prec)[:2] == tuple(c[:m] for c in ffresh)
    assert orthopoly._jacobi_rows.cache_info().misses == 1
    assert orthopoly._fixed_rows.cache_info().misses == 1


EXPONENT = st.floats(min_value=-1.0, max_value=6.0, exclude_min=True)


def _within_ulp(got: float, ref) -> bool:
    """|got - ref| is at most one ulp of ``ref`` rounded to a double."""
    return abs(got - ref) <= math.ulp(float(ref))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    kind=st.sampled_from(["hermite", "laguerre", "jacobi"]),
    alpha=EXPONENT,
    beta=EXPONENT,
    count=st.integers(min_value=1, max_value=200),
)
@example(kind="jacobi", alpha=-0.999999, beta=-0.9999993, count=12)
def test_float_table_is_the_exact_table_rounded_once(kind, alpha, beta, count):
    # Each a_k is num/den bit for bit (int / int rounds once), each b_k the
    # root of b_k^2 so rounded: within 1 ulp of the 1024-bit root and of the
    # 1024-bit textbook table; p_0 within 1 ulp of the 200-bit value.  The
    # example has alpha + beta + 2 = 1.7e-6, where float formulas that form
    # alpha + beta + 2 cancel before the divisions see it.
    alpha = 0.0 if kind == "hermite" else alpha
    beta = beta if kind == "jacobi" else 0.0
    diag, off = raw_recurrence(kind, alpha, beta, count)
    ediag, eoffsq = exact_recurrence(kind, alpha, beta, count)
    assert len(diag) == len(off) == count
    assert all(type(v) is float for v in diag + off)
    assert all(got == num / den for got, (num, den) in zip(diag, ediag))
    p0, count = _p0(kind, alpha, beta)
    assert count == 0  # p_0 is a normal double here
    with mp.workprec(1024):
        roots = [mp.sqrt(mp.mpf(num) / den) for num, den in eoffsq]
        assert all(_within_ulp(got, ref) for got, ref in zip(off, roots))
        mdiag, moff = oracles.raw_recurrence(kind, alpha, beta, count)
        assert all(_within_ulp(got, ref) for got, ref in zip(diag + off, mdiag + moff))
    with mp.workprec(200):
        assert _within_ulp(p0, 1 / mp.sqrt(norm_constant(kind, alpha, beta, mp.prec)))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    kind=st.sampled_from(["hermite", "laguerre", "jacobi"]),
    alpha=EXPONENT,
    beta=EXPONENT,
    two_q=st.integers(min_value=1, max_value=6),
    count=st.integers(min_value=1, max_value=80),
)
@example(kind="jacobi", alpha=-0.999999, beta=-0.9999993, two_q=2, count=12)
@example(kind="jacobi", alpha=-0.5, beta=-0.5, two_q=2, count=12)
@example(kind="jacobi", alpha=-0.25, beta=-0.75, two_q=2, count=12)
@example(kind="laguerre", alpha=5.676273374965172, beta=0.0, two_q=3, count=30)
@example(kind="laguerre", alpha=1e-300, beta=0.0, two_q=4, count=81)
def test_exact_table_is_the_recurrence(kind, alpha, beta, two_q, count):
    # the exponents of w^q as quadrature hands them over (exact mpf values
    # alpha q, beta q); each exact a_k and b_k^2 against the 1024-bit table,
    # each fixed-point entry the nearest integer to v 2^P, and h_{count-1}
    # against mu_0 b_1^2 ... b_{count-1}^2 at 1024 bits
    alpha = 0.0 if kind == "hermite" else alpha
    beta = beta if kind == "jacobi" else 0.0
    assume(alpha * two_q > -2 and beta * two_q > -2)
    family = Family(kind, alpha, beta)
    a, b = _power_exponents(family, RenyiOrder(two_q).q)
    diag, offsq = exact_recurrence(kind, a, b, count)
    assert len(diag) == len(offsq) == count and offsq[0][0] == 0
    assert all(den > 0 for _, den in diag + offsq)
    with mp.workprec(1024):
        mdiag, moff = oracles.raw_recurrence(kind, a, b, count)
        tol = mp.mpf(2) ** -1000
        for (num, den), ref in zip(diag, mdiag):
            assert abs(mp.mpf(num) / den - ref) <= tol * abs(ref)
        for (num, den), ref in zip(offsq, moff):
            assert abs(mp.mpf(num) / den - ref**2) <= tol * ref**2
        h_ref = norm_constant(kind, a, b, mp.prec) * mp.fprod(v**2 for v in moff[1:])
    prec = 200
    fixed = prec + _FIXED_GUARD
    fdiag, foffsq, h = _fixed_table(kind, a, b, count, prec)
    for v, (num, den) in zip(fdiag + foffsq, diag + offsq):
        assert abs(2 * v * den - (num << (fixed + 1))) <= den
    with mp.workprec(1024):
        assert abs(h - h_ref) <= (2 * count + 8) * mp.mpf(2) ** -prec * h_ref


def test_zeros_count_interval_and_symmetry():
    zs = zeros(Family.hermite(), 8, CTX)
    assert len(zs) == 8
    assert all(zs[i] < zs[i + 1] for i in range(7))
    assert all(abs(zs[i] + zs[7 - i]) == 0 for i in range(8))
    zj = zeros(Family.jacobi(2.0, 5.0), 6, CTX)
    assert all(-1 < z < 1 for z in zj)


def test_zeros_match_scipy_gauss_nodes():
    zs = [float(z) for z in zeros(Family.hermite(), 8, CTX)]
    ref, _ = special.roots_hermite(8)
    assert np.allclose(zs, ref, rtol=0, atol=1e-12)
    zs = [float(z) for z in zeros(Family.laguerre(0.5), 7, CTX)]
    ref, _ = special.roots_genlaguerre(7, 0.5)
    assert np.allclose(zs, ref, rtol=1e-12, atol=1e-13)


def test_chebyshev_zeros_closed_form():
    n = 9
    zs = zeros(Family.jacobi(-0.5, -0.5), n, CTX)
    with mp.workprec(CTX.bits):
        for k, z in enumerate(zs):
            want = -mp.cos((2 * k + 1) * mp.pi / (2 * n))
            assert abs(z - want) < mp.mpf(2) ** (30 - CTX.bits)


def test_zeros_interlace():
    z5 = zeros(Family.laguerre(2.0), 5, CTX)
    z6 = zeros(Family.laguerre(2.0), 6, CTX)
    for i in range(5):
        assert z6[i] < z5[i] < z6[i + 1]


#: The bounded families of the large-degree Shannon sweep.
BOUNDED = [("hermite", 0.0, 0.0)] + [("laguerre", a, 0.0) for a in (0.0, 0.5, 2.0, 5.0)] + [
    ("jacobi", a, b) for a in (0.0, 0.5, 2.0) for b in (0.0, 0.5, 2.0)
]


@pytest.mark.parametrize("kind,alpha,beta", BOUNDED)
def test_float_zeros_match_mpf_zeros(kind, alpha, beta):
    eps = np.finfo(float).eps
    for n in (1, 2, 3, 24, 64, 112):
        got = zeros_raw(kind, alpha, beta, n)
        ref = _gauss_polish(kind, alpha, beta, n, 256)[0]
        assert len(got) == n and all(type(z) is float for z in got)
        scale = max(1.0, max(abs(float(z)) for z in ref))
        with mp.workprec(300):
            worst = max(abs(mp.mpf(z) - r) for z, r in zip(got, ref))
        assert worst <= 4 * eps * scale, (n, float(worst) / (eps * scale))
        assert all(lo < hi for lo, hi in zip(got, got[1:]))
        if kind == "hermite" or (kind == "jacobi" and alpha == beta):
            assert got == [-z for z in reversed(got)]


@pytest.mark.parametrize("kind,alpha,beta", BOUNDED)
def test_float_zeros_take_one_newton_step(monkeypatch, kind, alpha, beta):
    # from eigenvalue seeds the ODE's bound on the next error settles every
    # zero after the first step: one poly_scaled call, no confirming pass
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return poly_scaled(*args, **kwargs)

    monkeypatch.setattr("spreadpoly.orthopoly.poly_scaled", counted)
    for n in (24, 64, 112):
        zeros_raw(kind, alpha, beta, n)
    assert calls == [24, 64, 112]


def test_float_zeros_fail_loudly(monkeypatch):
    with pytest.raises(ParameterError):
        zeros_raw("laguerre", -1.0, 0.0, 3)
    with pytest.raises(ParameterError):
        zeros_raw("jacobi", 0.0, -1.5, 3)
    # seeds 1e-4 off: one step leaves about c 1e-8 of error, far above the
    # stopping test, so a single allowed step fails and the default settles
    ref = np.array(zeros_raw("hermite", 0.0, 0.0, 24))
    seeds = orthopoly._eigen_seeds
    monkeypatch.setattr(orthopoly, "_eigen_seeds", lambda d, e: seeds(d, e) * (1 + 1e-4))
    got = np.array(zeros_raw("hermite", 0.0, 0.0, 24))
    assert np.max(np.abs(got - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(ref))
    monkeypatch.setattr(orthopoly, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(PrecisionError, match="did not settle"):
        zeros_raw("hermite", 0.0, 0.0, 24)


#: The weights of the seed oracle: Hermite, six Laguerre and 25 Jacobi.
SEED_EXPONENTS = (-0.9, -0.25, 0.0, 0.5, 2.0)
SEED_WEIGHTS = (
    [("hermite", 0.0, 0.0)]
    + [("laguerre", a, 0.0) for a in (0.0, 0.5, 2.0, 5.0, -0.25, -0.9)]
    + [("jacobi", a, b) for a in SEED_EXPONENTS for b in SEED_EXPONENTS]
)


@pytest.mark.parametrize("kind,alpha,beta", SEED_WEIGHTS)
def test_eigen_seeds_match_the_tridiagonal_solver_bit_for_bit(kind, alpha, beta):
    # the dense LAPACK route reduces nothing and ends in the dsterf of
    # scipy's route, so the float table gives the same bits
    diag, off = raw_recurrence(kind, alpha, beta, 400)
    for n in [*range(1, 41), 64, 112, 400]:
        d, e = np.array(diag[:n]), np.array(off[1:n])
        got = orthopoly._eigen_seeds(d, e)
        want = eigh_tridiagonal(d, e, eigvals_only=True)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), n


def test_eigen_seeds_fail_as_precision_errors(monkeypatch):
    def no_convergence(a, UPLO):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(PrecisionError, match="eigenvalue solve failed: Eigenvalues did not"):
        zeros_raw("hermite", 0.0, 0.0, 3)


#: Symmetric weights, one of them with exponents shifted to exact mpf values
#: as the Rényi rules of w^q have them.
SYMMETRIC = [("hermite", 0.0, 0.0), ("jacobi", 0.5, 0.5), ("jacobi", mp.mpf(-0.75), mp.mpf(-0.75))]


@pytest.mark.parametrize("kind,alpha,beta", SYMMETRIC)
def test_symmetric_gauss_rules_are_exactly_mirrored(kind, alpha, beta):
    for m in (1, 2, 7, 40):
        for bits in (53, 256):
            nodes, weights = _gauss_polish(kind, alpha, beta, m, bits)
            with mp.workprec(bits + 20):  # negation rounds to the active precision
                assert nodes == [-x for x in reversed(nodes)]
            assert weights == weights[::-1]
            if m % 2:
                assert nodes[m // 2] == 0
            assert all(w > 0 for w in weights)


def test_gauss_polish_fails_loudly(monkeypatch):
    # at 256 bits no node of this rule settles in one pass from its seed
    monkeypatch.setattr("spreadpoly.orthopoly._POLISH_MAX_PASSES", 1)
    with pytest.raises(PrecisionError, match=r"5-point jacobi rule \(alpha=2.0, beta=0.5\).* 256 bits"):
        _gauss_polish("jacobi", 2.0, 0.5, 5, 256)
    with pytest.raises(PrecisionError, match="did not settle in 1 passes"):
        zeros(Family.laguerre(1.5), 4, PrecisionContext(bits=256))


def test_degree_validation():
    with pytest.raises(ParameterError):
        orthonormal_coeffs(Family.hermite(), -1, CTX)


def test_coefficients_round_once_to_context_bits():
    # exact integers times one constant: no escalation, one rounding
    for family in (Family.hermite(), Family.laguerre(0.3), Family.jacobi(-0.7, 2.0)):
        for n in (2, 9, 30):
            low = orthonormal_coeffs(family, n, PrecisionContext(bits=53))
            high = orthonormal_coeffs(family, n, PrecisionContext(bits=512))
            with mp.workprec(53):
                assert low == tuple(+c for c in high), (family, n)


@pytest.mark.parametrize(
    "family", [Family.hermite(), Family.laguerre(0.5), Family.jacobi(0.5, -0.25)],
    ids=lambda f: f.describe(),
)
@pytest.mark.parametrize(
    "entry",
    [
        lambda f: evaluate_recurrence(f, -1, 0.3),
        lambda f: moment_quadrature(f, -1, 4),
        lambda f: fisher_information_numeric(f, -1),
        lambda f: integrate_density_power(f, -1, 2),
        # the Laguerre weight of the family's alpha
        lambda f: laguerre_power_integral_lauricella(-1, f.alpha, 2),
        lambda f: renyi_length_bell(f, -1, "3/2"),
        lambda f: shannon_asymptotic(f, -1),
        lambda f: stddev(f, -1),
        lambda f: fisher_information(f, -1),
        lambda f: moment(f, -1, 2),
        lambda f: shannon_numeric(f, -1),
    ],
    ids=[
        "evaluate_recurrence", "moment_quadrature", "fisher_numeric", "gauss_power", "lauricella",
        "odd_length", "shannon_asymptotic", "stddev", "fisher", "moment", "shannon_numeric",
    ],
)
def test_negative_degree_is_refused(family, entry):
    with pytest.raises(ParameterError, match="degree must be nonnegative"):
        entry(family)


@pytest.mark.parametrize(
    "entry,message",
    [
        (lambda: Family("hermite", 1.0), "hermite takes no parameters"),
        (lambda: Family("laguerre", 1.0, 2.0), "laguerre takes a single parameter alpha"),
        (lambda: zeros(Family.hermite(), 0), "zeros need degree >= 1"),
        (lambda: gauss_rule(Family.hermite(), 0), "rule needs at least one node"),
        (lambda: polynomial_power_coeffs((1, 2), -1), "power must be nonnegative"),
        # the first zero of L_40^(1/2) lies within 0.1 of the end
        (lambda: fisher_truncated(Family.laguerre(0.5), 40, 0.1), "reaches past the first zero"),
        (lambda: optimize_bound(Family.jacobi(2.0, 2.0), 3), "hermite and laguerre only"),
    ],
    ids=["hermite-alpha", "laguerre-beta", "zeros", "gauss_rule", "power", "fisher_truncated",
         "optimize_bound"],
)
def test_arguments_out_of_domain_are_refused(entry, message):
    with pytest.raises(ParameterError, match=message):
        entry()
