"""Orthonormal polynomial construction against independent oracles.

The recurrence route is cross-checked against scipy's classical
evaluations (normalized by the textbook norm constants) and against the
explicit coefficient route; zeros against scipy's Gauss nodes and the
closed Chebyshev form.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy import special

from spreadpoly.context import ParameterError, PrecisionContext
from spreadpoly.families import Family, norm_constant, recurrence_table
from spreadpoly.orthopoly import (
    evaluate_recurrence,
    evaluate_with_derivative,
    orthonormal_coeffs,
    zeros,
    zeros_raw,
)

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
    pc = orthonormal_coeffs(family, n, CTX)
    assert pc.degree == n
    coeffs = pc.coeffs
    assert len(coeffs) == n + 1
    assert coeffs[-1] > 0
    with mp.workprec(CTX.bits):
        for x in (mp.mpf("-0.37"), mp.mpf("0.61"), mp.mpf("1.9")):
            a = _polyval(coeffs, x)
            b = evaluate_recurrence(family, n, x)
            assert abs(a - b) <= mp.mpf(2) ** (40 - CTX.bits) * max(1, abs(b))


def test_hermite_parity_zeros_exact():
    coeffs = orthonormal_coeffs(Family.hermite(), 6, CTX).coeffs
    assert all(coeffs[t] == 0 for t in (1, 3, 5))
    coeffs = orthonormal_coeffs(Family.hermite(), 5, CTX).coeffs
    assert all(coeffs[t] == 0 for t in (0, 2, 4))


def test_symmetric_jacobi_parity_zeros_exact():
    coeffs = orthonormal_coeffs(Family.jacobi(-0.5, -0.5), 5, CTX).coeffs
    assert all(coeffs[t] == 0 for t in (0, 2, 4))
    coeffs = orthonormal_coeffs(Family.jacobi(0.5, 0.5), 4, CTX).coeffs
    assert all(coeffs[t] == 0 for t in (1, 3))


def test_chebyshev_case_has_no_pole():
    # alpha + beta = -1 makes the raw normalization display 0/0 at n=0
    c = orthonormal_coeffs(Family.jacobi(-0.5, -0.5), 0, CTX).coeffs
    with mp.workprec(CTX.bits):
        assert abs(c[0] - 1 / mp.sqrt(mp.pi)) < mp.mpf(2) ** (20 - CTX.bits)


def test_recurrence_tables_are_kept_per_precision():
    fam = Family.jacobi(-0.25, 0.5)
    recurrence_table.cache_clear()
    with mp.workprec(64):
        low = evaluate_recurrence(fam, 9, mp.mpf(1) / 3)
    with mp.workprec(512):
        high = evaluate_recurrence(fam, 9, mp.mpf(1) / 3)
        _, dhigh = evaluate_with_derivative(fam, 9, mp.mpf(1) / 3)
    recurrence_table.cache_clear()
    with mp.workprec(512):
        assert evaluate_recurrence(fam, 9, mp.mpf(1) / 3) == high
        assert evaluate_with_derivative(fam, 9, mp.mpf(1) / 3) == (high, dhigh)
    assert abs(high - low) > 0


EXPONENT = st.floats(min_value=-1.0, max_value=6.0, exclude_min=True)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    kind=st.sampled_from(["hermite", "laguerre", "jacobi"]),
    alpha=EXPONENT,
    beta=EXPONENT,
    count=st.integers(min_value=1, max_value=200),
)
def test_float_table_is_the_53_bit_mpf_table(kind, alpha, beta, count):
    # IEEE doubles and 53-bit mpf round +, -, *, / and sqrt alike, and both
    # tables run one formula in one order.  Below the smallest normal double
    # (a tiny alpha or beta makes a_k subnormal) IEEE keeps fewer bits than
    # mpf, so there the entries agree to one subnormal spacing.
    alpha = 0.0 if kind == "hermite" else alpha
    beta = beta if kind == "jacobi" else 0.0
    table = recurrence_table(kind, alpha, beta, count)
    mtable = recurrence_table(kind, alpha, beta, count, 53)
    assert all(type(v) is float for v in table[0] + table[1] + table[2:])
    for got, ref in zip(table[0] + table[1], mtable[0] + mtable[1]):
        ref = float(mp.make_mpf(ref))
        if abs(ref) >= sys.float_info.min:
            assert got == ref
        else:
            assert abs(got - ref) <= math.ulp(0.0)
    mu0 = norm_constant(kind, alpha, beta, math)
    with mp.workprec(200):
        ref = norm_constant(kind, alpha, beta)
        assert abs(mu0 - ref) <= 1e-14 * ref


def test_derivative_consistent_with_difference_quotient():
    fam = Family.jacobi(0.5, 2.0)
    with mp.workprec(200):
        x = mp.mpf("0.3")
        h = mp.mpf(2) ** -60
        p, dp = evaluate_with_derivative(fam, 5, x)
        fd = (evaluate_recurrence(fam, 5, x + h) - evaluate_recurrence(fam, 5, x - h)) / (2 * h)
        assert abs(dp - fd) < mp.mpf(1e-30)


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
        got = zeros_raw(kind, alpha, beta, n, None)
        ref = zeros_raw(kind, alpha, beta, n, 256)
        assert len(got) == n and all(type(z) is float for z in got)
        scale = max(1.0, max(abs(float(z)) for z in ref))
        with mp.workprec(300):
            worst = max(abs(mp.mpf(z) - r) for z, r in zip(got, ref))
        assert worst <= 4 * eps * scale, (n, float(worst) / (eps * scale))
        assert all(lo < hi for lo, hi in zip(got, got[1:]))
        if kind == "hermite" or (kind == "jacobi" and alpha == beta):
            assert got == [-z for z in reversed(got)]


def test_float_zeros_fail_loudly(monkeypatch):
    with pytest.raises(ParameterError):
        zeros_raw("laguerre", -1.0, 0.0, 3, None)
    with pytest.raises(ParameterError):
        zeros_raw("jacobi", 0.0, -1.5, 3, None)
    # the first step from the eigenvalue seeds is above the stopping test
    monkeypatch.setattr("spreadpoly.orthopoly._NEWTON_MAX_ITER", 1)
    with pytest.raises(ParameterError, match="did not settle"):
        zeros_raw("hermite", 0.0, 0.0, 24, None)


def test_degree_validation():
    with pytest.raises(ParameterError):
        orthonormal_coeffs(Family.hermite(), -1, CTX)
