"""The libmp kernels against the mpf operator loops they replaced.

Each ``_ref_*`` function below is the operator form of a loop that now
runs in ``spreadpoly._mpkernels`` (or, for the explicit coefficients and
the Jacobi moments, the form before their invariants were hoisted).  The
kernels promise the same libmp operations in the same order, so every
comparison here is ``==`` on the mpf values, not a tolerance.
"""

import math

import numpy as np
import pytest
from mpmath import mp

from spreadpoly.bell import (
    jacobi_power_moment,
    polynomial_power_coeffs,
    renyi_power_integral_bell,
)
from spreadpoly.context import ParameterError, cancellation_clamp
from spreadpoly.families import (
    HERMITE,
    JACOBI,
    LAGUERRE,
    Family,
    RenyiOrder,
    norm_constant,
    raw_recurrence,
)
from spreadpoly.hypergeom import hyp2f1_terminating, nonpositive_int_bound
from spreadpoly.orthopoly import (
    _eigen_seeds,
    _explicit_coeffs,
    _leading_positive,
    _mirrored_increasing,
    evaluate_recurrence,
    evaluate_with_derivative,
    zeros_raw,
)
from spreadpoly.quadrature import _RULE_CACHE_SIZE, _standard_rule

FAMILIES = [
    Family.hermite(),
    Family.laguerre(-0.5),
    Family.laguerre(2.0),
    Family.jacobi(-0.7, 2.0),
    Family.jacobi(0.5, 0.5),
]
DEGREES = (0, 1, 7, 40)
BITS = (53, 113, 276, 1024)
XS = ("-0.93", "0.0", "0.3172", "2.75", "17.5")


def _ids(fam):
    return fam.describe()


# ---------------------------------------------------------------------------
# Reference loops, in mpf operator form
# ---------------------------------------------------------------------------


def _ref_evaluate(family, n, x):
    x = mp.mpf(x)
    diag, off = raw_recurrence(family.kind, family.alpha, family.beta, n + 1)
    pk = 1 / mp.sqrt(norm_constant(family.kind, family.alpha, family.beta))
    pkm1 = mp.mpf(0)
    for k in range(n):
        pk, pkm1 = ((x - diag[k]) * pk - off[k] * pkm1) / off[k + 1], pk
    return pk


def _ref_evaluate_with_derivative(family, n, x):
    x = mp.mpf(x)
    diag, off = raw_recurrence(family.kind, family.alpha, family.beta, n + 1)
    pk = 1 / mp.sqrt(norm_constant(family.kind, family.alpha, family.beta))
    pkm1, dkm1 = mp.mpf(0), mp.mpf(0)
    dk = mp.mpf(0)
    for k in range(n):
        pk1 = ((x - diag[k]) * pk - off[k] * pkm1) / off[k + 1]
        dk1 = ((x - diag[k]) * dk + pk - off[k] * dkm1) / off[k + 1]
        pk, pkm1 = pk1, pk
        dk, dkm1 = dk1, dk
    return pk, dk


def _ref_zeros_raw(kind, alpha, beta, n, bits):
    """The mpf branch of ``zeros_raw``, Newton polish in operator form."""
    with mp.workprec(bits + 20):
        diag, off = raw_recurrence(kind, alpha, beta, n + 1)
        d64 = np.array([float(v) for v in diag[:n]])
        e64 = np.array([float(v) for v in off[1:n]])
        seeds = _eigen_seeds(d64, e64)

        def poly_pair(x):
            pkm1, dkm1 = mp.mpf(0), mp.mpf(0)
            pk, dk = mp.mpf(1), mp.mpf(0)
            for k in range(n):
                pk1 = ((x - diag[k]) * pk - off[k] * pkm1) / off[k + 1]
                dk1 = ((x - diag[k]) * dk + pk - off[k] * dkm1) / off[k + 1]
                pk, pkm1, dk, dkm1 = pk1, pk, dk1, dk
            return pk, dk

        out = []
        for s in seeds:
            z = mp.mpf(float(s))
            for _ in range(64):
                v, dv = poly_pair(z)
                step = v / dv
                z -= step
                if abs(step) <= mp.eps * (1 + abs(z)) * 4:
                    break
            out.append(z)
        out.sort()
        symmetric = kind == HERMITE or (kind == JACOBI and alpha == beta)
        out = _mirrored_increasing(out, symmetric, mp.mpf(0))
        return [+z for z in out]


def _ref_christoffel_weights(kind, alpha, beta, m, bits, nodes):
    with mp.workprec(bits + 20):
        diag, off = raw_recurrence(kind, alpha, beta, m + 1)
        c0 = 1 / mp.sqrt(norm_constant(kind, alpha, beta))
        weights = []
        for x in nodes:
            pkm1 = mp.mpf(0)
            pk = c0
            acc = pk * pk
            for k in range(m - 1):
                pk, pkm1 = ((x - diag[k]) * pk - off[k] * pkm1) / off[k + 1], pk
                acc += pk * pk
            weights.append(1 / acc)
        return weights


def _ref_bell_row(args, max_m, l):
    prev = [mp.mpf(1)] + [mp.mpf(0)] * max_m
    for layer in range(1, l + 1):
        cur = [mp.mpf(0)] * (max_m + 1)
        for m in range(layer, max_m + 1):
            acc = []
            for i in range(1, m - layer + 2):
                if i <= len(args) and args[i - 1] != 0:
                    acc.append(math.comb(m - 1, i - 1) * args[i - 1] * prev[m - i])
            cur[m] = mp.fsum(acc)
        prev = cur
    return prev


def _ref_power_coeffs(coeffs, p):
    n = len(coeffs) - 1
    top = n * p
    args = [mp.factorial(i + 1) * mp.mpf(c) for i, c in enumerate(coeffs)]
    rows = _ref_bell_row(tuple(args), top + p, p)
    out = []
    ratio = mp.mpf(1)
    for t in range(top + 1):
        out.append(ratio * rows[t + p])
        ratio /= t + p + 1
    return out


def _ref_hyp2f1(a, b, c, z):
    m = nonpositive_int_bound(a, b)
    a, b, c, z = mp.mpf(a), mp.mpf(b), mp.mpf(c), mp.mpf(z)
    term = mp.mpf(1)
    acc = [term]
    for j in range(m):
        denom = (c + j) * (j + 1)
        if denom == 0:
            raise ParameterError("lower parameter hits a nonpositive integer")
        term = term * (a + j) * (b + j) * z / denom
        acc.append(term)
    return cancellation_clamp(mp.fsum(acc), acc, mp.prec)


def _ref_jacobi_power_moment(k, q, alpha, beta):
    qf = mp.mpf(q)
    a = mp.mpf(alpha) * qf
    b = mp.mpf(beta) * qf
    sign = -1 if k % 2 else 1
    return (
        sign
        * mp.power(2, 1 + a + b)
        * mp.gamma(a + 1)
        * mp.gamma(b + 1)
        / mp.gamma(a + b + 2)
        * _ref_hyp2f1(-k, 1 + b, 2 + a + b, 2)
    )


def _ref_explicit_coeffs(family, n):
    """Laguerre and Jacobi branches with mp.binomial and no hoisting."""
    a = mp.mpf(family.alpha)
    b = mp.mpf(family.beta)
    if family.kind == LAGUERRE:
        norm = mp.sqrt(mp.gamma(n + a + 1) / mp.factorial(n))
        c = [
            (-1 if t % 2 else 1) * norm * mp.binomial(n, t) / mp.gamma(a + t + 1)
            for t in range(n + 1)
        ]
        return _leading_positive(c)
    s0 = a + b + n + 1
    front = mp.gamma(a + b + 2) if n == 0 else (2 * n + a + b + 1) * mp.gamma(s0)
    norm = mp.sqrt(
        mp.gamma(a + n + 1)
        * front
        / (mp.factorial(n) * mp.power(2, a + b + 1) * mp.gamma(n + b + 1))
    )
    poch = [mp.mpf(1)] * (n + 1)
    for i in range(n):
        poch[i + 1] = poch[i] * (s0 + i)
    c = []
    for t in range(n + 1):
        terms = []
        for i in range(t, n + 1):
            term = (
                mp.binomial(n, i)
                * mp.binomial(i, t)
                * poch[i]
                / (mp.power(2, i) * mp.gamma(a + i + 1))
            )
            terms.append(-term if (i - t) % 2 else term)
        acc = cancellation_clamp(mp.fsum(terms), terms, mp.prec)
        c.append(norm * acc)
    return _leading_positive(c)


# ---------------------------------------------------------------------------
# Bit-identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("family", FAMILIES, ids=_ids)
def test_recurrence_evaluation_is_bit_identical(family, bits):
    with mp.workprec(bits):
        for n in DEGREES:
            for xs in XS:
                x = mp.mpf(xs)
                assert evaluate_recurrence(family, n, x) == _ref_evaluate(family, n, x)
                got = evaluate_with_derivative(family, n, x)
                assert got == _ref_evaluate_with_derivative(family, n, x), (n, xs)


#: For Jacobi(2, 0.5) the general weight moment at j = 0 rounds mu_0 apart
#: from ``norm_constant`` at the rule precision of 53, 113 and 1024 bits, so
#: this case pins the Christoffel weights to ``norm_constant``.
@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("family", FAMILIES + [Family.jacobi(2.0, 0.5)], ids=_ids)
def test_zeros_and_gauss_rules_are_bit_identical(family, bits):
    kind, alpha, beta = family.kind, family.alpha, family.beta
    for n in DEGREES[1:]:
        zs = zeros_raw(kind, alpha, beta, n, bits)
        assert zs == _ref_zeros_raw(kind, alpha, beta, n, bits)
        nodes, weights = _standard_rule.__wrapped__(kind, alpha, beta, n, bits)
        assert list(nodes) == zs
        assert list(weights) == _ref_christoffel_weights(kind, alpha, beta, n, bits, nodes)


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("family", FAMILIES, ids=_ids)
def test_coefficients_and_powers_are_bit_identical(family, bits):
    with mp.workprec(bits):
        for n in DEGREES:
            coeffs = _explicit_coeffs(family, n, bits)
            if family.kind != HERMITE:
                assert coeffs == _ref_explicit_coeffs(family, n), n
            for p in (1, 2, 3) if n == 40 else (1, 2, 3, 6):
                assert polynomial_power_coeffs(coeffs, p) == _ref_power_coeffs(coeffs, p)


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("family", FAMILIES, ids=_ids)
def test_hypergeometric_terms_are_bit_identical(family, bits):
    with mp.workprec(bits):
        for q in (1, 1.5, 2, 3):
            if not (family.alpha * q > -1 and family.beta * q > -1):
                continue
            a = mp.mpf(family.alpha) * q
            b = mp.mpf(family.beta) * q
            for k in DEGREES:
                args = (-k, 1 + b, 2 + a + b, 2)
                assert hyp2f1_terminating(*args) == _ref_hyp2f1(*args)
                args = (-k, a + mp.mpf(1) / 3, b + mp.mpf(7) / 4, mp.mpf("0.3"))
                assert hyp2f1_terminating(*args) == _ref_hyp2f1(*args)
                got = jacobi_power_moment(k, q, family.alpha, family.beta)
                assert got == _ref_jacobi_power_moment(k, q, family.alpha, family.beta)


# ---------------------------------------------------------------------------
# Memos
# ---------------------------------------------------------------------------


def test_coefficient_memo_is_kept_per_precision():
    fam = Family.jacobi(-0.25, 0.5)
    _explicit_coeffs.cache_clear()
    with mp.workprec(64):
        low = _explicit_coeffs(fam, 9, 64)
    with mp.workprec(512):
        high = _explicit_coeffs(fam, 9, 512)
    _explicit_coeffs.cache_clear()
    with mp.workprec(512):
        assert _explicit_coeffs(fam, 9, 512) == high
    with mp.workprec(64):
        assert _explicit_coeffs(fam, 9, 64) == low
    assert low != high


def test_coefficient_memo_serves_the_nested_escalation():
    fam = Family.jacobi(0.5, 2.0)
    order = RenyiOrder(4)
    _explicit_coeffs.cache_clear()
    warm = renyi_power_integral_bell(fam, 6, order)
    info = _explicit_coeffs.cache_info()
    # two escalation steps need the sets at 256, 512 and 1024 bits: the
    # second step reuses the first step's 512-bit set
    assert (info.misses, info.hits) == (3, 1)
    for bits in (64, 1024, 128):
        with mp.workprec(bits):
            _explicit_coeffs(fam, 6, bits)
    assert renyi_power_integral_bell(fam, 6, order) == warm


def test_rule_cache_is_bounded():
    info = _standard_rule.cache_info()
    assert info.maxsize == _RULE_CACHE_SIZE == 128
