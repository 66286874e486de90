"""The libmp kernels against the mpf operator loops they replaced.

Each ``_ref_*`` function below is the operator form of a loop that now
runs in ``spreadpoly._mpkernels`` (or, for the explicit coefficients, the
form before their invariants were hoisted, and for the Jacobi moment
oracle, the form with its sign applied first).  The kernels promise the
same libmp operations in the same order, so those comparisons are ``==``
on the mpf values, not a tolerance.

The Gauss rules are the exception: their polish now stops on an ODE
bound and takes its weights from Christoffel–Darboux, so the former
Newton loop and Christoffel sum (``_ref_zeros_raw``,
``_ref_christoffel_weights``) serve as an oracle at twice the precision.
"""

import math

import numpy as np
import pytest
from mpmath import mp

from spreadpoly.bell import (
    jacobi_power_moment,
    polynomial_power_coeffs,
    renyi_length_bell,
)
from spreadpoly._mpkernels import monic_recurrence
from spreadpoly.context import cancellation_clamp
from spreadpoly.families import (
    HERMITE,
    JACOBI,
    LAGUERRE,
    Family,
    norm_constant,
    raw_recurrence,
)
from spreadpoly.hypergeom import hyp2f1_terminating
from spreadpoly.orthopoly import (
    _eigen_seeds,
    _explicit_coeffs,
    _leading_positive,
    _mirrored_increasing,
    evaluate_recurrence,
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


def _ref_monic_recurrence(x, diag, offsq, m):
    pkm1, dkm1 = mp.mpf(0), mp.mpf(0)
    pk, dk = mp.mpf(1), mp.mpf(0)
    for k in range(m):
        pk1 = (x - diag[k]) * pk - offsq[k] * pkm1
        dk1 = (x - diag[k]) * dk + pk - offsq[k] * dkm1
        pk, pkm1, dk, dkm1 = pk1, pk, dk1, dk
    return pk, dk, pkm1, dkm1


def _ref_zeros_raw(kind, alpha, beta, n, bits):
    """The former mpf branch of ``zeros_raw``: a Newton polish in operator
    form that stops one pass after its step falls below 4 eps (1 + |z|)."""
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


def _ref_jacobi_power_moment(k, q, alpha, beta):
    """The Jacobi moment with its sign applied first."""
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
        * hyp2f1_terminating(-k, 1 + b, 2 + a + b, 2)
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
                assert evaluate_recurrence(family, n, x) == _ref_evaluate(family, n, x), (n, xs)


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("family", FAMILIES, ids=_ids)
def test_monic_recurrence_is_bit_identical(family, bits):
    with mp.workprec(bits):
        diag, off = raw_recurrence(family.kind, family.alpha, family.beta, DEGREES[-1] + 1)
        offsq = [b * b for b in off]
        raw_diag = tuple(v._mpf_ for v in diag)
        raw_offsq = tuple(v._mpf_ for v in offsq)
        for n in DEGREES[1:]:
            for xs in XS:
                x = mp.mpf(xs)
                got = monic_recurrence(x._mpf_, raw_diag, raw_offsq, n, mp.prec)
                want = _ref_monic_recurrence(x, diag, offsq, n)
                assert tuple(mp.make_mpf(v) for v in got) == want, (n, xs)


#: The zeros are the rule's nodes bit for bit; nodes and weights are checked
#: against the former Newton loop and Christoffel sum run at 2 bits + 64.
#: For Jacobi(2, 0.5) the general weight moment at j = 0 rounds mu_0 apart
#: from ``norm_constant`` at the rule precision of 53, 113 and 1024 bits, so
#: this case pins the Christoffel weights to ``norm_constant``.
@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("family", FAMILIES + [Family.jacobi(2.0, 0.5)], ids=_ids)
def test_zeros_and_gauss_rules_are_bit_identical(family, bits):
    kind, alpha, beta = family.kind, family.alpha, family.beta
    oracle_bits = 2 * bits + 64
    for n in DEGREES[1:]:
        zs = zeros_raw(kind, alpha, beta, n, bits)
        nodes, weights = _standard_rule.__wrapped__(kind, alpha, beta, n, bits)
        assert list(nodes) == zs
        ref_nodes = _ref_zeros_raw(kind, alpha, beta, n, oracle_bits)
        ref_weights = _ref_christoffel_weights(kind, alpha, beta, n, oracle_bits, ref_nodes)
        with mp.workprec(oracle_bits):
            ulp = mp.mpf(2) ** -bits
            for x, ref in zip(nodes, ref_nodes):
                assert abs(x - ref) <= ulp * max(1, abs(ref)), (n, x)
            for w, ref in zip(weights, ref_weights):
                assert abs(w - ref) <= ulp * ref, (n, w)


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


#: ``jacobi_power_moment`` applies the sign of its 2F1 closed form last.
@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("family", FAMILIES, ids=_ids)
def test_hypergeometric_terms_are_bit_identical(family, bits):
    with mp.workprec(bits):
        for q in (1, 1.5, 2, 3):
            if not (family.alpha * q > -1 and family.beta * q > -1):
                continue
            for k in DEGREES:
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


def test_coefficient_memo_serves_a_whole_measures_row():
    # the Bell steps of L2 at 256 and 512 bits build one set each; the row's
    # L_3 of the same (family, n) builds none
    fam = Family.jacobi(0.5, 2.0)
    _explicit_coeffs.cache_clear()
    renyi_length_bell(fam, 6, 2)
    assert _explicit_coeffs.cache_info().misses == 2
    renyi_length_bell(fam, 6, 3)
    assert _explicit_coeffs.cache_info().misses == 2


def test_rule_cache_is_bounded():
    info = _standard_rule.cache_info()
    assert info.maxsize == _RULE_CACHE_SIZE == 128
