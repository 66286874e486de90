"""The recurrence kernels against the mpf operator loops they replaced, and
the exact-integer Bell route against naive arithmetic.

Each ``_ref_*`` function below is the operator form of a loop that now
runs on integers in ``spreadpoly.orthopoly`` (or, for the Jacobi moment
oracle, the form with its sign applied first).  The Bell route's
coefficients and powers are integers, checked ``==`` against Fraction sums
and schoolbook products, and the Jacobi moments ``==`` against the 2F1
form.

The fixed-point recurrence rounds each step down on plain integers, so the
monic kernel and ``evaluate_recurrence`` are checked against the operator
form at 2 bits + 64 within stated bounds.  The Gauss rules' polish stops
on an ODE bound and takes its weights from Christoffel–Darboux, so the
former Newton loop and Christoffel sum (``_ref_zeros_raw``,
``_ref_christoffel_weights``) serve as an oracle at twice the precision.
"""

from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from oracles import explicit_ratios, jacobi_power_moment, naive_power, raw_recurrence
from spreadpoly.bell import polynomial_power_coeffs
from spreadpoly.context import PrecisionContext
from spreadpoly.families import (
    HERMITE,
    JACOBI,
    Family,
    norm_constant,
)
from spreadpoly.hypergeom import hyp2f1_terminating
from spreadpoly.orthopoly import (
    _coeff_scale,
    _eigen_seeds,
    _explicit_coeffs,
    _mirrored_increasing,
    evaluate_recurrence,
    monic_fixed,
    orthonormal_coeffs,
    to_fixed,
    zeros,
)
from spreadpoly.quadrature import _RULE_CACHE_SIZE, _standard_rule
from spreadpoly.report import measures_table

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


def _ref_abs_monic_recurrence(x, diag, offsq, m):
    """The monic recurrence on |x - a_k| and b_k^2 with every sign +: it
    bounds every term the kernel forms, and how fast an error grows."""
    pkm1, dkm1 = mp.mpf(0), mp.mpf(0)
    pk, dk = mp.mpf(1), mp.mpf(0)
    for k in range(m):
        t = abs(x - diag[k])
        pk1 = t * pk + offsq[k] * pkm1
        dk1 = t * dk + pk + offsq[k] * dkm1
        pk, pkm1, dk, dkm1 = pk1, pk, dk1, dk
    return pk, dk, pkm1, dkm1


def _ref_error_majorant(x, diag, offsq, m, eps):
    """A bound on how far pi_m moves when each step of the monic recurrence
    adds an error of at most eps (|pi_k| + |pi_{k-1}|): the recurrence on
    |x - a_k| and b_k^2 run on the errors, driven by that source."""
    akm1, ak = mp.mpf(0), mp.mpf(1)
    ekm1 = ek = mp.mpf(0)
    for k in range(m):
        t = abs(x - diag[k])
        source = eps * (ak + akm1 + ek + ekm1)
        ak, akm1 = t * ak + offsq[k] * akm1, ak
        ek, ekm1 = t * ek + offsq[k] * ekm1 + source, ek
    return ek


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
        out = _mirrored_increasing(out, symmetric)
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


# ---------------------------------------------------------------------------
# Bit-identity
# ---------------------------------------------------------------------------


#: ``evaluate_recurrence`` runs the fixed-point kernel at P = bits + 32 on
#: x and the exact table, each rounded once to 2^-(P + 1), and scales pi_n
#: by 1/sqrt(h_n) formed at ``bits``.  At each step the rounded x - a_k and
#: b_k^2, the step's shift and a renormalization add under
#: 2^(3 - P) (|pi_k| + |pi_{k-1}|), so pi_n is within
#: ``_ref_error_majorant`` of its exact value; the n + 1 roundings of h_n,
#: its square root and the two products add (n + 8) 2^-bits of |p_n|.  The
#: reference is the operator form at 2 bits + 64.  Besides ``XS``, x runs
#: over a zero of p_n, where p_n cancels and the first term is the one that
#: counts.
@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("family", FAMILIES, ids=_ids)
def test_recurrence_evaluation_is_bit_identical(family, bits):
    kind, alpha, beta = family.kind, family.alpha, family.beta
    for n in DEGREES:
        with mp.workprec(2 * bits + 64):
            diag, off = raw_recurrence(kind, alpha, beta, n + 1)
            offsq = [b * b for b in off]
            c = 1 / mp.sqrt(norm_constant(kind, alpha, beta) * mp.fprod(offsq[1:]))
        zs = zeros(family, n, PrecisionContext(bits=bits)) if n else []
        for xs in XS + tuple(zs[n // 2 : n // 2 + 1]):
            with mp.workprec(bits):
                x = +mp.mpf(xs)
                got = evaluate_recurrence(family, n, x)
            with mp.workprec(2 * bits + 64):
                ref = _ref_evaluate(family, n, x)
                eps = mp.mpf(2) ** (3 - bits - 32)
                bound = c * _ref_error_majorant(x, diag, offsq, n, eps)
                bound += (n + 8) * mp.mpf(2) ** -bits * abs(ref)
                assert abs(got - ref) <= bound, (n, xs)


#: The fixed-point kernel runs on x, a_k and b_k^2 as integers v 2^bits
#: (each within half a unit of its value) and rounds down once per step and
#: once per renormalization, each time by under 2^(1 - bits) of the block; an
#: error grows no faster than ``_ref_abs_monic_recurrence``.  So each of
#: pi_m, pi_m', pi_{m-1}, pi_{m-1}' lies within m 2^(2 - bits) times that
#: recurrence's value of the exact value on the kernel's inputs, which
#: ``_ref_monic_recurrence`` gives at 2 bits + 64 (measured: under
#: 0.6 m 2^-bits).
#: The ``derivative=False`` form returns pi_m bit for bit.
@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("family", FAMILIES, ids=_ids)
def test_monic_recurrence_is_bit_identical(family, bits):
    with mp.workprec(bits):
        diag, off = raw_recurrence(family.kind, family.alpha, family.beta, DEGREES[-1] + 1)
        offsq = [b * b for b in off]
        xs = [mp.mpf(x) for x in XS]
    fdiag = [to_fixed(v._mpf_, bits) for v in diag]
    foffsq = [to_fixed(v._mpf_, bits) for v in offsq]
    for x in xs:
        fx = to_fixed(x._mpf_, bits)
        with mp.workprec(2 * bits + 64):
            assert abs(mp.ldexp(fx, -bits) - x) <= mp.ldexp(1, -bits - 1)
            args = [mp.ldexp(fx, -bits), [mp.ldexp(v, -bits) for v in fdiag],
                    [mp.ldexp(v, -bits) for v in foffsq]]
        for n in DEGREES[1:]:
            *got, e = monic_fixed(fx, fdiag, foffsq, n, bits)
            assert monic_fixed(fx, fdiag, foffsq, n, bits, derivative=False) == (got[0], e)
            with mp.workprec(2 * bits + 64):
                want = _ref_monic_recurrence(*args, n)
                bound = _ref_abs_monic_recurrence(*args, n)
                for g, w, b in zip(got, want, bound):
                    assert abs(mp.ldexp(g, e) - w) <= n * mp.ldexp(b, 2 - bits), (n, x)


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
        zs = zeros(family, n, PrecisionContext(bits=bits))
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


#: The coefficients are exact integers: R_t / L equals the display summed in
#: Fraction, the powers equal schoolbook products, and the mpf coefficients
#: at ``bits`` are K R_t / L rounded once (equal to the value formed at
#: 4 bits and rounded to ``bits``).
@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("family", FAMILIES, ids=_ids)
def test_coefficients_and_powers_are_bit_identical(family, bits):
    for n in DEGREES:
        R, L = _explicit_coeffs(family, n)
        assert [Fraction(r, L) for r in R] == explicit_ratios(family, n), n
        for p in (1, 2, 3) if n == 40 else (1, 2, 3, 6):
            assert polynomial_power_coeffs(R, p) == naive_power(R, p), (n, p)
        got = orthonormal_coeffs(family, n, PrecisionContext(bits=bits)).coeffs
        with mp.workprec(4 * bits):
            k = _coeff_scale(family, n)
            fine = [k * r / L for r in R]
        with mp.workprec(bits):
            assert got == tuple(+c for c in fine), n


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
    # the memo holds exact integers, so one entry serves every precision and
    # each precision's rounding is the same with the memo warm or cold
    fam = Family.jacobi(-0.25, 0.5)
    _explicit_coeffs.cache_clear()
    low = orthonormal_coeffs(fam, 9, PrecisionContext(bits=64)).coeffs
    high = orthonormal_coeffs(fam, 9, PrecisionContext(bits=512)).coeffs
    assert _explicit_coeffs.cache_info().misses == 1
    _explicit_coeffs.cache_clear()
    assert orthonormal_coeffs(fam, 9, PrecisionContext(bits=512)).coeffs == high
    assert orthonormal_coeffs(fam, 9, PrecisionContext(bits=64)).coeffs == low
    assert low != high


def test_coefficient_memo_serves_a_whole_measures_row():
    # the row's L2 and L_3 of one (family, n) build one coefficient set
    fam = Family.jacobi(0.5, 2.0)
    _explicit_coeffs.cache_clear()
    measures_table(fam, [6], orders=[3])
    assert _explicit_coeffs.cache_info().misses == 1
    assert _explicit_coeffs.cache_info().hits == 1


def test_rule_cache_is_bounded():
    info = _standard_rule.cache_info()
    assert info.maxsize == _RULE_CACHE_SIZE == 128
