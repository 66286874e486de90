"""Orthonormal classical polynomials: recurrence, coefficients, zeros.

Everything here is phrased for the *orthonormal* normalization
``integral p_n p_m w = delta_{nm}``, through the symmetric three-term
recurrence

    x p_k = b_{k+1} p_{k+1} + a_k p_k + b_k p_{k-1},   b_k > 0.

The recurrence coefficients of the three classical weights are standard
(see e.g. Gautschi, "Orthogonal Polynomials: Computation and
Approximation", or the NIST DLMF chapter 18) after rescaling the
classical normalizations to unit norm.  They are written once, in
``families``, as exact integer ratios
(:func:`spreadpoly.families.exact_recurrence`).  The float64 zeros and the
seeds of the Gauss rules read them rounded once to floats
(:func:`spreadpoly.families.raw_recurrence`); every mpf route reads them
rounded once to the fixed-point format of :func:`monic_fixed`, integers
v 2^P with P the working precision plus ``_FIXED_GUARD`` bits
(:func:`_fixed_table`).  Like the exact table, the fixed-point rows of each
(weight, P) and the Jacobi matrices of :func:`_jacobi_fixed` are built once
and grown on demand.  The squared norms h_n = mu_0 b_1^2 ... b_n^2 are
written once too, in :func:`_squared_norm`: mu_0 times the exact product of
the b_k^2, rounded once.  Every mpf route normalises p_n by them.

Two descriptions of p_n are kept, so each can audit the other: explicit
monomial coefficients and the recurrence.  The coefficients are exact:
:func:`_explicit_coeffs` gives the integers R_t proportional to them, and
the leading coefficient of the orthonormal p_n is 1/sqrt(h_n), so
c_t = R_t / (R_n sqrt(h_n)).  The Bell route runs on the integers and
:func:`orthonormal_coeffs` rounds each c_t once, with no precision
escalation.  The mpf values of p_n at points, for
:func:`evaluate_recurrence` and the product weights of ``quadrature``'s
Gauss-Legendre pair, come from one evaluator, :func:`_recurrence_values`:
p_n = pi_n / sqrt(h_n), with the monic pi_n from :func:`monic_fixed` and
h_n = mu_0 b_1^2 ... b_n^2.  Its float64 counterpart is
``_vec.poly_scaled``, which reads the float table and also returns p_n'.
With ``every``, one sweep of the evaluator gives p_0, ..., p_n at each
point, as the product weights of the pair need them.

The same recurrence runs on a matrix too: :func:`monic_apply` takes its
steps on an integer vector, giving pi_n(J) v for a symmetric tridiagonal J
in the same fixed point, and :func:`_jacobi_fixed` rounds the Jacobi
matrix of w^q once to it.  Together they give the Gauss oracles of
``quadrature`` and ``closed_form`` as mu_0' e_1^T F(J) e_1, with no node.

The float64 seeds of every zero and every Gauss rule are the eigenvalues
of the symmetric tridiagonal matrix of the float table (Golub–Welsch), from
numpy's LAPACK (:func:`_eigen_seeds`): ``np.linalg.eigvalsh`` on the dense
matrix that holds only the diagonal and the subdiagonal.  LAPACK's
reduction ``dsytrd`` leaves a matrix that is already tridiagonal as it is,
and ``dsterf`` then solves it as it does behind scipy's tridiagonal solver,
so the seeds are the same bits as ``scipy.linalg.eigh_tridiagonal``'s, and
the package imports no scipy.

The mpf Gauss rules (:func:`_gauss_polish`, behind :func:`zeros` and the
rules of ``quadrature``) polish float64 eigenvalue seeds by Halley passes on
the monic recurrence in the same fixed point: the node, the step and the
classical ODE's coefficients are integers v 2^P too.  The ODE gives p'' and
p''' from pi_m/pi_m', so each pass is cubic and the ODE bounds its next
error: a node stops without a confirming pass, 2 passes at 256 bits.
Christoffel–Darboux turns the last pass into the weight, carried to the
node by a Taylor step whose derivatives come from the ODE too, so a node
makes two mpf values, itself and its weight, each rounded once (Gautschi,
*Orthogonal Polynomials: Computation and Approximation*, OUP 2004, sections
1.3 and 3.1; Golub and Welsch, Math. Comp. 23, 1969; Hale and Townsend,
SIAM J. Sci. Comput. 35, 2013).  The rules agree with an mpf Newton loop
run at twice the precision to within 2^-bits, not bit for bit.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
from mpmath import mp
from mpmath.libmp import from_man_exp, from_rational, mpf_div, mpf_shift, round_nearest

from .context import ParameterError, PrecisionContext, PrecisionError
from ._vec import poly_scaled
from .families import (
    HERMITE,
    JACOBI,
    LAGUERRE,
    Family,
    _GrowingTable,
    _check_degree,
    _rational,
    exact_recurrence,
    norm_constant,
    raw_recurrence,
)

__all__ = [
    "orthonormal_coeffs",
    "zeros",
]

_DEFAULT_CTX = PrecisionContext()


@functools.lru_cache(maxsize=4)
def _explicit_coeffs(family: Family, n: int) -> tuple:
    """Exact monomial coefficients of p_n up to one positive factor: the
    integers R_t, free of a common factor, with R_n > 0, so that
    p_n = sum_t R_t x^t / (R_n sqrt(h_n)) (:func:`_squared_norm`).

    alpha and beta are doubles, hence dyadic rationals, so every ratio
    between the terms of the explicit displays is rational:

    * Hermite: r_t = (-1)^((n-t)/2) n! 2^t / (((n-t)/2)! t!) for n - t even;
    * Laguerre: r_t = (-1)^t C(n, t) / (alpha+1)_t;
    * Jacobi: r_t = sum_{i>=t} (-1)^(i-t) C(n, i) C(i, t) (s0)_i / (2^i (alpha+1)_i)
      with s0 = alpha + beta + n + 1.

    Exact integers leave nothing to cancel: the parity zeros of Hermite and
    of Jacobi with alpha = beta are exact zeros.  Memoised on (family, n),
    so the L2 and L_q of one ``measures`` row build one set.
    """
    _check_degree(n)
    if family.kind == HERMITE:
        R = [0] * (n + 1)
        for t in range(n % 2, n + 1, 2):
            m = (n - t) // 2
            R[t] = (-1) ** m * math.factorial(n) * 2**t // (math.factorial(m) * math.factorial(t))
        return _primitive(R)
    num, den = family.alpha.as_integer_ratio()
    # (alpha+1)_i = P_i / den^i with P_i = prod_{j<i} (num + den (j+1)) > 0;
    # tail[i] = P_n / P_i
    tail = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        tail[i] = tail[i + 1] * (num + den * (i + 1))
    if family.kind == LAGUERRE:
        R = [(-1) ** t * math.comb(n, t) * den**t * tail[t] for t in range(n + 1)]
    else:
        s0 = Fraction(family.alpha) + Fraction(family.beta) + n + 1
        snum, sden = s0.numerator, s0.denominator
        # over the common denominator (2 sden)^n P_n, g_i is the i-th term
        # less its C(i, t), with (s0)_i = prod_{j<i} (snum + sden j) / sden^i
        g, poch = [], 1
        for i in range(n + 1):
            g.append(math.comb(n, i) * poch * den**i * (2 * sden) ** (n - i) * tail[i])
            poch *= snum + sden * i
        # R_t = sum_i (-1)^(i-t) C(i, t) g_i are the coefficients of
        # sum_i g_i (x - 1)^i: a Taylor shift by -1, additions only
        R = g
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                R[j] -= R[j + 1]
    return _primitive(R)


def _primitive(R: list) -> tuple:
    """R over the gcd of its entries, signed so the leading entry is positive."""
    common = math.gcd(*R) * (1 if R[-1] > 0 else -1)
    return tuple(r // common for r in R)


def _norm_product(kind: str, alpha, beta, n: int) -> tuple:
    """``(num, den)``: the exact product b_1^2 ... b_n^2 = num / den of the
    entries of :func:`spreadpoly.families.exact_recurrence`, unreduced, with
    num, den > 0; ``(1, 1)`` at n = 0.  So h_n = mu_0 num / den."""
    offsq = exact_recurrence(kind, alpha, beta, n + 1)[1]
    return math.prod(v for v, _ in offsq[1:]), math.prod(v for _, v in offsq[1:])


@functools.lru_cache(maxsize=2048)
def _squared_norm(kind: str, alpha, beta, n: int, prec: int):
    """h_n = mu_0 b_1^2 ... b_n^2 at ``prec`` bits: the squared norm of the
    monic pi_n, so 1/sqrt(h_n) is the leading coefficient of p_n.  mu_0 at
    ``prec`` bits (:func:`spreadpoly.families.norm_constant`) times the
    exact product :func:`_norm_product`, rounded once.  Memoised on
    (weight, n, prec), since each value depends on n: the Rényi
    cross-check grid asks for 405 (279 h_n and 95 masses of w^q for the
    Gauss sums, and the h_0 = mu_0 of Bell's constants for its 31
    weights), within the 2048 entries kept, so each is formed once."""
    num, den = _norm_product(kind, alpha, beta, n)
    _, man, exp, _ = norm_constant(kind, alpha, beta, prec)._mpf_
    return mp.make_mpf(mpf_shift(from_rational(man * num, den, prec, round_nearest), exp))


#: Extra bits at which R_t / (R_n sqrt(h_n)) is formed before its one rounding.
_COEFF_GUARD = 64


def orthonormal_coeffs(family: Family, n: int, ctx: PrecisionContext = _DEFAULT_CTX) -> tuple:
    """Monomial coefficients (c_0, ..., c_n) of p_n, c_t = R_t / (R_n
    sqrt(h_n)), each rounded once to ``ctx.bits``."""
    R = _explicit_coeffs(family, n)
    prec = ctx.bits + _COEFF_GUARD
    with mp.workprec(prec):
        h = _squared_norm(family.kind, family.alpha, family.beta, n, prec)
        scale = 1 / (R[-1] * mp.sqrt(h))
        coeffs = [scale * r for r in R]
    with mp.workprec(ctx.bits):
        return tuple(+c for c in coeffs)


# ---------------------------------------------------------------------------
# Fixed-point recurrence
# ---------------------------------------------------------------------------

#: Guard bits of the fixed-point recurrence (:func:`monic_fixed`) over the
#: working precision: its integers carry x, a_k and b_k^2 to 2^-(prec + 32).
_FIXED_GUARD = 32

#: Bits by which the larger of pi_k and pi_{k-1} may exceed ``prec`` in
#: :func:`monic_fixed`.  A block that leaves the window is shifted back to
#: its middle; a step changes the size by about log2|x - a_k| bits, so that
#: happens every few steps at most.
_SLACK = 64


def to_fixed(x, prec: int) -> int:
    """The libmp tuple ``x`` as the integer nearest x 2^prec."""
    sign, man, exp, _ = x
    shift = exp + prec
    if shift >= 0:
        v = man << shift
    else:
        v = ((man >> (-shift - 1)) + 1) >> 1
    return -v if sign else v


def _from_fixed(v: int, e: int, prec: int):
    """The mpf v 2^e rounded to ``prec`` bits."""
    return mp.make_mpf(from_man_exp(v, e, prec, round_nearest))


def monic_fixed(
    x, diag, offsq, steps: int, prec: int, derivative: bool = True, history: list | None = None
):
    """``steps`` steps of the monic three-term recurrence at ``x``.

    pi_{k+1} = (x - a_k) pi_k - b_k^2 pi_{k-1} from pi_{-1} = 0 and
    pi_0 = 1, with x and the ``diag``/``offsq`` entries (a_k, b_k^2) given
    as integers v 2^prec.  Returns ``(pi_m, pi_m', pi_{m-1}, pi_{m-1}', e)``
    for m = ``steps``, each value the integer times 2^e; with
    ``derivative=False``, ``(pi_m, e)``.  A list passed as ``history`` gets
    ``(pi_k, e)`` for each k < m appended, the very values a run of k steps
    returns, so one sweep gives every degree.  The larger of |pi_k| and
    |pi_{k-1}| keeps between prec and prec + ``_SLACK`` bits, and each step
    rounds down by one shift, so a value is good to about 2^-prec of the
    larger of pi_k and pi_{k-1} per step, not bit for bit.  No step
    divides: the zeros and the ratios a Gauss rule needs do not depend on
    the normalization.
    """
    lo, mid, hi = prec, prec + _SLACK // 2, prec + _SLACK
    e = -prec
    pk = 1 << prec
    pkm1 = dk = dkm1 = 0
    for k in range(steps):
        if history is not None:
            history.append((pk, e))
        t = x - diag[k]
        bsq = offsq[k]
        if derivative:
            dk, dkm1 = ((t * dk - bsq * dkm1) >> prec) + pk, dk
        pk, pkm1 = (t * pk - bsq * pkm1) >> prec, pk
        bl = pk.bit_length()
        if lo <= bl <= hi:
            continue
        bl = max(bl, pkm1.bit_length())
        if lo <= bl <= hi:
            continue
        s = bl - mid
        if s > 0:
            pk >>= s
            pkm1 >>= s
            dk >>= s
            dkm1 >>= s
        else:
            pk <<= -s
            pkm1 <<= -s
            dk <<= -s
            dkm1 <<= -s
        e += s
    if derivative:
        return pk, dk, pkm1, dkm1, e
    return pk, e


def monic_apply(v: list, e: int, jdiag, joff, diag, offsq, steps: int, prec: int):
    """pi_steps(J) v: ``steps`` steps of the monic recurrence of
    :func:`monic_fixed` taken on a vector instead of a point,

        v_{k+1} = (J - a_k) v_k - b_k^2 v_{k-1},   v_{-1} = 0, v_0 = v,

    with J the symmetric tridiagonal m x m matrix of diagonal ``jdiag`` and
    off-diagonal ``joff`` (``joff[i]`` couples entries i - 1 and i, and
    ``joff[0]`` = ``joff[m]`` = 0), and (a_k, b_k^2) the ``diag``/``offsq``
    entries; every entry is an integer v 2^prec.  ``v`` holds the leading
    entries of the vector, those past it being zero, as integers times 2^e,
    one exponent for the whole vector.  Returns ``(v_steps, e)`` the same
    way: each step fills one more entry, up to m, so a vector that starts
    at e_1 has only k + 1 entries after k steps.  As in
    :func:`monic_fixed`, the largest entry of v_k and v_{k-1} keeps between
    prec and prec + ``_SLACK`` bits, so an entry is good to about 2^-prec
    of it per step.  When J and the table have a zero diagonal, each v_k
    lies on one parity, and its entries of the other parity are exact
    integer zeros.
    """
    m = len(jdiag)
    lo, mid, hi = prec, prec + _SLACK // 2, prec + _SLACK
    upper = joff[1:]
    cur, prev = list(v), [0] * len(v)
    for k in range(steps):
        if len(cur) < m:
            cur.append(0)
            prev.append(0)
        t, bsq = diag[k], offsq[k]
        new = [
            (ol * left + (d - t) * c + oh * right - bsq * p) >> prec
            for ol, left, d, c, oh, right, p in zip(
                joff, [0] + cur, jdiag, cur, upper, cur[1:] + [0], prev
            )
        ]
        cur, prev = new, cur
        bl = max(map(int.bit_length, cur))
        if lo <= bl <= hi:
            continue
        bl = max(bl, *map(int.bit_length, prev))
        if lo <= bl <= hi:
            continue
        s = bl - mid
        if s > 0:
            cur = [x >> s for x in cur]
            prev = [x >> s for x in prev]
        else:
            cur = [x << -s for x in cur]
            prev = [x << -s for x in prev]
        e += s
    return cur, e


def _nearest(num: int, den: int, prec: int) -> int:
    """The integer nearest num / den 2^prec, for den > 0."""
    return ((num << (prec + 1)) + den) // (2 * den)


def _nearest_sqrt(num: int, den: int, prec: int) -> int:
    """The integer nearest sqrt(num / den) 2^prec, for num >= 0, den > 0."""
    return (math.isqrt((num << (2 * prec + 2)) // den) + 1) >> 1


#: Bits over ``prec`` at which :func:`_fixed_table` forms h.
_NORM_GUARD = 10


@functools.lru_cache(maxsize=64)
def _fixed_rows(kind: str, alpha, beta, prec: int) -> _GrowingTable:
    """The fixed-point rows (a_k), (b_k^2) of :func:`_fixed_table` at
    ``prec`` bits, grown on demand: one table per weight and precision, 31
    on the Rényi cross-check grid."""
    fixed = prec + _FIXED_GUARD

    def make(start, stop):
        diag, offsq = exact_recurrence(kind, alpha, beta, stop)
        return (
            [_nearest(num, den, fixed) for num, den in diag[start:]],
            [_nearest(num, den, fixed) for num, den in offsq[start:]],
        )

    return _GrowingTable(make, 2)


def _fixed_table(kind: str, alpha, beta, count: int, prec: int):
    """The recurrence table of the mpf routes at ``prec`` bits.

    Returns ``(diag, offsq, h)``: a_k and b_k^2 for k < ``count``, each
    exact entry of :func:`spreadpoly.families.exact_recurrence` rounded once
    to the integer nearest v 2^(prec + ``_FIXED_GUARD``) (the head of
    :func:`_fixed_rows`), and h = h_{count-1} of :func:`_squared_norm` at
    ``prec + _NORM_GUARD`` bits.
    """
    diag, offsq = _fixed_rows(kind, alpha, beta, prec).head(count)
    return diag, offsq, _squared_norm(kind, alpha, beta, count - 1, prec + _NORM_GUARD)


@functools.lru_cache(maxsize=256)
def _jacobi_rows(kind: str, alpha, beta, two_q: int, prec: int) -> _GrowingTable:
    """The rows (a_k), (b_k) of :func:`_jacobi_fixed` for the weight with
    exponents (alpha, beta) at rate two_q / 2 and ``prec`` bits, grown on
    demand: one table per key, 104 on the Rényi cross-check grid."""

    def make(start, stop):
        diag, offsq = exact_recurrence(kind, alpha, beta, stop)
        diag, offsq = diag[start:], offsq[start:]
        if kind == LAGUERRE:
            diag = [(2 * num, den * two_q) for num, den in diag]
            offsq = [(4 * num, den * two_q * two_q) for num, den in offsq]
        elif kind == HERMITE:
            offsq = [(2 * num, den * two_q) for num, den in offsq]
        return (
            [_nearest(num, den, prec) for num, den in diag],
            [_nearest_sqrt(num, den, prec) for num, den in offsq],
        )

    return _GrowingTable(make, 2)


def _jacobi_fixed(kind: str, alpha, beta, m: int, two_q: int, prec: int):
    """``(jdiag, joff)``: the m x m symmetric Jacobi matrix J of the raw
    weight with exponents (alpha, beta) at rate q = two_q / 2, the matrix of
    :func:`monic_apply`, whose eigenvalues are the nodes of its m-point Gauss
    rule.  The rate puts x -> q x into the Laguerre weight and x^2 -> q x^2
    into Hermite's, so the exact entries of
    :func:`spreadpoly.families.exact_recurrence` become a_k / q and
    b_k^2 / q^2 for Laguerre and b_k^2 / q for Hermite; each a_k is then
    rounded once to the integer nearest a_k 2^prec, and each b_k once to
    the integer nearest the square root of its exact b_k^2, times 2^prec
    (the head of :func:`_jacobi_rows`).  ``joff`` holds b_0 = 0, b_1, ...,
    b_{m-1} and a closing 0."""
    jdiag, joff = _jacobi_rows(kind, alpha, beta, two_q, prec).head(m)
    return jdiag, joff + (0,)


@functools.lru_cache(maxsize=128)
def _rate(kind: str, alpha, two_q: int, prec: int):
    """``(c, f)`` at ``prec`` bits, or None for Jacobi and q = 1: the
    Gauss rule of the unit-rate weight with exponents (alpha q, beta q)
    becomes that of w^q once its nodes are divided by c and its weights
    multiplied by f, and its mass mu_0 becomes f mu_0.  Hermite takes
    c = sqrt(q) and f = 1/c, Laguerre c = q and f = q^-(alpha q + 1).
    Memoised: the Rényi cross-check grid asks for 40."""
    if kind == JACOBI or two_q == 2:
        return None
    with mp.workprec(prec):
        s = mp.mpf(two_q) / 2
        if kind == HERMITE:
            r = mp.sqrt(s)
            return r, 1 / r
        return s, mp.power(s, -(mp.mpf(alpha) + 1))


def _recurrence_values(family: Family, n: int, xs, every: bool = False) -> list:
    """p_n = pi_n / sqrt(h_n) at each mpf point of ``xs``, as mpf at the
    active precision: the monic pi_n from :func:`monic_fixed` on the table
    of :func:`_fixed_table`, good to about 2^-prec of the larger of
    pi_n and pi_{n-1} at each point.  With ``every``, the list
    (p_0, ..., p_n) at each point instead, from the same one sweep, each
    p_k bit for bit the value at n = k."""
    prec = mp.prec
    fixed = prec + _FIXED_GUARD
    kind, alpha, beta = family.kind, family.alpha, family.beta
    diag, offsq, h = _fixed_table(kind, alpha, beta, n + 1, prec)
    c = 1 / mp.sqrt(h)
    if every:
        # h_k as the table of count k + 1 holds it
        norms = (_squared_norm(kind, alpha, beta, k, prec + _NORM_GUARD) for k in range(n))
        scales = [*(1 / mp.sqrt(v) for v in norms), c]
    out = []
    for x in xs:
        history = [] if every else None
        v, e = monic_fixed(
            to_fixed(x._mpf_, fixed), diag, offsq, n, fixed, derivative=False, history=history
        )
        if every:
            history.append((v, e))
            out.append([s * _from_fixed(v, e, prec) for s, (v, e) in zip(scales, history)])
        else:
            out.append(c * _from_fixed(v, e, prec))
    return out


def evaluate_recurrence(family: Family, n: int, x):
    """p_n(x) by the recurrence at the active precision (see
    :func:`_recurrence_values`: near a zero of p_n the accuracy is absolute,
    so x closer to 0 than 2^-(prec + 32) reads as 0)."""
    return _recurrence_values(family, n, [mp.mpf(x)])[0]


#: Float64 Newton on the zeros (:func:`zeros_raw`) stops once the ODE's
#: bound c u^2 on every next error is at most this many ulps of
#: max(1, max|z|).  From eigenvalue seeds one step met it, and left every
#: zero at most 0.49 of those ulps from the mpf zero, on Hermite,
#: Laguerre(0, 5, -0.9) and Jacobi((0, 0), (-0.9, 0.5), (2, 0.5), (-1/2, -1/2))
#: at n = 400, 800, 1600 and 3200.
_NEWTON_STEP_ULPS = 2.0
_NEWTON_MAX_ITER = 8


def _eigen_seeds(diag64, off64):
    """Eigenvalues, ascending, of the symmetric tridiagonal matrix with
    diagonal ``diag64`` and off-diagonal ``off64``: the float64 seeds of the
    zeros and of the Gauss rules.

    numpy's LAPACK solves the dense n x n matrix that holds only the
    diagonal and the subdiagonal (``np.linalg.eigvalsh``, ``dsyevd`` without
    vectors).  Its reduction ``dsytrd`` finds every Householder vector of a
    matrix that is already tridiagonal zero, so it hands the same diagonal
    and subdiagonal to ``dsterf`` that ``scipy.linalg.eigh_tridiagonal(...,
    eigvals_only=True)`` does through ``dstevd``, and the seeds are the same
    bits.  The dense matrix costs O(n^2) memory and O(n^3) time against the
    tridiagonal solver's O(n^2) time, and keeps scipy out of the package's
    imports.  PrecisionError if LAPACK does not converge.
    """
    n = len(diag64)
    a = np.zeros((n, n))
    a.flat[:: n + 1] = diag64
    a.flat[n :: n + 1] = off64
    try:
        return np.linalg.eigvalsh(a, UPLO="L")
    except np.linalg.LinAlgError as exc:
        raise PrecisionError(f"eigenvalue solve failed: {exc}") from exc


def _is_symmetric(kind: str, alpha, beta) -> bool:
    """Whether the weight is even about 0 (its zeros mirror exactly)."""
    return kind == HERMITE or (kind == JACOBI and alpha == beta)


def _check_increasing(out: list) -> list:
    for lo, hi in zip(out, out[1:]):
        if not lo < hi:
            raise PrecisionError("zero polish produced non-increasing nodes")
    return out


def _mirror(half: list, m: int, sign: int) -> list:
    """m values on a symmetric rule from ``half``, those at its nonpositive
    nodes: then the first m // 2 reversed, times ``sign`` (1 or -1)."""
    tail = reversed(half[: m // 2])
    return half + ([-v for v in tail] if sign < 0 else list(tail))


def _mirrored_increasing(out: list, symmetric: bool) -> list:
    """Sorted float zeros, mirrored exactly about 0 for a symmetric weight,
    checked to be strictly increasing."""
    n = len(out)
    if symmetric:
        half = [(out[i] - out[n - 1 - i]) / 2 for i in range(n // 2)]
        out = _mirror(half + [0.0] * (n % 2), n, -1)
    return _check_increasing(out)


#: Guard bits over the working precision of the mpf Gauss rules
#: (:func:`_gauss_polish`) and of the Gauss sums of ``quadrature``.
_RULE_GUARD = 20

#: Halley passes one node of an mpf Gauss rule may take.  A float64 seed is
#: about 2^-50 off and pass k leaves about 2^(-50 3^k), so a node settles in
#: the first pass with 50 3^k >= bits: about 1 at 113 bits, 2 at 256, 3 at 1024.
_POLISH_MAX_PASSES = 64


def _ode(kind: str, a, b):
    """The classical differential equation

        A(z) y'' = B(z) y' - K_m y

    that p_m, and its monic form, satisfy for the weight with exponents
    (a, b), as ``((A_0, A_1, A_2), (B_0, B_1))``: A(z) = A_0 + A_1 z + A_2 z^2
    and B(z) = B_0 + B_1 z, in the arithmetic of a and b (the A_i are
    integers)."""
    if kind == HERMITE:
        return (1, 0, 0), (0, 2)
    if kind == LAGUERRE:
        return (0, 1, 0), (-(a + 1), 1)
    return (1, 0, -1), (a - b, a + b + 2)


def _ode_k(kind: str, a, b, m: int):
    """K_m of :func:`_ode`."""
    if kind == HERMITE:
        return 2 * m
    if kind == LAGUERRE:
        return m
    return m * (m + a + b + 1)


def _gauss_polish(kind: str, alpha, beta, m: int, bits: int):
    """Nodes and Christoffel weights of the m-point Gauss rule of a raw
    weight, as mpf at ``bits + _RULE_GUARD``.

    Float64 eigenvalues of the recurrence matrix, the float64 table of
    :func:`spreadpoly.families.raw_recurrence`, seed Halley passes on the
    monic recurrence (:func:`monic_fixed`).  The exact entries behind it,
    rounded once to integers v 2^P with P = bits + ``_RULE_GUARD + _FIXED_GUARD``
    (:func:`_fixed_table`), are its table; the node z, the step and the
    classical ODE's A(z), B(z), K_m and K_{m-1} (:func:`_ode`) are such
    integers too, so a node makes no mpf value but its own and its weight's,
    each rounded once.

    * Pass: with u = pi_m/pi_m', the ODE gives c = p''/(2p') = (B - K_m u)/(2A),
      and the Halley step is u/(1 - u c); its next error is about C_3 u^3,
      C_3 = |c^2 - p'''/(6p')|, where at a zero p'''/p' = ((B - A') B/A +
      B' - K_m)/A.  A node is accepted, step applied, once C_3 |u|^3 <=
      eps (1 + |z|) / 4; no pass only confirms the last step.  C_3 is a
      float taken at the seed, so the test costs no mpf operation.
    * Weight: by Christoffel–Darboux, sum_{k<m} p_k^2 = S / h_{m-1} with
      S = pi_m' pi_{m-1} - pi_{m-1}' pi_m, so the weight is h_{m-1} / S at
      the node z - u.  From the ODE at degrees m and m-1, with
      dK = K_m - K_{m-1}, T = pi_m pi_{m-1} and pi'' = (B pi' - K pi)/A,

          S'   = (B S - dK T) / A,
          S''  = ((B - A') S' + B' S - dK T') / A,
          S''' = ((B - 2A') S'' + (2B' - A'') S' - dK T'') / A,

      all formed from the last pass's integers, and a third-order Taylor
      step carries S to z - u.  After a single pass u is near 2^-50, so u^2
      counts at 113 bits, and near an end where A is small so does u^3:
      S'''/S grows like (B/A)^3 there, C_3 only like (B/A)^2 (a second-order
      step leaves Jacobi(-0.9999, 60) weights 2^-113 off at 113 bits).
      h_{m-1} is :func:`_squared_norm` (through :func:`_fixed_table`), and
      the weight h_{m-1} / S is one division.
    * Symmetric weights (Hermite, Jacobi with alpha = beta): only the
      nonpositive half is polished, the middle node of an odd rule is
      exactly 0, and nodes and weights are mirrored exactly.

    PrecisionError if a node takes more than ``_POLISH_MAX_PASSES`` passes.
    """
    prec = bits + _RULE_GUARD
    fixed = prec + _FIXED_GUARD
    diag, off = raw_recurrence(kind, alpha, beta, m)
    seeds = [float(s) for s in _eigen_seeds(np.array(diag), np.array(off[1:]))]
    fdiag, foffsq, h = _fixed_table(kind, alpha, beta, m, prec)
    symmetric = _is_symmetric(kind, alpha, beta)
    if symmetric:
        seeds = seeds[: (m + 1) // 2]
        if m % 2:
            seeds[-1] = 0.0  # pi_m(0) = 0 exactly: one pass, step 0
    a, b = _rational(alpha), _rational(beta)
    (a0, a1, a2), (b0, b1) = _ode(kind, a, b)
    k_m, k_m1 = (_ode_k(kind, a, b, k) for k in (m, m - 1))
    ib0, ib1, ik, ik1 = (
        _nearest(v.numerator, v.denominator, fixed) for v in map(Fraction, (b0, b1, k_m, k_m1))
    )
    idk = ik - ik1
    fb0, fb1, fk = float(b0), float(b1), float(k_m)
    nodes, weights = [], []
    for s in seeds:
        # C_3 in floats at the seed, from A(s) and B(s)
        sa, sb = a0 + s * (a1 + s * a2), fb0 + fb1 * s
        c = sb / (2 * sa)
        c3 = abs(c * c - ((sb - a1 - 2 * a2 * s) * sb / sa + fb1 - fk) / (6 * sa))
        # log2 of eps (1 + |z|) / (4 C_3), the bound on |u|^3
        log2_tol = math.log2((1 + abs(s)) / 4) - prec - math.log2(c3) if c3 else math.inf
        num, den = s.as_integer_ratio()
        z = (num << fixed) // den
        for _ in range(_POLISH_MAX_PASSES):
            pm, dpm, pm1, dpm1, e = monic_fixed(z, fdiag, foffsq, m, fixed)
            big_a = (a0 << fixed) + a1 * z + a2 * ((z * z) >> fixed)
            big_b = ib0 + ((ib1 * z) >> fixed)
            u = (pm << fixed) // dpm
            u = (2 * big_a * u) // (2 * big_a - ((u * (big_b - ((ik * u) >> fixed))) >> fixed))
            if not u or 3 * (math.log2(abs(u)) - fixed) <= log2_tol:
                break
            z -= u
        else:
            raise PrecisionError(
                f"Halley polish of the {m}-point {kind} rule (alpha={alpha}, "
                f"beta={beta}) did not settle in {_POLISH_MAX_PASSES} passes "
                f"at {bits} bits"
            )
        # S and its derivatives as integers v 2^(2e), pi'' v 2^e
        big_s = dpm * pm1 - dpm1 * pm
        d2pm = (big_b * dpm - ik * pm) // big_a
        d2pm1 = (big_b * dpm1 - ik1 * pm1) // big_a
        dbig_a = (a1 << fixed) + 2 * a2 * z
        ds = (big_b * big_s - idk * pm * pm1) // big_a
        d2s = ((big_b - dbig_a) * ds + ib1 * big_s - idk * (dpm * pm1 + pm * dpm1)) // big_a
        d3s = (
            (big_b - 2 * dbig_a) * d2s
            + ((2 * ib1 - (2 * a2 << fixed)) * ds)
            - idk * (d2pm * pm1 + 2 * dpm * dpm1 + pm * d2pm1)
        ) // big_a
        # S(z - u) = S - u (S' - u (S'' - u S'''/3) / 2)
        taylor = d2s - ((u * d3s) >> fixed) // 3
        taylor = ds - ((u * taylor) >> fixed) // 2
        big_s -= (u * taylor) >> fixed
        nodes.append(_from_fixed(z - u, -fixed, prec))
        weight = mpf_div(h._mpf_, from_man_exp(big_s, 2 * e), prec, round_nearest)
        weights.append(mp.make_mpf(weight))
    if symmetric:
        with mp.workprec(prec):  # negation rounds to the active precision
            nodes, weights = _mirror(nodes, m, -1), _mirror(weights, m, 1)
    return _check_increasing(nodes), weights


def zeros_raw(kind: str, alpha, beta, n: int) -> list:
    """Zeros of the degree-n orthonormal polynomial for a raw weight, as floats.

    Float64 eigenvalues of the symmetric tridiagonal recurrence matrix seed
    float64 Newton steps, taken by all zeros together.  The classical ODE
    (:func:`_ode`) bounds each step's next error a priori: with u = p/p' at
    z, c = p''/(2p') = (B(z) - K_n u)/(2A(z)) and the zero is about c u^2
    from z - u.  The steps stop, the last one applied, once every c u^2 is at
    most ``_NEWTON_STEP_ULPS`` ulps of max(1, max|z|), so from eigenvalue
    seeds one step settles, with no pass that only confirms it; each zero is
    then within a few ulps of that scale.  PrecisionError if that takes more
    than ``_NEWTON_MAX_ITER`` steps.  Symmetric weights get exactly mirrored
    zeros.
    """
    if n < 1:
        return []
    diag, off = raw_recurrence(kind, alpha, beta, n + 1)
    z = _eigen_seeds(np.array(diag[:n]), np.array(off[1:n]))
    (a0, a1, a2), (b0, b1) = _ode(kind, alpha, beta)
    k_n = _ode_k(kind, alpha, beta, n)
    tol = _NEWTON_STEP_ULPS * np.finfo(float).eps
    for _ in range(_NEWTON_MAX_ITER):
        p, dp = poly_scaled(kind, alpha, beta, n, z, derivative=True)[:2]
        step = p / dp
        with np.errstate(divide="ignore", invalid="ignore"):
            c = (b0 + b1 * z - k_n * step) / (2.0 * (a0 + z * (a1 + z * a2)))
        z = z - step
        if np.max(np.abs(c * step * step)) <= tol * max(1.0, float(np.max(np.abs(z)))):
            break
    else:
        raise PrecisionError(
            f"float64 Newton on the {n} zeros did not settle in {_NEWTON_MAX_ITER} steps"
        )
    return _mirrored_increasing(np.sort(z).tolist(), _is_symmetric(kind, alpha, beta))


def zeros(family: Family, n: int, ctx: PrecisionContext = _DEFAULT_CTX) -> list:
    """The n simple zeros of p_n, strictly increasing, inside the interval:
    the mpf nodes of the n-point rule of :func:`_gauss_polish`."""
    if n < 1:
        raise ParameterError("zeros need degree >= 1")
    zs = _gauss_polish(family.kind, family.alpha, family.beta, n, ctx.bits)[0]
    lo, hi = family.interval
    if not (lo < zs[0] and zs[-1] < hi):
        raise PrecisionError("computed zeros escaped the interval")
    return zs
