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
(:func:`_fixed_table`).

Two descriptions of p_n are kept, so each can audit the other: explicit
monomial coefficients and the recurrence.  The coefficients are exact:
:func:`_explicit_coeffs` gives integers R_t over one integer L, and
:func:`_coeff_scale` the one constant K with c_t = K R_t / L, so the Bell
route runs on integers and :func:`orthonormal_coeffs` rounds each c_t once,
with no precision escalation.  The mpf values of p_n at points, for
:func:`evaluate_recurrence` and the Gauss oracles of ``quadrature`` and
``closed_form``, come from one evaluator, :func:`_recurrence_values`:
p_n = pi_n / sqrt(h_n), with the monic pi_n from :func:`monic_fixed` and
h_n = mu_0 b_1^2 ... b_n^2.  Its float64 counterpart is
``_vec.poly_scaled``, which reads the float table and also returns p_n'.

The mpf Gauss rules (:func:`_gauss_polish`, behind :func:`zeros_raw` and the
rules of ``quadrature``) polish float64 eigenvalue seeds by Newton on the
monic recurrence in the same fixed point: the node and the Newton step are
integers v 2^P too.  The classical ODE bounds the next Newton error, so a node
stops without a confirming pass, and Christoffel–Darboux turns the last
pass into the weight (Gautschi, *Orthogonal Polynomials: Computation and
Approximation*, OUP 2004, sections 1.3 and 3.1; Golub and Welsch, Math.
Comp. 23, 1969).  The rules agree with an mpf Newton loop run at twice
the precision to within 2^-bits, not bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp
from mpmath.libmp import from_man_exp, from_rational, round_nearest
from scipy.linalg import eigh_tridiagonal

from .context import ParameterError, PrecisionContext, PrecisionError
from ._vec import poly_scaled
from .families import (
    HERMITE,
    JACOBI,
    LAGUERRE,
    Family,
    exact_recurrence,
    norm_constant,
    raw_recurrence,
)

__all__ = [
    "PolyCoeffs",
    "orthonormal_coeffs",
    "zeros",
]

_DEFAULT_CTX = PrecisionContext()


@dataclass(frozen=True)
class PolyCoeffs:
    """Monomial coefficients c_0..c_n of the orthonormal polynomial p_n."""

    family: Family
    degree: int
    coeffs: tuple

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.degree + 1:
            raise ParameterError("coefficient vector must have length degree+1")
        if self.coeffs[-1] == 0:
            raise ParameterError("leading coefficient must be nonzero")


@functools.lru_cache(maxsize=4)
def _explicit_coeffs(family: Family, n: int) -> tuple:
    """Exact monomial coefficients of p_n: ``(R, L)`` with p_n = K/L *
    sum_t R_t x^t, the integers R_t and L > 0 free of a common factor and
    R_n > 0; K is :func:`_coeff_scale`.

    alpha and beta are doubles, hence dyadic rationals, so every ratio in
    the explicit displays is rational once the Gamma values and the norm
    are gathered into K:

    * Hermite: r_t = (-1)^((n-t)/2) n! 2^t / (((n-t)/2)! t!) for n - t even;
    * Laguerre: r_t = (-1)^t C(n, t) / (alpha+1)_t;
    * Jacobi: r_t = sum_{i>=t} (-1)^(i-t) C(n, i) C(i, t) (s0)_i / (2^i (alpha+1)_i)
      with s0 = alpha + beta + n + 1.

    Exact integers leave nothing to cancel: the parity zeros of Hermite and
    of Jacobi with alpha = beta are exact zeros.  Memoised on (family, n),
    so the L2 and L_q of one ``measures`` row build one set.
    """
    if n < 0:
        raise ParameterError("degree must be nonnegative")
    if family.kind == HERMITE:
        R = [0] * (n + 1)
        for t in range(n % 2, n + 1, 2):
            m = (n - t) // 2
            R[t] = (-1) ** m * math.factorial(n) * 2**t // (math.factorial(m) * math.factorial(t))
        return _reduced(R, 1)
    num, den = family.alpha.as_integer_ratio()
    # (alpha+1)_i = P_i / den^i with P_i = prod_{j<i} (num + den (j+1)) > 0;
    # tail[i] = P_n / P_i
    tail = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        tail[i] = tail[i + 1] * (num + den * (i + 1))
    if family.kind == LAGUERRE:
        R = [(-1) ** t * math.comb(n, t) * den**t * tail[t] for t in range(n + 1)]
        L = tail[0]
    else:
        s0 = Fraction(family.alpha) + Fraction(family.beta) + n + 1
        snum, sden = s0.numerator, s0.denominator
        # common denominator L = (2 sden)^n P_n; g_i is the i-th term over it
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
        L = (2 * sden) ** n * tail[0]
    return _reduced(R, L)


def _reduced(R: list, L: int) -> tuple:
    """``(R, L)`` with the leading R positive and no common factor."""
    if R[-1] < 0:
        R = [-r for r in R]
    common = math.gcd(L, *R)
    return tuple(r // common for r in R), L // common


def _coeff_scale(family: Family, n: int):
    """K of :func:`_explicit_coeffs`, at the active precision: the norm of
    p_n and the Gamma values of the displays."""
    a = mp.mpf(family.alpha)
    b = mp.mpf(family.beta)
    if family.kind == HERMITE:
        return 1 / mp.sqrt(mp.power(2, n) * mp.factorial(n) * mp.sqrt(mp.pi))
    if family.kind == LAGUERRE:
        return mp.sqrt(mp.gamma(n + a + 1) / mp.factorial(n)) / mp.gamma(a + 1)
    # At n=0 the display's (2n+a+b+1) Gamma(a+b+n+1) collapses exactly to
    # Gamma(a+b+2), so the Chebyshev cell a+b = -1 never evaluates a pole.
    if n == 0:
        front = mp.gamma(a + b + 2)
    else:
        front = (2 * n + a + b + 1) * mp.gamma(a + b + n + 1)
    norm = mp.sqrt(
        mp.gamma(a + n + 1)
        * front
        / (mp.factorial(n) * mp.power(2, a + b + 1) * mp.gamma(n + b + 1))
    )
    return norm / mp.gamma(a + 1)


#: Extra bits at which K R_t / L is formed before its one rounding.
_COEFF_GUARD = 64


def orthonormal_coeffs(
    family: Family, n: int, ctx: PrecisionContext = _DEFAULT_CTX
) -> PolyCoeffs:
    """Explicit coefficients c_t = K R_t / L, rounded once to ``ctx.bits``."""
    R, L = _explicit_coeffs(family, n)
    with mp.workprec(ctx.bits + _COEFF_GUARD):
        k = _coeff_scale(family, n)
        coeffs = [k * r / L for r in R]
    with mp.workprec(ctx.bits):
        return PolyCoeffs(family, n, tuple(+c for c in coeffs))


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


def monic_fixed(x, diag, offsq, steps: int, prec: int, derivative: bool = True):
    """``steps`` steps of the monic three-term recurrence at ``x``.

    pi_{k+1} = (x - a_k) pi_k - b_k^2 pi_{k-1} from pi_{-1} = 0 and
    pi_0 = 1, with x and the ``diag``/``offsq`` entries (a_k, b_k^2) given
    as integers v 2^prec.  Returns ``(pi_m, pi_m', pi_{m-1}, pi_{m-1}', e)``
    for m = ``steps``, each value the integer times 2^e; with
    ``derivative=False``, ``(pi_m, e)``.  The larger of |pi_k| and
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


@functools.lru_cache(maxsize=64)
def _fixed_table(kind: str, alpha, beta, count: int, prec: int):
    """The recurrence table of the mpf routes at ``prec`` bits.

    Returns ``(diag, offsq, h)``: a_k and b_k^2 for k < ``count``, each
    exact entry of :func:`spreadpoly.families.exact_recurrence` rounded once
    to the integer nearest v 2^(prec + ``_FIXED_GUARD``), and
    h = mu_0 b_1^2 ... b_{count-1}^2, the squared norm of pi_{count-1},
    as an mpf at ``prec`` bits from the entries rounded to ``prec``.
    """
    diag, offsq = exact_recurrence(kind, alpha, beta, count)
    fixed = prec + _FIXED_GUARD
    with mp.workprec(prec):
        h = norm_constant(kind, alpha, beta)
        for num, den in offsq[1:]:
            h *= mp.make_mpf(from_rational(num, den, prec, round_nearest))

    def nearest(num, den):
        return ((num << (fixed + 1)) + den) // (2 * den)

    return (
        tuple(nearest(*v) for v in diag),
        tuple(nearest(*v) for v in offsq),
        h,
    )


def _recurrence_values(family: Family, n: int, xs) -> list:
    """p_n = pi_n / sqrt(h_n) at each mpf point of ``xs``, as mpf at the
    active precision: the monic pi_n from :func:`monic_fixed` on the table
    of :func:`_fixed_table`, good to about 2^-prec of the larger of
    pi_n and pi_{n-1} at each point."""
    prec = mp.prec
    fixed = prec + _FIXED_GUARD
    diag, offsq, h = _fixed_table(family.kind, family.alpha, family.beta, n + 1, prec)
    c = 1 / mp.sqrt(h)
    out = []
    for x in xs:
        v, e = monic_fixed(to_fixed(x._mpf_, fixed), diag, offsq, n, fixed, derivative=False)
        out.append(c * _from_fixed(v, e, prec))
    return out


def evaluate_recurrence(family: Family, n: int, x):
    """p_n(x) by the recurrence at the active precision (see
    :func:`_recurrence_values`: near a zero of p_n the accuracy is absolute,
    so x closer to 0 than 2^-(prec + 32) reads as 0)."""
    return _recurrence_values(family, n, [mp.mpf(x)])[0]


#: Float64 Newton on the zeros stops once every step is at most this many
#: ulps of max(1, max|z|); converged steps measured at most 0.5 of them
#: (Hermite, Laguerre and Jacobi, n <= 3200), and two steps suffice there.
_NEWTON_STEP_ULPS = 2.0
_NEWTON_MAX_ITER = 8


def _eigen_seeds(diag64, off64):
    """Eigenvalues of the symmetric tridiagonal recurrence matrix."""
    try:
        return eigh_tridiagonal(diag64, off64, eigvals_only=True)
    except Exception as exc:  # pragma: no cover - LAPACK failure surface
        raise PrecisionError(f"eigenvalue solve failed: {exc}") from exc


def _is_symmetric(kind: str, alpha, beta) -> bool:
    """Whether the weight is even about 0 (its zeros mirror exactly)."""
    return kind == HERMITE or (kind == JACOBI and alpha == beta)


def _check_increasing(out: list) -> list:
    for lo, hi in zip(out, out[1:]):
        if not lo < hi:
            raise PrecisionError("zero polish produced non-increasing nodes")
    return out


def _mirrored_increasing(out: list, symmetric: bool, zero) -> list:
    """Sorted zeros, mirrored exactly about ``zero`` for a symmetric weight,
    checked to be strictly increasing."""
    n = len(out)
    if symmetric:
        half = [(out[n - 1 - i] - out[i]) / 2 for i in range(n // 2)]
        mirrored = [-h for h in half]
        if n % 2:
            mirrored.append(zero)
        out = mirrored + [half[n // 2 - 1 - i] for i in range(n // 2)]
    return _check_increasing(out)


#: Newton passes one node of an mpf Gauss rule may take.  From float64 seeds
#: a node settles in about log2(bits / 50) + 2 passes (3 at 256 bits).
_POLISH_MAX_PASSES = 64


def _ode(kind: str, a, b, z):
    """(A(z), B(z)) of the classical differential equation

        A(z) y'' = B(z) y' - K_m y

    that p_m, and its monic form, satisfy for the weight with exponents
    (a, b); in the arithmetic of the arguments (floats or mpf)."""
    if kind == HERMITE:
        return 1, 2 * z
    if kind == LAGUERRE:
        return z, z - (a + 1)
    return (1 - z) * (1 + z), (a + b + 2) * z - (b - a)


def _ode_k(kind: str, a, b, m: int):
    """K_m of :func:`_ode`."""
    if kind == HERMITE:
        return 2 * m
    if kind == LAGUERRE:
        return m
    return m * (m + a + b + 1)


def _gauss_polish(kind: str, alpha, beta, m: int, bits: int):
    """Nodes and Christoffel weights of the m-point Gauss rule of a raw
    weight, as mpf at ``bits + 20``.

    Float64 eigenvalues of the recurrence matrix, the float64 table of
    :func:`spreadpoly.families.raw_recurrence`, seed a Newton polish on the
    monic recurrence (:func:`monic_fixed`).  The exact entries behind it,
    rounded once to integers v 2^P with P = bits + 20 + ``_FIXED_GUARD``
    (:func:`_fixed_table`), are its table; the node z and the step u =
    pi_m/pi_m' are such integers too, so a pass makes no mpf operation.

    * Stop: after a step u = pi/pi', the next error is about C u^2 with
      C = |p''/(2p')|, and p'' comes from the classical ODE (:func:`_ode`).
      A node is accepted, step applied, once C u^2 <= eps (1 + |z|) / 4;
      no pass only confirms the last step.  C is a float estimate taken at
      the seed, so the test costs no mpf operation.
    * Weight: by Christoffel–Darboux, sum_{k<m} p_k^2 = S / h_{m-1} with
      S = pi_m' pi_{m-1} - pi_{m-1}' pi_m and h_{m-1} = mu_0 b_1^2 ...
      b_{m-1}^2 (formed from the entries at the working precision), so the
      weight is h_{m-1} / S at the node z - u.  One Taylor
      step carries S there from the last pass at z, with S' = (B S - (K_m -
      K_{m-1}) pi_m pi_{m-1}) / A from the ODE at degrees m and m-1.  S is
      formed exactly from the pass's integers; the rest is mpf, once per
      node.
    * Symmetric weights (Hermite, Jacobi with alpha = beta): only the
      nonpositive half is polished, the middle node of an odd rule is
      exactly 0, and nodes and weights are mirrored exactly.

    PrecisionError if a node takes more than ``_POLISH_MAX_PASSES`` passes.
    """
    with mp.workprec(bits + 20):
        prec = mp.prec
        fixed = prec + _FIXED_GUARD
        one = 1 << fixed
        diag, off = raw_recurrence(kind, alpha, beta, m)
        seeds = [float(s) for s in _eigen_seeds(np.array(diag), np.array(off[1:]))]
        fdiag, foffsq, h = _fixed_table(kind, alpha, beta, m, prec)
        symmetric = _is_symmetric(kind, alpha, beta)
        if symmetric:
            seeds = seeds[: (m + 1) // 2]
            if m % 2:
                seeds[-1] = 0.0  # pi_m(0) = 0 exactly: one pass, step 0
        a, b = mp.mpf(alpha), mp.mpf(beta)
        af, bf = float(alpha), float(beta)
        k_m = _ode_k(kind, af, bf, m)
        dk = _ode_k(kind, a, b, m) - _ode_k(kind, a, b, m - 1)
        nodes, weights = [], []
        for s in seeds:
            a_s, b_s = _ode(kind, af, bf, s)
            # log2 of 2 |A| eps (1 + |z|) / 4, the bound on |B - K u| u^2
            log2_tol = math.log2(abs(a_s) * (1 + abs(s)) / 2) + 1 - prec
            num, den = s.as_integer_ratio()
            z = (num << fixed) // den
            for _ in range(_POLISH_MAX_PASSES):
                pm, dpm, pm1, dpm1, e = monic_fixed(z, fdiag, foffsq, m, fixed)
                u = (pm << fixed) // dpm
                if not u:
                    break
                c2 = abs(b_s - k_m * (u / one))  # 2 C |A|
                if c2 == 0 or math.log2(c2) + 2 * (math.log2(abs(u)) - fixed) <= log2_tol:
                    break
                z -= u
            else:
                raise PrecisionError(
                    f"Newton polish of the {m}-point {kind} rule (alpha={alpha}, "
                    f"beta={beta}) did not settle in {_POLISH_MAX_PASSES} passes "
                    f"at {bits} bits"
                )
            big_s = _from_fixed(dpm * pm1 - dpm1 * pm, 2 * e, prec)
            a_z, b_z = _ode(kind, a, b, _from_fixed(z, -fixed, prec))
            taylor = (b_z * big_s - dk * _from_fixed(pm * pm1, 2 * e, prec)) / a_z
            big_s -= _from_fixed(u, -fixed, prec) * taylor
            nodes.append(_from_fixed(z - u, -fixed, prec))
            weights.append(h / big_s)
        if symmetric:
            half = m // 2
            nodes += [-x for x in reversed(nodes[:half])]
            weights += reversed(weights[:half])
        return _check_increasing(nodes), weights


def zeros_raw(kind: str, alpha, beta, n: int, bits=None) -> list:
    """Zeros of the degree-n orthonormal polynomial for a raw weight.

    Float64 eigenvalues of the symmetric tridiagonal recurrence matrix seed
    a Newton polish; symmetric weights get exactly mirrored nodes so parity
    cancellations are exact downstream.  With ``bits`` the zeros are mpf
    at ``bits + 20``, the nodes of :func:`_gauss_polish`.  With
    ``bits=None`` the zeros are Python floats: all of them take float64
    Newton steps together until every step is at most 2 ulps of
    max(1, max|z|), which leaves each zero within a few ulps of that scale;
    PrecisionError if that takes more than 8 steps.
    """
    if n < 1:
        return []
    symmetric = _is_symmetric(kind, alpha, beta)
    if bits is None:
        diag, off = raw_recurrence(kind, alpha, beta, n + 1)
        z = _eigen_seeds(np.array(diag[:n]), np.array(off[1:n]))
        for _ in range(_NEWTON_MAX_ITER):
            p, dp = poly_scaled(kind, alpha, beta, n, z, derivative=True)[:2]
            step = p / dp
            z = z - step
            scale = max(1.0, float(np.max(np.abs(z))))
            if np.max(np.abs(step)) <= _NEWTON_STEP_ULPS * np.finfo(float).eps * scale:
                break
        else:
            raise PrecisionError(
                f"float64 Newton on the {n} zeros did not settle in {_NEWTON_MAX_ITER} steps"
            )
        return _mirrored_increasing(np.sort(z).tolist(), symmetric, 0.0)
    return _gauss_polish(kind, alpha, beta, n, bits)[0]


def zeros(family: Family, n: int, ctx: PrecisionContext = _DEFAULT_CTX) -> list:
    """The n simple zeros of p_n, strictly increasing, inside the interval."""
    if n < 1:
        raise ParameterError("zeros need degree >= 1")
    with mp.workprec(ctx.bits):
        zs = zeros_raw(family.kind, family.alpha, family.beta, n, ctx.bits)
        lo, hi = family.interval
        if zs and not (lo < zs[0] and zs[-1] < hi):
            raise PrecisionError("computed zeros escaped the interval")
        return zs
