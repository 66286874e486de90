"""Rényi lengths through partial Bell polynomials.

The 2q-th power of an orthonormal polynomial expands over monomials with
coefficients expressed by partial Bell polynomials of the (scaled)
monomial coefficients; contracting against the moments of the q-th power
of the weight gives the signed power integral

    W_q = integral p_n^{2q}(x) w(x)^q dx,

and the Rényi length is W_q^{-1/(q-1)}.

alpha and beta are doubles, so exact dyadic rationals, and the whole sum is
exact: p_n = sum_t R_t x^t / (R_n sqrt(h_n)) with integers R_t
(``orthopoly._explicit_coeffs``) and the squared norm h_n = mu_0 P_n of the
recurrence table, P_n = b_1^2 ... b_n^2 = num / den the exact product of
``orthopoly._norm_product``, and the moments of w^q are m_k = m_0 M_k / M
with integers M_k, M.  Hence

    W_q = C X,   C = m_0 / mu_0^q,   X = S / (M R_n^{2q} P_n^q),

where S = sum_k D_k M_k and D_k are the integer coefficients of
(sum_t R_t x^t)^{2q}.  S is one Python integer: nothing cancels, so W_q
is exactly 0 iff S is (parity, or the coincidence alpha = (q-3)/(2q) at
odd 2q), and otherwise rounding enters only through the constant C, the
one rounding of the rational S den^[q] / (M R_n^{2q} num^[q]) (with
[q] the integer part of q), one division by sqrt(P_n) at odd 2q, and
the product C X.  C depends on the weight and 2q alone and is formed
once per precision (:func:`_bell_constant`); its m_0 is written here,
apart from the table's mu_0 = h_0, so W_1 = 1 checks the table's norm.
No precision escalation is needed: the context sets only the bits at
which W is returned.

D_k is the partial Bell value (2q)!/(k+2q)! B_{k+2q,2q}(1! R_0, 2! R_1, ...),
read off one integer polynomial power by Kronecker substitution
(``_kronecker_product``), which the Lauricella route uses too.

The length map is written once, in :func:`_renyi_length`, for this route
and the Lauricella route: 0 where w^q is not integrable, the refusal of
an odd-2q length at n >= 1, and W -> W^{-1/(q-1)} at the context's bits.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import from_rational, mpf_div, mpf_mul, mpf_pow_int, mpf_sqrt, round_nearest

from .context import ParameterError, PrecisionContext
from .families import HERMITE, LAGUERRE, Family, RenyiOrder, _integrable_order, power_integrable
from .orthopoly import _explicit_coeffs, _norm_product, _squared_norm

__all__ = [
    "polynomial_power_coeffs",
    "renyi_power_integral_bell",
    "renyi_length_bell",
    "length_from_power_integral",
]

_DEFAULT_CTX = PrecisionContext()

#: Extra bits at which C and X of W = C X are formed;
#: W is returned at twice the context's bits.
_GUARD_BITS = 32


def _pack(coeffs, width: int) -> int:
    """sum_t c_t 2^(8 width t) for integers |c_t| < 2^(8 width - 1)."""
    pos, neg = (
        b"".join(max(sign * c, 0).to_bytes(width, "little") for c in coeffs) for sign in (1, -1)
    )
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kronecker_product(factors) -> list:
    """Integer coefficients of prod (sum_t c_t x^t)^power over ``factors``,
    a sequence of ``(coeffs, power)`` with integer coeffs.

    Kronecker substitution: no output coefficient exceeds
    prod (sum_t |c_t|)^power in magnitude, so with digits of B bits above
    that bound each polynomial packs into one integer sum_t c_t 2^(Bt), the
    packed product (one ``**`` per factor) is the packed result, and its
    signed B-bit digits are the coefficients.  Adding 2^(B-1) to every
    digit makes them all nonnegative, so one ``to_bytes`` pass reads them.
    """
    factors = [(c, p) for c, p in factors if p]  # c^0 = 1 need not fit a digit
    length = 1 + sum(p * (len(c) - 1) for c, p in factors)
    bound = math.prod(sum(map(abs, c)) ** p for c, p in factors)
    if not bound:
        return [0] * length
    width = bound.bit_length() // 8 + 1  # bytes per digit, B = 8 width
    packed = math.prod(_pack(c, width) ** p for c, p in factors)
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * length, "little")
    raw = (packed + offset).to_bytes(width * length, "little")
    return [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, len(raw), width)]


def polynomial_power_coeffs(coeffs, p: int) -> list:
    """Integer monomial coefficients of (sum_t c_t x^t)^p, integer c_t.

    Entry t equals  p!/(t+p)! * B_{t+p, p}(1! c_0, 2! c_1, ..., (t+1)! c_t).
    """
    if p < 0:
        raise ParameterError("power must be nonnegative")
    return _kronecker_product([(coeffs, p)])


def _jacobi_moment_prefactor(a, b):
    """2^{1+a+b} Gamma(a+1) Gamma(b+1) / Gamma(a+b+2), the k=0 moment of
    (1-x)^a (1+x)^b on [-1, 1]."""
    return mp.power(2, 1 + a + b) * mp.gamma(a + 1) * mp.gamma(b + 1) / mp.gamma(a + b + 2)


def _power_mass(kind: str, alpha, beta, two_q: int, prec: int):
    """m_0 = integral w(x)^q, q = two_q/2, at ``prec`` bits, read once per
    (weight, 2q, prec) by the memo of :func:`_bell_constant`.  At q = 1
    it restates mu_0 on purpose, apart from ``families.norm_constant``,
    whose mu_0 is the one in h_n: W_1 = 1 then checks the table's norm."""
    with mp.workprec(prec):
        q = mp.mpf(two_q) / 2
        if kind == HERMITE:
            return mp.sqrt(mp.pi / q)
        a = mp.mpf(alpha) * q
        if kind == LAGUERRE:
            return mp.gamma(a + 1) / mp.power(q, a + 1)
        return _jacobi_moment_prefactor(a, mp.mpf(beta) * q)


@functools.lru_cache(maxsize=256)
def _bell_constant(kind: str, alpha, beta, two_q: int, prec: int) -> tuple:
    """C = m_0 / h_0^q of W = C X, q = two_q/2, as a raw mpf at ``prec``
    bits, memoised on (weight, 2q, prec): the criterion 3 grid asks for
    104.  m_0 is :func:`_power_mass` and h_0 the table's mu_0
    (``orthopoly._squared_norm`` at n = 0); h_0^q is an integer power of
    h_0, times sqrt(h_0) at odd 2q."""
    m0 = _power_mass(kind, alpha, beta, two_q, prec)._mpf_
    h0 = _squared_norm(kind, alpha, beta, 0, prec)._mpf_
    hq = mpf_pow_int(h0, two_q // 2, prec, round_nearest)
    if two_q % 2:
        hq = mpf_mul(hq, mpf_sqrt(h0, prec, round_nearest), prec, round_nearest)
    return mpf_div(m0, hq, prec, round_nearest)


@functools.lru_cache(maxsize=256)
def _moment_constants(kind: str, alpha, beta, two_q: int) -> tuple:
    """The integers of :func:`_weight_power_moments`' recurrence for w^q,
    memoised on (weight, 2q): ``(anum, aden)`` with 2A = anum/aden for
    Laguerre, ``(d, s, slope)`` for Jacobi."""
    if kind == LAGUERRE:
        return (Fraction(alpha) * two_q).as_integer_ratio()
    a = Fraction(alpha) * two_q / 2
    b = Fraction(beta) * two_q / 2
    d = max(a.denominator, b.denominator)  # both powers of 2
    return d, int((a + b + 2) * d), int((b - a) * d)


def _weight_power_moments(family: Family, two_q: int, count: int) -> tuple:
    """``(M, den)``: m_k / m_0 = M[k] / den for k < count, exactly, where
    m_k = integral x^k w(x)^q and q = two_q/2.

    Each ratio follows from its predecessors in O(1) integer operations,
    with A = alpha q and B = beta q:

    * Jacobi: integrating d/dx[x^k (1-x^2) w^q] over [-1, 1] gives 0 (A, B > -1),
      so (k+2+A+B) m_{k+1} = k m_{k-1} + (B-A) m_k; odd moments are exactly
      0 when A = B;
    * Laguerre: m_{k+1} = m_k (A+k+1)/q;
    * Hermite: m_{2j+2} = m_{2j} (j+1/2)/q, odd moments 0.

    No recurrence coefficient or Gauss node of w^q is used, so the Bell route
    stays independent of the Gauss route.
    """
    top = count - 1
    if family.kind == HERMITE:
        # m_{2j}/m_0 = (2j-1)!! / two_q^j
        M = [0] * count
        num = 1
        for k in range(0, count, 2):
            M[k] = num * two_q ** ((top - k) // 2)
            num *= k + 1
        return M, two_q ** (top // 2)
    consts = _moment_constants(family.kind, family.alpha, family.beta, two_q)
    if family.kind == LAGUERRE:
        # m_k/m_0 = prod_{j<k} (2A + 2(j+1)) / two_q^k, 2A = anum/aden
        anum, aden = consts
        step = aden * two_q
        M = []
        num = 1
        for k in range(count):
            M.append(num * step ** (top - k))
            num *= anum + 2 * aden * (k + 1)
        return M, step**top
    # m_k/m_0 = N_k / Q_k with Q_k = prod_{j<k} (j d + s), s = d (A+B+2) and
    # d the common denominator of A and B and slope = d (B-A):
    # N_{k+1} = k d ((k-1) d + s) N_{k-1} + slope N_k
    d, s, slope = consts
    N = [1]
    prev = 0
    for k in range(top):
        N.append(k * d * ((k - 1) * d + s) * prev + slope * N[k])
        prev = N[k]
    # over the common denominator Q_top: M_k = N_k Q_top / Q_k
    M = [0] * count
    tail = 1
    for k in range(top, -1, -1):
        M[k] = N[k] * tail
        if k:
            tail *= (k - 1) * d + s
    return M, tail


def renyi_power_integral_bell(
    family: Family, n: int, q, ctx: PrecisionContext = _DEFAULT_CTX
):
    """W_q by the Bell-expansion route; equals 1 at q=1 (normalization).

    Exactly 0 iff the integer sum S is; otherwise W = C X with the
    constant C = m_0 / mu_0^q of the weight and 2q (:func:`_bell_constant`)
    and X = S den^[q] / (M R_n^{2q} num^[q]) rounded once, divided by
    sqrt(num / den) at odd 2q, both at twice ``ctx.bits`` plus guard bits;
    the product C X is rounded to twice ``ctx.bits``.  ParameterError
    where w^q is not integrable (``families._integrable_order``).
    """
    p = _integrable_order(family, q).two_q
    R = _explicit_coeffs(family, n)
    d = polynomial_power_coeffs(R, p)
    moments, mden = _weight_power_moments(family, p, len(d))
    total = sum(dk * mk for dk, mk in zip(d, moments))
    bits = 2 * ctx.bits
    prec = bits + _GUARD_BITS
    kind, alpha, beta = family.kind, family.alpha, family.beta
    num, den = _norm_product(kind, alpha, beta, n)
    whole = p // 2  # [q]
    X = from_rational(total * den**whole, mden * R[-1] ** p * num**whole, prec, round_nearest)
    if p % 2:
        root = mpf_sqrt(from_rational(num, den, prec, round_nearest), prec, round_nearest)
        X = mpf_div(X, root, prec, round_nearest)
    C = _bell_constant(kind, alpha, beta, p, prec)
    return mp.make_mpf(mpf_mul(C, X, bits, round_nearest))


def length_from_power_integral(W, q):
    """Map a positive power integral W = integral rho^q to the Rényi length
    W^{-1/(q-1)}; ParameterError at q=1 and for W <= 0, which is no such
    integral."""
    order = RenyiOrder.from_q(q)
    if order.is_unit:
        raise ParameterError("Renyi length undefined at q=1")
    if not W > 0:
        raise ParameterError(f"power integral {mp.nstr(W, 5)} is not positive")
    expo = Fraction(-2, order.two_q - 2)
    return mp.power(W, mp.mpf(expo.numerator) / expo.denominator)


def _renyi_length(family: Family, n: int, q, ctx: PrecisionContext, power_integral):
    """L_q of the exact routes from W = ``power_integral(order)``, at ``ctx.bits``.

    0 where w^q is not integrable, so that the integral of rho^q diverges.
    ParameterError for odd 2q at n >= 1: the exact routes then give the
    signed W = integral p_n^{2q} w^q, which equals integral rho^q only
    where p_n keeps one sign, i.e. at n = 0, so W^{-1/(q-1)} is not the
    Rényi length.
    """
    order = RenyiOrder.from_q(q)
    if not power_integrable(order.q, family.alpha, family.beta):
        return mp.mpf(0)
    if order.two_q % 2 and n > 0:
        raise ParameterError(
            f"L_{order.q} at n={n} is not computed: for odd 2q the exact routes give "
            "the signed integral of p_n^(2q) w^q, not the integral of rho^q"
        )
    W = power_integral(order)
    with mp.workprec(ctx.bits):
        return +length_from_power_integral(W, order)


def renyi_length_bell(family: Family, n: int, q, ctx: PrecisionContext = _DEFAULT_CTX):
    """Rényi length L_q via the Bell route (2q a positive integer, q != 1);
    0 where w^q is not integrable, ParameterError for odd 2q at n >= 1
    (:func:`_renyi_length`)."""
    return _renyi_length(
        family, n, q, ctx, lambda order: renyi_power_integral_bell(family, n, order, ctx)
    )
