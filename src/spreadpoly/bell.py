"""Rényi lengths through partial Bell polynomials.

The 2q-th power of an orthonormal polynomial expands over monomials with
coefficients expressed by partial Bell polynomials of the (scaled)
monomial coefficients; contracting against the moments of the q-th power
of the weight gives the signed power integral

    W_q = integral p_n^{2q}(x) w(x)^q dx,

and the Rényi length is W_q^{-1/(q-1)}.

alpha and beta are doubles, so exact dyadic rationals, and the whole sum is
exact: p_n = K/L sum_t R_t x^t with integers R_t, L
(``orthopoly._explicit_coeffs``) and one positive constant K
(``orthopoly._coeff_scale``), and the moments of w^q are m_k = m_0 M_k / M
with integers M_k, M.  Hence

    W_q = K^{2q} m_0 S / (L^{2q} M),   S = sum_k D_k M_k,

where D_k are the integer coefficients of (sum_t R_t x^t)^{2q}.  S is one
Python integer: nothing cancels, so W_q is exactly 0 iff S is (parity, or
the coincidence alpha = (q-3)/(2q) at odd 2q), and otherwise rounding
enters only through the closed-form constant K^{2q} m_0 and one division.
No precision escalation is needed: the context sets only the bits at
which W is returned.

D_k is the partial Bell value (2q)!/(k+2q)! B_{k+2q,2q}(1! R_0, 2! R_1, ...);
it and B_{m,l} itself come from one integer polynomial product by
Kronecker substitution (``_kronecker_product``), which the Lauricella
route uses too.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp

from .context import ParameterError, PrecisionContext
from .families import HERMITE, LAGUERRE, Family, RenyiOrder, _rational, power_integrable
from .orthopoly import _coeff_scale, _explicit_coeffs

__all__ = [
    "partial_bell",
    "polynomial_power_coeffs",
    "renyi_power_integral_bell",
    "renyi_length_bell",
    "length_from_power_integral",
]

_DEFAULT_CTX = PrecisionContext()

#: Extra bits at which the constant K^{2q} m_0 S / (L^{2q} M) is formed;
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


def partial_bell(m: int, l: int, args):
    """Partial Bell polynomial B_{m,l}(x_1, ..., x_{m-l+1}), exactly.

    B_{m,l} = m!/l! [t^m] (sum_i x_i t^i / i!)^l.  Each argument is read as
    the exact rational it holds (int, float, Fraction or mpf); the value is
    an int when it is an integer and a Fraction otherwise.
    """
    if m < 0 or l < 0:
        raise ParameterError("indices must be nonnegative")
    if l == 0 or l > m:
        return int(m == l)  # B_{0,0} = 1; B_{m,0} = 0 for m > 0, and B_{m,l} = 0 for l > m
    width = m - l + 1  # x_i with i > width cannot reach t^m; missing ones are 0
    args = tuple(args)[:width]
    ys = [_rational(x) / math.factorial(i) for i, x in enumerate(args, 1)]
    ys += [0] * (width - len(ys))
    # (sum_i y_i t^i)^l = t^l (sum_j y_{j+1} t^j)^l, over one denominator
    den = math.lcm(*(y.denominator for y in ys))
    coeffs = [y.numerator * (den // y.denominator) for y in ys]
    top = _kronecker_product([(coeffs, l)])[m - l]
    value = Fraction(math.factorial(m) * top, math.factorial(l) * den**l)
    return value.numerator if value.denominator == 1 else value


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


def _weight_power_mass(family: Family, two_q: int):
    """m_0 = integral w(x)^q, q = two_q/2, at the active precision."""
    q = mp.mpf(two_q) / 2
    if family.kind == HERMITE:
        return mp.sqrt(mp.pi / q)
    a = mp.mpf(family.alpha) * q
    if family.kind == LAGUERRE:
        return mp.gamma(a + 1) / mp.power(q, a + 1)
    return _jacobi_moment_prefactor(a, mp.mpf(family.beta) * q)


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
    if family.kind == LAGUERRE:
        # m_k/m_0 = prod_{j<k} (2A + 2(j+1)) / two_q^k, 2A = anum/aden
        anum, aden = (Fraction(family.alpha) * two_q).as_integer_ratio()
        step = aden * two_q
        M = []
        num = 1
        for k in range(count):
            M.append(num * step ** (top - k))
            num *= anum + 2 * aden * (k + 1)
        return M, step**top
    # m_k/m_0 = N_k / Q_k with Q_k = prod_{j<k} (j d + s), s = d (A+B+2) and
    # d the common denominator of A and B:
    # N_{k+1} = k d ((k-1) d + s) N_{k-1} + d (B-A) N_k
    a = Fraction(family.alpha) * two_q / 2
    b = Fraction(family.beta) * two_q / 2
    d = max(a.denominator, b.denominator)  # both powers of 2
    s = int((a + b + 2) * d)
    slope = int((b - a) * d)
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

    Exactly 0 iff the integer sum S is; otherwise K^{2q} m_0 S / (L^{2q} M)
    is formed at twice ``ctx.bits`` plus guard bits and returned at twice
    ``ctx.bits``.
    """
    order = RenyiOrder.from_q(q)
    if not power_integrable(order.q, family.alpha, family.beta):
        raise ParameterError(f"w^q is not integrable for {family.describe()} at q={order}")
    p = order.two_q
    coeffs, den = _explicit_coeffs(family, n)
    d = polynomial_power_coeffs(coeffs, p)
    moments, mden = _weight_power_moments(family, p, len(d))
    total = sum(dk * mk for dk, mk in zip(d, moments))
    bits = 2 * ctx.bits
    with mp.workprec(bits + _GUARD_BITS):
        W = _coeff_scale(family, n) ** p * _weight_power_mass(family, p) * total / (den**p * mden)
    with mp.workprec(bits):
        return +W


def length_from_power_integral(W, order: RenyiOrder):
    """Map a positive power integral W = integral rho^q to the Rényi length
    W^{-1/(q-1)}; ParameterError at q=1 and for W <= 0, which is no such
    integral."""
    if order.is_unit:
        raise ParameterError("Renyi length undefined at q=1")
    if not W > 0:
        raise ParameterError(f"power integral {mp.nstr(W, 5)} is not positive")
    expo = Fraction(-2, order.two_q - 2)
    return mp.power(W, mp.mpf(expo.numerator) / expo.denominator)


def _refuse_signed_length(n: int, order: RenyiOrder) -> None:
    """ParameterError for an odd-2q length at n >= 1.

    For odd 2q the exact routes compute the signed W = integral p_n^{2q}
    w^q, which equals integral rho^q only where p_n keeps one sign, i.e.
    at n = 0; elsewhere W^{-1/(q-1)} is not the Rényi length.
    """
    if order.two_q % 2 and n:
        raise ParameterError(
            f"L_{order.q} at n={n} is not computed: for odd 2q the exact routes give "
            "the signed integral of p_n^(2q) w^q, not the integral of rho^q"
        )


def renyi_length_bell(family: Family, n: int, q, ctx: PrecisionContext = _DEFAULT_CTX):
    """Rényi length L_q via the Bell route (2q a positive integer, q != 1);
    0 where w^q is not integrable, so that the integral of rho^q diverges.
    ParameterError for odd 2q at n >= 1 (:func:`_refuse_signed_length`)."""
    order = RenyiOrder.from_q(q)
    if not power_integrable(order.q, family.alpha, family.beta):
        return mp.mpf(0)
    _refuse_signed_length(n, order)
    W = renyi_power_integral_bell(family, n, order, ctx)
    with mp.workprec(ctx.bits):
        return +length_from_power_integral(W, order)
