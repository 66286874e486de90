"""Independent oracles the tests check the package against.

None of these is on a computing path of the package: the partition sum
for partial Bell polynomials, the terminating 2F1 closed form of a Jacobi
moment of w^q, naive polynomial powers, and the explicit coefficient
displays summed in ``Fraction``.
"""

import math
from fractions import Fraction

from mpmath import mp

from spreadpoly.bell import _jacobi_moment_prefactor
from spreadpoly.families import HERMITE, LAGUERRE
from spreadpoly.hypergeom import hyp2f1_terminating


def _partitions(m: int, l: int, max_part: int):
    """Yield part-multiplicity tuples (j_1..j_max) with sum j = l, sum i*j = m."""
    def rec(i, rem_l, rem_m, acc):
        if i == max_part:
            if rem_m == rem_l * max_part and 0 <= rem_l:
                yield acc + (rem_l,)
            return
        for j in range(min(rem_l, rem_m // i) + 1):
            yield from rec(i + 1, rem_l - j, rem_m - i * j, acc + (j,))

    if max_part >= 1:
        yield from rec(1, l, m, ())


def partial_bell_enumerated(m: int, l: int, args) -> Fraction:
    """B_{m,l} by explicit summation over partitions, exactly in Fraction."""
    if l > m:
        return Fraction(0)
    if m == 0:
        return Fraction(1 if l == 0 else 0)
    width = m - l + 1
    args = tuple(Fraction(a) for a in args) + (Fraction(0),) * width
    total = Fraction(0)
    for js in _partitions(m, l, width):
        term = Fraction(math.factorial(m))
        for i, j in enumerate(js, start=1):
            term *= (args[i - 1] / math.factorial(i)) ** j / math.factorial(j)
        total += term
    return total


def jacobi_power_moment(k: int, q, alpha, beta):
    """Integral of x^k against (1-x)^{alpha q} (1+x)^{beta q} on [-1, 1].

    The closed form (-1)^k m_0 2F1(-k, 1+b; 2+a+b; 2) with a = alpha q,
    b = beta q, at the active precision.  Negating a product rounds to the
    negated product, so the sign may be applied last.
    """
    qf = mp.mpf(q)
    a = mp.mpf(alpha) * qf
    b = mp.mpf(beta) * qf
    m = _jacobi_moment_prefactor(a, b) * hyp2f1_terminating(-k, 1 + b, 2 + a + b, 2)
    return -m if k % 2 else m


def naive_power(coeffs, p: int) -> list:
    """Coefficients of (sum_t c_t x^t)^p by p - 1 schoolbook products."""
    out = [1]
    for _ in range(p):
        prod = [0] * (len(out) + len(coeffs) - 1)
        for i, a in enumerate(out):
            for j, c in enumerate(coeffs):
                prod[i + j] += a * c
        out = prod
    return out


def _rising(x: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= x + j
    return out


def explicit_ratios(family, n: int) -> list:
    """r_t = c_t / K of p_n, summed term by term in Fraction from the
    classical displays, up to the sign that makes r_n positive."""
    if family.kind == HERMITE:
        r = [Fraction(0)] * (n + 1)
        for t in range(n % 2, n + 1, 2):
            m = (n - t) // 2
            r[t] = Fraction((-1) ** m * math.factorial(n) * 2**t,
                            math.factorial(m) * math.factorial(t))
    elif family.kind == LAGUERRE:
        a1 = Fraction(family.alpha) + 1
        r = [Fraction((-1) ** t * math.comb(n, t)) / _rising(a1, t) for t in range(n + 1)]
    else:
        a1 = Fraction(family.alpha) + 1
        s0 = Fraction(family.alpha) + Fraction(family.beta) + n + 1
        r = [
            sum(
                (-1) ** (i - t) * math.comb(n, i) * math.comb(i, t) * _rising(s0, i)
                / (2**i * _rising(a1, i))
                for i in range(t, n + 1)
            )
            for t in range(n + 1)
        ]
    return [-v for v in r] if r[-1] < 0 else r
