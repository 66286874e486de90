"""Independent oracles the tests check the package against.

None of these is on a computing path of the package: the partition sum
and the layered recurrence for partial Bell polynomials, schoolbook
polynomial products and powers, the terminating 2F1 closed form of a
Jacobi moment of w^q, the textbook recurrence formulas in mpf, the
explicit coefficient displays and the Hermite and Laguerre moment displays
summed in ``Fraction``, the large-n Cramér-Rao rates displayed branch by
branch, a real-order Laguerre moment by the Gauss rule of
the exponent-shifted weight, the closed Laguerre Rényi lengths at n = 0 and
n = 1, the Gamma closed forms of the weights' moments with a rule's sum
to check them on, the float64 recurrence with fresh arrays and an
elementwise rescaling test at every step, and the float64 tanh-sinh loop
that refines every panel to the same level.  The n = 1 length needs a
terminating 2F0; it is summed exactly in ``Fraction`` from the exact
rationals its parameters hold, so it is exactly 0 iff the sum is (the
Laguerre(-1/2), q = 3/2 cell), and otherwise rounded once.
"""

import math
from fractions import Fraction

import numpy as np
from mpmath import libmp, mp

from spreadpoly._vec import _LN_RESCALE_HI, _LN_RESCALE_LO, _RESCALE, _p0
from spreadpoly.bell import _jacobi_moment_prefactor, length_from_power_integral
from spreadpoly.context import ParameterError
from spreadpoly.families import HERMITE, LAGUERRE, Family, RenyiOrder, _rational
from spreadpoly.families import raw_recurrence as raw_recurrence_float
from spreadpoly.hypergeom import hyp2f1_terminating
from spreadpoly.orthopoly import _RULE_GUARD, _recurrence_values
from spreadpoly.quadrature import (
    _BATCH_NODES,
    _MAX_LEVEL,
    QuadratureError,
    _edge_tail,
    _panel_nodes,
    _standard_rule,
)


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


def schoolbook_product(p: list, c: list) -> list:
    """Coefficients of the product of two polynomials, term by term."""
    out = [0] * (len(p) + len(c) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(c):
            out[i + j] += a * b
    return out


def naive_power(coeffs, p: int) -> list:
    """Coefficients of (sum_t c_t x^t)^p by p schoolbook products."""
    out = [1]
    for _ in range(p):
        out = schoolbook_product(out, coeffs)
    return out


def partial_bell_layered(m: int, l: int, args):
    """B_{m,l} by the layered recurrence
    B_{m,l} = sum_i C(m-1, i-1) x_i B_{m-i, l-1}, in the arguments' own
    arithmetic (exact for int and Fraction)."""
    if l > m:
        return 0
    args = tuple(args)
    prev = [1] + [0] * m  # l = 0 layer
    for layer in range(1, l + 1):
        prev = [0] * layer + [
            sum(
                math.comb(k - 1, i - 1) * args[i - 1] * prev[k - i]
                for i in range(1, min(k - layer + 1, len(args)) + 1)
            )
            for k in range(layer, m + 1)
        ]
    return prev[m]


def raw_recurrence(kind: str, alpha, beta, count: int):
    """(a_k, b_k) for k < count of the orthonormal recurrence

        x p_k = b_{k+1} p_{k+1} + a_k p_k + b_k p_{k-1},

    by the textbook formulas (Gautschi, *Orthogonal Polynomials:
    Computation and Approximation*, OUP 2004; NIST DLMF chapter 18),
    rescaled to unit norm, in mpf at the active precision; b_0 = 0.  The
    package writes these coefficients only as exact integer pairs
    (``families.exact_recurrence``); this is the table they are checked
    against.  alpha + beta + 2 is formed as (alpha + 1) + (beta + 1), so
    the Jacobi entries keep their relative accuracy as alpha + beta -> -2,
    and b_1 takes its limit form at alpha + beta = -1.
    """
    a = mp.mpf(alpha)
    b = mp.mpf(beta)
    c = (a + 1) + (b + 1)
    diag, off = [], []
    for k in range(count):
        km = mp.mpf(k)
        if kind == HERMITE:
            diag.append(mp.mpf(0))
            off.append(mp.sqrt(km / 2))
        elif kind == LAGUERRE:
            diag.append(2 * km + a + 1)
            off.append(mp.sqrt(km * (km + a)))
        elif k == 0:
            diag.append((b - a) / c)
            off.append(mp.mpf(0))
        else:
            s = 2 * (km - 1) + c  # 2k + alpha + beta
            diag.append((b - a) * (b + a) / (s * (s + 2)))
            if k == 1:
                off.append(2 * mp.sqrt((1 + a) * (1 + b) / (3 + a + b)) / c)
            else:
                kab = (km - 2) + c  # k + alpha + beta
                off.append(2 * mp.sqrt(km * (km + a) * (km + b) * kab / (s * s - 1)) / s)
    return diag, off


def _rising(x: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= x + j
    return out


def explicit_ratios(family, n: int) -> list:
    """r_t of the classical displays of p_n, proportional to its monomial
    coefficients, summed term by term in Fraction, up to the sign that makes
    r_n positive."""
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


def moment_display(family, n: int, k: int) -> Fraction:
    """<x^k> of the degree-n density as an exact rational: Hermite
    k!/(2^k (k/2)!) sum_j C(n,j) C(k/2,j) 2^j, Laguerre
    n! (alpha+1)_k/(alpha+1)_n sum_r C(k,n-r)^2 (alpha+k+1)_r/r!."""
    if family.kind == HERMITE:
        if k % 2:
            return Fraction(0)
        h = k // 2
        fa = sum(math.comb(n, j) * math.comb(h, j) * 2**j for j in range(min(n, h) + 1))
        return Fraction(math.factorial(k) * fa, 2**k * math.factorial(h))
    a = Fraction(family.alpha)
    acc = sum(
        math.comb(k, n - r) ** 2 * _rising(a + k + 1, r) / math.factorial(r)
        for r in range(n + 1)
    )
    return math.factorial(n) * _rising(a + 1, k) / _rising(a + 1, n) * acc


def cramer_rao_rate_display(family, bits: int):
    """(coefficient, exponent) of the large-n Cramér-Rao rate as the six
    closed displays state it: Hermite, Laguerre alpha = 0 and alpha > 1,
    Jacobi (0, 0), (0, beta > 1) and (alpha > 1, beta > 1); None on any
    other branch."""
    with mp.workprec(bits):
        a, b = mp.mpf(family.alpha), mp.mpf(family.beta)
        if family.kind == HERMITE:
            return mp.mpf(1) / 2, Fraction(0)
        if family.kind == LAGUERRE:
            if a == 0:
                return 1 / mp.sqrt(2), Fraction(1, 2)
            return (mp.sqrt((a * a - 1) / a), Fraction(1, 2)) if a > 1 else None
        if a == 0 and b == 0:
            return mp.power(2, mp.mpf(-3) / 2), Fraction(-3, 2)
        if a == 0 and b > 1:
            return 1 / mp.sqrt(1 / (b + 1) + 1 / (b - 1) + 4), Fraction(-3, 2)
        if a > 1 and b > 1:
            s = 1 / (b + 1) + 1 / (b - 1) + 1 / (a + 1) + 1 / (a - 1)
            return 1 / mp.sqrt(s), Fraction(-3, 2)
        return None


def laguerre_real_moment_rule(n: int, alpha, b, ctx):
    """<x^b> of the degree-n Laguerre(alpha) density for real b > -1-alpha:
    the (n+1)-node Gauss rule of x^(alpha+b) e^-x summed over p_n^2, which
    is exact because p_n^2 has degree 2n.  alpha + b is the exact mpf sum.
    The weight is no power of the family's, so the rule comes from
    ``quadrature._standard_rule`` and p_n from ``orthopoly._recurrence_values``."""
    nodes, weights = _standard_rule(LAGUERRE, mp.fadd(alpha, b, exact=True), 0.0, n + 1, ctx.bits)
    with mp.workprec(ctx.bits + _RULE_GUARD):
        values = _recurrence_values(Family.laguerre(alpha), n, nodes)
        return +mp.fsum(w * v * v for w, v in zip(weights, values))


def renyi_length_laguerre_n0(alpha, q, ctx):
    """Closed form at n=0: [Gamma(alpha q+1) / (Gamma(alpha+1)^q q^{alpha q+1})]^(-1/(q-1))."""
    order = RenyiOrder.from_q(q)
    with mp.workprec(ctx.bits):
        qf = order.q_mpf()
        a = mp.mpf(alpha)
        W = mp.gamma(a * qf + 1) / (
            mp.power(mp.gamma(a + 1), qf) * mp.power(qf, a * qf + 1)
        )
        return +length_from_power_integral(W, order)


def renyi_length_laguerre_n1(alpha, q, ctx):
    """Closed form at n=1, via the terminating 2F0 (length-level value).

    The bracket is
        Gamma(alpha q+1) (1+alpha)^{2q} / (Gamma(alpha+2)^q q^{alpha q+1})
        * 2F0(-2q, alpha q+1; ; 1/(q(1+alpha))),
    raised to -1/(q-1).  For odd 2q the bracket carries the classical
    sign convention; the even length exponent makes the length identical.
    """
    order = RenyiOrder.from_q(q)
    ra = _rational(alpha)
    with mp.workprec(ctx.bits):
        qf = order.q_mpf()
        a = mp.mpf(alpha)
        W = (
            mp.gamma(a * qf + 1)
            * mp.power(1 + a, order.two_q)
            / (mp.power(mp.gamma(a + 2), qf) * mp.power(qf, a * qf + 1))
            * terminating_2f0(-order.two_q, ra * order.q + 1, 1 / (order.q * (1 + ra)))
        )
        sign = -1 if order.two_q % 2 else 1  # classical -> leading-positive at n=1
        return +length_from_power_integral(sign * W, order)


def nonpositive_int_bound(*params) -> int:
    """Termination length from the nonpositive-integer numerator params."""
    bounds = [-p for p in map(_rational, params) if p <= 0 and p.denominator == 1]
    if not bounds:
        raise ParameterError("series does not terminate (no nonpositive integer)")
    return int(min(bounds))


def terminating_2f0(neg_int_a, b, z):
    """2F0(-m, b; ; z) = sum_{j<=m} (-m)_j (b)_j z^j / j!, summed exactly
    in Fraction and rounded once to the active precision."""
    m = nonpositive_int_bound(neg_int_a)
    b, z = _rational(b), _rational(z)
    term = total = Fraction(1)
    for j in range(m):
        term = term * (j - m) * (b + j) * z / (j + 1)
        total += term
    return mp.make_mpf(
        libmp.from_rational(total.numerator, total.denominator, mp.prec, libmp.round_nearest)
    )


def weight_moment(family, j: int, ctx):
    """Integral of x^j against the weight of a ``Family``, from Gamma
    closed forms at ``ctx.bits``."""
    if j < 0:
        raise ParameterError("moment order must be nonnegative")
    with mp.workprec(ctx.bits):
        a = mp.mpf(family.alpha)
        b = mp.mpf(family.beta)
        if family.kind == HERMITE:
            if j % 2:
                return mp.mpf(0)
            return +mp.gamma((j + 1) / mp.mpf(2))
        if family.kind == LAGUERRE:
            return +mp.gamma(a + j + 1)
        acc = mp.mpf(0)
        for i in range(j + 1):
            acc += (
                mp.binomial(j, i)
                * mp.power(-2, i)
                * mp.gamma(a + i + 1)
                * mp.gamma(b + 1)
                / mp.gamma(a + b + i + 2)
            )
        return +(mp.power(2, a + b + 1) * acc)


def rule_sum(rule, f):
    """sum_i w_i f(x_i) over a rule ``(nodes, weights)``."""
    nodes, weights = rule
    return mp.fsum(w * f(x) for x, w in zip(nodes, weights))


def poly_scaled_plain(kind, alpha, beta, n, x, derivative=False):
    """The float64 recurrence of ``_vec.poly_scaled`` written plainly: new
    arrays every step, and every step scales each node above 2^332 by
    exactly 2^-332.  Same table, start (p_0 and its rescaling count from
    ``_vec._p0``), operations and returns, and the same renormalisation of
    the counts at the end, node by node: up while |p| >= 2^332, down while
    the count is above the start and |p| < 1 (p' in place of p where p = 0;
    an exact zero keeps the start count), so the two agree bit for bit."""
    x = np.asarray(x, dtype=float)
    diag, off = raw_recurrence_float(kind, alpha, beta, n + 1)
    p0, count0 = _p0(kind, alpha, beta)
    count = np.full(x.shape, count0, dtype=np.int64)
    pkm1 = np.zeros_like(x)
    pk = np.full_like(x, p0)
    dkm1 = np.zeros_like(x)
    dk = np.zeros_like(x)
    for k in range(n):
        pk1 = ((x - diag[k]) * pk - off[k] * pkm1) / off[k + 1]
        dk1 = ((x - diag[k]) * dk + pk - off[k] * dkm1) / off[k + 1]
        dk, dkm1 = dk1, dk
        pk, pkm1 = pk1, pk
        big = np.abs(pk) > _RESCALE
        if big.any():
            factor = np.where(big, 1.0 / _RESCALE, 1.0)
            pk, pkm1 = pk * factor, pkm1 * factor
            dk, dkm1 = dk * factor, dkm1 * factor
            count += big
    for i in range(x.size):
        lead = pk[i] if pk[i] != 0.0 or not derivative else dk[i]
        if lead == 0.0:
            count[i] = count0
            continue
        while abs(lead) >= _RESCALE:
            lead, pk[i], dk[i] = lead / _RESCALE, pk[i] / _RESCALE, dk[i] / _RESCALE
            count[i] += 1
        while count[i] > count0 and abs(lead) < 1.0:
            lead, pk[i], dk[i] = lead * _RESCALE, pk[i] * _RESCALE, dk[i] * _RESCALE
            count[i] -= 1
    logscale = count * _LN_RESCALE_HI
    if count.any():
        low = np.exp(count * _LN_RESCALE_LO)
        pk, dk = pk * low, dk * low
    return (pk, dk, logscale) if derivative else (pk, logscale)


def _panel_batches(finite, per_batch: int):
    """Panel-index ranges in order: each infinite panel alone, runs of
    consecutive finite panels cut into ranges of at most ``per_batch``."""
    i = 0
    while i < len(finite):
        j = i + 1
        if finite[i]:
            while j < len(finite) and finite[j] and j - i < per_batch:
                j += 1
        yield range(i, j)
        i = j


def tanh_sinh_panels_global(fpanel, points, *, tol=1e-10, edge_exponents=(0.0, 0.0)):
    """The float64 tanh-sinh loop with one refinement level for all panels:
    every panel is evaluated at every level, one integrand call per level
    for each infinite panel and per batch of finite ones, until the level
    differences of all panels sum to at most tol/8 (from level 4 on, where
    a finite panel's first round ends).  Same call contract, node maps,
    estimate terms and errors as ``quadrature.tanh_sinh_panels`` without
    zero panels, whose per-panel stops leave every panel's sums up to its
    stop level unchanged; an integrand's ``log_coef`` goes unused."""
    pts = [float(p) for p in points]
    if len(pts) == 2 and np.isinf(pts[0]) and np.isinf(pts[1]):
        pts = [pts[0], 0.0, pts[1]]
    lo = np.array(pts[:-1])
    hi = np.array(pts[1:])
    finite = np.isfinite(lo) & np.isfinite(hi)
    totals = np.zeros(lo.size)
    magnitude = 0.0
    carried = 0.0
    scattered = 0.0
    est = np.inf
    tail = 0.0
    for level in range(0, _MAX_LEVEL + 1):
        t, h = _panel_nodes(level)
        u = 0.5 * np.pi * np.sinh(t)
        cosh_t = np.cosh(t)
        e2u = np.exp(-2.0 * np.abs(u))
        near = 2.0 * e2u / (1.0 + e2u)
        far = 2.0 / (1.0 + e2u)
        sel_l = np.where(u < 0, near, far)
        sel_r = np.where(u < 0, far, near)
        sech2 = np.cosh(u) ** 2
        d = np.exp(u)
        contrib = np.zeros(lo.size)
        for batch in _panel_batches(finite, max(1, _BATCH_NODES // t.size)):
            span = slice(batch.start, batch.stop)
            a = lo[span, None]
            b = hi[span, None]
            if finite[batch.start]:
                half = 0.5 * (b - a)
                dl = half * sel_l
                dr = half * sel_r
                x = np.where(u < 0, a + dl, b - dr)
                w = half * (0.5 * np.pi * cosh_t / sech2)
            else:
                w = (0.5 * np.pi * cosh_t * d)[None, :]
                far_end = np.full_like(w, np.inf)
                if np.isinf(hi[batch.start]):
                    x, dl, dr = a + d, d[None, :], far_end
                else:
                    x, dl, dr = b - d, far_end, d[None, :]
            ends = (np.repeat(lo[span], t.size), np.repeat(hi[span], t.size))
            vals = fpanel(batch, *ends, x.ravel(), dl.ravel(), dr.ravel())
            if isinstance(vals, tuple):
                vals, rounding, scatter = (vals + (None, None))[:3]
                if rounding is not None:
                    carried += float(np.vdot(np.broadcast_to(w, x.shape), rounding))
                if scatter is not None:
                    scattered += float(np.vdot(np.broadcast_to(w, x.shape) ** 2, scatter**2))
            vals = np.asarray(vals, dtype=float).reshape(x.shape)
            bad = np.count_nonzero(~np.isfinite(vals), axis=1)
            for j, i in enumerate(batch):
                if bad[j]:
                    raise QuadratureError(f"non-finite values on panel {i} at level {level}")
                contrib[i] = np.dot(w[j], vals[j])
                magnitude += h * float(np.dot(w[j], np.abs(vals[j])))
            if level == 0:
                gamma_lo, gamma_hi = edge_exponents
                for i, dist, gamma in ((0, dl, gamma_lo), (lo.size - 1, dr, gamma_hi)):
                    if gamma < 0 and i in batch:
                        row = np.broadcast_to(dist, x.shape)[i - batch.start]
                        k = int(np.argmin(row))
                        tail += _edge_tail(vals[i - batch.start, k], row[k], gamma)
        if level == 0:
            totals = contrib.copy()
        else:
            prev_totals = totals.copy()
            totals = totals / 2.0 + h * contrib
            est = float(np.sum(np.abs(totals - prev_totals)))
            if level >= 4 and est <= tol / 8.0:
                break
    floor = 5e-16 * magnitude
    return float(np.sum(totals)), max(est, floor) + tail + h * carried + h * math.sqrt(scattered)
