"""Gauss quadrature for (power-shifted) classical weights, plus adaptive
integration for logarithmically singular integrands.

Gauss rules are the *exact oracle* of the package: every polynomial-power
integral (density normalization, moments, Rényi power integrals) is
evaluated with a rule whose exactness degree covers the integrand, so the
oracle carries no truncation error — only rounding at working precision.

Construction follows Golub–Welsch: nodes are the eigenvalues of the
symmetric tridiagonal recurrence matrix.  Double-precision eigenvalues
serve only as seeds; each node is polished by Halley passes on the monic
recurrence (``orthopoly._gauss_polish``), run on block-scaled Python
integers with 32 guard bits over the rule's precision
(``orthopoly.monic_fixed``), with p'' and p''' from the classical ODE, and
its weight ``w_i = 1 / sum_k p_k(x_i)^2`` comes from the last pass by the
Christoffel–Darboux formula, ``h_{m-1} / (pi_m' pi_{m-1} - pi_{m-1}' pi_m)``,
carried to the node by a Taylor step in the same integers.
One exact recurrence table (``families.exact_recurrence``) is built per
rule and rounded once to that fixed point, and h_{m-1} is mu_0 times the
exact product of its b_k^2, rounded once.  Each node and each weight is
rounded once; symmetric rules polish half their nodes and mirror them
exactly.  Nodes and weights agree with an mpf oracle at twice the
precision to within 2^-bits.  Built rules are kept in
a bounded LRU cache keyed by weight, size and precision.  :func:`gauss_rule`
gives the rule of w^q for a family and q: exact mpf exponents alpha q and
beta q, rate q for Hermite and Laguerre, and a refusal where
``families.power_integrable``, the test of every route, fails.

The mpf oracles against rho_n = p_n^2 w live here, each written once:
the Gauss sum :func:`_rule_sum` (W_q and the moment oracles of
``closed_form``), with p_n at the nodes from the same integer kernel, and
the integral :func:`_split_integral` split at the zeros of p_n (the Shannon
fallback and the ``<ln w>`` check of ``verification``).

Two adaptive integrators serve the Shannon integrals:

* :func:`integrate_log_singular` — arbitrary-precision tanh-sinh panels
  (mpmath), the contract-level routine, split at strictly increasing
  points that it takes as given;
* :func:`tanh_sinh_panels` — a vectorized float64 panel engine, the
  throughput path of the Shannon and Fisher integrals.  Both split the
  interval at the zeros of p_n (:func:`_engine_panels`; over the half
  line [0, hi] only, doubled, for a symmetric weight).  A panel between
  two zeros takes an 18/22-node Gauss-Legendre pair: the logarithm of the
  zeros at its ends is split off the Shannon integrand and integrated by
  product weights on the same nodes (Gautschi, *Orthogonal Polynomials*,
  2004); the Fisher integrand, analytic across the zeros, takes the pair
  without the split.  The end panels, and a zero panel beside a finite end where w
  has a branch point, run tanh-sinh levels (exp-sinh on an infinite one).
  Every panel's first nodes go to the integrand in one call, so a
  recurrence-based integrand runs its n-step loop once for them; a panel
  that has not converged refines in further tanh-sinh rounds, and a
  non-finite integrand value raises :class:`QuadratureError`.  The
  tanh-sinh node map stops at t = +-_TMAX, so at an endpoint where the
  integrand blows up like |x - e|^gamma (gamma < 0) the error estimate
  also counts the mass beyond the outermost node.  When that makes the
  estimate too large, the Shannon route falls back to
  :func:`integrate_log_singular` and the Fisher route raises.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .context import ParameterError, PrecisionContext, PrecisionError
from .families import HERMITE, JACOBI, Family, RenyiOrder, power_integrable
from .orthopoly import _RULE_GUARD, _gauss_polish, _is_symmetric, _mirror, _recurrence_values
from .orthopoly import evaluate_recurrence, zeros, zeros_raw

__all__ = [
    "QuadratureError",
    "gauss_rule",
    "integrate_density_power",
    "integrate_log_singular",
    "tanh_sinh_panels",
]

_DEFAULT_CTX = PrecisionContext()


class QuadratureError(ArithmeticError):
    """Adaptive integration failed to reach the requested tolerance."""


def _check_tol(tol) -> None:
    """ParameterError unless ``tol`` is finite and positive."""
    if not (math.isfinite(tol) and tol > 0):
        raise ParameterError(f"tolerance must be finite and positive, got {tol!r}")


#: Rules kept by ``_standard_rule``.  The criterion 3 grid looks up fewer
#: than 2% of its rules a second time, so the bound caps the memory of a
#: long sweep at the cost of very few rebuilds.
_RULE_CACHE_SIZE = 128


@functools.lru_cache(maxsize=_RULE_CACHE_SIZE)
def _standard_rule(kind: str, alpha, beta, m: int, bits: int):
    """Unit-scale rule: nodes/weights as mpf tuples at ``bits + _RULE_GUARD``,
    checked once: increasing nodes (:func:`_gauss_polish`), positive weights."""
    nodes, weights = _gauss_polish(kind, alpha, beta, m, bits)
    if not all(w > 0 for w in weights):
        raise PrecisionError("nonpositive quadrature weight")
    return tuple(nodes), tuple(weights)


def _power_exponents(family: Family, q):
    """(alpha q, beta q) of w^q, 2q a positive integer, as exact mpf values
    (a double times 2q fits in 53 + bit_length(2q) bits), which key the rule
    cache like floats; ParameterError unless ``power_integrable``."""
    order = RenyiOrder.from_q(q)
    if not power_integrable(order.q, family.alpha, family.beta):
        raise ParameterError(f"w^q is not integrable for {family.describe()} at q={order}")
    two_q = order.two_q
    with mp.workprec(53 + two_q.bit_length()):
        return mp.mpf(family.alpha) * two_q / 2, mp.mpf(family.beta) * two_q / 2


def gauss_rule(family: Family, m: int, ctx: PrecisionContext = _DEFAULT_CTX, q=1):
    """``(nodes, weights)`` of the m-node Gauss rule of w^q, exact to degree
    2m-1: the checked unit-rate rule of :func:`_power_exponents` (which
    refuses a w^q that is not integrable), rescaled to rate q for Hermite
    and Laguerre."""
    if m < 1:
        raise ParameterError("rule needs at least one node")
    order = RenyiOrder.from_q(q)
    alpha, beta = _power_exponents(family, order)
    nodes, weights = _standard_rule(family.kind, alpha, beta, m, ctx.bits)
    if family.kind != JACOBI and not order.is_unit:
        with mp.workprec(ctx.bits + _RULE_GUARD):
            s = mp.mpf(order.two_q) / 2
            if family.kind == HERMITE:
                r = mp.sqrt(s)
                nodes = tuple(x / r for x in nodes)
                weights = tuple(w / r for w in weights)
            else:
                factor = mp.power(s, -(mp.mpf(alpha) + 1))
                nodes = tuple(x / s for x in nodes)
                weights = tuple(w * factor for w in weights)
    return nodes, weights


def _rule_sum(family: Family, n: int, q, m: int, ctx: PrecisionContext, term):
    """sum_i term(x_i, lambda_i, p_n(x_i)) over the m-node rule of w^q
    (:func:`gauss_rule`), by ``fsum`` at ``ctx.bits + _RULE_GUARD``, with
    p_n from :func:`spreadpoly.orthopoly._recurrence_values`.  When the
    weight is symmetric, so is w^q, and the nodes mirror exactly: p_n is
    evaluated on the nonpositive half and mirrored with the sign (-1)^n, so
    a sum that vanishes by parity is exactly 0.
    """
    nodes, weights = gauss_rule(family, m, ctx, q)
    mirrored = _is_symmetric(family.kind, family.alpha, family.beta)
    with mp.workprec(ctx.bits + _RULE_GUARD):
        values = _recurrence_values(family, n, nodes[: (m + 1) // 2] if mirrored else nodes)
        if mirrored:
            values = _mirror(values, m, -1 if n % 2 else 1)
        return +mp.fsum(term(x, w, v) for x, w, v in zip(nodes, weights, values))


def integrate_density_power(
    family: Family, n: int, q, ctx: PrecisionContext = _DEFAULT_CTX
):
    """Signed power integral  W_q = integral p_n^{2q} w^q  via an exact rule.

    2q must be a positive integer; the integrand p^{2q} w^q is then a
    polynomial of degree 2nq against the shifted weight w^q, integrated
    with a rule of covering exactness.  Equals integral rho^q whenever 2q
    is even, and returns 1 at q=1.  A parity zero (Hermite or Jacobi with
    alpha = beta, n 2q odd) is exactly 0: the node values mirror exactly
    (:func:`_rule_sum`), so the terms cancel in pairs.  Any other sum
    is returned as rounded, so a zero without parity (Laguerre(-1/2) n=1,
    q=3/2) comes out at the rounding floor of the terms, not as 0, and
    a w^q that is not integrable is refused (ParameterError).
    """
    two_q = RenyiOrder.from_q(q).two_q
    return _rule_sum(
        family, n, q, n * two_q // 2 + 1, ctx, lambda x, w, v: w * mp.power(v, two_q)
    )


#: Precision doublings :func:`integrate_log_singular` tries past the
#: context's bits, and the tanh-sinh degree of each attempt.
_ESCALATIONS = 3
_MAX_DEGREE = 8


def integrate_log_singular(f, interval, split_points, ctx: PrecisionContext, *, tol):
    """Adaptive tanh-sinh integration with panel splits at singular points.

    The panels are ``[lo, *split_points, hi]`` as given, not sorted, merged
    or rounded; ParameterError unless strictly increasing.  Returns
    ``(value, est_error)``.  Acceptance: est_error <= ``tol``, a finite
    positive absolute tolerance, retried at doubled precision
    ``_ESCALATIONS`` times before raising :class:`QuadratureError`.
    Infinite endpoints are handled by the double-exponential variable
    transform of the underlying integrator.  A value or an estimate that is
    not finite raises :class:`QuadratureError` at once: a node that rounds
    onto an end where the integrand is infinite gives an infinite value
    with a small estimate, which no precision mends.
    """
    _check_tol(tol)
    lo, hi = interval
    pts = [lo, *split_points, hi]
    if not all(a < b for a, b in zip(pts, pts[1:])):
        raise ParameterError(f"panel points are not strictly increasing: {pts}")
    bits = ctx.bits
    for _ in range(_ESCALATIONS + 1):
        with mp.workprec(bits):
            val, err = mp.quad(f, pts, error=True, maxdegree=_MAX_DEGREE)
            if not (mp.isfinite(val) and mp.isfinite(err)):
                raise QuadratureError(
                    f"integral is not finite at {bits} bits: value {mp.nstr(val)}, "
                    f"estimate {mp.nstr(err)}"
                )
            if err <= tol:
                return +val, +err
        bits *= 2
    raise QuadratureError(
        f"integral failed to reach tolerance (last estimate {mp.nstr(err)})"
    )


def _split_integral(family: Family, n: int, f, ctx: PrecisionContext, *, tol):
    """(value, est_error) of the integral of f(p_n(x), w(x)) over the interval
    by :func:`integrate_log_singular`, split at the zeros of p_n rounded once
    to ``ctx.bits``."""
    with mp.workprec(ctx.bits):
        zs = [+z for z in zeros(family, n, ctx)] if n else []

        def integrand(x):
            return f(evaluate_recurrence(family, n, x), family.weight(x))

        return integrate_log_singular(integrand, family.interval, zs, ctx, tol=tol)


# ---------------------------------------------------------------------------
# Vectorized float64 panel engine
# ---------------------------------------------------------------------------

_TMAX = 4.0

#: Most abscissas one ``fpanel`` call receives: the panels of a round are
#: laid out one after another in calls of at most this many nodes (a call
#: holds at least one panel).  The cap bounds the memory of the integrand's
#: temporaries, which grow with the call.
_BATCH_NODES = 2**15

#: Node counts of the Gauss-Legendre pair of a zero panel: the value is the
#: larger rule's, the difference of the two its estimate, which measures
#: the smaller rule's error.  The product weights integrate the log
#: coefficient exactly only to degree m - 1, so the smaller rule must
#: already be converged there: with 16/20 the Shannon estimates of the
#: benchmark grids were a median 21 (up to 134) times those of tanh-sinh
#: alone, with 18/22 at most 3.2 times, for about 5% more time.
_GAUSS_PAIR = (18, 22)

#: Precision of the Gauss-Legendre rules of the zero panels, built in mpf
#: with ``_RULE_GUARD`` bits more; each constant is then rounded once to a
#: double.
_RULE_BITS = 96

#: Unit roundoff of float64 and of 53-bit mpf.
_U = 2.0**-53


def _panel_nodes(level: int):
    """Abscissas t and level spacing h for the refinement level."""
    if level == 0:
        k = np.arange(-int(_TMAX), int(_TMAX) + 1, dtype=float)
        return k, 1.0
    h = 2.0**-level
    kmax = int(_TMAX / h)
    k = np.arange(1, kmax + 1, 2, dtype=float) * h
    return np.concatenate([-k[::-1], k]), h


@dataclass(frozen=True)
class _Round:
    """The nodes of a round's rules on a standard panel, side by side
    (read-only; the rounds are cached).  ``parts`` lists a (level, slice of
    the nodes, h) per tanh-sinh level, or an (m, slice, None) per rule of
    the Gauss-Legendre pair.  On a finite panel [a, b] of half-width r, a
    node lies r sel_l from a and r sel_r from b, nearer a where ``left``,
    and weighs r ``weight``; ``split`` holds the log-split weights of a
    Gauss round the same way.  ``d`` and ``weight_inf`` are the exp-sinh
    map and weights of an infinite panel (tanh-sinh only)."""

    parts: tuple
    left: np.ndarray
    sel_l: np.ndarray
    sel_r: np.ndarray
    weight: np.ndarray
    split: np.ndarray | None = None
    d: np.ndarray | None = None
    weight_inf: np.ndarray | None = None

    @property
    def gauss(self) -> bool:
        return self.split is not None


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=None)
def _round(levels: tuple) -> _Round:
    """The tanh-sinh round of ``levels``: levels 0-4 (finite panels) or 0-6
    (infinite ones) first, then one level at a time, up to 9."""
    ts, parts, start = [], [], 0
    for level in levels:
        t, h = _panel_nodes(level)
        parts.append((level, slice(start, start + t.size), h))
        ts.append(t)
        start += t.size
    t = np.concatenate(ts)
    u = 0.5 * np.pi * np.sinh(t)
    cosh_t = np.cosh(t)
    # 1 +- tanh(u), computed without cancellation
    e2u = np.exp(-2.0 * np.abs(u))
    near = 2.0 * e2u / (1.0 + e2u)      # 1 - |tanh u|
    far = 2.0 / (1.0 + e2u)             # 1 + |tanh u|
    d = np.exp(u)
    return _Round(tuple(parts), *_read_only(
        u < 0,
        np.where(u < 0, near, far),
        np.where(u < 0, far, near),
        0.5 * np.pi * cosh_t / np.cosh(u) ** 2,
    ), None, *_read_only(d, 0.5 * np.pi * cosh_t * d))


@dataclass(frozen=True)
class _GaussLegendre:
    """The m-node Gauss-Legendre rule on [0, 1]: increasing nodes ``t``,
    ``one_minus_t`` = 1 - t, weights ``w``, the product weights ``w_log`` of
    ln t (those of ln(1 - t) are their mirror image, ``w_log[::-1]``), and
    the log-split weights ``split`` = w_log + w_log[::-1] - w ln(t (1 - t)).
    The rule integrates polynomials of degree 2m - 1 on [0, 1], and
    sum_i (w_i f(t_i) + split_i c(t_i)) integrates f = s + c ln(t (1 - t))
    for polynomials s of degree 2m - 1 and c of degree m - 1."""

    t: np.ndarray
    one_minus_t: np.ndarray
    w: np.ndarray
    w_log: np.ndarray
    split: np.ndarray


@functools.lru_cache(maxsize=None)
def _gauss_legendre(m: int) -> _GaussLegendre:
    """The rule of :class:`_GaussLegendre`, built on first use.

    The nodes x_i and weights W_i of the Legendre weight on [-1, 1] come
    from :func:`_gauss_polish` at ``_RULE_BITS`` (called directly, so the
    bounded rule cache keeps its entries), the orthonormal p_k from the
    recurrence (:func:`_recurrence_values`) at the same precision.  With
    t = (1 + x) / 2, w = W / 2, and P_k = p_k / p_k(1), the product weight
    of ln t is w sum_{k<m} (2k+1) mu_k P_k(x) = W sum_{k<m} mu_k p_k(1) p_k(x),
    mu_0 = -1 and mu_k = (-1)^(k+1) / (k (k+1)) being the Legendre moments
    of ln t on [0, 1]; that of ln(1 - t) takes (-1)^k mu_k.  Every
    constant is rounded once to a double, so each is within half an ulp of
    its value at the node it is stored with.  The nonpositive half of the
    nodes is computed, the rest mirrors it.
    """
    legendre = Family.jacobi(0.0, 0.0)
    with mp.workprec(_RULE_BITS + _RULE_GUARD):
        nodes, weights = _gauss_polish(JACOBI, 0.0, 0.0, m, _RULE_BITS)
        half = (m + 1) // 2
        xs = list(nodes[:half]) + [mp.mpf(1)]
        mu = [mp.mpf(-1)] + [mp.mpf((-1) ** (k + 1)) / (k * (k + 1)) for k in range(1, m)]
        terms = []
        for k in range(m):
            *p, p_one = _recurrence_values(legendre, k, xs)
            terms.append([mu[k] * p_one * v for v in p])
        rows = []
        for i, (x, big_w) in enumerate(zip(xs[:half], weights)):
            even, odd = (mp.fsum(row[i] for row in terms[j::2]) for j in (0, 1))
            log_l, log_r = big_w * (even + odd), big_w * (even - odd)
            t, s = (1 + x) / 2, (1 - x) / 2
            split = log_l + log_r - big_w / 2 * mp.log(t * s)
            rows.append([float(v) for v in (t, s, big_w / 2, log_l, log_r, split)])
    t, s, w, log_l, log_r, split = map(np.array, zip(*rows))

    def mirrored(lower, upper):
        # the positive half, from the middle out
        return np.concatenate([lower, upper[: m // 2][::-1]])

    return _GaussLegendre(*_read_only(
        mirrored(t, s), mirrored(s, t), mirrored(w, w), mirrored(log_l, log_r),
        mirrored(split, split),
    ))


@functools.lru_cache(maxsize=None)
def _gauss_round(pair: tuple) -> _Round:
    """The round of a zero panel: the rules of ``pair`` side by side, the
    nodes at their distances from the nearer end (t or 1 - t, each rounded
    once), so they mirror exactly and meet the contract of ``dl`` and ``dr``."""
    rules = [_gauss_legendre(m) for m in pair]
    parts, start = [], 0
    for m in pair:
        parts.append((m, slice(start, start + m), None))
        start += m
    t = np.concatenate([r.t for r in rules])
    s = np.concatenate([r.one_minus_t for r in rules])
    return _Round(tuple(parts), *_read_only(
        t < 0.5, 2.0 * t, 2.0 * s,
        2.0 * np.concatenate([r.w for r in rules]),
        2.0 * np.concatenate([r.split for r in rules]),
    ))


def _round_nodes(rnd: _Round, a, b):
    """Abscissas and distances to the panel ends of the panels [a_j, b_j]
    at the nodes of a round, as (panels, nodes) arrays: the rule mapped
    onto a finite panel, the exp-sinh map from the finite end of an
    infinite one."""
    if np.isfinite(a[0]) and np.isfinite(b[0]):
        lo, hi = a[:, None], b[:, None]
        half = 0.5 * (hi - lo)
        dl = half * rnd.sel_l
        dr = half * rnd.sel_r
        return np.where(rnd.left, lo + dl, hi - dr), dl, dr
    shape = (a.size, rnd.left.size)
    x, dl, dr = (np.empty(shape) for _ in range(3))
    for j in range(a.size):
        if np.isinf(b[j]):
            x[j], dl[j], dr[j] = a[j] + rnd.d, rnd.d, np.inf
        else:
            x[j], dl[j], dr[j] = b[j] - rnd.d, np.inf, rnd.d
    return x, dl, dr


#: The tail term is doubled: it is the leading term of the mass beyond the
#: outermost node, and true errors reached 0.92 of it on ground states with
#: exponents down to -0.9.
_TAIL_SAFETY = 2.0


def _edge_tail(f_edge: float, dist: float, gamma: float) -> float:
    """Mass of an integrand ~ c |x - e|^gamma (times at most a factor
    ln|x - e|) over the gap of width ``dist`` between the endpoint e and the
    outermost node, from its value ``f_edge`` at that node; inf for
    gamma <= -1, where the mass diverges.

    Over [0, d], s^g integrates to d f(d)/(1+g), and s^g ln s to
    d f(d)/(1+g) * (1 - 1/((1+g) ln d)); the second bounds both.
    """
    if not gamma > -1:
        return np.inf
    g1 = 1.0 + gamma
    log_factor = 1.0 + 1.0 / (g1 * abs(np.log(dist)))
    return _TAIL_SAFETY * abs(f_edge) * dist / g1 * log_factor


#: The first tanh-sinh round gives a finite panel levels 0 to _FIRST_LEVEL
#: and an infinite one levels 0 to _FIRST_LEVEL_INFINITE: the end panels of
#: the Shannon and Fisher integrals converge there, so that they need no
#: second round (with levels 0-4 only, the Laguerre tails were 8.6e-3 off).
_FIRST_LEVEL = 4
_FIRST_LEVEL_INFINITE = 6

#: Deepest refinement level of :func:`tanh_sinh_panels` (spacing 2^-9).
_MAX_LEVEL = 9

#: Panel states of :func:`tanh_sinh_panels` before any tanh-sinh level:
#: a zero panel's Gauss pair is still to run, or the first round is.
_GAUSS_FIRST = -2
_TANH_SINH_FIRST = -1


def _calls(groups):
    """Split a round's ``(round, panels)`` groups into the lists of
    ``(round, panels)`` chunks that one call each takes: at most
    ``_BATCH_NODES`` nodes a call, a panel's nodes never split."""
    calls, chunks, room = [], [], _BATCH_NODES
    for rnd, idx in groups:
        size, start = rnd.left.size, 0
        while start < idx.size:
            # a round holds at most 2^11 nodes a panel, far below the cap
            take = room // size
            if take == 0:
                calls.append(chunks)
                chunks, room = [], _BATCH_NODES
                continue
            chunk = idx[start : start + take]
            chunks.append((rnd, chunk))
            room -= chunk.size * size
            start += chunk.size
    if chunks:
        calls.append(chunks)
    return calls


def _part_sums(w, vals, parts):
    """Per panel and part of a round, the sum of w vals and that of
    |w vals|: a batched ``np.matmul`` per part, row by row, to the same
    bits as a ``np.dot`` per panel."""
    sums = np.empty((w.shape[0], len(parts)))
    size = np.empty_like(sums)
    for k, (_, part, _) in enumerate(parts):
        wp = w[:, None, part]
        sums[:, k] = np.matmul(wp, vals[:, part, None])[:, 0, 0]
        size[:, k] = np.matmul(np.abs(wp), np.abs(vals[:, part, None]))[:, 0, 0]
    return sums, size


def _groups(state, active, finite):
    """The ``(round, panels)`` groups of the next round of the active
    panels: one per rule, finite and infinite panels apart."""
    groups = []
    codes = state[active]
    for code in sorted(set(codes.tolist())):
        for fin in (True, False):
            idx = active[(codes == code) & (finite[active] == fin)]
            if not idx.size:
                continue
            if code == _GAUSS_FIRST:
                rnd = _gauss_round(_GAUSS_PAIR)
            elif code == _TANH_SINH_FIRST:
                rnd = _round(tuple(range((_FIRST_LEVEL if fin else _FIRST_LEVEL_INFINITE) + 1)))
            else:
                rnd = _round((code + 1,))
            groups.append((rnd, idx))
    return groups


def _tails(rnd: _Round, idx, vals, dl, dr, panels: int, edge_exponents) -> float:
    """The :func:`_edge_tail` terms of the end panels among ``idx`` on
    their first tanh-sinh round, whose outermost nodes are the level-0
    nodes t = +-_TMAX."""
    tail = 0.0
    part = rnd.parts[0][1]
    for i, dist, gamma in ((0, dl, edge_exponents[0]), (panels - 1, dr, edge_exponents[1])):
        row = np.flatnonzero(idx == i)
        if gamma < 0 and row.size:
            d = dist[row[0], part]
            k = int(np.argmin(d))
            tail += _edge_tail(vals[row[0], part][k], d[k], gamma)
    return tail


def _parse(out):
    """``(values, rounding, scatter, log_coef)`` of an integrand's return as
    float arrays, None for each one it leaves out."""
    if not isinstance(out, tuple):
        out = (out,)
    out = out + (None,) * (4 - len(out))
    return [None if v is None else np.asarray(v, dtype=float) for v in out]


def _check_finite(rnd: _Round, idx, vals, lo, hi) -> None:
    """QuadratureError naming the lowest level (or the smaller Gauss rule)
    with a non-finite value, and on it the first panel."""
    bad = ~np.isfinite(vals)
    if not bad.any():
        return
    level, part, _ = next(p for p in rnd.parts if bad[:, p[1]].any())
    j = int(np.argmax(bad[:, part].any(axis=1)))
    i = int(idx[j])
    rule = f"in the {level}-node Gauss rule" if rnd.gauss else f"at level {level}"
    raise QuadratureError(
        f"integrand returned {np.count_nonzero(bad[j, part])} non-finite values "
        f"on panel {i} [{float(lo[i])!r}, {float(hi[i])!r}] {rule}"
    )


def tanh_sinh_panels(
    fpanel, points, *, tol=1e-10, edge_exponents=(0.0, 0.0), zero_panels=(), rel_tol=0.0
):
    """Integrate a panel-aware vectorized integrand over [points[0], points[-1]].

    ``fpanel(i, a, b, x, dl, dr)`` receives ``i``, the tuple of panel
    indices the call covers, and float64 arrays of equal length: the
    abscissas ``x``, the endpoints ``a`` and ``b`` of each node's panel, and
    the distances ``dl``/``dr`` to those endpoints (computed in a
    cancellation-free way, so ``a + dl == x == b - dr`` holds to full
    relative accuracy even within 1e-300 of an endpoint).  The nodes come
    one panel after another, in the order of ``i``.  ``fpanel`` must return
    the integrand values as a float64 array; a non-finite value raises
    :class:`QuadratureError` naming the panel and the level.  It may return
    a tuple ``(values, rounding, scatter, log_coef)`` instead, cut short
    after any element, or with None for one it leaves out: ``rounding``
    bounds, value by value, the rounding error that the difference between
    rules does not show (an error common to many nodes, say), and the
    estimate adds its quadrature sum over each panel's final rule;
    ``scatter`` bounds errors independent from node to node, and the
    estimate adds the root-sum-square of that sum; ``log_coef`` is the
    coefficient c of the logarithmic singularities of a zero panel (below).

    Each panel takes the rules of one round after another; the panels of
    a round, whatever their rules, share calls of at most ``_BATCH_NODES``
    nodes, so the first round, which holds every panel, takes one call
    unless the cap splits it.

    * A zero panel (its index in ``zero_panels``, both ends finite) is one
      between two consecutive zeros of a function whose logarithm the
      integrand carries: f = s + c ln((x - a)(b - x)) there, s and c smooth
      on [a, b] (c = 0 without ``log_coef``).  Its first round is the
      Gauss-Legendre pair of ``_GAUSS_PAIR`` (18 and 22 nodes): each rule
      integrates s and the two logarithms with the product weights of its
      nodes, folded into one log-split weight per node, so that the
      integral is L sum_i (w_i f_i + split_i c_i) on a panel of width L.
      The 22-node value is the panel's, |Q18 - Q22| its difference.  As
      every log-split weight is within w_i / 2 in size, ``rounding`` and
      ``scatter`` must bound the errors of f + kappa c for |kappa| <= 1/2.
      Summing a panel's terms is within 2m u of the sum of their
      magnitudes, each constant rounded once included, and the estimate
      adds that for the 22-node rule.
    * Any other panel runs tanh-sinh levels: levels 0 to 4 in its first
      round on a finite panel, 0 to 6 on an infinite one (exp-sinh from its
      finite end), then one more level each round, down to level 9.  Its
      sum at a level is the previous level's halved plus h times the new
      nodes' weighted values, and its difference is the change.

    After each round the loop stops when the differences sum to at most
    T/8, T being ``tol``, or ``rel_tol`` times the magnitude of the value
    so far where that is larger.  Otherwise a panel whose own difference
    is at most T/(8P), with P panels, stops refining: it keeps its sum,
    and its last difference counts in that sum.  A zero panel whose pair
    differs by more goes on with tanh-sinh levels, from a first round of
    its own.  The estimate is that sum of differences, at least 5e-16
    times the weighted sum of |values| over the rules run.

    ``edge_exponents`` = (gamma_lo, gamma_hi) declares that the integrand
    behaves like |x - e|^gamma, up to a log factor, at the ends
    ``points[0]`` and ``points[-1]``.  For each negative gamma, which needs
    a finite end that no zero panel touches, the estimate adds the mass
    between that end and the outermost node (about 1e-37 half-panels away
    on a finite panel, exp(-pi/2 sinh _TMAX) ~ 2.4e-19 on an infinite one),
    which no refinement level reaches; it is inf for gamma <= -1.
    Nonnegative exponents add nothing.

    Returns ``(value, est_error)`` as floats; ParameterError unless ``tol``
    is finite and positive and ``rel_tol`` nonnegative.
    """
    _check_tol(tol)
    if not rel_tol >= 0:
        raise ParameterError(f"relative tolerance must be nonnegative, got {rel_tol!r}")
    pts = [float(p) for p in points]
    for gamma, end in zip(edge_exponents, (pts[0], pts[-1])):
        if gamma < 0 and not np.isfinite(end):
            raise ParameterError(f"edge exponent {gamma} at the infinite end {end}")
    if len(pts) == 2 and np.isinf(pts[0]) and np.isinf(pts[1]):
        pts = [pts[0], 0.0, pts[1]]
    lo = np.array(pts[:-1])
    hi = np.array(pts[1:])
    panels = lo.size
    finite = np.isfinite(lo) & np.isfinite(hi)
    state = np.full(panels, _TANH_SINH_FIRST)
    zero = sorted({int(j) for j in zero_panels})
    if zero:
        blown = [j for j, g in ((0, edge_exponents[0]), (panels - 1, edge_exponents[1])) if g < 0]
        if zero[0] < 0 or zero[-1] >= panels or not finite[zero].all() or set(blown) & set(zero):
            raise ParameterError(f"zero panels {zero} are not finite panels clear of a singular end")
        state[zero] = _GAUSS_FIRST
    totals = np.zeros(panels)
    diffs = np.full(panels, np.inf)
    last_h = np.ones(panels)
    carried = np.zeros(panels)
    scattered = np.zeros(panels)
    magnitude = 0.0
    tail = 0.0
    active = np.arange(panels)
    while True:
        for chunks in _calls(_groups(state, active, finite)):
            nodes = [(rnd, idx, *_round_nodes(rnd, lo[idx], hi[idx])) for rnd, idx in chunks]
            x, dl, dr = (np.concatenate([v[k].ravel() for v in nodes]) for k in (2, 3, 4))
            a, b = (np.concatenate([np.repeat(e[idx], rnd.left.size) for rnd, idx, *_ in nodes])
                    for e in (lo, hi))
            order = tuple(np.concatenate([idx for _, idx, *_ in nodes]).tolist())
            out = _parse(fpanel(order, a, b, x, dl, dr))
            start = 0
            for rnd, idx, _, dl, dr in nodes:
                own = slice(start, start + dl.size)
                start = own.stop
                vals, rounding, scatter, coef = (
                    None if v is None else v[own].reshape(dl.shape) for v in out
                )
                _check_finite(rnd, idx, vals, lo, hi)
                fin = finite[idx[0]]
                scale = (0.5 * (hi[idx] - lo[idx]) if fin else np.ones(idx.size))[:, None]
                w = scale * (rnd.weight if fin else rnd.weight_inf)
                sums, size = _part_sums(w, vals, rnd.parts)
                if rnd.gauss and coef is not None:
                    log_sums, log_size = _part_sums(scale * rnd.split, coef, rnd.parts)
                    sums += log_sums
                    size += log_size
                if rnd.gauss:
                    # the larger rule's value; its sum is within 2m u of its size
                    m, final, _ = rnd.parts[-1]
                    totals[idx], diffs[idx] = sums[:, -1], np.abs(sums[:, 0] - sums[:, -1])
                    magnitude += float(size.sum())
                    last_h[idx] = 1.0
                    carried[idx] = 2 * m * _U * size[:, -1]
                    scattered[idx] = 0.0
                    state[idx] = _TANH_SINH_FIRST
                else:
                    final = slice(None)
                    first = rnd.parts[0][0] == 0
                    if first:
                        carried[idx] = scattered[idx] = 0.0
                    total = totals[idx]
                    for k, (level, _, h) in enumerate(rnd.parts):
                        magnitude += h * float(size[:, k].sum())
                        if level == 0:
                            total = sums[:, 0]
                        else:
                            new = total / 2.0 + h * sums[:, k]
                            diffs[idx] = np.abs(new - total)
                            total = new
                    totals[idx], last_h[idx], state[idx] = total, h, level
                    if first:
                        tail += _tails(rnd, idx, vals, dl, dr, panels, edge_exponents)
                # the rounding bounds, summed over the rule that gives the value
                if rounding is not None:
                    carried[idx] += np.einsum("ij,ij->i", w[:, final], rounding[:, final])
                if scatter is not None:
                    scattered[idx] += np.einsum("ij,ij->i", w[:, final] ** 2, scatter[:, final] ** 2)
        est = float(np.sum(diffs))
        target = max(tol, rel_tol * abs(float(np.sum(totals))))
        if est <= target / 8.0:
            break
        active = active[~(diffs[active] <= target / (8.0 * panels)) & (state[active] < _MAX_LEVEL)]
        if not active.size:
            break
    floor = 5e-16 * magnitude
    rounding = float(np.dot(last_h, carried)) + math.sqrt(float(np.dot(last_h**2, scattered)))
    return float(np.sum(totals)), max(est, floor) + tail + rounding


def _engine_panels(family: Family, n: int):
    """``(points, edge_exponents, factor, zero_panels)`` of a float64
    integral against rho_n: the interval split at the zeros of p_n
    (``zeros_raw``) with the weight's exponents at its ends, and factor 1;
    for a symmetric weight, the half [0, hi] split at the positive zeros,
    exponent 0 at 0 (an interior point) and factor 2.  The integral of an
    integrand that is even with the weight is ``factor`` times that over
    the points; both Shannon's rho ln p_n^2 and Fisher's (rho')^2 / rho are.
    The zeros mirror exactly and p_n(-x) = (-1)^n p_n(x) bit for bit in the
    float recurrence when every a_k = 0, so the two halves of the integrand
    are mirror images to the bit; at odd n the zero at 0 is the first end.

    ``zero_panels`` are the panels between two consecutive zeros, which
    :func:`tanh_sinh_panels` integrates by its Gauss-Legendre pair, less
    one beside a finite end of nonzero exponent: w has a branch point there,
    one panel width away, and the pair converges too slowly (Laguerre(-1/4)
    n = 5 reached 1.1e-9).
    """
    lo, hi = family.interval
    zs = zeros_raw(family.kind, family.alpha, family.beta, n)
    if _is_symmetric(family.kind, family.alpha, family.beta):
        pts, edges, factor = [0.0] + zs[(n + 1) // 2 :] + [hi], (0.0, family.edge_exponents[1]), 2
    else:
        pts, edges, factor = [lo] + zs + [hi], family.edge_exponents, 1
    # panel j is [pts[j], pts[j + 1]]: the first and the last end at an end
    # of the points, and the first is a zero panel too when that end, 0 on
    # a half line at odd n, is a zero
    first = 0 if factor == 2 and n % 2 else 1
    first += edges[0] != 0
    stop = len(pts) - 2 - (edges[1] != 0)
    return pts, edges, factor, range(first, max(first, stop))
