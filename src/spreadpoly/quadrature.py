"""Gauss quadrature for (power-shifted) classical weights, plus adaptive
integration for logarithmically singular integrands.

Gauss rules are the *exact oracle* of the package: every polynomial-power
integral (density normalization, moments, Rényi power integrals) is
evaluated with a rule whose exactness degree covers the integrand, so the
oracle carries no truncation error — only rounding at working precision.

Construction follows Golub–Welsch: nodes are the eigenvalues of the
symmetric tridiagonal recurrence matrix.  Double-precision eigenvalues
serve only as seeds; each node is polished by Newton passes on the monic
recurrence (``orthopoly._gauss_polish``), run on block-scaled Python
integers with 32 guard bits over the rule's precision
(``orthopoly.monic_fixed``), and its weight
``w_i = 1 / sum_k p_k(x_i)^2`` comes from the last pass by the
Christoffel–Darboux formula, ``h_{m-1} / (pi_m' pi_{m-1} - pi_{m-1}' pi_m)``.
One exact recurrence table (``families.exact_recurrence``) is built per
rule and rounded once to that fixed point.  Symmetric rules polish half
their nodes and mirror them exactly.  Nodes and weights agree with an mpf
oracle at twice the precision to within 2^-bits.  Built rules are kept in
a bounded LRU cache keyed by weight, size and precision; the shifted
exponents of w^q are exact mpf values (:meth:`WeightSpec.power`).

The mpf oracles against rho_n = p_n^2 w live here, each written once:
the Gauss sum :func:`_rule_sum` (W_q and the moment oracles of
``closed_form``), with p_n at the nodes from the same integer kernel, and
the integral :func:`_split_integral` split at the zeros of p_n (the Shannon
fallback and the ``<ln w>`` check of ``verification``).

Two adaptive integrators serve the Shannon integrals:

* :func:`integrate_log_singular` — arbitrary-precision tanh-sinh panels
  (mpmath), the contract-level routine, split at strictly increasing
  points that it takes as given;
* :func:`tanh_sinh_panels` — a vectorized float64 tanh-sinh engine, the
  throughput path of the Shannon and Fisher integrals.  It hands the nodes
  of many panels, finite and infinite, to the integrand in one call (levels
  0 to 3 together, then one level per round), so a recurrence-based
  integrand runs its n-step loop once per batch of panels rather than once
  per panel and level; a panel whose own level difference has converged
  stops refining, and a non-finite integrand value raises
  :class:`QuadratureError`.  Its node map stops at t = +-_TMAX, so at an
  endpoint where the integrand blows up like |x - e|^gamma (gamma < 0) the
  error estimate also counts the mass beyond the outermost node.  When that
  makes the estimate too large, the Shannon route falls back to
  :func:`integrate_log_singular` and the Fisher route raises.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .context import ParameterError, PrecisionContext, PrecisionError
from .families import HERMITE, JACOBI, LAGUERRE, Family, RenyiOrder
from .orthopoly import _RULE_GUARD, _gauss_polish, _is_symmetric, _mirror, _recurrence_values
from .orthopoly import evaluate_recurrence, zeros

__all__ = [
    "WeightSpec",
    "QuadratureRule",
    "NonIntegrableError",
    "QuadratureError",
    "gauss_rule",
    "integrate_density_power",
    "integrate_log_singular",
    "tanh_sinh_panels",
]

_DEFAULT_CTX = PrecisionContext()


class NonIntegrableError(ParameterError):
    """Requested power integral diverges (shifted exponent <= -1)."""


class QuadratureError(ArithmeticError):
    """Adaptive integration failed to reach the requested tolerance."""


@dataclass(frozen=True)
class WeightSpec:
    """A classical weight, possibly with shifted exponents and a rate.

    hermite:  exp(-scale x^2)            on (-inf, inf)
    laguerre: x^alpha exp(-scale x)      on [0, inf),  alpha > -1
    jacobi:   (1-x)^alpha (1+x)^beta     on [-1, 1],   alpha, beta > -1
    """

    kind: str
    alpha: float = 0.0
    beta: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in (HERMITE, LAGUERRE, JACOBI):
            raise ParameterError(f"unknown weight kind {self.kind!r}")
        if self.scale <= 0:
            raise ParameterError("scale must be positive")
        if self.kind == JACOBI and self.scale != 1.0:
            raise ParameterError("jacobi weight takes no scale")
        if self.kind in (LAGUERRE, JACOBI) and not self.alpha > -1:
            raise NonIntegrableError(f"exponent alpha={self.alpha} not integrable")
        if self.kind == JACOBI and not self.beta > -1:
            raise NonIntegrableError(f"exponent beta={self.beta} not integrable")

    @classmethod
    def from_family(cls, family: Family) -> "WeightSpec":
        return cls(family.kind, family.alpha, family.beta)

    @classmethod
    def power(cls, family: Family, q) -> "WeightSpec":
        """Spec for w^q, 2q a positive integer: Gaussian scale q / Laguerre
        (alpha q, rate q) / Jacobi (alpha q, beta q).

        The shifted exponents are exact mpf values: a double times 2q fits
        in 53 + bit_length(2q) bits, and halving it is exact.  They compare
        and hash by value, so they key the rule cache like floats do.
        """
        two_q = RenyiOrder.from_q(q).two_q
        qf = two_q / 2
        if family.kind == HERMITE:
            return cls(HERMITE, scale=qf)
        with mp.workprec(53 + two_q.bit_length()):
            alpha = mp.mpf(family.alpha) * two_q / 2
            beta = mp.mpf(family.beta) * two_q / 2
        if family.kind == LAGUERRE:
            return cls(LAGUERRE, alpha=alpha, scale=qf)
        return cls(JACOBI, alpha=alpha, beta=beta)


@dataclass(frozen=True)
class QuadratureRule:
    spec: WeightSpec
    nodes: tuple
    weights: tuple
    exact_degree: int


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


def gauss_rule(
    spec: WeightSpec, m: int, ctx: PrecisionContext = _DEFAULT_CTX
) -> QuadratureRule:
    """m-node Gauss rule for the given weight, exact to degree 2m-1 (the
    checked unit-scale rule; a positive rate keeps its properties)."""
    if m < 1:
        raise ParameterError("rule needs at least one node")
    nodes, weights = _standard_rule(spec.kind, spec.alpha, spec.beta, m, ctx.bits)
    if spec.scale != 1.0:
        with mp.workprec(ctx.bits + _RULE_GUARD):
            s = mp.mpf(spec.scale)
            if spec.kind == HERMITE:
                r = mp.sqrt(s)
                nodes = tuple(x / r for x in nodes)
                weights = tuple(w / r for w in weights)
            else:
                factor = mp.power(s, -(mp.mpf(spec.alpha) + 1))
                nodes = tuple(x / s for x in nodes)
                weights = tuple(w * factor for w in weights)
    return QuadratureRule(spec, nodes, weights, 2 * m - 1)


def _rule_sum(family: Family, n: int, spec: WeightSpec, m: int, ctx: PrecisionContext, term):
    """sum_i term(x_i, lambda_i, p_n(x_i)) over the m-node rule of ``spec``,
    by ``fsum`` at ``ctx.bits + _RULE_GUARD``, with p_n from
    :func:`spreadpoly.orthopoly._recurrence_values`.  When the family and
    the rule's weight are both symmetric, the nodes mirror exactly: p_n is
    evaluated on the nonpositive half and mirrored with the sign (-1)^n, so
    a sum that vanishes by parity is exactly 0.
    """
    rule = gauss_rule(spec, m, ctx)
    nodes = rule.nodes
    mirrored = _is_symmetric(family.kind, family.alpha, family.beta) and _is_symmetric(
        spec.kind, spec.alpha, spec.beta
    )
    with mp.workprec(ctx.bits + _RULE_GUARD):
        values = _recurrence_values(family, n, nodes[: (m + 1) // 2] if mirrored else nodes)
        if mirrored:
            values = _mirror(values, m, -1 if n % 2 else 1)
        return +mp.fsum(term(x, w, v) for x, w, v in zip(nodes, rule.weights, values))


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
    q=3/2) comes out at the rounding floor of the terms, not as 0.
    """
    order = RenyiOrder.from_q(q)
    two_q = order.two_q
    spec = WeightSpec.power(family, order)
    return _rule_sum(
        family, n, spec, n * two_q // 2 + 1, ctx, lambda x, w, v: w * mp.power(v, two_q)
    )


#: Precision doublings :func:`integrate_log_singular` tries past the
#: context's bits, and the tanh-sinh degree of each attempt.
_ESCALATIONS = 3
_MAX_DEGREE = 8


def integrate_log_singular(f, interval, split_points, ctx: PrecisionContext, *, tol):
    """Adaptive tanh-sinh integration with panel splits at singular points.

    The panels are ``[lo, *split_points, hi]`` as given, not sorted, merged
    or rounded; ParameterError unless strictly increasing.  Returns
    ``(value, est_error)``.  Acceptance: est_error <= ``tol``, an absolute
    tolerance, retried at doubled precision ``_ESCALATIONS`` times before
    raising :class:`QuadratureError`.  Infinite endpoints are handled by
    the double-exponential variable transform of the underlying integrator.
    """
    lo, hi = interval
    pts = [lo, *split_points, hi]
    if not all(a < b for a, b in zip(pts, pts[1:])):
        raise ParameterError(f"panel points are not strictly increasing: {pts}")
    bits = ctx.bits
    for _ in range(_ESCALATIONS + 1):
        with mp.workprec(bits):
            val, err = mp.quad(f, pts, error=True, maxdegree=_MAX_DEGREE)
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
# Vectorized float64 tanh-sinh engine
# ---------------------------------------------------------------------------

_TMAX = 4.0

#: Most abscissas one ``fpanel`` call receives: the panels of a round are
#: laid out side by side in batches of at most this many nodes (a batch
#: holds at least one panel).  The cap bounds the memory of the integrand's
#: temporaries, which grow with the batch.
_BATCH_NODES = 2**15


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
    """Node quantities of the levels of one round, side by side: ``parts``
    lists (level, slice of the nodes, h); the arrays are the node map's
    factors (read-only, the rounds are cached)."""

    parts: tuple
    u: np.ndarray
    sel_l: np.ndarray
    sel_r: np.ndarray
    cosh_t: np.ndarray
    sech2: np.ndarray
    d: np.ndarray
    w_exp: np.ndarray


@functools.lru_cache(maxsize=None)
def _round(levels: tuple) -> _Round:
    """The round of ``levels``; seven occur (levels 0-3, then 4 to 9)."""
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
    arrays = (
        u,
        np.where(u < 0, near, far),
        np.where(u < 0, far, near),
        cosh_t,
        np.cosh(u) ** 2,
        d,
        0.5 * np.pi * cosh_t * d,
    )
    for a in arrays:
        a.setflags(write=False)
    return _Round(tuple(parts), *arrays)


def _round_nodes(rnd: _Round, a, b):
    """Abscissas, distances to the panel ends and weights of the panels
    [a_j, b_j] at the nodes of a round, as (panels, nodes) arrays: the
    tanh-sinh map on a finite panel, the exp-sinh map from the finite end
    of an infinite one."""
    shape = (a.size, rnd.u.size)
    x, dl, dr, w = (np.empty(shape) for _ in range(4))
    fin = np.isfinite(a) & np.isfinite(b)
    lo, hi = a[fin, None], b[fin, None]
    half = 0.5 * (hi - lo)
    dl_fin = half * rnd.sel_l
    dr_fin = half * rnd.sel_r
    x[fin] = np.where(rnd.u < 0, lo + dl_fin, hi - dr_fin)
    dl[fin], dr[fin] = dl_fin, dr_fin
    w[fin] = half * 0.5 * np.pi * rnd.cosh_t / rnd.sech2
    for j in np.flatnonzero(~fin):
        w[j] = rnd.w_exp
        if np.isinf(b[j]):
            x[j], dl[j], dr[j] = a[j] + rnd.d, rnd.d, np.inf
        else:
            x[j], dl[j], dr[j] = b[j] - rnd.d, np.inf, rnd.d
    return x, dl, dr, w


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


#: Levels 0 to _FIRST_LEVEL form the first round, one integrand call per
#: batch: the stop rules need a level >= 3, so every panel reaches it.
_FIRST_LEVEL = 3

#: Deepest refinement level of :func:`tanh_sinh_panels` (spacing 2^-9).
_MAX_LEVEL = 9


def tanh_sinh_panels(fpanel, points, *, tol=1e-10, edge_exponents=(0.0, 0.0)):
    """Integrate a panel-aware vectorized integrand over [points[0], points[-1]].

    ``fpanel(i, a, b, x, dl, dr)`` receives ``i``, the tuple of panel
    indices the call covers (in increasing order), and float64 arrays of
    equal length: the abscissas ``x``, the endpoints ``a`` and ``b`` of
    each node's panel, and the distances ``dl``/``dr`` to those endpoints
    (computed in a cancellation-free way, so ``a + dl == x == b - dr``
    holds to full relative accuracy even within 1e-300 of an endpoint).
    The nodes of the panels in ``i`` come one panel after another, the same
    number for each.  Refinement runs in rounds: the first gives every
    panel the nodes of levels 0 to 3 (65 nodes), each later round gives
    the panels still refining the nodes of the next level.  The panels of
    a round, finite and infinite alike, share calls of at most
    ``_BATCH_NODES`` nodes.  ``fpanel`` must return the integrand values
    as a float64 array; a non-finite value raises :class:`QuadratureError`
    naming the panel and the level.  It may return a pair
    ``(values, rounding)`` instead: ``rounding`` bounds, value by value,
    the rounding error that the difference between refinement levels does
    not show (an error common to many nodes, say), and the estimate adds
    its quadrature sum over each panel's final grid.

    Each panel's sum at a level is the previous level's halved plus h
    times the new nodes' weighted values, and its difference is the
    change.  From level 3 on the loop stops when the differences sum to at
    most tol/8, and a panel whose own difference is at most tol/(8P), with
    P panels, stops refining: it keeps its sum, and its last difference
    counts in that sum.  The estimate is that sum of differences, at least
    5e-16 times the weighted sum of |values| over the levels run.

    ``edge_exponents`` = (gamma_lo, gamma_hi) declares that the integrand
    behaves like |x - e|^gamma, up to a log factor, at the ends
    ``points[0]`` and ``points[-1]``.  For each negative gamma, which needs
    a finite end, the estimate adds the mass between that end and the
    outermost node (about 1e-37 half-panels away on a finite panel,
    exp(-pi/2 sinh _TMAX) ~ 2.4e-19 on an infinite one), which no
    refinement level reaches; it is inf for gamma <= -1.  Nonnegative
    exponents add nothing.

    Returns ``(value, est_error)`` as floats.
    """
    pts = [float(p) for p in points]
    for gamma, end in zip(edge_exponents, (pts[0], pts[-1])):
        if gamma < 0 and not np.isfinite(end):
            raise ParameterError(f"edge exponent {gamma} at the infinite end {end}")
    if len(pts) == 2 and np.isinf(pts[0]) and np.isinf(pts[1]):
        pts = [pts[0], 0.0, pts[1]]
    lo = np.array(pts[:-1])
    hi = np.array(pts[1:])
    panels = lo.size
    totals = np.zeros(panels)
    diffs = np.full(panels, np.inf)
    last_h = np.ones(panels)
    carried = np.zeros(panels)
    magnitude = 0.0
    tail = 0.0
    active = np.arange(panels)
    levels = tuple(range(_FIRST_LEVEL + 1))
    while True:
        rnd = _round(levels)
        size = rnd.u.size
        per_call = max(1, _BATCH_NODES // size)
        for start in range(0, active.size, per_call):
            idx = active[start : start + per_call]
            x, dl, dr, w = _round_nodes(rnd, lo[idx], hi[idx])
            ends = (np.repeat(lo[idx], size), np.repeat(hi[idx], size))
            vals = fpanel(tuple(idx.tolist()), *ends, x.ravel(), dl.ravel(), dr.ravel())
            if isinstance(vals, tuple):
                vals, rounding = vals
                carried[idx] += np.einsum("ij,ij->i", w, np.reshape(rounding, w.shape))
            vals = np.asarray(vals, dtype=float).reshape(w.shape)
            bad = ~np.isfinite(vals)
            if bad.any():
                # name the lowest level, and on it the first panel
                level, part, _ = next(p for p in rnd.parts if bad[:, p[1]].any())
                j = int(np.argmax(bad[:, part].any(axis=1)))
                i = int(idx[j])
                raise QuadratureError(
                    f"integrand returned {np.count_nonzero(bad[j, part])} non-finite values "
                    f"on panel {i} [{float(lo[i])!r}, {float(hi[i])!r}] at level {level}"
                )
            for level, part, h in rnd.parts:
                wp, vp = w[:, part], vals[:, part]
                contrib = np.array([np.dot(wr, vr) for wr, vr in zip(wp, vp)])
                magnitude += h * float(np.einsum("ij,ij->", wp, np.abs(vp)))
                if level == 0:
                    totals[idx] = contrib
                else:
                    new = totals[idx] / 2.0 + h * contrib
                    diffs[idx] = np.abs(new - totals[idx])
                    totals[idx] = new
                last_h[idx] = h
            if levels[0] == 0:
                # the outermost nodes are level-0 nodes (t = +-_TMAX); the
                # first round holds every panel, in order
                part = rnd.parts[0][1]
                gamma_lo, gamma_hi = edge_exponents
                for i, dist, gamma in ((0, dl, gamma_lo), (panels - 1, dr, gamma_hi)):
                    if gamma < 0 and idx[0] <= i <= idx[-1]:
                        row = dist[i - idx[0], part]
                        k = int(np.argmin(row))
                        tail += _edge_tail(vals[i - idx[0], part][k], row[k], gamma)
        level = levels[-1]
        est = float(np.sum(diffs))
        if est <= tol / 8.0 or level == _MAX_LEVEL:
            break
        active = active[~(diffs[active] <= tol / (8.0 * panels))]
        levels = (level + 1,)
    floor = 5e-16 * magnitude
    return float(np.sum(totals)), max(est, floor) + tail + float(np.dot(last_h, carried))
