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

The rule oracles (:func:`integrate_density_power`, and the moment oracles
of ``closed_form``) take p_n at the nodes from the same integer kernel
(:func:`_node_values`), as pi_n / sqrt(h_n) with h_n = mu_0 b_1^2 ... b_n^2.

Two adaptive integrators serve the Shannon integrals:

* :func:`integrate_log_singular` — arbitrary-precision tanh-sinh panels
  (mpmath), the contract-level routine;
* :func:`tanh_sinh_panels` — a vectorized float64 tanh-sinh engine, the
  throughput path of the Shannon and Fisher integrals.  At each refinement
  level it hands the nodes of many panels to the integrand in one call, so
  a recurrence-based integrand runs its n-step loop once per batch of
  panels rather than once per panel; a non-finite integrand value raises
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
from .orthopoly import _gauss_polish, _is_symmetric, _recurrence_values

__all__ = [
    "WeightSpec",
    "QuadratureRule",
    "NonIntegrableError",
    "QuadratureError",
    "gauss_rule",
    "integrate_density_power",
    "integrate_log_singular",
    "tanh_sinh_panels",
    "merge_points",
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
    """Unit-scale rule: nodes/weights as mpf tuples at ``bits + 20``."""
    nodes, weights = _gauss_polish(kind, alpha, beta, m, bits)
    return tuple(nodes), tuple(weights)


def gauss_rule(
    spec: WeightSpec, m: int, ctx: PrecisionContext = _DEFAULT_CTX
) -> QuadratureRule:
    """m-node Gauss rule for the given weight, exact to degree 2m-1."""
    if m < 1:
        raise ParameterError("rule needs at least one node")
    nodes, weights = _standard_rule(spec.kind, spec.alpha, spec.beta, m, ctx.bits)
    with mp.workprec(ctx.bits + 20):
        if spec.scale != 1.0:
            s = mp.mpf(spec.scale)
            if spec.kind == HERMITE:
                r = mp.sqrt(s)
                nodes = tuple(x / r for x in nodes)
                weights = tuple(w / r for w in weights)
            else:
                factor = mp.power(s, -(mp.mpf(spec.alpha) + 1))
                nodes = tuple(x / s for x in nodes)
                weights = tuple(w * factor for w in weights)
        for w in weights:
            if not w > 0:
                raise PrecisionError("nonpositive quadrature weight")
        for lo, hi in zip(nodes, nodes[1:]):
            if not lo < hi:
                raise PrecisionError("nodes not strictly increasing")
    return QuadratureRule(spec, nodes, weights, 2 * m - 1)


def _node_values(family: Family, n: int, rule: QuadratureRule) -> list:
    """p_n at every node of ``rule``, as mpf at the active precision, from
    the recurrence evaluator of the mpf routes
    (:func:`spreadpoly.orthopoly._recurrence_values`).  When the family and
    the rule's weight are both symmetric, the nodes mirror exactly: p_n is
    evaluated on the nonpositive half and mirrored with the sign (-1)^n, so
    a sum that vanishes by parity is exactly 0.
    """
    nodes = rule.nodes
    m = len(nodes)
    spec = rule.spec
    mirrored = _is_symmetric(family.kind, family.alpha, family.beta) and _is_symmetric(
        spec.kind, spec.alpha, spec.beta
    )
    out = _recurrence_values(family, n, nodes[: (m + 1) // 2] if mirrored else nodes)
    if mirrored:
        tail = reversed(out[: m // 2])
        out += [-v for v in tail] if n % 2 else tail
    return out


def integrate_density_power(
    family: Family, n: int, q, ctx: PrecisionContext = _DEFAULT_CTX
):
    """Signed power integral  W_q = integral p_n^{2q} w^q  via an exact rule.

    2q must be a positive integer; the integrand p^{2q} w^q is then a
    polynomial of degree 2nq against the shifted weight w^q, integrated
    with a rule of covering exactness.  Equals integral rho^q whenever 2q
    is even, and returns 1 at q=1.  A parity zero (Hermite or Jacobi with
    alpha = beta, n 2q odd) is exactly 0: the node values mirror exactly
    (:func:`_node_values`), so the terms cancel in pairs.  Any other sum
    is returned as rounded, so a zero without parity (Laguerre(-1/2) n=1,
    q=3/2) comes out at the rounding floor of the terms, not as 0.
    """
    order = RenyiOrder.from_q(q) if not isinstance(q, RenyiOrder) else q
    spec = WeightSpec.power(family, order.q)
    deg = n * order.two_q
    rule = gauss_rule(spec, deg // 2 + 1, ctx)
    with mp.workprec(ctx.bits + 20):
        values = _node_values(family, n, rule)
        total = [w * mp.power(v, order.two_q) for v, w in zip(values, rule.weights)]
        return +mp.fsum(total)


#: Panel boundaries closer than this collapse into one (:func:`merge_points`).
_MERGE_GAP = 1e-12

#: Precision doublings :func:`integrate_log_singular` tries past the
#: context's bits, and the tanh-sinh degree of each attempt.
_ESCALATIONS = 3
_MAX_DEGREE = 8


def merge_points(points):
    """Sort and deduplicate panel boundaries (a gap <= ``_MERGE_GAP`` collapses)."""
    pts = sorted(mp.mpf(p) for p in points)
    out = [pts[0]]
    for p in pts[1:]:
        if p - out[-1] > _MERGE_GAP:
            out.append(p)
    return out


def integrate_log_singular(f, interval, split_points, ctx: PrecisionContext, *, tol):
    """Adaptive tanh-sinh integration with panel splits at singular points.

    Returns ``(value, est_error)``.  Acceptance: est_error <= ``tol``, an
    absolute tolerance, retried at doubled precision ``_ESCALATIONS``
    times before raising :class:`QuadratureError`.  Infinite endpoints are
    handled by the double-exponential variable transform of the
    underlying integrator.
    """
    lo, hi = interval
    inner = [p for p in split_points if lo < p < hi]
    pts = [lo] + merge_points(inner) + [hi] if inner else [lo, hi]
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


# ---------------------------------------------------------------------------
# Vectorized float64 tanh-sinh engine
# ---------------------------------------------------------------------------

_TMAX = 4.0

#: Most abscissas one ``fpanel`` call receives: finite panels are laid out
#: side by side in batches of at most this many nodes (a batch holds at
#: least one panel).  The cap bounds the memory of the integrand's
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


def _batches(finite, per_batch: int):
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


#: Deepest refinement level of :func:`tanh_sinh_panels` (spacing 2^-9).
_MAX_LEVEL = 9


def tanh_sinh_panels(fpanel, points, *, tol=1e-10, edge_exponents=(0.0, 0.0)):
    """Integrate a panel-aware vectorized integrand over [points[0], points[-1]].

    ``fpanel(i, a, b, x, dl, dr)`` receives ``i``, the ``range`` of panel
    indices the call covers, and float64 arrays of equal length: the
    abscissas ``x``, the endpoints ``a`` and ``b`` of each node's panel, and
    the distances ``dl``/``dr`` to those endpoints (computed in a
    cancellation-free way, so ``a + dl == x == b - dr`` holds to full
    relative accuracy even within 1e-300 of an endpoint).  The nodes of
    the panels in ``i`` come one panel after another.  At each level, each
    infinite panel gets a call of its own and consecutive finite panels
    share calls of at most ``_BATCH_NODES`` nodes.  ``fpanel`` must return
    the integrand values as a float64 array; a non-finite value raises
    :class:`QuadratureError` naming the panel.  It may return a pair
    ``(values, rounding)`` instead: ``rounding`` bounds, value by value,
    the rounding error that the difference between refinement levels does
    not show (an error common to many nodes, say), and the estimate adds
    its quadrature sum over the final grid.

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
    finite = np.isfinite(lo) & np.isfinite(hi)
    totals = np.zeros(lo.size)
    prev_totals = np.full(lo.size, np.nan)
    magnitude = 0.0
    carried = 0.0
    est = np.inf
    tail = 0.0
    for level in range(0, _MAX_LEVEL + 1):
        t, h = _panel_nodes(level)
        u = 0.5 * np.pi * np.sinh(t)
        cosh_t = np.cosh(t)
        # 1 +- tanh(u), computed without cancellation
        e2u = np.exp(-2.0 * np.abs(u))
        near = 2.0 * e2u / (1.0 + e2u)      # 1 - |tanh u|
        far = 2.0 / (1.0 + e2u)             # 1 + |tanh u|
        sel_l = np.where(u < 0, near, far)
        sel_r = np.where(u < 0, far, near)
        sech2 = np.cosh(u) ** 2
        d = np.exp(u)
        contrib = np.zeros(lo.size)
        for batch in _batches(finite, max(1, _BATCH_NODES // t.size)):
            span = slice(batch.start, batch.stop)
            a = lo[span, None]
            b = hi[span, None]
            if finite[batch.start]:
                half = 0.5 * (b - a)
                dl = half * sel_l
                dr = half * sel_r
                x = np.where(u < 0, a + dl, b - dr)
                w = half * 0.5 * np.pi * cosh_t / sech2
            else:
                # exp-sinh map from the finite endpoint
                w = (0.5 * np.pi * cosh_t * d)[None, :]
                far_end = np.full_like(w, np.inf)
                if np.isinf(hi[batch.start]):
                    x, dl, dr = a + d, d[None, :], far_end
                else:
                    x, dl, dr = b - d, far_end, d[None, :]
            ends = (np.repeat(lo[span], t.size), np.repeat(hi[span], t.size))
            vals = fpanel(batch, *ends, x.ravel(), dl.ravel(), dr.ravel())
            if isinstance(vals, tuple):
                vals, rounding = vals
                carried += float(np.vdot(np.broadcast_to(w, x.shape), rounding))
            vals = np.asarray(vals, dtype=float).reshape(x.shape)
            bad = np.count_nonzero(~np.isfinite(vals), axis=1)
            for j, i in enumerate(batch):
                if bad[j]:
                    raise QuadratureError(
                        f"integrand returned {bad[j]} non-finite values on panel {i} "
                        f"[{float(lo[i])!r}, {float(hi[i])!r}] at level {level}"
                    )
                contrib[i] = np.dot(w[j], vals[j])
                magnitude += h * float(np.dot(w[j], np.abs(vals[j])))
            if level == 0:
                # the outermost nodes are level-0 nodes (t = +-_TMAX)
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
            if level >= 3 and est <= tol / 8.0:
                break
    floor = 5e-16 * magnitude
    return float(np.sum(totals)), max(est, floor) + tail + h * carried
