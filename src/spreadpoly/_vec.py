"""Float64 vectorized evaluation of orthonormal polynomials.

Backs the throughput path of the adaptive integrators: the three-term
recurrence runs on numpy arrays with per-node rescaling by exact powers of
two, 2^-332 each, tested for only near overflow, counting the rescalings
so values far out in the weight tails (where p_n overflows float64 by
hundreds of orders of magnitude) stay representable as
``p = p_scaled * exp(logscale)``; since a power of two rescales exactly,
the values do not depend on when a node was rescaled, nor on which other
nodes share the call.  The coefficients come from
``families.raw_recurrence``, the exact table rounded once to float64, and
the start p_0 = 1/sqrt(mu_0) from :func:`_p0`, a normal double and a
starting rescaling count.  :func:`log_weight` gives
ln w (and (ln w)') at the nodes of the float64 panel engine, with the
size of its logarithm terms, which bounds their rounding.
"""

from __future__ import annotations

import functools
import sys

import numpy as np
from mpmath import mp

from .context import PrecisionError
from .families import HERMITE, LAGUERRE, norm_constant, raw_recurrence

#: One rescaling scales a node's values by exactly 2^-_RESCALE_BITS.
_RESCALE_BITS = 332
_RESCALE = 2.0**_RESCALE_BITS
#: ln 2^332, the log of one rescaling, as a two-double constant: the high
#: part has 32 significant bits, so count * _LN_RESCALE_HI is exact for
#: fewer than 2^21 rescalings, and the low part holds the rest to 8e-25.
_LN_RESCALE_HI = float.fromhex("0x1.cc3fee2ap+7")
_LN_RESCALE_LO = 2.330586494331794e-08

#: Largest start count :func:`_p0` gives: the scale count * _LN_RESCALE_HI
#: is exact below 2^21 rescalings, so a recurrence keeps room for 2^20 more.
_MAX_START_COUNT = 2**20

#: Relative margin of the bound on max|p_k| in :func:`poly_scaled` over the
#: roundings of a step and of the bound, ten of them at most, 1.1e-15; an
#: underflow's absolute error, at most 2^-1074 an operation, stays far below
#: the margin while max|p_k| is a normal double, as p_0 is.
_BOUND_MARGIN = 1.0 + 2.0**-40

#: :func:`poly_scaled` tests for nodes to rescale once a bound on the
#: products of the next step passes this, 2^23 below the largest double:
#: room for the division by b_{k+1} < 1 and for the bound's own roundings.
_NEAR_OVERFLOW = 2.0**1000


@functools.lru_cache(maxsize=64)
def _p0(kind, alpha, beta):
    """p_0 = 1/sqrt(mu_0) of the weight as ``(p, count)``, the start of the
    recurrence of :func:`poly_scaled`: p_0 = p 2^(332 count).

    p is the 64-bit mpf p_0 times 2^(-332 count), rounded once to a float.
    Where p_0 is a normal double, count is 0 and p is p_0 rounded once;
    elsewhere (Laguerre alpha above 300.33, where p_0 underflows) count is
    the nearest integer to log2(p_0) / 332, so p is within a factor 2^166
    of 1 and carries every digit into p_n.  PrecisionError where that count
    exceeds ``_MAX_START_COUNT``, which the scale cannot hold.
    """
    with mp.workprec(64):
        p0 = 1 / mp.sqrt(norm_constant(kind, alpha, beta, 64))
        count = 0
        if not sys.float_info.min <= p0 <= sys.float_info.max:
            count = int(mp.nint(mp.log(p0, 2) / _RESCALE_BITS))
            if abs(count) > _MAX_START_COUNT:
                raise PrecisionError(
                    f"p_0 of {kind}(alpha={alpha:g}, beta={beta:g}) needs {count} "
                    f"rescalings, more than the scale holds"
                )
            p0 = mp.ldexp(p0, -_RESCALE_BITS * count)
        return float(p0), count


def _factors(mag):
    """How many factors 2^332 each magnitude carries: the largest integer c
    with mag >= 2^(332 c), from the binary exponent of ``frexp`` (negative
    below 1, -1 at 0)."""
    return (np.frexp(mag)[1] - 1) // _RESCALE_BITS


def poly_scaled(kind, alpha, beta, n, x, derivative=False):
    """Evaluate p_n (and optionally p_n') with overflow-safe scaling.

    Returns ``(p, logscale)`` or ``(p, dp, logscale)`` where the true
    values are ``p * exp(logscale)`` elementwise.  Each node counts its
    rescalings by 2^-332 as an integer, from the start count of
    :func:`_p0`; the scale is formed once, as ``count * _LN_RESCALE_HI``,
    which is exact, and the low part ``exp(count * _LN_RESCALE_LO)``
    multiplies p (and p').  So the scale that nodes with the same count
    share carries no rounding, and the factor they share in p is within an
    ulp, u relative, of its exact value (it is near 1).

    The recurrence runs in place on three rotating buffers per value.  A
    scalar bound on the products of each step, grown by the triangle
    inequality, skips any test for nodes to rescale until it passes
    ``_NEAR_OVERFLOW``; then every node whose p_k, p_{k-1} (or p'_k,
    p'_{k-1}) reaches 2^332 is scaled down by 2^(-332 c) with ``ldexp``, c
    the number of factors 2^332 the largest of them carries, and the bound
    restarts from the values.  A power of two commutes exactly with every
    operation of the recurrence (barring subnormals), so p 2^(332 count) is
    the plain recurrence's value to the bit, whenever a node is rescaled.
    At the end each node's count is renormalised once, to the least count
    not below the start count that leaves |p| under 2^332 (read from p',
    with p = 0), so the returned bits depend on the node alone, not on the
    other nodes of the call.
    """
    x = np.asarray(x, dtype=float)
    diag, off = raw_recurrence(kind, alpha, beta, n + 1)
    p0, count0 = _p0(kind, alpha, beta)
    count = np.full(x.shape, count0, dtype=np.int64)
    pkm1, pk, pk1 = np.zeros_like(x), np.full_like(x, p0), np.empty_like(x)
    if derivative:
        dkm1, dk, dk1 = np.zeros_like(x), np.zeros_like(x), np.empty_like(x)
    t, tmp = np.empty_like(x), np.empty_like(x)
    # bounds on the values of step k and of step k - 1 (p and p'); no node,
    # nothing to bound
    reach = float(np.max(np.abs(x), initial=0.0))
    bound, bound_m1 = (abs(p0) if x.size else 0.0), 0.0
    limit = _NEAR_OVERFLOW * min((1.0, *off[1 : n + 1]))
    rescaled = False
    for k in range(n):
        spread = reach + abs(diag[k])
        growth = spread * bound + off[k] * bound_m1 + (bound if derivative else 0.0)
        # a nan value makes the bound nan, which fails this test from then on
        if growth > limit:
            values = (pk, pkm1, dk, dkm1) if derivative else (pk, pkm1)
            mag = np.abs(pk)
            for v in values[1:]:
                np.maximum(mag, np.abs(v), out=mag)
            bound = float(mag.max())
            if bound >= _RESCALE:
                big = np.flatnonzero(mag >= _RESCALE)
                c = _factors(mag[big])
                for v in values:
                    v[big] = np.ldexp(v[big], -_RESCALE_BITS * c)
                count[big] += c
                bound, rescaled = _RESCALE, True
            bound_m1 = bound
            growth = (spread + off[k] + (1.0 if derivative else 0.0)) * bound
        # p_{k+1} = ((x - a_k) p_k - b_k p_{k-1}) / b_{k+1}
        np.subtract(x, diag[k], out=t)
        if derivative:
            # p'_{k+1} = ((x - a_k) p'_k + p_k - b_k p'_{k-1}) / b_{k+1}
            np.multiply(t, dk, out=dk1)
            np.add(dk1, pk, out=dk1)
            np.multiply(dkm1, off[k], out=tmp)
            np.subtract(dk1, tmp, out=dk1)
            np.divide(dk1, off[k + 1], out=dk1)
            dkm1, dk, dk1 = dk, dk1, dkm1
        np.multiply(t, pk, out=pk1)
        np.multiply(pkm1, off[k], out=tmp)
        np.subtract(pk1, tmp, out=pk1)
        np.divide(pk1, off[k + 1], out=pk1)
        pkm1, pk, pk1 = pk, pk1, pkm1
        bound, bound_m1 = _BOUND_MARGIN * growth / off[k + 1], bound
    if rescaled or bound >= _RESCALE:
        lead = np.abs(np.where(pk == 0.0, dk, pk) if derivative else pk)
        rel = count - count0
        final = np.maximum(rel + _factors(lead), 0)
        final[lead == 0.0] = 0
        shift = _RESCALE_BITS * (rel - final)
        pk = np.ldexp(pk, shift)
        if derivative:
            dk = np.ldexp(dk, shift)
        count = count0 + final
    logscale = count * _LN_RESCALE_HI
    if count.any():
        low = np.exp(count * _LN_RESCALE_LO)
        pk = pk * low
        if derivative:
            dk = dk * low
    if derivative:
        return pk, dk, logscale
    return pk, logscale


def log_weight(kind, alpha, beta, a, b, x, dl, dr, derivative=False):
    """``(ln w, size)`` at the panel engine's nodes, or ``(ln w, size, (ln w)')``
    with ``derivative``.

    Takes the node arguments of a ``quadrature.tanh_sinh_panels``
    integrand: the Jacobi factors 1 - x and 1 + x come from the distances
    to the panel ends, without cancellation near +-1, and the Laguerre
    logarithm reads max(x, 1e-320), so the node at 0 stays finite.  size
    is the sum of the magnitudes of the logarithm terms, |alpha ln x|
    (Laguerre) or |alpha ln(1 - x)| + |beta ln(1 + x)| (Jacobi), leaving
    out a term whose exponent is 0: the roundings of the logarithms, of
    their products and of the sum are within 3u of it.  None where no
    term is left (Hermite, whose ln w = -x^2 has none).
    """
    if kind == HERMITE:
        return (-x * x, None, -2.0 * x) if derivative else (-x * x, None)
    if kind == LAGUERRE:
        xv = np.maximum(x, 1e-320)
        term = alpha * np.log(xv)
        size = np.abs(term) if alpha != 0.0 else None
        return (term - x, size, alpha / xv - 1.0) if derivative else (term - x, size)
    om = (1.0 - b) + dr   # 1 - x, stable near +1
    op = (1.0 + a) + dl   # 1 + x, stable near -1
    terms = (alpha * np.log(om), beta * np.log(op))
    sizes = [np.abs(v) for e, v in zip((alpha, beta), terms) if e != 0.0]
    size = sum(sizes) if sizes else None
    logw = terms[0] + terms[1]
    return (logw, size, -alpha / om + beta / op) if derivative else (logw, size)
