"""Float64 vectorized evaluation of orthonormal polynomials.

Backs the throughput path of the adaptive integrators: the three-term
recurrence runs on numpy arrays with per-node renormalization, counting
the rescalings so values far out in the weight tails (where p_n overflows
float64 by hundreds of orders of magnitude) stay representable as
``p = p_scaled * exp(logscale)``.  The coefficients come from
``families.raw_recurrence``, the exact table rounded once to float64, and
the start p_0 = 1/sqrt(mu_0) from :func:`_p0`, a normal double and a
starting rescaling count.  :func:`log_weight` gives
ln w (and (ln w)') at the nodes of the float64 tanh-sinh engine.
"""

from __future__ import annotations

import functools
import sys

import numpy as np
from mpmath import mp

from .context import PrecisionError
from .families import HERMITE, LAGUERRE, norm_constant, raw_recurrence

_RESCALE = 1e100
#: ln(1 / fl(1e-100)), the log of one rescaling, as a two-double constant:
#: the high part has 32 significant bits, so count * _LN_RESCALE_HI is exact
#: for fewer than 2^21 rescalings, and the low part holds the rest to 3e-24.
_LN_RESCALE_HI = float.fromhex("0x1.cc845b56p+7")
_LN_RESCALE_LO = -3.849750070998963e-08

#: Largest start count :func:`_p0` gives: the scale count * _LN_RESCALE_HI
#: is exact below 2^21 rescalings, so a recurrence keeps room for 2^20 more.
_MAX_START_COUNT = 2**20

#: Relative margin of the bound on max|p_k| in :func:`poly_scaled` over the
#: roundings of a step and of the bound, ten of them at most, 1.1e-15; an
#: underflow's absolute error, at most 2^-1074 an operation, stays far below
#: the margin while max|p_k| is a normal double, as p_0 is.
_BOUND_MARGIN = 1.0 + 2.0**-40


@functools.lru_cache(maxsize=64)
def _p0(kind, alpha, beta):
    """p_0 = 1/sqrt(mu_0) of the weight as ``(p, count)``, the start of the
    recurrence of :func:`poly_scaled`: p_0 = p exp(count ln(1/fl(1e-100))).

    p is the 64-bit mpf p_0 times fl(1e-100)^count, rounded once to a float.
    Where p_0 is a normal double, count is 0 and p is p_0 rounded once;
    elsewhere (Laguerre alpha above 300.33, where p_0 underflows) count is
    the nearest integer to ln p_0 / ln(1/fl(1e-100)), so p is within a
    factor 1e50 of 1 and carries every digit into p_n.  PrecisionError where
    that count exceeds ``_MAX_START_COUNT``, which the scale cannot hold.
    """
    with mp.workprec(64):
        p0 = 1 / mp.sqrt(norm_constant(kind, alpha, beta, 64))
        count = 0
        if not sys.float_info.min <= p0 <= sys.float_info.max:
            shrink = mp.mpf(1.0 / _RESCALE)
            count = int(mp.nint(-mp.log(p0) / mp.log(shrink)))
            if abs(count) > _MAX_START_COUNT:
                raise PrecisionError(
                    f"p_0 of {kind}(alpha={alpha:g}, beta={beta:g}) needs {count} "
                    f"rescalings, more than the scale holds"
                )
            p0 = p0 * shrink**count
        return float(p0), count


def poly_scaled(kind, alpha, beta, n, x, derivative=False):
    """Evaluate p_n (and optionally p_n') with overflow-safe scaling.

    Returns ``(p, logscale)`` or ``(p, dp, logscale)`` where the true
    values are ``p * exp(logscale)`` elementwise.  Each node counts its
    rescalings by 1/_RESCALE as an integer, from the start count of
    :func:`_p0`; the scale is formed once, as ``count * _LN_RESCALE_HI``,
    which is exact, and the low part ``exp(count * _LN_RESCALE_LO)``
    multiplies p (and p').  So the scale that nodes with the same count
    share carries no rounding, and the factor they share in p is within an
    ulp, u relative, of its exact value (it is just below 1).

    The recurrence runs in place on three rotating buffers per value.  A
    scalar bound on max|p_k|, grown each step by the triangle inequality,
    skips the test for nodes to rescale while it is at most _RESCALE; past
    that, the step takes max and min of p_k, and the elementwise test only
    when one of them is out of range, and resets the bound to max|p_k|.  The
    floating-point operations on the nodes are those of the plain
    recurrence, so the values are the same to the bit.
    """
    x = np.asarray(x, dtype=float)
    diag, off = raw_recurrence(kind, alpha, beta, n + 1)
    p0, count0 = _p0(kind, alpha, beta)
    count = np.full(x.shape, count0, dtype=np.int64)
    pkm1, pk, pk1 = np.zeros_like(x), np.full_like(x, p0), np.empty_like(x)
    if derivative:
        dkm1, dk, dk1 = np.zeros_like(x), np.zeros_like(x), np.empty_like(x)
    t, tmp = np.empty_like(x), np.empty_like(x)
    # bounds on max|p_k| and max|p_{k-1}|; no node, nothing to bound
    reach = float(np.max(np.abs(x), initial=0.0))
    bound, bound_m1 = (abs(p0) if x.size else 0.0), 0.0
    for k in range(n):
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
        growth = (reach + abs(diag[k])) * bound + off[k] * bound_m1
        bound, bound_m1 = _BOUND_MARGIN * growth / off[k + 1], bound
        if bound <= _RESCALE:
            continue
        top, bottom = pk.max(), pk.min()
        if top <= _RESCALE and bottom >= -_RESCALE:
            bound = float(max(top, -bottom))
            continue
        # a nan fails both comparisons too, and keeps the bound at nan
        big = np.abs(pk) > _RESCALE
        if big.any():
            pk[big] *= 1.0 / _RESCALE
            pkm1[big] *= 1.0 / _RESCALE
            if derivative:
                dk[big] *= 1.0 / _RESCALE
                dkm1[big] *= 1.0 / _RESCALE
            count += big
        bound = float(np.abs(pk).max())
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
    """ln w at tanh-sinh nodes, or ``(ln w, (ln w)')`` with ``derivative``.

    Takes the node arguments of a ``quadrature.tanh_sinh_panels``
    integrand: the Jacobi factors 1 - x and 1 + x come from the distances
    to the panel ends, without cancellation near +-1, and the Laguerre
    logarithm reads max(x, 1e-320), so the node at 0 stays finite.
    """
    if kind == HERMITE:
        return (-x * x, -2.0 * x) if derivative else -x * x
    if kind == LAGUERRE:
        xv = np.maximum(x, 1e-320)
        logw = alpha * np.log(xv) - x
        return (logw, alpha / xv - 1.0) if derivative else logw
    om = (1.0 - b) + dr   # 1 - x, stable near +1
    op = (1.0 + a) + dl   # 1 + x, stable near -1
    logw = alpha * np.log(om) + beta * np.log(op)
    return (logw, -alpha / om + beta / op) if derivative else logw
