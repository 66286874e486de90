"""Float64 vectorized evaluation of orthonormal polynomials.

Backs the throughput path of the adaptive integrators: the three-term
recurrence runs on numpy arrays with per-node renormalization, carrying a
log-scale so values far out in the weight tails (where p_n overflows
float64 by hundreds of orders of magnitude) stay representable as
``p = p_scaled * exp(logscale)``.  The coefficients come from
``families.raw_recurrence``, the exact table rounded once to float64, and
the start p_0 = 1/sqrt(mu_0) from :func:`_p0`.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np
from mpmath import mp

from .context import PrecisionError
from .families import norm_constant, raw_recurrence

_RESCALE = 1e100
_LOG_RESCALE = math.log(_RESCALE)


@functools.lru_cache(maxsize=64)
def _p0(kind, alpha, beta) -> float:
    """p_0 = 1/sqrt(mu_0) of the weight, from the 64-bit mpf mu_0 rounded to
    a float.  PrecisionError unless it is a normal double: the recurrence
    starts from it, so a p_0 that underflows or overflows would carry no
    digits into p_n."""
    with mp.workprec(64):
        p0 = float(1 / mp.sqrt(norm_constant(kind, alpha, beta)))
    if not sys.float_info.min <= p0 <= sys.float_info.max:
        raise PrecisionError(
            f"p_0 = 1/sqrt(mu_0) of {kind}(alpha={alpha:g}, beta={beta:g}) is {p0!r}, "
            "not a normal double"
        )
    return p0


def poly_scaled(kind, alpha, beta, n, x, derivative=False):
    """Evaluate p_n (and optionally p_n') with overflow-safe scaling.

    Returns ``(p, logscale)`` or ``(p, dp, logscale)`` where the true
    values are ``p * exp(logscale)`` elementwise.
    """
    x = np.asarray(x, dtype=float)
    diag, off = raw_recurrence(kind, alpha, beta, n + 1)
    p0 = _p0(kind, alpha, beta)
    logscale = np.zeros_like(x)
    pkm1 = np.zeros_like(x)
    pk = np.full_like(x, p0)
    if derivative:
        dkm1 = np.zeros_like(x)
        dk = np.zeros_like(x)
    for k in range(n):
        pk1 = ((x - diag[k]) * pk - off[k] * pkm1) / off[k + 1]
        if derivative:
            dk1 = ((x - diag[k]) * dk + pk - off[k] * dkm1) / off[k + 1]
            dk, dkm1 = dk1, dk
        pk, pkm1 = pk1, pk
        big = np.abs(pk) > _RESCALE
        if big.any():
            factor = np.where(big, 1.0 / _RESCALE, 1.0)
            pk = pk * factor
            pkm1 = pkm1 * factor
            if derivative:
                dk = dk * factor
                dkm1 = dkm1 * factor
            logscale = logscale + np.where(big, _LOG_RESCALE, 0.0)
    if derivative:
        return pk, dk, logscale
    return pk, logscale
