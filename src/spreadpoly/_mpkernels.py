"""The hot mpf loops, run on raw libmp tuples.

Each mpmath ``mpf`` operator is a thin object wrapper around one libmp call
(``mpf_add``, ``mpf_sub``, ``mpf_mul``, ``mpf_div``), and on the
pure-Python backend the wrapper costs about a third of the operation.  The
loops below make those libmp calls directly, on the ``_mpf_`` tuples, at
the precision the caller passes (``mp.prec``) with round-to-nearest, in
exactly the operations and order of the operator expressions they stand
for (each is quoted in a comment).  Every result is
therefore bit-identical to the operator form.

Two recurrence kernels share the table of ``families.recurrence_table``:
:func:`recurrence` evaluates the orthonormal p_n, and
:func:`monic_recurrence`, the Newton pass of the Gauss rules and the only
source of mpf derivatives, evaluates the monic pi_m and pi_{m-1} with their
derivatives and divides nowhere.  The Bell route needs no kernel here: it
runs on exact integers.

Callers unwrap arguments with ``x._mpf_`` and wrap results with
``mp.make_mpf``.  This module holds all of the package's tuple arithmetic.
"""

from __future__ import annotations

import math

from mpmath.libmp import (
    fone,
    fzero,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_sub,
    round_nearest,
)

_RND = round_nearest


def recurrence(x, diag, off, p0, steps: int, prec: int):
    """p_steps(x) by the orthonormal three-term recurrence.

    Starts from p_{-1} = 0 and p_0 = ``p0`` with the coefficient tuples
    ``diag``/``off`` (a_k, b_k).
    """
    sub, mul, div, rnd = mpf_sub, mpf_mul, mpf_div, _RND
    pkm1 = fzero
    pk = p0
    for k in range(steps):
        t = sub(x, diag[k], prec, rnd)  # x - diag[k]
        bk = off[k]
        bk1 = off[k + 1]
        # ((x - diag[k]) * pk - off[k] * pkm1) / off[k + 1]
        pk1 = div(sub(mul(t, pk, prec, rnd), mul(bk, pkm1, prec, rnd), prec, rnd), bk1, prec, rnd)
        pk, pkm1 = pk1, pk
    return pk


def monic_recurrence(x, diag, offsq, steps: int, prec: int):
    """``steps`` >= 1 steps of the monic three-term recurrence at ``x``.

    pi_{k+1} = (x - a_k) pi_k - b_k^2 pi_{k-1}, from pi_{-1} = 0 and
    pi_0 = 1, with the coefficient tuples ``diag``/``offsq`` (a_k, b_k^2);
    the derivative runs alongside.  Returns ``(pi_m, pi_m', pi_{m-1},
    pi_{m-1}')`` for m = ``steps``.  No step divides: the zeros and the
    ratios a Gauss rule needs do not depend on the normalization.
    """
    add, sub, mul, rnd = mpf_add, mpf_sub, mpf_mul, _RND
    pkm1 = dk = dkm1 = fzero
    pk = fone
    for k in range(steps):
        t = sub(x, diag[k], prec, rnd)  # x - diag[k]
        bsq = offsq[k]
        # (x - diag[k]) * pk - offsq[k] * pkm1
        pk1 = sub(mul(t, pk, prec, rnd), mul(bsq, pkm1, prec, rnd), prec, rnd)
        # (x - diag[k]) * dk + pk - offsq[k] * dkm1
        dk1 = sub(add(mul(t, dk, prec, rnd), pk, prec, rnd), mul(bsq, dkm1, prec, rnd), prec, rnd)
        pk, pkm1 = pk1, pk
        dk, dkm1 = dk1, dk
    return pk, dk, pkm1, dkm1


def log2_abs(x) -> float:
    """log2|x| of a nonzero tuple as a float, at any exponent (a float
    conversion of x itself would underflow below 2^-1074)."""
    return math.log2(x[1]) + x[2]
