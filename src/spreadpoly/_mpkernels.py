"""The hot mpf loops, run on raw libmp tuples.

Each mpmath ``mpf`` operator is a thin object wrapper around one libmp call
(``mpf_add``, ``mpf_sub``, ``mpf_mul``, ``mpf_mul_int``, ``mpf_div``,
``mpf_sum``), and on the pure-Python backend the wrapper costs about a third
of the operation.  The loops below make those libmp calls directly, on the
``_mpf_`` tuples, at the precision the caller passes (``mp.prec``) with
round-to-nearest, in exactly the operations and order of the operator
expressions they stand for (each is quoted in a comment).  Every result is
therefore bit-identical to the operator form.

Callers unwrap arguments with ``x._mpf_`` and wrap results with
``mp.make_mpf``.  This module holds all of the package's tuple arithmetic.
"""

from __future__ import annotations

import math

from mpmath.libmp import (
    fone,
    from_int,
    fzero,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_mul_int,
    mpf_sub,
    mpf_sum,
    round_nearest,
)

from .context import ParameterError

_RND = round_nearest


def recurrence(x, diag, off, p0, steps: int, prec: int, *, derivative=False, sumsq=False):
    """``steps`` steps of the orthonormal three-term recurrence at ``x``.

    Starts from p_{-1} = 0 and p_0 = ``p0`` with the coefficient tuples
    ``diag``/``off`` (a_k, b_k).  Returns ``(p, dp, ssq)``: p_steps(x); its
    derivative when ``derivative`` (else None); and
    p_0(x)^2 + ... + p_steps(x)^2 when ``sumsq`` (else None).
    """
    add, sub, mul, div, rnd = mpf_add, mpf_sub, mpf_mul, mpf_div, _RND
    pkm1 = dk = dkm1 = fzero
    pk = p0
    ssq = mul(p0, p0, prec, rnd) if sumsq else None  # pk * pk
    for k in range(steps):
        t = sub(x, diag[k], prec, rnd)  # x - diag[k]
        bk = off[k]
        bk1 = off[k + 1]
        # ((x - diag[k]) * pk - off[k] * pkm1) / off[k + 1]
        pk1 = div(sub(mul(t, pk, prec, rnd), mul(bk, pkm1, prec, rnd), prec, rnd), bk1, prec, rnd)
        if derivative:
            # ((x - diag[k]) * dk + pk - off[k] * dkm1) / off[k + 1]
            dk1 = div(
                sub(add(mul(t, dk, prec, rnd), pk, prec, rnd), mul(bk, dkm1, prec, rnd), prec, rnd),
                bk1,
                prec,
                rnd,
            )
            dk, dkm1 = dk1, dk
        pk, pkm1 = pk1, pk
        if sumsq:
            ssq = add(ssq, mul(pk, pk, prec, rnd), prec, rnd)  # ssq += pk * pk
    return pk, (dk if derivative else None), ssq


def bell_row(args, max_m: int, l: int, prec: int) -> list:
    """Partial Bell polynomials B_{m,l}(args) for all m <= max_m.

    Layered recurrence B_{m,l} = sum_i C(m-1, i-1) x_i B_{m-i, l-1}: each
    term is ``(math.comb(m - 1, i - 1) * x_i) * B_{m-i,l-1}``, the sum one
    ``mpf_sum`` (``mp.fsum``), and terms with x_i == 0 are left out.  The
    scaled x_i depend on m and i only, so every layer reuses them.
    """
    mul, rnd = mpf_mul, _RND
    nonzero = [i for i in range(1, len(args) + 1) if args[i - 1] != fzero]
    scaled = [
        [(i, mpf_mul_int(args[i - 1], math.comb(m - 1, i - 1), prec, rnd)) for i in nonzero if i <= m]
        for m in range(max_m + 1)
    ]
    prev = [fone] + [fzero] * max_m  # l = 0 layer
    for layer in range(1, l + 1):
        cur = [fzero] * (max_m + 1)
        for m in range(layer, max_m + 1):
            top = m - layer + 1
            acc = [mul(c, prev[m - i], prec, rnd) for i, c in scaled[m] if i <= top]
            cur[m] = mpf_sum(acc, prec, rnd)
        prev = cur
    return prev


def hyp2f1_terms(a, b, c, z, m: int, prec: int) -> list:
    """The m+1 terms of a terminating 2F1(a, b; c; z), built by term ratio."""
    add, mul, rnd = mpf_add, mpf_mul, _RND
    term = fone
    acc = [term]
    for j in range(m):
        fj = from_int(j)
        denom = mpf_mul_int(add(c, fj, prec, rnd), j + 1, prec, rnd)  # (c + j) * (j + 1)
        if denom == fzero:
            raise ParameterError("lower parameter hits a nonpositive integer")
        # term * (a + j) * (b + j) * z / denom
        term = mul(term, add(a, fj, prec, rnd), prec, rnd)
        term = mul(term, add(b, fj, prec, rnd), prec, rnd)
        term = mpf_div(mul(term, z, prec, rnd), denom, prec, rnd)
        acc.append(term)
    return acc
