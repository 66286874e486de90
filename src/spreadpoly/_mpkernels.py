"""The hot recurrence loops, run below the mpf object layer.

Each mpmath ``mpf`` operator is a thin object wrapper around one libmp call
(``mpf_add``, ``mpf_sub``, ``mpf_mul``, ``mpf_div``), and on the
pure-Python backend the wrapper costs about a third of the operation.

* :func:`recurrence` evaluates the orthonormal p_n on raw libmp tuples, at
  the precision the caller passes (``mp.prec``) with round-to-nearest, in
  exactly the operations and order of the operator expression quoted in
  its comment, so its value is bit-identical to the operator form.
  Callers unwrap arguments with ``x._mpf_`` and wrap the result with
  ``mp.make_mpf``.
* :func:`monic_fixed` runs the monic recurrence, with its derivative, on
  plain Python integers in block floating point: x, a_k and b_k^2 enter
  as integers v 2^prec (:func:`to_fixed`), and pi_k, pi_{k-1} and their
  derivatives share one binary exponent.  Each step rounds down by one
  shift, so a value is good to about 2^-prec of the larger of pi_k and
  pi_{k-1} per step, not bit for bit; callers pass the working precision
  plus guard bits.  It is the Newton pass of the Gauss rules and the
  evaluator of p_n at their nodes, and makes no libmp call.

The Bell and Lauricella routes need no kernel here: they run on exact
integers.
"""

from __future__ import annotations

from mpmath.libmp import fzero, mpf_div, mpf_mul, mpf_sub, round_nearest

_RND = round_nearest

#: Bits by which the larger of pi_k and pi_{k-1} may exceed ``prec`` in
#: :func:`monic_fixed`.  A block that leaves the window is shifted back to
#: its middle; a step changes the size by about log2|x - a_k| bits, so that
#: happens every few steps at most.
_SLACK = 64


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


def to_fixed(x, prec: int) -> int:
    """The libmp tuple ``x`` as the integer nearest x 2^prec."""
    sign, man, exp, _ = x
    shift = exp + prec
    if shift >= 0:
        v = man << shift
    else:
        v = ((man >> (-shift - 1)) + 1) >> 1
    return -v if sign else v


def monic_fixed(x, diag, offsq, steps: int, prec: int, derivative: bool = True):
    """``steps`` steps of the monic three-term recurrence at ``x``.

    pi_{k+1} = (x - a_k) pi_k - b_k^2 pi_{k-1} from pi_{-1} = 0 and
    pi_0 = 1, with x and the ``diag``/``offsq`` entries (a_k, b_k^2) given
    as integers v 2^prec.  Returns ``(pi_m, pi_m', pi_{m-1}, pi_{m-1}', e)``
    for m = ``steps``, each value the integer times 2^e; with
    ``derivative=False``, ``(pi_m, e)``.  The larger of |pi_k| and
    |pi_{k-1}| keeps between prec and prec + ``_SLACK`` bits.  No step
    divides: the zeros and the ratios a Gauss rule needs do not depend on
    the normalization.
    """
    lo, mid, hi = prec, prec + _SLACK // 2, prec + _SLACK
    e = -prec
    pk = 1 << prec
    pkm1 = dk = dkm1 = 0
    for k in range(steps):
        t = x - diag[k]
        bsq = offsq[k]
        if derivative:
            dk, dkm1 = ((t * dk - bsq * dkm1) >> prec) + pk, dk
        pk, pkm1 = (t * pk - bsq * pkm1) >> prec, pk
        bl = pk.bit_length()
        if lo <= bl <= hi:
            continue
        bl = max(bl, pkm1.bit_length())
        if lo <= bl <= hi:
            continue
        s = bl - mid
        if s > 0:
            pk >>= s
            pkm1 >>= s
            dk >>= s
            dkm1 >>= s
        else:
            pk <<= -s
            pkm1 <<= -s
            dk <<= -s
            dkm1 <<= -s
        e += s
    if derivative:
        return pk, dk, pkm1, dkm1, e
    return pk, e
