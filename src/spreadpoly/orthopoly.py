"""Orthonormal classical polynomials: recurrence, coefficients, zeros.

Everything here is phrased for the *orthonormal* normalization
``integral p_n p_m w = delta_{nm}``, through the symmetric three-term
recurrence

    x p_k = b_{k+1} p_{k+1} + a_k p_k + b_k p_{k-1},   b_k > 0.

The recurrence coefficients of the three classical weights are standard
(see e.g. Gautschi, "Orthogonal Polynomials: Computation and
Approximation", or the NIST DLMF chapter 18) after rescaling the
classical normalizations to unit norm.  They and p_0 = 1/sqrt(mu_0) are
written once, in ``families``, and every evaluator here reads them through
:func:`spreadpoly.families.recurrence_table`: libmp tuples at the working
precision for the mpf evaluators, floats for the float64 zeros.

Two descriptions of p_n are kept, so each can audit the other: explicit
monomial coefficients (:func:`orthonormal_coeffs`, the input of the Bell
route) and the recurrence.  All mpf recurrence work goes through one
evaluator, :func:`spreadpoly._mpkernels.recurrence`: p_n
(:func:`evaluate_recurrence`), p_n with p_n' (:func:`evaluate_with_derivative`
and the Newton polish of :func:`zeros_raw`), and the running sum of p_k^2
(the Christoffel weights of the Gauss rules in ``quadrature``).  Its float64
counterpart is ``_vec.poly_scaled``, which reads the same table in floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp
from scipy.linalg import eigh_tridiagonal

from .context import ParameterError, PrecisionContext, agrees, cancellation_clamp
from ._mpkernels import recurrence
from ._vec import poly_scaled
from .families import HERMITE, JACOBI, LAGUERRE, Family, recurrence_table
from .families import raw_recurrence  # noqa: F401  re-exported; bench/tracing.py traces it here

__all__ = [
    "PolyCoeffs",
    "orthonormal_coeffs",
    "evaluate",
    "evaluate_with_derivative",
    "zeros",
]

_DEFAULT_CTX = PrecisionContext()


@dataclass(frozen=True)
class PolyCoeffs:
    """Monomial coefficients c_0..c_n of the orthonormal polynomial p_n."""

    family: Family
    degree: int
    coeffs: tuple

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.degree + 1:
            raise ParameterError("coefficient vector must have length degree+1")
        if self.coeffs[-1] == 0:
            raise ParameterError("leading coefficient must be nonzero")


def _leading_positive(coeffs: list) -> tuple:
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    return tuple(coeffs)


@functools.lru_cache(maxsize=2)
def _explicit_coeffs(family: Family, n: int, prec: int) -> tuple:
    """Explicit monomial coefficients at the active precision, which the
    caller passes as ``prec`` so that a set is never reused at another
    precision.

    :func:`orthonormal_coeffs` compares the sets at b and 2b bits, and a
    Bell value escalates it through b, 2b, 4b, ...; with two entries kept,
    each escalation step reuses the set its predecessor built last.
    """
    kind = family.kind
    a = mp.mpf(family.alpha)
    b = mp.mpf(family.beta)
    if kind == HERMITE:
        norm = mp.sqrt(mp.power(2, n) * mp.factorial(n) * mp.sqrt(mp.pi))
        c = []
        for t in range(n + 1):
            if (n - t) % 2:
                c.append(mp.mpf(0))
            else:
                sign = -1 if ((3 * n - t) // 2) % 2 else 1
                c.append(
                    sign
                    * mp.factorial(n)
                    * mp.power(2, t)
                    / (norm * mp.factorial((n - t) // 2) * mp.factorial(t))
                )
        return _leading_positive(c)
    if kind == LAGUERRE:
        norm = mp.sqrt(mp.gamma(n + a + 1) / mp.factorial(n))
        c = [
            (-1 if t % 2 else 1) * norm * math.comb(n, t) / mp.gamma(a + t + 1)
            for t in range(n + 1)
        ]
        return _leading_positive(c)
    # Group Gamma(a+b+n+1+i)/Gamma(a+b+n+1) as the rising factorial
    # (s0)_i so the n=0, a+b=-1 cell (Gamma(0)/Gamma(0), finite limit)
    # never evaluates a pole.  At n=0 the leftover (2n+a+b+1)*Gamma(s0)
    # collapses exactly to Gamma(a+b+2).
    s0 = a + b + n + 1
    if n == 0:
        front = mp.gamma(a + b + 2)
    else:
        front = (2 * n + a + b + 1) * mp.gamma(s0)
    norm = mp.sqrt(
        mp.gamma(a + n + 1)
        * front
        / (mp.factorial(n) * mp.power(2, a + b + 1) * mp.gamma(n + b + 1))
    )
    poch = [mp.mpf(1)] * (n + 1)
    for i in range(n):
        poch[i + 1] = poch[i] * (s0 + i)
    # C(n, i) and 2^i Gamma(a+i+1) do not depend on t
    binom = [mp.mpf(math.comb(n, i)) for i in range(n + 1)]
    den = [mp.power(2, i) * mp.gamma(a + i + 1) for i in range(n + 1)]
    c = []
    for t in range(n + 1):
        terms = []
        for i in range(t, n + 1):
            term = binom[i] * math.comb(i, t) * poch[i] / den[i]
            terms.append(-term if (i - t) % 2 else term)
        # a == b zeroes alternate coefficients exactly; snap the noise
        acc = cancellation_clamp(mp.fsum(terms), terms, mp.prec)
        c.append(norm * acc)
    return _leading_positive(c)


def orthonormal_coeffs(
    family: Family, n: int, ctx: PrecisionContext = _DEFAULT_CTX
) -> PolyCoeffs:
    """Explicit coefficients, accepted once two precisions agree.

    The alternating inner sum of the Jacobi display cancels severely at
    large n, hence the escalation loop.
    """
    if n < 0:
        raise ParameterError("degree must be nonnegative")
    bits = ctx.bits
    with mp.workprec(bits):
        prev = _explicit_coeffs(family, n, bits)
    for _ in range(ctx.max_escalations + 1):
        bits *= 2
        with mp.workprec(bits):
            cur = _explicit_coeffs(family, n, bits)
        if all(agrees(p, c, ctx.rel_tol) for p, c in zip(prev, cur)):
            with mp.workprec(ctx.bits):
                out = tuple(+c for c in cur)
            return PolyCoeffs(family, n, out)
        prev = cur
    raise ParameterError(
        f"coefficients failed to stabilise for {family.describe()}, n={n}"
    )


def evaluate(p: PolyCoeffs, x):
    """p_n(x) by the stable recurrence (coefficients are not used)."""
    return evaluate_recurrence(p.family, p.degree, x)


def evaluate_recurrence(family: Family, n: int, x):
    """p_n(x) by the recurrence at the active precision."""
    x = mp.mpf(x)
    diag, off, p0 = recurrence_table(family.kind, family.alpha, family.beta, n + 1, mp.prec)
    return mp.make_mpf(recurrence(x._mpf_, diag, off, p0, n, mp.prec)[0])


def evaluate_with_derivative(family: Family, n: int, x):
    """(p_n(x), p_n'(x)), both by recurrence."""
    x = mp.mpf(x)
    diag, off, p0 = recurrence_table(family.kind, family.alpha, family.beta, n + 1, mp.prec)
    p, dp, _ = recurrence(x._mpf_, diag, off, p0, n, mp.prec, derivative=True)
    return mp.make_mpf(p), mp.make_mpf(dp)


#: Float64 Newton on the zeros stops once every step is at most this many
#: ulps of max(1, max|z|); converged steps measured at most 0.5 of them
#: (Hermite, Laguerre and Jacobi, n <= 3200), and two steps suffice there.
_NEWTON_STEP_ULPS = 2.0
_NEWTON_MAX_ITER = 8


def _eigen_seeds(diag64, off64):
    """Eigenvalues of the symmetric tridiagonal recurrence matrix."""
    try:
        return eigh_tridiagonal(diag64, off64, eigvals_only=True)
    except Exception as exc:  # pragma: no cover - LAPACK failure surface
        raise ParameterError(f"eigenvalue solve failed: {exc}") from exc


def _mirrored_increasing(out: list, symmetric: bool, zero) -> list:
    """Sorted zeros, mirrored exactly about ``zero`` for a symmetric weight,
    checked to be strictly increasing."""
    n = len(out)
    if symmetric:
        half = [(out[n - 1 - i] - out[i]) / 2 for i in range(n // 2)]
        mirrored = [-h for h in half]
        if n % 2:
            mirrored.append(zero)
        out = mirrored + [half[n // 2 - 1 - i] for i in range(n // 2)]
    for lo, hi in zip(out, out[1:]):
        if not lo < hi:
            raise ParameterError("zero polish produced non-increasing nodes")
    return out


def zeros_raw(kind: str, alpha, beta, n: int, bits=None) -> list:
    """Zeros of the degree-n orthonormal polynomial for a raw weight.

    Float64 eigenvalues of the symmetric tridiagonal recurrence matrix seed
    a Newton polish; symmetric weights get exactly mirrored nodes so parity
    cancellations are exact downstream.  With ``bits`` the polish runs in
    mpf at ``bits + 20`` and the zeros are mpf.  With ``bits=None`` the
    zeros are Python floats: all of them take float64 Newton steps together
    until every step is at most 2 ulps of max(1, max|z|), which leaves
    each zero within a few ulps of that scale; ParameterError if that takes
    more than 8 steps.
    """
    if n < 1:
        return []
    symmetric = kind == HERMITE or (kind == JACOBI and alpha == beta)
    if bits is None:
        diag, off, _ = recurrence_table(kind, alpha, beta, n + 1)
        z = _eigen_seeds(np.array(diag[:n]), np.array(off[1:n]))
        for _ in range(_NEWTON_MAX_ITER):
            p, dp = poly_scaled(kind, alpha, beta, n, z, derivative=True)[:2]
            step = p / dp
            z = z - step
            scale = max(1.0, float(np.max(np.abs(z))))
            if np.max(np.abs(step)) <= _NEWTON_STEP_ULPS * np.finfo(float).eps * scale:
                break
        else:
            raise ParameterError(
                f"float64 Newton on the {n} zeros did not settle in {_NEWTON_MAX_ITER} steps"
            )
        return _mirrored_increasing(np.sort(z).tolist(), symmetric, 0.0)
    with mp.workprec(bits + 20):
        diag, off, _ = recurrence_table(kind, alpha, beta, n + 1, mp.prec)
        d64 = np.array([float(mp.make_mpf(v)) for v in diag[:n]])
        e64 = np.array([float(mp.make_mpf(v)) for v in off[1:n]])
        seeds = _eigen_seeds(d64, e64)
        one = mp.mpf(1)._mpf_

        out = []
        for s in seeds:
            z = mp.mpf(float(s))
            for _ in range(64):
                v, dv, _ = recurrence(z._mpf_, diag, off, one, n, mp.prec, derivative=True)
                step = mp.make_mpf(v) / mp.make_mpf(dv)
                z -= step
                if abs(step) <= mp.eps * (1 + abs(z)) * 4:
                    break
            out.append(z)
        out.sort()
        out = _mirrored_increasing(out, symmetric, mp.mpf(0))
        return [+z for z in out]


def zeros(family: Family, n: int, ctx: PrecisionContext = _DEFAULT_CTX) -> list:
    """The n simple zeros of p_n, strictly increasing, inside the interval."""
    if n < 1:
        raise ParameterError("zeros need degree >= 1")
    with mp.workprec(ctx.bits):
        zs = zeros_raw(family.kind, family.alpha, family.beta, n, ctx.bits)
        lo, hi = family.interval
        if zs and not (lo < zs[0] and zs[-1] < hi):
            raise ParameterError("computed zeros escaped the interval")
        return zs
