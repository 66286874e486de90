#!/usr/bin/env python3
"""
Closed-form ceilings for the Shannon length.

Moment-based upper bounds need no integration: the Hermite bound uses the
even moment <x^k> (optimized over k), the Laguerre bound an exponential
test factor e^{-bx} (optimized over b).  Both dominate the numeric
Shannon length N at every degree, and both are tight exactly where one
expects: the Gaussian ground state gives N = sqrt(pi*e) = bound at k=2,
the exponential ground state gives N = e = bound at b=1.  On a bounded
interval no optimization is needed — any density on [-1, 1] has N <= 2.

The last block audits the variance-based inequality
N <= sqrt(2*pi*e) * stddev, again saturated by the Gaussian.

Run:  python3 demos/entropy_bounds.py
"""

from mpmath import mp

from spreadpoly import (
    Family,
    PrecisionContext,
    jacobi_trivial_bound,
    optimize_bound,
    shannon_inequality_check,
    shannon_numeric,
)

CTX = PrecisionContext(bits=128)


def table(family, label, degrees):
    print(f"\n=== {label} ===")
    print(f"{'n':>3} {'N (numeric)':>14} {'bound':>14} {'param':>8} {'margin':>12}")
    for n in degrees:
        N = shannon_numeric(family, n, CTX).length
        if family.kind == "jacobi":
            bound, par = jacobi_trivial_bound(), "-"
        else:
            bound, par = optimize_bound(family, n, None, CTX)
            par = f"{par:.3g}" if family.kind == "laguerre" else str(par)
        print(
            f"{n:>3} {mp.nstr(N, 10):>14} {mp.nstr(bound, 10):>14} {par:>8} "
            f"{mp.nstr(bound - N, 3):>12}"
        )


def main():
    degrees = (0, 1, 3, 6, 10)
    table(Family.hermite(), "hermite (optimal even k)", degrees)
    table(Family.laguerre(0.0), "laguerre alpha=0 (optimal b)", degrees)
    table(Family.jacobi(2.0, 2.0), "jacobi (2,2) (support bound 2)", degrees)

    print("\nGround-state saturation:")
    print(f"  sqrt(pi*e) = {mp.nstr(mp.sqrt(mp.pi * mp.e), 12)}  (hermite n=0 bound at k=2)")
    print(f"  e          = {mp.nstr(mp.e, 12)}  (laguerre n=0 bound at b=1)")

    print("\nVariance inequality N <= sqrt(2*pi*e)*stddev:")
    for fam, label in (
        (Family.hermite(), "hermite n=0 (saturated)"),
        (Family.laguerre(3.0), "laguerre(3) n=4"),
        (Family.jacobi(0.5, 2.0), "jacobi(0.5,2) n=6"),
    ):
        n = 0 if "n=0" in label else (4 if "n=4" in label else 6)
        audit = shannon_inequality_check(fam, n, CTX)
        print(
            f"  {label:<26} lhs {mp.nstr(audit.lhs, 8):>12}  rhs "
            f"{mp.nstr(audit.rhs, 8):>12}  ok={bool(audit)}"
        )


if __name__ == "__main__":
    main()
