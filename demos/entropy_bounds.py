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
N <= sqrt(2*pi*e) * stddev, again saturated by the Gaussian.  The bound
tables are rows of ``report.bounds_table`` (``spreadpoly bounds``): a
margin within N's error estimate and the bound's rounding reads 0, and the
audit reads its margin by the same rule.

Run:  python3 demos/entropy_bounds.py
"""

from mpmath import mp

from spreadpoly import Family, PrecisionContext, shannon_inequality_check
from spreadpoly.report import bounds_table

CTX = PrecisionContext(bits=128)


def table(family, label, degrees):
    print(f"\n=== {label} ===")
    print(f"{'n':>3} {'N (numeric)':>14} {'bound':>14} {'param':>8} {'margin':>12}")
    for row in bounds_table(family, degrees, CTX)[1]:
        par = row["bound_param"]
        if family.kind == "jacobi":
            par = "-"
        elif family.kind == "laguerre":
            par = mp.nstr(par, 3)
        print(
            f"{row['n']:>3} {mp.nstr(row['shannon_N'], 10):>14} {mp.nstr(row['bound'], 10):>14} "
            f"{par!s:>8} {mp.nstr(row['margin'], 3):>12}"
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
    for fam, n, label in (
        (Family.hermite(), 0, "hermite n=0 (saturated)"),
        (Family.laguerre(3.0), 4, "laguerre(3) n=4"),
        (Family.jacobi(0.5, 2.0), 6, "jacobi(0.5,2) n=6"),
    ):
        audit = shannon_inequality_check(fam, n, CTX)
        print(
            f"  {label:<26} lhs {mp.nstr(audit.lhs, 8):>12}  rhs "
            f"{mp.nstr(audit.rhs, 8):>12}  margin {mp.nstr(audit.margin, 3):>9}  ok={audit.ok}"
        )


if __name__ == "__main__":
    main()
