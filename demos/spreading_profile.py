#!/usr/bin/env python3
"""
Spreading profile of one polynomial family.

For a chosen weight (Hermite, Laguerre, or Jacobi) this walks the degree
ladder and tabulates the four spreading measures of the squared
orthonormal polynomial density rho_n = p_n^2 w:

  stddev   Delta x   root of the variance (closed form)
  fisher   delta x   inverse root of the Fisher information (closed form)
  L2       Onicescu length, 1 / integral rho^2 (series route)
  N        Shannon length, exp(entropy) (numeric integration)

Two structural facts show up directly in the table: the measures order as
delta x < ... and Delta x < L2 < N for every excited state, and for
Hermite the product delta x * Delta x is exactly 1/2 at every degree.
Each line is a row of ``report.measures_table``, the table behind
``spreadpoly measures``.

Run:  python3 demos/spreading_profile.py
"""

from mpmath import mp

from spreadpoly import Family, PrecisionContext, measures_table

CTX = PrecisionContext(bits=128)


def profile(family, label, degrees):
    print(f"\n=== {label} ===")
    print(f"{'n':>3} {'stddev':>12} {'fisher_len':>12} {'L2':>12} {'N':>12} {'dx*Dx':>10}")
    for row in measures_table(family, degrees, ctx=CTX)[1]:
        dx, fl, L2, N = (row[c] for c in ("stddev", "fisher_length", "L2", "shannon_N"))
        ordered = "" if row["n"] == 0 or fl < dx < L2 < N else "  <-- ordering?"
        print(
            f"{row['n']:>3} {mp.nstr(dx, 8):>12} {mp.nstr(fl, 8):>12} "
            f"{mp.nstr(L2, 8):>12} {mp.nstr(N, 8):>12} {mp.nstr(fl * dx, 6):>10}{ordered}"
        )


def main():
    degrees = (0, 1, 2, 5, 10, 20)
    profile(Family.hermite(), "hermite (gaussian weight on the line)", degrees)
    profile(Family.laguerre(2.0), "laguerre alpha=2 (half line)", degrees)
    profile(Family.jacobi(2.0, 2.0), "jacobi alpha=beta=2 (interval)", degrees)
    print(
        "\nHermite's uncertainty product dx*Dx sits exactly at 1/2: the"
        "\noscillator states saturate the Cramer-Rao floor at every degree."
    )


if __name__ == "__main__":
    main()
