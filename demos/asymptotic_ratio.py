#!/usr/bin/env python3
"""
How fast does the Shannon-length / stddev ratio reach its universal limit?

For every classical weight the quotient N_n / Delta x_n tends to the same
constant pi*sqrt(2)/e = 1.634445... as the degree grows.  This script
tracks the finite-n quotient for Hermite and Laguerre(5) while n doubles,
and prints the deviation together with the implied decay exponent
log2(dev(n)/dev(2n)).

The observed exponent hovers around 1/3 — the o(1) remainder dies off
like n^(-1/3), which is why the quotient is still ~0.29 away from the
limit at n=100 and only enters a 0.10-band near n~2000-2250 (Hermite)
and n~950-1200 (Laguerre(5)); at n=800 the deviations are
still 0.139 and 0.111, as that law predicts.  The bounded-
interval story is different: there N itself converges (to pi/e for the
symmetric Jacobi weight) and is already within 2% at n=80.  Every value
printed is a cell of ``report.asymptotics_table`` (``spreadpoly
asymptotics``): ratio, ratio_dev, and N_num against N_asym = pi/e.

Run:  python3 demos/asymptotic_ratio.py   (about 6 s on a 2-core x86
machine; n=800 takes about 1 s for Hermite and 3 s for Laguerre(5))
"""

import math

from mpmath import mp

from spreadpoly import Family, PrecisionContext, ratio_constant
from spreadpoly.report import asymptotics_table

CTX = PrecisionContext(bits=128)


def track(family, label, degrees):
    print(f"\n=== {label} ===")
    print(f"{'n':>5} {'N/stddev':>12} {'dev from limit':>15} {'decay exp':>10}")
    prev = None
    for row in asymptotics_table(family, degrees, CTX)[1]:
        dev = row["ratio_dev"]
        expo = "" if prev is None else f"{math.log2(float(prev / dev)):>10.3f}"
        prev = dev
        print(f"{row['n']:>5} {mp.nstr(row['ratio'], 8):>12} {mp.nstr(dev, 4):>15} {expo}")


def main():
    print(f"universal limit pi*sqrt(2)/e = {mp.nstr(ratio_constant(), 10)}")
    degrees = (25, 50, 100, 200, 400, 800)
    track(Family.hermite(), "hermite", degrees)
    track(Family.laguerre(5.0), "laguerre alpha=5", degrees)

    print("\n=== jacobi alpha=beta=2: N itself converges (N_asym = pi/e) ===")
    print(f"{'n':>5} {'N':>12} {'N_asym':>12}")
    for row in asymptotics_table(Family.jacobi(2.0, 2.0), (10, 20, 40, 80), CTX)[1]:
        print(f"{row['n']:>5} {mp.nstr(row['N_num'], 8):>12} {mp.nstr(row['N_asym'], 8):>12}")


if __name__ == "__main__":
    main()
