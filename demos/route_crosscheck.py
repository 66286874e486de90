#!/usr/bin/env python3
"""
Three independent routes to the same Renyi power integral.

W_q = integral p_n(x)^{2q} w(x)^q dx is computed here three ways:

  series      expand p_n^{2q} through partial Bell polynomials, then
              contract against closed-form weight moments
  quadrature  a Gauss rule for the power-shifted weight w^q, sized so the
              polynomial integrand is captured exactly
  laguerre    (half line only) the terminating hypergeometric-sum form

The routes share no code beyond the recurrence coefficients, so agreement
to ~70 digits at 256-bit precision is a genuine cross-check.  Two kinds
of zeros also surface: parity zeros (odd n, odd 2q on a symmetric
weight), exactly 0 on every route, and a parameter coincidence at
alpha=-1/2, q=3/2, n=1, exactly 0 on the series and Laguerre routes and
at the rounding floor of its terms on the quadrature route.

Run:  python3 demos/route_crosscheck.py
"""

from mpmath import mp

from spreadpoly import (
    Family,
    PrecisionContext,
    RenyiOrder,
    integrate_density_power,
    renyi_power_integral_bell,
)
from spreadpoly.lauricella import laguerre_power_integral_lauricella

CTX = PrecisionContext()  # 256-bit default


def show(family, label, n, two_q):
    order = RenyiOrder(two_q)
    Wb = renyi_power_integral_bell(family, n, order, CTX)
    Wo = integrate_density_power(family, n, order, CTX)
    line = f"{label:<22} n={n} 2q={two_q}:  series {mp.nstr(Wb, 12):>18}"
    devs = [abs(Wb - Wo)]
    if family.kind == "laguerre":
        Wl = laguerre_power_integral_lauricella(n, family.alpha, order, CTX)
        devs.append(abs(Wb - Wl))
        line += f"  (3 routes)"
    else:
        line += f"  (2 routes)"
    spread = max(devs)
    line += f"  max route spread {mp.nstr(spread, 3)}"
    print(line)


def main():
    print("Route agreement on ordinary cells:")
    show(Family.hermite(), "hermite", 3, 4)
    show(Family.laguerre(0.0), "laguerre alpha=0", 2, 3)
    show(Family.laguerre(2.5), "laguerre alpha=2.5", 4, 6)
    show(Family.jacobi(0.5, 2.0), "jacobi (0.5, 2)", 3, 4)

    print("\nSigned cells (odd 2q can make the signed integral negative):")
    show(Family.laguerre(0.0), "laguerre alpha=0", 1, 5)
    show(Family.jacobi(0.0, 2.0), "jacobi (0, 2)", 1, 3)

    print("\nZeros of the signed integral (parity, coincidence):")
    show(Family.hermite(), "hermite (parity)", 1, 3)
    show(Family.laguerre(-0.5), "laguerre (coincidence)", 1, 3)
    print(
        "\nFor odd 2q the routes compute the signed integral, which is the"
        "\nintegral of rho^q only at n=0, so no Renyi length is read from"
        "\nthese cells: spreadpoly refuses an odd-2q length at n >= 1."
    )


if __name__ == "__main__":
    main()
