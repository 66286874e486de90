"""Closed-form stddev, Fisher information/length, Cramer-Rao products,
and moments, against hand-derived values and the numeric routes."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp, mp

from oracles import cramer_rao_rate_display, laguerre_real_moment_rule, moment_display
from spreadpoly.context import ParameterError, PrecisionContext
from spreadpoly.families import Family
from spreadpoly.orthopoly import zeros_raw
from spreadpoly.quadrature import tanh_sinh_panels
from spreadpoly.closed_form import (
    _fisher_integrand,
    asymptotic_cramer_rao,
    cramer_rao_product,
    fisher_information,
    fisher_information_numeric,
    fisher_length,
    fisher_truncated,
    moment,
    moment_quadrature,
    stddev,
)

CTX = PrecisionContext()
TIGHT = mp.mpf(1e-70)


def test_stddev_hermite_closed():
    with mp.workprec(CTX.bits):
        for n in (0, 1, 7, 30):
            assert abs(stddev(Family.hermite(), n, CTX) - mp.sqrt(n + mp.mpf(1) / 2)) < TIGHT


def test_stddev_laguerre_closed():
    with mp.workprec(CTX.bits):
        # <x> = 2n+alpha+1, <x^2> - <x>^2 = 2n^2 + 2(alpha+1)n + alpha + 1
        assert abs(stddev(Family.laguerre(0.0), 1, CTX) - mp.sqrt(5)) < TIGHT
        assert abs(stddev(Family.laguerre(2.0), 0, CTX) - mp.sqrt(3)) < TIGHT


def test_stddev_jacobi_frozen_and_limit():
    with mp.workprec(CTX.bits):
        # Legendre n=0: variance = b_1^2 = 1/3
        assert abs(stddev(Family.jacobi(0.0, 0.0), 0, CTX) - 1 / mp.sqrt(3)) < TIGHT
        # the large-n limit of the variance is 1/2 for every (alpha, beta)
        for fam in (Family.jacobi(0.0, 0.0), Family.jacobi(2.0, 5.0)):
            assert abs(stddev(fam, 400, CTX) - 1 / mp.sqrt(2)) < 1e-2


@pytest.mark.parametrize("n", [0, 1, 2, 9])
def test_stddev_matches_quadrature(n):
    fam = Family.jacobi(-0.5, 2.0)
    with mp.workprec(CTX.bits):
        m1 = moment_quadrature(fam, n, 1, CTX)
        m2 = moment_quadrature(fam, n, 2, CTX)
        orc = mp.sqrt(m2 - m1 * m1)
        assert abs(stddev(fam, n, CTX) - orc) < mp.mpf(1e-60)


def test_fisher_information_branches():
    with mp.workprec(CTX.bits):
        assert fisher_information(Family.hermite(), 3, CTX) == 14
        assert fisher_information(Family.laguerre(0.0), 3, CTX) == 13
        # alpha > 1 display: ((2n+1) alpha + 1) / (alpha^2 - 1)
        got = fisher_information(Family.laguerre(2.0), 3, CTX)
        assert abs(got - mp.mpf(15) / 3) < TIGHT
        assert fisher_information(Family.laguerre(0.5), 3, CTX) == mp.inf
        assert fisher_information(Family.laguerre(-0.5), 0, CTX) == mp.inf
        assert fisher_information(Family.jacobi(0.0, 0.0), 3, CTX) == 2 * 3 * 4 * 7
        assert fisher_information(Family.jacobi(0.5, 0.5), 2, CTX) == mp.inf


def test_fisher_reflection_symmetry():
    for n in (0, 1, 5):
        assert fisher_information(Family.jacobi(2.0, 0.0), n, CTX) == \
            fisher_information(Family.jacobi(0.0, 2.0), n, CTX)


def test_fisher_length_degenerate_cases():
    # uniform density (Legendre n=0): F = 0, infinite length
    assert fisher_information(Family.jacobi(0.0, 0.0), 0, CTX) == 0
    assert fisher_length(Family.jacobi(0.0, 0.0), 0, CTX) == mp.inf
    # divergent information: zero length
    assert fisher_length(Family.laguerre(0.5), 2, CTX) == 0


HERMITE, LEGENDRE, JACOBI22 = Family.hermite(), Family.jacobi(0.0, 0.0), Family.jacobi(2.0, 2.0)

#: Three weights at n = 4, the symmetric weights at low degree, and two
#: weights at the degrees of the float64 Shannon cells.
FISHER_CELLS = [
    pytest.param(fam, 4, id=f"fam{k}")
    for k, fam in enumerate([HERMITE, Family.laguerre(0.0), Family.jacobi(0.0, 2.0)])
] + [
    pytest.param(fam, n, id=f"{name}-{n}")
    for fam, name, degrees in (
        (HERMITE, "hermite", (1, 2, 7, 12, 24, 112)),
        (LEGENDRE, "legendre", (1, 2, 7, 12)),
        (JACOBI22, "jacobi2-2", (1, 2, 7, 12)),
        (Family.laguerre(5.0), "laguerre5", (24, 112)),
    )
    for n in degrees
]


@pytest.mark.parametrize("fam,n", FISHER_CELLS)
def test_fisher_closed_matches_numeric(fam, n):
    F = fisher_information(fam, n, CTX)
    Fn = fisher_information_numeric(fam, n, CTX)
    assert abs(F - Fn) <= mp.mpf(2) ** (8 - CTX.bits) * F


@pytest.mark.parametrize("fam", [LEGENDRE, JACOBI22], ids=["legendre", "jacobi2-2"])
def test_fisher_numeric_serves_moderate_degree(fam):
    # F = 2.7e5 and 1.0e5: the 42-node sum is exact, so only its rounding,
    # relative to F, separates it from the table
    F = fisher_information(fam, 40, CTX)
    assert F > 1e5
    assert abs(fisher_information_numeric(fam, 40, CTX) - F) <= mp.mpf(2) ** (8 - CTX.bits) * F


@pytest.mark.parametrize(
    "fam, n",
    [
        (Family.laguerre(0.5), 0),  # F = inf: the integrand is x^-1.5 at 0
        (Family.laguerre(1.0), 0),  # F = inf: x^-1
        (Family.laguerre(1.5), 0),  # F = 2: the lowered exponent -0.5 is integrable
        (Family.jacobi(0.5, 0.5), 2),
    ],
)
def test_fisher_numeric_beside_the_divergence_threshold(fam, n):
    # an end exponent in (0, 1] lowers to -1 or less, a weight Family refuses
    F = fisher_information(fam, n, CTX)
    Fn = fisher_information_numeric(fam, n, CTX)
    if mp.isinf(F):
        assert Fn == F
    else:
        assert F == 2 and abs(Fn - F) <= mp.mpf(2) ** (8 - CTX.bits) * F


#: The finite cells of the Fisher check: exponent 1.25 and Laguerre(1.5)
#: among them, every regular end of the table's branches, n <= 12.
FISHER_GRID = [HERMITE] + [Family.laguerre(a) for a in (0.0, 1.25, 1.5, 2.0, 5.0)] + [
    Family.jacobi(a, b) for a in (0.0, 1.5, 2.0, 5.0) for b in (0.0, 1.25, 2.0, 5.0)
]


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_fisher_numeric_is_the_table_at_working_precision(bits):
    # 286 finite cells within 2^(8 - bits) relative (F = 0 exactly for the
    # uniform ground state), and inf exactly where the table is inf
    ctx = PrecisionContext(bits=bits)
    for fam in FISHER_GRID:
        for n in range(13):
            F = fisher_information(fam, n, ctx)
            Fn = fisher_information_numeric(fam, n, ctx)
            assert abs(Fn - F) <= mp.mpf(2) ** (8 - bits) * F, (fam.describe(), n)
    for fam in (Family.laguerre(0.5), Family.jacobi(0.5, 2.0), Family.jacobi(-0.5, 0.0)):
        for n in range(13):
            assert fisher_information_numeric(fam, n, ctx) == mp.inf, (fam.describe(), n)
            assert fisher_information(fam, n, ctx) == mp.inf, (fam.describe(), n)


def test_cramer_rao_product_hermite_is_half():
    with mp.workprec(CTX.bits):
        for n in (0, 1, 13, 30):
            assert abs(cramer_rao_product(Family.hermite(), n, CTX) - mp.mpf(1) / 2) < TIGHT


#: Every finite-F branch of the rate: both ends of exponent 0 or > 1.
FINITE_RATES = [Family.hermite()] + [Family.laguerre(a) for a in (0.0, 2.0, 5.0)] + [
    Family.jacobi(a, b) for a, b in ((0.0, 0.0), (0.0, 2.0), (2.0, 0.0), (5.0, 0.0),
                                     (2.0, 5.0), (5.0, 2.0))
]


def test_asymptotic_cramer_rao_branches():
    # the product approaches its rate on every finite branch, the relative
    # gap shrinking like 1/n at least, Jacobi(alpha > 1, 0) included
    for fam in FINITE_RATES:
        rate = asymptotic_cramer_rao(fam, CTX)
        assert rate.coefficient > 0, fam.describe()
        with mp.workprec(CTX.bits):
            gap = [abs(cramer_rao_product(fam, n, CTX) / rate.at(n) - 1) for n in (10**3, 10**5)]
        assert gap[1] <= gap[0] / 50, (fam.describe(), gap)
    # divergent-F branch records a zero rate
    r = asymptotic_cramer_rao(Family.laguerre(0.5), CTX)
    assert (r.coefficient, r.exponent) == (0, Fraction(0))
    assert float(r.at(100)) == 0.0


@pytest.mark.parametrize("bits", [128, 256])
def test_asymptotic_cramer_rao_matches_the_displays(bits):
    # the one sum over the ends against the six closed displays; a Jacobi
    # branch the displays leave out is read through its mirror (beta, alpha)
    ctx = PrecisionContext(bits=bits)
    for fam in FINITE_RATES:
        want = cramer_rao_rate_display(fam, bits)
        if want is None:
            want = cramer_rao_rate_display(Family.jacobi(fam.beta, fam.alpha), bits)
        rate = asymptotic_cramer_rao(fam, ctx)
        assert rate.exponent == want[1], fam.describe()
        assert abs(rate.coefficient - want[0]) <= mp.mpf(2) ** (8 - bits), fam.describe()


def test_fisher_truncated_divergence_exhibit():
    lo = fisher_truncated(Family.laguerre(-0.5), 0, 1e-4)
    hi = fisher_truncated(Family.laguerre(-0.5), 0, 1e-6)
    assert hi / lo > 100
    # no irregular end, so no divergence to exhibit
    for fam in (Family.hermite(), Family.laguerre(0.0), Family.jacobi(2.0, 2.0),
                Family.jacobi(0.0, 2.0)):
        with pytest.raises(ParameterError, match="no divergent endpoint"):
            fisher_truncated(fam, 2, 1e-4)


@pytest.mark.parametrize("eps", [0.0, -1e-3, float("nan"), float("inf")], ids=["zero", "negative", "nan", "inf"])
def test_fisher_truncated_refuses_a_cutoff_that_is_not_finite_and_positive(eps):
    # the window diverges at eps = 0, and a bad cutoff is a usage error
    # (exit 2), not a numeric failure (QuadratureError, exit 3)
    with pytest.raises(ParameterError, match="cutoff must be finite and positive"):
        fisher_truncated(Family.laguerre(-0.5), 1, eps)


def test_fisher_truncated_skips_a_regular_end():
    # Jacobi(0.5, 2): only the alpha end x = 1 is irregular, so the value is
    # its one window [1 - c, 1 - eps], c the nearer of the last zero and 0.5
    fam, n, eps = Family.jacobi(0.5, 2.0), 3, 1e-4
    dist = min([0.5] + [1.0 - z for z in zeros_raw(fam.kind, fam.alpha, fam.beta, n)])
    window, _ = tanh_sinh_panels(_fisher_integrand(fam, n), [1.0 - dist, 1.0 - eps], tol=1e-8)
    assert fisher_truncated(fam, n, eps) == mp.mpf(window)


def test_hermite_moments_closed():
    with mp.workprec(CTX.bits):
        for k in (1, 3, 5, 7):
            assert moment(Family.hermite(), 4, k, CTX) == 0
        # ground state is the unit Gaussian with variance 1/2
        assert abs(moment(Family.hermite(), 0, 2, CTX) - mp.mpf(1) / 2) < TIGHT
        assert abs(moment(Family.hermite(), 0, 4, CTX) - mp.mpf(3) / 4) < TIGHT
        assert abs(moment(Family.hermite(), 0, 6, CTX) - mp.mpf(15) / 8) < TIGHT
        # <x^2> = n + 1/2 = stddev^2
        for n in (1, 6, 20):
            assert abs(moment(Family.hermite(), n, 2, CTX) - (n + mp.mpf(1) / 2)) < TIGHT


def test_laguerre_moments_closed():
    with mp.workprec(CTX.bits):
        # <x> = 2n + alpha + 1
        for n, a in ((0, 0.0), (3, 0.5), (7, 5.0)):
            got = moment(Family.laguerre(a), n, 1, CTX)
            assert abs(got - (2 * n + a + 1)) < TIGHT
        # rho_1 at alpha=0 is (1-x)^2 e^-x: <x^2> = 2 - 12 + 24 = 14
        assert abs(moment(Family.laguerre(0.0), 1, 2, CTX) - 14) < TIGHT


@pytest.mark.parametrize(
    "family",
    [Family.hermite()] + [Family.laguerre(a) for a in (-0.5, 0.0, 2.5, 1e-300)],
    ids=lambda f: f.describe(),
)
def test_moment_is_the_exact_display_rounded_once(family):
    bits = CTX.bits
    for n in range(13):
        for k in range(9):
            exact = moment_display(family, n, k)
            want = mp.make_mpf(libmp.from_rational(
                exact.numerator, exact.denominator, bits, libmp.round_nearest))
            for prec in (53, 400):
                with mp.workprec(prec):
                    got = moment(family, n, k, CTX)
                assert got._mpf_ == want._mpf_, (n, k, prec)


@pytest.mark.parametrize(
    "family, k",
    [(Family.hermite(), -2), (Family.hermite(), 1.5), (Family.laguerre(1.0), 2.5),
     (Family.laguerre(1.0), -1), (Family.jacobi(0.0, 0.0), 0.5)],
)
def test_moment_quadrature_takes_integer_orders_only(family, k):
    # a Gauss rule sums x^k p_n^2 exactly only for integer k >= 0
    with pytest.raises(ParameterError, match="integer order k >= 0"):
        moment_quadrature(family, 2, k, CTX)


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_moments_match_quadrature(k):
    for fam, n in ((Family.hermite(), 6), (Family.laguerre(2.5), 5)):
        want = moment_quadrature(fam, n, k, CTX)
        got = moment(fam, n, k, CTX)
        if got == 0:
            assert abs(want) < mp.mpf(1e-60)
        else:
            assert abs(got - want) / abs(want) < mp.mpf(1e-60)


def test_laguerre_real_moment_interpolates_integer_orders():
    with mp.workprec(CTX.bits):
        # a real order 1e-70 off an integer takes the Gamma-ratio path
        for b in (0, 1, 2):
            got = moment(Family.laguerre(0.5), 3, b + mp.mpf("1e-70"), CTX)
            want = moment(Family.laguerre(0.5), 3, b, CTX)
            assert abs(got - want) <= mp.mpf(1e-60) * max(1, abs(want))
        # non-integer order against direct adaptive integration
        got = moment(Family.laguerre(0.0), 2, mp.mpf("0.5"), CTX)
        fam = Family.laguerre(0.0)
        from spreadpoly.orthopoly import evaluate_recurrence

        direct = mp.quad(
            lambda x: mp.sqrt(x) * evaluate_recurrence(fam, 2, x) ** 2 * mp.exp(-x),
            [0, 2, mp.inf],
        )
        assert abs(got - direct) < mp.mpf(1e-20)


@pytest.mark.parametrize("alpha,b", [(5.0, 1 / 3), (2.0, 0.7), (-0.5, 0.25), (0.0, mp.mpf(2) / 3)])
def test_laguerre_real_moment_ground_state_is_a_gamma_ratio(alpha, b):
    # n = 0: <x^b> = Gamma(alpha+b+1)/Gamma(alpha+1), with alpha + b exact
    got = moment(Family.laguerre(alpha), 0, b, CTX)
    with mp.workprec(2 * CTX.bits):
        want = mp.gamma(mp.fadd(alpha, b, exact=True) + 1) / mp.gamma(mp.mpf(alpha) + 1)
        assert abs(got - want) <= mp.mpf(2) ** (8 - CTX.bits) * want


@pytest.mark.parametrize("bits", [128, 256])
@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(
    alpha=st.floats(-1.0, 6.0, exclude_min=True),
    b=st.floats(0.0, 40.0, exclude_min=True),
    n=st.integers(0, 40),
)
@example(alpha=5.0, b=1.2345678901234, n=40)
def test_real_order_moment_matches_the_shifted_gauss_rule(bits, alpha, b, n):
    ctx = PrecisionContext(bits=bits)
    got = moment(Family.laguerre(alpha), n, b, ctx)
    want = laguerre_real_moment_rule(n, alpha, b, ctx)
    with mp.workprec(2 * bits):
        assert abs(got - want) <= mp.mpf(2) ** (8 - bits) * want, (got, want)


def test_hermite_moment_is_the_display_rounded_once_to_degree_40():
    for n in range(41):
        for k in range(0, 41, 2):
            exact = moment_display(Family.hermite(), n, k)
            want = libmp.from_rational(
                exact.numerator, exact.denominator, CTX.bits, libmp.round_nearest)
            assert moment(Family.hermite(), n, k, CTX)._mpf_ == want, (n, k)


def test_moment_reads_the_order_as_a_number():
    # an integer-valued float takes the exact integer path
    for k in (0, 2, 3):
        want = moment(Family.laguerre(1.0), 2, k, CTX)
        assert moment(Family.laguerre(1.0), 2, float(k), CTX)._mpf_ == want._mpf_
        assert moment(Family.laguerre(1.0), 2, mp.mpf(k), CTX)._mpf_ == want._mpf_
    assert moment(Family.hermite(), 3, 4.0, CTX)._mpf_ == moment(Family.hermite(), 3, 4, CTX)._mpf_
    # a negative order with alpha + k > -1: n = 0 gives Gamma(alpha)/Gamma(alpha+1)
    got = moment(Family.laguerre(2.5), 0, -1, CTX)
    assert got._mpf_ == libmp.from_rational(2, 5, CTX.bits, libmp.round_nearest)
    with mp.workprec(CTX.bits):
        got = moment(Family.laguerre(2.5), 0, -0.5, CTX)
        want = mp.gamma(3) / mp.gamma(mp.mpf(3.5))
        assert abs(got - want) <= mp.mpf(2) ** (8 - CTX.bits) * want


@pytest.mark.parametrize(
    "family,n,k",
    [
        (Family.hermite(), 2, -1),
        (Family.hermite(), 2, 2.5),
        (Family.hermite(), 2, mp.mpf("0.5")),
        (Family.hermite(), 2, math.inf),
        (Family.laguerre(0.5), 2, -1.5),
        (Family.laguerre(-0.5), 2, -0.5),
        (Family.laguerre(0.0), 2, math.nan),
        (Family.laguerre(0.0), -1, 2),
        (Family.jacobi(0.0, 0.0), 2, 2),
    ],
)
def test_moment_rejects_bad_orders(family, n, k):
    with pytest.raises(ParameterError):
        moment(family, n, k, CTX)
