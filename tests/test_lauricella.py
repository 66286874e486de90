"""Terminating Lauricella F_A sums and the Laguerre power-integral route
built on them, cross-checked against the series route and hand values."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from oracles import renyi_length_laguerre_n0, renyi_length_laguerre_n1
from spreadpoly.context import ParameterError, PrecisionContext
from spreadpoly.families import Family, RenyiOrder
from spreadpoly.bell import renyi_length_bell, renyi_power_integral_bell
from spreadpoly.lauricella import (
    laguerre_power_integral_lauricella,
    lauricella_fa_terminating,
    renyi_length_laguerre_lauricella,
)

CTX = PrecisionContext()


def test_fa_trivial_cases():
    with mp.workprec(128):
        assert lauricella_fa_terminating(mp.mpf("0.7"), [0, 0], [1.0, 2.0], [0.5, 0.5]) == 1
        # single variable reduces to a terminating 2F1
        a, c, z = mp.mpf("0.6"), mp.mpf("1.7"), mp.mpf("0.45")
        got = lauricella_fa_terminating(a, [-4], [c], [z])
        want = mp.hyp2f1(-4, a, c, z)
        assert abs(got - want) < mp.mpf(1e-33)


def test_fa_two_variable_hand_expansion():
    with mp.workprec(128):
        a, c, z = mp.mpf("0.5"), mp.mpf(2), mp.mpf("0.3")
        got = lauricella_fa_terminating(a, [-1, -1], [c, c], [z, z])
        want = 1 - 2 * a * z / c + a * (a + 1) * z * z / (c * c)
        assert abs(got - want) < mp.mpf(1e-33)


def test_fa_three_distinct_variables_brute_force():
    with mp.workprec(128):
        a = mp.mpf("0.35")
        upper = [-2, -3, -4]
        lower = [mp.mpf("1.5"), mp.mpf("-0.7"), mp.mpf("2.25")]
        z = [mp.mpf("0.4"), mp.mpf("-1.3"), mp.mpf("0.85")]
        want = mp.mpf(0)
        for m1 in range(3):
            for m2 in range(4):
                for m3 in range(5):
                    term = mp.rf(a, m1 + m2 + m3)
                    for b, c, x, m in zip(upper, lower, z, (m1, m2, m3)):
                        term *= mp.rf(b, m) * x**m / (mp.rf(c, m) * mp.factorial(m))
                    want += term
        got = lauricella_fa_terminating(a, upper, lower, z)
        assert abs(got - want) < mp.mpf(1e-33)


def test_fa_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        lauricella_fa_terminating(0.5, [-1.5], [1.0], [0.3])
    with pytest.raises(ParameterError):
        lauricella_fa_terminating(0.5, [-1, -1], [1.0], [0.3, 0.4])
    # (lower)_m vanishes at m = 2, before the series ends at m = 3
    with pytest.raises(ParameterError, match="reaches 0"):
        lauricella_fa_terminating(0.5, [-3], [-1.0], [0.3])
    with pytest.raises(ParameterError, match="finite"):
        lauricella_fa_terminating(0.5, [-1], [mp.inf], [0.3])


def test_fa_is_exact_in_its_rational_parameters():
    # 1 - a z / c with a z = c: exactly 0, at any precision
    assert lauricella_fa_terminating(Fraction(3, 4), [-1], [1], [Fraction(4, 3)]) == 0
    # the rounded 4/3 is another rational: a tiny nonzero value, not snapped to 0
    with mp.workprec(128):
        near = lauricella_fa_terminating(Fraction(3, 4), [-1], [1], [mp.mpf(4) / 3])
    assert near != 0
    assert abs(near) < mp.mpf(2) ** -120
    # a negative mpf keeps its sign: F_A(1; -1; 1; z) = 1 - z
    with mp.workprec(128):
        assert lauricella_fa_terminating(1, [-1], [1], [mp.mpf(-3) / 8]) == mp.mpf(11) / 8


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0, 5.0])
@pytest.mark.parametrize("two_q", [3, 4])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_power_integral_matches_bell_route(alpha, two_q, n):
    order = RenyiOrder(two_q)
    Wl = laguerre_power_integral_lauricella(n, alpha, order, CTX)
    Wb = renyi_power_integral_bell(Family.laguerre(alpha), n, order, CTX)
    if Wb == 0:
        assert Wl == 0
    else:
        assert abs(Wl - Wb) < mp.mpf(1e-40) * abs(Wb)


def test_degree_zero_closed_bracket():
    with mp.workprec(CTX.bits):
        for alpha in (0.0, 0.5, 2.0):
            for q in (2, "3/2", 3):
                got = renyi_length_laguerre_n0(alpha, q, CTX)
                want = renyi_length_laguerre_lauricella(0, alpha, RenyiOrder.from_q(q), CTX)
                assert abs(got - want) < mp.mpf(1e-35) * max(1, abs(want))
        assert abs(renyi_length_laguerre_n0(0.0, 2, CTX) - 2) < mp.mpf(1e-40)


def test_degree_one_closed_bracket():
    with mp.workprec(CTX.bits):
        for alpha in (0.0, 0.5, 2.0):
            for q in (2, 3):
                got = renyi_length_laguerre_n1(alpha, q, CTX)
                want = renyi_length_laguerre_lauricella(1, alpha, RenyiOrder.from_q(q), CTX)
                assert abs(got - want) < mp.mpf(1e-33)
        # the corrected Onicescu value at alpha=0 (the printed display gives 2)
        assert abs(renyi_length_laguerre_n1(0.0, 2, CTX) - 4) < mp.mpf(1e-40)


def test_length_route_agreement_including_odd_orders():
    for n in (0, 1, 2):
        for q in (2, "5/2"):
            if RenyiOrder.from_q(q).two_q % 2 and n:
                # the signed W is not integral rho^q: both routes refuse
                for route in (
                    lambda: renyi_length_laguerre_lauricella(n, 1.5, RenyiOrder.from_q(q), CTX),
                    lambda: renyi_length_bell(Family.laguerre(1.5), n, q, CTX),
                ):
                    with pytest.raises(ParameterError, match=f"L_5/2 at n={n}"):
                        route()
                continue
            a = renyi_length_laguerre_lauricella(n, 1.5, RenyiOrder.from_q(q), CTX)
            b = renyi_length_bell(Family.laguerre(1.5), n, q, CTX)
            assert abs(a - b) < mp.mpf(1e-35) * a


def test_coincidence_zero_cell():
    order = RenyiOrder(3)
    assert laguerre_power_integral_lauricella(1, -0.5, order, CTX) == 0
    # the signed W vanishes, the closed-form bracket too, and no length is
    # read from either
    with pytest.raises(ParameterError, match="L_3/2 at n=1"):
        renyi_length_laguerre_lauricella(1, -0.5, order, CTX)
    with pytest.raises(ParameterError, match="not positive"):
        renyi_length_laguerre_n1(-0.5, "3/2", CTX)


def test_divergent_alpha_q_rejected():
    # alpha q = -1: the power integral is refused, and the length of a
    # density whose q-th power diverges is 0
    with pytest.raises(ParameterError):
        laguerre_power_integral_lauricella(2, -0.5, RenyiOrder(4), CTX)
    assert renyi_length_laguerre_lauricella(2, -0.5, RenyiOrder(4), CTX) == 0


def test_laguerre_weight_is_checked_as_on_the_other_routes():
    # alpha = -1.5 is no Laguerre weight: refused, as Family.laguerre(-1.5)
    # is, at every q
    for q in (RenyiOrder(1), RenyiOrder(2), "1/2"):
        with pytest.raises(ParameterError, match="alpha must exceed -1"):
            laguerre_power_integral_lauricella(2, -1.5, q, CTX)
        with pytest.raises(ParameterError, match="alpha must exceed -1"):
            renyi_length_laguerre_lauricella(0, -1.5, q, CTX)


@pytest.mark.parametrize("alpha", [2.0, 5.0])
def test_large_degree_matches_bell_route(alpha):
    # a series of 41^6 multi-index terms, summed exactly in milliseconds
    order = RenyiOrder(6)
    Wl = laguerre_power_integral_lauricella(40, alpha, order, CTX)
    Wb = renyi_power_integral_bell(Family.laguerre(alpha), 40, order, CTX)
    assert Wb > 0
    assert abs(Wl - Wb) < mp.mpf(1e-30) * Wb


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    alpha=st.floats(min_value=-0.45, max_value=6.0, exclude_min=True),
    n=st.integers(min_value=0, max_value=8),
    two_q=st.sampled_from([2, 3, 4, 6]),
)
def test_lauricella_value_is_exact_and_free_of_ambient_precision(alpha, n, two_q):
    # W does not depend on the caller's mp.prec, is 0 exactly where the Bell
    # route's exact sum is, and otherwise matches it
    assume(alpha * two_q / 2 > -1)
    order = RenyiOrder(two_q)
    with mp.workprec(53):
        low = laguerre_power_integral_lauricella(n, alpha, order, CTX)
    with mp.workprec(400):
        high = laguerre_power_integral_lauricella(n, alpha, order, CTX)
    assert low._mpf_ == high._mpf_
    bell = renyi_power_integral_bell(Family.laguerre(alpha), n, order, CTX)
    assert (low == 0) == (bell == 0)
    assert abs(low - bell) <= mp.mpf(1e-30) * abs(bell)
