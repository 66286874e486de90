"""Terminating hypergeometric sums against mpmath and hand expansions,
and the 2F0 oracle of the n = 1 Laguerre lengths (``tests/oracles.py``)."""

from fractions import Fraction

import pytest
from mpmath import mp

from oracles import nonpositive_int_bound, terminating_2f0
from spreadpoly.context import ParameterError
from spreadpoly.hypergeom import hyp2f1_terminating


def test_nonpositive_int_bound():
    assert nonpositive_int_bound(-3, 0.5) == 3
    assert nonpositive_int_bound(-5, -2) == 2
    assert nonpositive_int_bound(0, 7.5) == 0
    with pytest.raises(ParameterError):
        nonpositive_int_bound(0.5, 2.5)


@pytest.mark.parametrize(
    "a,b,c,z",
    [
        (-3, 0.5, 1.25, 0.7),
        (-6, 2.0, 0.5, -1.3),
        (-4, -1.5, 2.0, 2.0),   # outside the unit disk: still a polynomial
        (0, 5.0, 1.0, 0.9),
    ],
)
def test_hyp2f1_terminating_matches_mpmath(a, b, c, z):
    with mp.workprec(128):
        got = hyp2f1_terminating(a, b, c, z)
        want = mp.hyp2f1(a, b, c, z)
        assert abs(got - want) <= mp.mpf(1e-30) * max(1, abs(want))


def test_hyp2f1_short_expansions():
    with mp.workprec(128):
        # 2F1(-1, b; c; z) = 1 - b z / c
        got = hyp2f1_terminating(-1, mp.mpf(3), mp.mpf(4), mp.mpf("0.6"))
        assert abs(got - (1 - mp.mpf(3) * mp.mpf("0.6") / 4)) < mp.mpf(1e-35)


def test_hyp2f1_ends_at_the_nonpositive_numerator_nearer_zero():
    # 2F1(-5, -2; -3; z) = 1 - 10z/3 + 10z^2/3: the series ends at j = 2,
    # before c + j reaches 0 at j = 3, whichever order the numerators take
    with mp.workprec(128):
        z = mp.mpf("0.7")
        want = 1 - 10 * z / 3 + 10 * z * z / 3
        for a, b in ((-5, -2), (-2, -5)):
            assert abs(hyp2f1_terminating(a, b, -3, z) - want) < mp.mpf(1e-35)


def test_terminating_2f0_expansions():
    with mp.workprec(128):
        # 2F0(-1, b; ; z) = 1 - b z
        got = terminating_2f0(-1, mp.mpf("0.25"), mp.mpf(2))
        assert abs(got - mp.mpf("0.5")) < mp.mpf(1e-35)
        # 2F0(-2, b; ; z) = 1 - 2bz + b(b+1)z^2
        b, z = mp.mpf("0.75"), mp.mpf("-1.5")
        got = terminating_2f0(-2, b, z)
        want = 1 - 2 * b * z + b * (b + 1) * z * z
        assert abs(got - want) < mp.mpf(1e-33)


def test_terminating_2f0_exact_cancellation():
    # 2F0(-3, 1/4; ; 4/3) = 1 - 1 + 5/3 - 5/3 = 0, term by term
    with mp.workprec(256):
        got = terminating_2f0(-3, Fraction(1, 4), Fraction(4, 3))
        assert got == 0


def test_rejects_non_terminating_input():
    with pytest.raises(ParameterError):
        hyp2f1_terminating(0.5, 1.5, 2.0, 0.3)
    with pytest.raises(ParameterError):
        terminating_2f0(0.5, 1.0, 0.1)


def test_rejects_lower_parameter_pole():
    # (c + j) hits 0 at j = 1 before the series terminates at j = 3
    with pytest.raises(ParameterError):
        hyp2f1_terminating(-3, 1.0, -1.0, 2.0)
