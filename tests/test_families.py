import math
from fractions import Fraction

import pytest
from mpmath import mp

from spreadpoly.context import ParameterError
from spreadpoly.families import Family, RenyiOrder


def test_constructors_and_intervals():
    h = Family.hermite()
    assert h.kind == "hermite"
    assert h.interval == (-mp.inf, mp.inf)
    l = Family.laguerre(2.5)
    assert l.alpha == 2.5
    assert l.interval == (0, mp.inf)
    j = Family.jacobi(-0.5, 2.0)
    assert (j.alpha, j.beta) == (-0.5, 2.0)
    assert j.interval == (-1, 1)


@pytest.mark.parametrize("alpha", [-1.0, -1.5, -10.0])
def test_laguerre_rejects_bad_alpha(alpha):
    with pytest.raises(ParameterError):
        Family.laguerre(alpha)


@pytest.mark.parametrize("e", [-0.9, -0.5, -0.25])
@pytest.mark.parametrize(
    "make,end",
    [
        (Family.laguerre, 0),
        (lambda e: Family.jacobi(e, 0.0), 1),
        (lambda e: Family.jacobi(0.0, e), -1),
    ],
    ids=["laguerre-0", "jacobi-alpha-1", "jacobi-beta--1"],
)
def test_weight_is_infinite_at_a_singular_end(make, end, e):
    # mpmath's 0^(-1/2) takes its square-root path and divides by zero
    assert make(e).weight(end) == mp.inf


def test_jacobi_rejects_bad_exponents():
    with pytest.raises(ParameterError):
        Family.jacobi(-1.0, 0.0)
    with pytest.raises(ParameterError):
        Family.jacobi(0.0, -2.0)


@pytest.mark.parametrize(
    "kind,alpha,beta,name",
    [
        ("laguerre", float("inf"), 0.0, "alpha"),
        ("jacobi", 0.5, float("inf"), "beta"),
        ("jacobi", float("inf"), 0.0, "alpha"),
    ],
)
def test_rejects_non_finite_exponents(kind, alpha, beta, name):
    with pytest.raises(ParameterError, match=f"{name} must be finite"):
        Family(kind, alpha, beta)


def test_describe_is_stable():
    assert Family.hermite().describe() == "hermite"
    assert "alpha=5" in Family.laguerre(5.0).describe()
    d = Family.jacobi(2.0, 5.0).describe()
    assert "alpha=2" in d and "beta=5" in d


def test_renyi_order_from_q():
    assert RenyiOrder.from_q(2).two_q == 4
    assert RenyiOrder.from_q("3/2").two_q == 3
    assert RenyiOrder.from_q(Fraction(5, 2)).two_q == 5
    assert RenyiOrder.from_q(1.5).two_q == 3
    o = RenyiOrder(3)
    assert RenyiOrder.from_q(o) is o


def test_renyi_order_q_and_unit():
    assert RenyiOrder(3).q == Fraction(3, 2)
    assert RenyiOrder(2).is_unit
    assert not RenyiOrder(4).is_unit


@pytest.mark.parametrize("q", ["abc", math.inf, math.nan, "1/0", 0, 0.3, "-1/2", None])
def test_renyi_order_parser_refuses_anything_but_positive_half_integers(q):
    with pytest.raises(ParameterError, match="bad Renyi order"):
        RenyiOrder.from_q(q)


def test_renyi_order_rejects_non_half_integers():
    with pytest.raises(ParameterError):
        RenyiOrder(0)
    with pytest.raises(ParameterError):
        RenyiOrder(-2)
