import math
from fractions import Fraction

import pytest
from mpmath import mp

from spreadpoly.context import ParameterError
from spreadpoly import families
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


def _power_exponent(e, two_q):
    """e q for q = two_q / 2 as the exact mpf the w^q routes key on."""
    with mp.workprec(53 + two_q.bit_length()):
        return mp.mpf(e) * two_q / 2


#: Weights of the growth checks: Hermite, Laguerre, Jacobi with
#: alpha + beta = -1 (the limit form of b_1^2), and exponents alpha q of w^q.
GROWN = [
    ("hermite", 0.0, 0.0),
    ("laguerre", -0.5, 0.0),
    ("laguerre", 2.5, 0.0),
    ("jacobi", -0.25, -0.75),
    ("jacobi", -0.5, -0.5),
    ("jacobi", 0.5, 2.0),
    ("laguerre", _power_exponent(0.1, 3), 0.0),
    ("jacobi", _power_exponent(0.1, 5), _power_exponent(-0.3, 3)),
]


@pytest.mark.parametrize("weight", GROWN, ids=lambda w: f"{w[0]}({w[1]},{w[2]})")
def test_a_grown_table_equals_a_fresh_one(weight):
    # entries do not depend on the count, so a table grown 5 -> 40 -> 41
    # holds the very entries of one built at 41 in one sweep
    exact, floats = families._weight_table.__wrapped__(*weight)
    fresh = exact.head(41) + floats.head(41)
    families._weight_table.cache_clear()
    for count in (5, 40, 41):
        exact = families.exact_recurrence(*weight, count)
        floats = families.raw_recurrence(*weight, count)
        assert exact + floats == tuple(column[:count] for column in fresh)
    assert families._weight_table.cache_info().misses == 1
    tables = families._weight_table(*weight)
    assert all(len(column) == 41 for table in tables for column in table.columns)
    if weight[0] == "jacobi":
        # b_1^2 = 4 (1 + a)(1 + b) / ((3 + a + b)(2 + a + b)^2), finite at a + b = -1
        a, b = map(families._rational, weight[1:])
        num, den = fresh[1][1]
        assert Fraction(num, den) == 4 * (1 + a) * (1 + b) / ((3 + a + b) * (2 + a + b) ** 2)


def test_float_columns_are_grown_on_the_first_float_call():
    # the mpf routes read only the exact columns, so a weight they alone
    # read holds no floats; the first raw_recurrence call rounds them
    weight = ("jacobi", 0.5, -0.25)
    families._weight_table.cache_clear()
    families.exact_recurrence(*weight, 12)
    exact, floats = families._weight_table(*weight)
    assert [len(column) for column in exact.columns + floats.columns] == [12, 12, 0, 0]
    diag, off = families.raw_recurrence(*weight, 7)
    assert [len(column) for column in exact.columns + floats.columns] == [12, 12, 7, 7]
    assert families._weight_table.cache_info().misses == 1
    assert diag == tuple(num / den for num, den in exact.columns[0][:7])
    assert off == tuple(math.sqrt(num / den) for num, den in exact.columns[1][:7])


def test_the_number_of_weights_kept_is_bounded():
    families._weight_table.cache_clear()
    first = families.exact_recurrence("laguerre", 0.0, 0.0, 3)
    for i in range(families._TABLE_WEIGHTS + 10):
        families.exact_recurrence("laguerre", i / 8, 0.0, 3)
    info = families._weight_table.cache_info()
    assert info.maxsize == families._TABLE_WEIGHTS
    assert info.currsize == families._TABLE_WEIGHTS
    # the weight that fell out is rebuilt with the same entries
    assert families.exact_recurrence("laguerre", 0.0, 0.0, 3) == first
