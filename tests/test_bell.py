"""Bell-route power integrals and Renyi lengths: partition identities,
exact polynomial powers and weight moments, frozen point values, signs,
exact zeros, and large degrees that need no precision escalation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from oracles import (
    jacobi_power_moment,
    naive_power,
    partial_bell_enumerated,
    partial_bell_layered,
    schoolbook_product,
)
from spreadpoly.context import ParameterError, PrecisionContext
from spreadpoly.families import Family, RenyiOrder
from spreadpoly.bell import (
    _kronecker_product,
    _weight_power_mass,
    _weight_power_moments,
    length_from_power_integral,
    partial_bell,
    polynomial_power_coeffs,
    renyi_length_bell,
    renyi_power_integral_bell,
)
from spreadpoly.lauricella import laguerre_power_integral_lauricella
from spreadpoly.orthopoly import evaluate_recurrence
from spreadpoly.quadrature import WeightSpec, gauss_rule, integrate_density_power

CTX = PrecisionContext()
FAST = PrecisionContext(bits=128)
TIGHT = mp.mpf(1e-65)
#: Exponent grid and orders of acceptance criterion 3.
GRID = (-0.5, 0.0, 0.5, 2.0, 5.0)
QS = (1, 1.5, 2, 3)


def test_partial_bell_frozen_values():
    # B_{3,2}(x1,x2) = 3 x1 x2 ; B_{4,2}(x1,x2,x3) = 4 x1 x3 + 3 x2^2
    assert partial_bell(3, 2, [1, 1, 1]) == 3
    assert partial_bell(4, 2, [1, 1, 1]) == 7
    assert partial_bell(4, 2, [2, 5, 1]) == 4 * 2 * 1 + 3 * 25
    assert partial_bell(5, 1, [0, 0, 0, 0, 9]) == 9
    assert partial_bell(4, 4, [3]) == 81  # x1^4


#: Arguments of each type the package accepts; the floats are read exactly.
BELL_ARGS = {
    "int": [3, -2, 0, 5, -1, 4, 7],
    "fraction": [Fraction(3, 7), Fraction(-5, 2), 0, Fraction(1, 3), 2, Fraction(-9, 4), 1],
    "float": [1.5, -0.25, 2.0, 0.1, -1.0, 3.0, 0.75],
}


@pytest.mark.parametrize("m,l", [(4, 2), (6, 3), (7, 2), (8, 5), (9, 1), (7, 7)])
def test_partial_bell_matches_enumeration(m, l):
    # exact on both sides: an int for int arguments, else the exact rational
    for kind, args in BELL_ARGS.items():
        got = partial_bell(m, l, args)
        assert got == partial_bell_enumerated(m, l, args), kind
        if kind == "int":
            assert type(got) is int


@pytest.mark.parametrize(
    "args",
    [
        [(-1) ** i * (i % 5) * 7**i for i in range(40)],
        [Fraction((-1) ** i * (i % 4), i + 3) for i in range(40)],
    ],
    ids=["int", "fraction"],
)
def test_partial_bell_matches_layered_recurrence(args):
    for m in range(41):
        for l in {1, 2, 3, m // 2, max(m - 1, 0), m}:
            assert partial_bell(m, l, args) == partial_bell_layered(m, l, args), (m, l)


def test_partial_bell_edge_cases():
    assert partial_bell(0, 0, []) == 1
    assert partial_bell(3, 0, [1, 2, 3]) == 0
    assert partial_bell(2, 3, [1, 2, 3]) == 0  # l > m
    assert partial_bell(4, 2, []) == 0
    assert partial_bell(4, 2, [0, 0, 0]) == 0
    # only x_1 .. x_{m-l+1} enter; missing ones are 0
    assert partial_bell(4, 2, [2]) == 0
    assert partial_bell(4, 2, [2, 5]) == 3 * 25
    assert partial_bell(4, 2, [2, 5, 1, 99, 99]) == 4 * 2 * 1 + 3 * 25
    # a non-integer value comes back as a Fraction
    assert partial_bell(2, 1, [0, Fraction(1, 3)]) == Fraction(1, 3)
    assert partial_bell(2, 2, [0.5]) == Fraction(1, 4)
    with pytest.raises(ParameterError):
        partial_bell(-1, 0, [1])
    with pytest.raises(ParameterError):
        partial_bell(2, -1, [1])


def test_polynomial_power_coeffs():
    # (1 + 2x)^3 = 1 + 6x + 12x^2 + 8x^3
    assert polynomial_power_coeffs([1, 2], 3) == [1, 6, 12, 8]
    # p^1 is the identity, p^0 is 1
    assert polynomial_power_coeffs([3, -1, 4], 1) == [3, -1, 4]
    assert polynomial_power_coeffs([3, 2], 0) == [1]


COEFF = st.one_of(st.just(0), st.integers(min_value=-(2**200), max_value=2**200))
POLY = st.lists(COEFF, min_size=1, max_size=13)  # degree <= 12


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(coeffs=POLY, p=st.integers(min_value=0, max_value=6))
def test_polynomial_power_matches_naive_power(coeffs, p):
    assert polynomial_power_coeffs(coeffs, p) == naive_power(coeffs, p)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    polys=st.lists(POLY, min_size=1, max_size=3),
    picks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)), min_size=2, max_size=3),
)
def test_kronecker_product_matches_schoolbook(polys, picks):
    # two or three factors drawn from at most three polynomials, so the same
    # polynomial may appear as several factors and with a power above 1
    factors = [(polys[i % len(polys)], p) for i, p in picks]
    want = [1]
    for c, p in factors:
        for _ in range(p):
            want = schoolbook_product(want, c)
    assert _kronecker_product(factors) == want


def test_polynomial_power_matches_numpy():
    import numpy.polynomial.polynomial as npoly

    # every coefficient of the fourth power stays below 2^53, so numpy's
    # float64 power is exact too
    cs = [3, -12, 0, 25]
    want = npoly.polypow([float(c) for c in cs], 4)
    assert polynomial_power_coeffs(cs, 4) == [int(w) for w in want]


def test_jacobi_power_moment_against_quadrature():
    # integral_{-1}^{1} x^k (1-x)^{q a} (1+x)^{q b} dx
    with mp.workprec(CTX.bits):
        for k, q, a, b in ((0, 2, 0.5, 0.5), (3, 2, 2.0, 5.0), (5, mp.mpf(3) / 2, -0.5, 2.0)):
            got = jacobi_power_moment(k, q, a, b)
            direct = mp.quad(
                lambda x: x**k * (1 - x) ** (q * a) * (1 + x) ** (q * b), [-1, 1]
            )
            # mp.quad stalls near 1e-19 on the singular-exponent cell
            assert abs(got - direct) < mp.mpf(1e-15) * max(1, abs(direct))


def _moments(family, q, count):
    """m_k = m_0 M_k / M at the active precision."""
    two_q = int(2 * q)
    M, den = _weight_power_moments(family, two_q, count)
    m0 = _weight_power_mass(family, two_q)
    return [m0 * v / den for v in M]


@pytest.mark.parametrize("q", QS)
def test_jacobi_moment_recurrence_matches_closed_form(q):
    # the exact ratios times m_0 against the 2F1 closed form, both at 1400
    # bits; the closed form loses about k bits to cancellation, and every
    # moment is at most m_0 in magnitude
    count = 73
    for a in GRID:
        for b in GRID:
            if not (a * q > -1 and b * q > -1):
                continue
            with mp.workprec(1400):
                m = _moments(Family.jacobi(a, b), q, count)
                for k in range(count):
                    want = jacobi_power_moment(k, q, a, b)
                    assert abs(m[k] - want) <= mp.mpf(2) ** -1200 * m[0], (a, b, k)


def test_symmetric_jacobi_odd_moments_are_exact_zeros():
    for a in GRID:
        for q in QS:
            if a * q > -1:
                M, den = _weight_power_moments(Family.jacobi(a, a), int(2 * q), 73)
                assert den > 0
                assert all(v == 0 for v in M[1::2])
                assert all(v > 0 for v in M[0::2])


@pytest.mark.parametrize(
    "family", [Family.hermite()] + [Family.laguerre(a) for a in GRID], ids=Family.describe
)
def test_laguerre_and_hermite_moments_match_gamma_forms(family):
    # m_k = Gamma(A+k+1)/q^(A+k+1) with A = alpha q, and Hermite's
    # m_2j = Gamma(j+1/2)/q^(j+1/2) with odd moments 0
    prec, count = 512, 73
    for q in QS:
        if family.alpha * q <= -1:
            continue
        with mp.workprec(prec):
            m = _moments(family, q, count)
            qf = mp.mpf(q)
            for k in range(count):
                if family.kind == "hermite":
                    if k % 2:
                        assert m[k] == 0
                        continue
                    e = mp.mpf(k + 1) / 2
                else:
                    e = mp.mpf(family.alpha) * qf + k + 1
                want = mp.gamma(e) / mp.power(qf, e)
                assert abs(m[k] - want) <= mp.mpf(2) ** (8 - prec) * want, (q, k)


#: W_3 = integral p_8^6 w^3 for Jacobi(alpha, 5), from the closed-form 2F1
#: moments and from the recurrence, both at 2048 bits (they agree in all
#: 150 digits).  The 2F1 sum at z=2 loses about k bits to cancellation in
#: each moment; the default 256-bit context has to stay within 1e-125.
W3_JACOBI_5_N8 = {
    0.0: "4.36187808558923344985175322650935772944819373696605755338652689003456975939"
    "31473259792755898615934193621419374175202580946710852804008601330449641941",
    0.5: "2.26589328195755270538666724329583186162367819577547659298842194606389779958"
    "808691350209620684288881945004666910847778343413644433911578571257550760288",
}


@pytest.mark.parametrize("alpha", sorted(W3_JACOBI_5_N8))
def test_bell_power_integral_against_2048_bits(alpha):
    got = renyi_power_integral_bell(Family.jacobi(alpha, 5.0), 8, RenyiOrder(6), CTX)
    with mp.workprec(600):
        want = mp.mpf(W3_JACOBI_5_N8[alpha])
        assert abs(got - want) <= mp.mpf(1e-125) * want


EXPONENT = st.floats(min_value=-0.45, max_value=6.0, exclude_min=True)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    kind=st.sampled_from(["hermite", "laguerre", "jacobi"]),
    alpha=EXPONENT,
    beta=EXPONENT,
    n=st.integers(min_value=0, max_value=10),
)
def test_bell_route_properties(kind, alpha, beta, n):
    # W_1 = 1 (normalization), and the Bell and Gauss routes agree on the
    # signed power integral to 1e-30 at 128 bits; the weight moments of the
    # one and the Gauss rules of the other share no code.  Both carry alpha q
    # and beta q exactly (rounded to doubles, they put the routes 1e-14 apart).
    family = Family(
        kind,
        0.0 if kind == "hermite" else alpha,
        beta if kind == "jacobi" else 0.0,
    )
    one = renyi_power_integral_bell(family, n, RenyiOrder(2), FAST)
    assert abs(one - 1) <= mp.mpf(1e-30)
    for two_q in (3, 4):
        order = RenyiOrder(two_q)
        bell = renyi_power_integral_bell(family, n, order, FAST)
        gauss = integrate_density_power(family, n, order, FAST)
        # the Gauss sum keeps its rounding: where W nearly vanishes it sits
        # near 2^-128 of its terms (Jacobi(0, 2.6e-207) n=5 2q=3: Bell
        # -4.3e-415, Gauss 7.0e-46), so the floor is absolute
        bound = mp.mpf(1e-30) * max(abs(bell), abs(gauss)) + mp.mpf(2) ** -FAST.bits
        assert abs(bell - gauss) <= bound, two_q


@pytest.mark.parametrize(
    "family",
    [Family.hermite(), Family.laguerre(1.5), Family.jacobi(0.5, 2.0)],
)
def test_power_integral_is_one_at_unit_order(family):
    W = renyi_power_integral_bell(family, 3, RenyiOrder(2), CTX)
    assert abs(W - 1) < TIGHT


def test_power_integral_gaussian_frozen():
    with mp.workprec(CTX.bits):
        for two_q in (3, 4, 6):
            q = mp.mpf(two_q) / 2
            want = mp.power(mp.pi, (1 - q) / 2) / mp.sqrt(q)
            got = renyi_power_integral_bell(Family.hermite(), 0, RenyiOrder(two_q), CTX)
            assert abs(got - want) < TIGHT


def test_power_integral_exponential_frozen():
    # rho_0 = e^-x at alpha=0: W_q = 1/q -> Onicescu length 2
    got = renyi_power_integral_bell(Family.laguerre(0.0), 0, RenyiOrder(4), CTX)
    assert abs(got - mp.mpf(1) / 2) < TIGHT
    assert abs(renyi_length_bell(Family.laguerre(0.0), 0, 2, CTX) - 2) < TIGHT


def test_onicescu_hermite_closed_fractions():
    with mp.workprec(CTX.bits):
        base = mp.sqrt(2 * mp.pi)
        for n, factor in ((0, mp.mpf(1)), (1, mp.mpf(4) / 3), (2, mp.mpf(64) / 41)):
            got = renyi_length_bell(Family.hermite(), n, 2, CTX)
            assert abs(got - factor * base) < mp.mpf(1e-25)


def test_laguerre_onicescu_oracle_value():
    # n=1, alpha=0, q=2: the independently integrated length is 4
    got = renyi_length_bell(Family.laguerre(0.0), 1, 2, CTX)
    assert abs(got - 4) < mp.mpf(1e-25)


def test_signed_power_integral_frozen_positive_cell():
    # signed 3/2 power of p_1 = x - 1 at alpha=0: integral (x-1)^3 e^{-3x/2} = 2/27
    W = renyi_power_integral_bell(Family.laguerre(0.0), 1, RenyiOrder(3), CTX)
    with mp.workprec(CTX.bits):
        assert abs(W - mp.mpf(2) / 27) < TIGHT


def test_signed_power_integral_negative_cell():
    W = renyi_power_integral_bell(Family.jacobi(0.0, 2.0), 1, RenyiOrder(3), CTX)
    assert W < 0
    Wo = integrate_density_power(Family.jacobi(0.0, 2.0), 1, RenyiOrder(3), CTX)
    assert abs(W - Wo) < mp.mpf(1e-40) * abs(W)
    # a negative signed integral is no integral of rho^q: no length is read
    # from it, and the length route refuses the cell
    with pytest.raises(ParameterError, match="not positive"):
        length_from_power_integral(W, RenyiOrder(3))
    with pytest.raises(ParameterError, match="L_3/2 at n=1"):
        renyi_length_bell(Family.jacobi(0.0, 2.0), 1, "3/2", CTX)


def test_parity_zero_cells_are_exact():
    assert renyi_power_integral_bell(Family.hermite(), 3, RenyiOrder(3), CTX) == 0
    assert renyi_power_integral_bell(Family.jacobi(2.0, 2.0), 1, RenyiOrder(3), CTX) == 0
    # the signed W vanishes, but integral rho^q does not: no length
    with pytest.raises(ParameterError, match="L_3/2 at n=3"):
        renyi_length_bell(Family.hermite(), 3, "3/2", CTX)


def test_coincidence_zero_cell_alpha_half():
    # alpha = (q-3)/(2q) at q=3/2: the power integral cancels exactly
    fam = Family.laguerre(-0.5)
    order = RenyiOrder(3)
    assert renyi_power_integral_bell(fam, 1, order, CTX) == 0
    # no parity cancels the Gauss terms, so that sum keeps its rounding
    assert abs(integrate_density_power(fam, 1, order, CTX)) <= mp.mpf(2) ** -CTX.bits
    with pytest.raises(ParameterError, match="L_3/2 at n=1"):
        renyi_length_bell(fam, 1, "3/2", CTX)


def test_odd_order_length_only_at_degree_zero():
    # p_0 keeps one sign, so at n = 0 the signed W is integral rho^q:
    # (2^(3/2) (3/2)^4 / 3!)^2 = 5.6953125 exactly
    assert abs(renyi_length_bell(Family.laguerre(2.0), 0, "3/2", CTX) - 5.6953125) < TIGHT
    # integrability is decided first: a divergent integral rho^q gives 0
    assert renyi_length_bell(Family.laguerre(-0.8), 1, "3/2", CTX) == 0


def test_small_gauss_value_keeps_its_digits():
    # W is -6.4e-42 here, far below the terms of the Gauss sum but no
    # rounding artefact: that sum returns it with Bell's sign
    fam, order = Family.jacobi(0.0, 1e-20), RenyiOrder(3)
    bell = renyi_power_integral_bell(fam, 5, order, FAST)
    gauss = integrate_density_power(fam, 5, order, FAST)
    assert gauss != 0 and (gauss < 0) == (bell < 0)
    assert abs(gauss - bell) <= mp.mpf(2) ** -FAST.bits


def test_length_from_power_integral_contract():
    with pytest.raises(ParameterError):
        length_from_power_integral(mp.mpf(1), RenyiOrder(2))  # q = 1
    # only a positive W is an integral of rho^q
    for W, two_q in ((0, 4), (0, 3), (-0.5, 4), (-0.5, 3)):
        with pytest.raises(ParameterError, match="not positive"):
            length_from_power_integral(mp.mpf(W), RenyiOrder(two_q))
    got = length_from_power_integral(mp.mpf(0.5), RenyiOrder(3))
    assert abs(got - 4) < TIGHT


def test_divergent_parameters_rejected():
    # w^q is not integrable, so the power integral is refused, while the
    # integral of rho^q diverges and the length is 0
    for family, n, q in ((Family.laguerre(-0.5), 2, 2), (Family.jacobi(-0.5, 0.0), 1, 3)):
        with pytest.raises(ParameterError):
            renyi_power_integral_bell(family, n, q, CTX)
        assert renyi_length_bell(family, n, q, CTX) == 0


@pytest.mark.parametrize(
    "family", [Family.laguerre(-2 / 3), Family.jacobi(0.0, -2 / 3)], ids=Family.describe
)
@pytest.mark.parametrize("n", [0, 1, 2])
def test_integrability_is_decided_exactly(family, n):
    # the double -2/3 times 3/2 is -0.99999999999999994 > -1, while the float
    # product rounds to -1.0: every route gives W, and they agree within
    # criterion 3's gate (relative, W is about 1e15 here)
    order = RenyiOrder(3)
    vals = [
        renyi_power_integral_bell(family, n, order, CTX),
        integrate_density_power(family, n, order, CTX),
    ]
    if family.kind == "laguerre":
        vals.append(laguerre_power_integral_lauricella(n, family.alpha, order, CTX))
    for v in vals[1:]:
        assert abs(v - vals[0]) <= mp.mpf(1e-10) * abs(vals[0])


@pytest.mark.parametrize(
    "family,n", [(Family.laguerre(5.0), 80), (Family.jacobi(2.0, 2.0), 120)]
)
def test_even_order_shortfall_escalates_instead_of_zero(family, n):
    # W = integral rho^2 > 0: the sum reaches its true value only at 1024
    # bits, and the cells below must escalate rather than snap to 0
    order = RenyiOrder(4)
    W = renyi_power_integral_bell(family, n, order, CTX)
    ref = integrate_density_power(family, n, order, CTX)
    assert W > 0 and abs(W - ref) <= mp.mpf(1e-10) * ref


def test_large_degree_needs_no_escalation_budget():
    # the integer sum cannot fall short, so the start precision does not
    # decide whether the value is right, and no budget of doublings exists
    short = PrecisionContext(bits=128)
    order = RenyiOrder(4)
    W = renyi_power_integral_bell(Family.laguerre(5.0), 80, order, short)
    ref = integrate_density_power(Family.laguerre(5.0), 80, order, short)
    assert W > 0 and abs(W - ref) <= mp.mpf(1e-10) * ref


def _gauss_abs_scale(family, n, order, ctx):
    """Sum of |terms| of the Gauss route's rule for W_q."""
    rule = gauss_rule(WeightSpec.power(family, order.q), n * order.two_q // 2 + 1, ctx)
    with mp.workprec(ctx.bits + 20):
        return mp.fsum(
            w * abs(evaluate_recurrence(family, n, x)) ** order.two_q
            for x, w in zip(rule.nodes, rule.weights)
        )


# alpha q, beta q > -1 for every q <= 3
INTEGRABLE = st.floats(min_value=-0.3, max_value=6.0)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    kind=st.sampled_from(["hermite", "laguerre", "jacobi"]),
    alpha=INTEGRABLE,
    beta=INTEGRABLE,
    n=st.integers(min_value=0, max_value=10),
    two_q=st.integers(min_value=3, max_value=6),
)
def test_bell_value_is_exact_in_sign_and_free_of_ambient_precision(kind, alpha, beta, n, two_q):
    # W does not depend on the caller's mp.prec; W = integral rho^q > 0 for
    # even 2q; and an exact 0 at odd 2q is a zero of the Gauss route too
    family = Family(
        kind,
        0.0 if kind == "hermite" else alpha,
        beta if kind == "jacobi" else 0.0,
    )
    order = RenyiOrder(two_q)
    with mp.workprec(53):
        low = renyi_power_integral_bell(family, n, order, FAST)
    with mp.workprec(400):
        high = renyi_power_integral_bell(family, n, order, FAST)
    assert low._mpf_ == high._mpf_
    if two_q % 2 == 0:
        assert low > 0
    elif low == 0:
        gauss = integrate_density_power(family, n, order, FAST)
        assert abs(gauss) <= mp.mpf(1e-30) * _gauss_abs_scale(family, n, order, FAST)
