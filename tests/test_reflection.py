"""Reflection x -> -x maps the Jacobi(alpha, beta) density of degree n onto
the Jacobi(beta, alpha) one, since p_n(x; alpha, beta) = (-1)^n
p_n(-x; beta, alpha).  Every spreading measure is invariant under it, so
each route must give the two densities the same value within its own
rounding or error estimate.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from spreadpoly.bell import renyi_length_bell
from spreadpoly.closed_form import asymptotic_cramer_rao, fisher_length, stddev
from spreadpoly.context import ParameterError, PrecisionContext
from spreadpoly.families import Family, RenyiOrder
from spreadpoly.shannon import _entropy_fast

CTX = PrecisionContext(bits=128)
#: Relative tolerance of the mpf routes: the closed forms and Bell's exact
#: integer sum round the same factors in another order, a few ulps at 128 bits.
MPF_TOL = mp.mpf(2) ** -120
#: Tolerance of the float64 Shannon engine on S, on top of the two error
#: estimates it reports.
FLOAT_TOL = 1e-12

#: Exponents in (-1, 6] on a 1/16 grid (the Bell integers stay small), with
#: the Fisher branch points 0 and 1 and a double with a long expansion.
EXPONENT = st.one_of(
    st.integers(min_value=-15, max_value=96).map(lambda k: k / 16),
    st.sampled_from([0.0, 1.0, 0.1]),
)


def _rel(a, b):
    if a == b:
        return 0
    return abs(a - b) / max(abs(a), abs(b))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    alpha=EXPONENT,
    beta=EXPONENT,
    n=st.integers(min_value=0, max_value=12),
    two_q=st.sampled_from([4, 6]),
)
@example(alpha=2.0, beta=0.0, n=3, two_q=4)
def test_jacobi_measures_are_reflection_invariant(alpha, beta, n, two_q):
    fam, ref = Family.jacobi(alpha, beta), Family.jacobi(beta, alpha)
    with mp.workprec(CTX.bits):
        assert _rel(stddev(fam, n, CTX), stddev(ref, n, CTX)) <= MPF_TOL
        assert _rel(fisher_length(fam, n, CTX), fisher_length(ref, n, CTX)) <= MPF_TOL
        # the rate sums the same two ends in the other order, which is exact
        assert asymptotic_cramer_rao(fam, CTX) == asymptotic_cramer_rao(ref, CTX)
        order = RenyiOrder(two_q)
        try:
            lq = renyi_length_bell(fam, n, order, CTX)
        except ParameterError:  # w^q not integrable at one end
            lq = None
        if lq is None:
            try:
                renyi_length_bell(ref, n, order, CTX)
            except ParameterError:
                pass
            else:
                raise AssertionError("only one of the pair is integrable")
        else:
            assert _rel(lq, renyi_length_bell(ref, n, order, CTX)) <= MPF_TOL
    s, est = _entropy_fast(fam, n, 1e-10)
    s_ref, est_ref = _entropy_fast(ref, n, 1e-10)
    assert abs(s - s_ref) <= est + est_ref + FLOAT_TOL * (1 + abs(s))
