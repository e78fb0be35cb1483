from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qlocus.polyring import (
    MAX_EXP,
    NonDivisibleError,
    Poly,
    Ring,
    apply_permutation,
    apply_substitution,
    exact_div,
    is_symmetric,
    product,
)


R = Ring([("x", 3)])
x1, x2, x3 = (R.variable(i) for i in range(3))

coeffs = st.integers(min_value=-6, max_value=6)
exps = st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(3)))
polys = st.dictionaries(exps, coeffs, max_size=5).map(
    lambda d: R.poly({R.pack(e): c for e, c in d.items()})
)
nonzero_polys = polys.filter(bool)


def test_ring_construction():
    ring = Ring([("f", 2), ("h", 1)])
    assert ring.nvars == 3
    assert ring.names == ["f1", "f2", "h"]
    assert ring.block("f") == (0, 1)
    assert ring.block("h") == (2,)
    with pytest.raises(ValueError):
        Ring([("a", 1), ("a", 2)])


def test_pack_unpack_round_trip():
    e = (3, 0, 7)
    assert R.unpack(R.pack(e)) == e
    assert R.key_degree(R.pack(e)) == 10
    with pytest.raises(OverflowError):
        R.pack((MAX_EXP + 1, 0, 0))


def test_constants_and_scalars():
    assert R.const(0).is_zero()
    assert R.const(Fraction(4, 2)) == 2
    assert (R.one + 1) == 2
    assert (x1 - x1) == 0
    assert R.zero.total_degree() == -1


@given(polys, polys)
def test_addition_commutes(P, Q):
    assert P + Q == Q + P


@given(polys, polys, polys)
def test_multiplication_distributes(P, Q, S):
    assert P * (Q + S) == P * Q + P * S


@given(polys, polys, polys)
def test_multiplication_associates(P, Q, S):
    assert (P * Q) * S == P * (Q * S)


@given(polys)
def test_additive_and_multiplicative_identities(P):
    assert P + R.zero == P
    assert P * R.one == P
    assert P - P == R.zero
    assert P.scale(0).is_zero()


@given(nonzero_polys, nonzero_polys)
def test_degree_of_product_adds(P, Q):
    # the coefficient ring is an integral domain, so no cancellation
    assert (P * Q).total_degree() == P.total_degree() + Q.total_degree()


@given(polys, st.integers(min_value=0, max_value=4))
def test_pow_matches_repeated_multiplication(P, n):
    expected = product(R, [P] * n)
    assert P**n == expected


@given(polys, nonzero_polys)
def test_exact_division_round_trip(P, D):
    assert exact_div(P * D, D) == P


def test_exact_division_failures():
    with pytest.raises(NonDivisibleError):
        exact_div(x1 + 1, x1)
    with pytest.raises(NonDivisibleError):
        exact_div(x1 * x1 + x2, x1 + x2)
    with pytest.raises(ZeroDivisionError):
        exact_div(x1, R.zero)


def test_exact_division_with_fractions():
    P = (x1 + x2).scale(Fraction(1, 2))
    assert exact_div(P, x1 + x2) == R.const(Fraction(1, 2))
    assert exact_div(x1 * x2 * 3, x2.scale(3)) == x1


def test_integrality_tracking():
    P = x1.scale(Fraction(1, 2))
    assert not P.is_integral()
    assert (P + P).is_integral()
    assert (P.scale(2)) == x1


def test_multiplication_overflow_guard():
    big = R.monomial((40, 0, 0))
    with pytest.raises(OverflowError):
        big * big
    with pytest.raises(OverflowError):
        (big + x2) * (x1**30 + x3)


def test_multiplication_past_total_degree_bound_without_field_overflow():
    # total degree 70 > MAX_EXP, yet no single exponent passes it
    assert x1**40 * x2**30 == R.monomial((40, 30, 0))
    assert (x1**40 + x2) * (x2**30 + x3**63) == R.poly(
        {R.pack((40, 30, 0)): 1, R.pack((40, 0, 63)): 1, R.pack((0, 31, 0)): 1, R.pack((0, 1, 63)): 1}
    )


def test_structure_queries():
    P = x1 * x1 * x2 + x2 * x3 * 2 + 5
    assert P.total_degree() == 3
    assert P.constant() == 5
    assert P.coefficient_of(0, 2) == x2
    assert P.coefficient_of(1, 1) == x1 * x1 + x3 * 2
    assert P.total_degree_component(2) == x2 * x3 * 2
    assert P.total_degree_component(1).is_zero()


def test_rendering():
    assert str(R.zero) == "0"
    assert str(R.one) == "1"
    assert str(-R.one) == "-1"
    assert str(x1 * x1 * x2 * 2 - x3 + 1) == "2*x1^2*x2 - x3 + 1"
    assert str(x3 - x1) == "-x1 + x3"
    h = Ring([("h", 1)])
    assert str(h.variable(0) ** 3) == "h^3"


def test_leading_key_order():
    # grevlex: higher total degree first, then the usual tie-break
    P = x1 * x2 + x3 * x3 * x3
    assert P.leading_key() == R.pack((0, 0, 3))
    assert (x1 + x3).leading_key() == R.pack((1, 0, 0))


@given(polys)
def test_permutation_identity_and_composition(P):
    n = R.nvars
    ident = list(range(n))
    assert apply_permutation(P, ident) == P
    rot = [1, 2, 0]
    twice = apply_permutation(apply_permutation(P, rot), rot)
    comp = [rot[rot[i]] for i in range(n)]
    assert twice == apply_permutation(P, comp)


def test_permutation_validation():
    with pytest.raises(ValueError):
        apply_permutation(x1, [0, 0, 1])


def test_substitution_same_ring():
    P = x1 * x1 + x2
    # (x2 + 1)^2 + x2 = x2^2 + 3*x2 + 1
    assert apply_substitution(P, {0: x2 + 1}) == x2 * x2 + x2 * 3 + 1


def test_substitution_cross_ring():
    target = Ring([("t", 1)])
    t = target.variable(0)
    P = x1 * x2 - x3
    got = apply_substitution(P, {0: t, 1: t, 2: t * t}, target)
    assert got.is_zero()
    with pytest.raises(ValueError):
        apply_substitution(P, {0: t}, target)


def test_is_symmetric():
    e1 = x1 + x2 + x3
    e2 = x1 * x2 + x1 * x3 + x2 * x3
    assert is_symmetric(e1, R.block("x"))
    assert is_symmetric(e2, R.block("x"))
    assert not is_symmetric(x1 + x2 * 2, R.block("x"))
    assert is_symmetric(x1 * x2, (0, 1))


def test_product_helper():
    assert product(R, []) == R.one
    assert product(R, [x1, x2, x1]) == x1 * x1 * x2
