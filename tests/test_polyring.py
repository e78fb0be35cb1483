import operator
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from qlocus.polyring import (
    MAX_EXP,
    SHIFT,
    NonDivisibleError,
    Poly,
    Ring,
    apply_permutation,
    apply_substitution,
    exact_div,
    is_symmetric,
    mul_add,
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


def recomputed_degree(P):
    return max((R.key_degree(k) for k in P.terms), default=-1)


def old_sort_key(e):
    """The grevlex key on unpacked exponents: the reference order."""
    return (sum(e), tuple(-x for x in reversed(e)))


def test_ring_construction():
    ring = Ring([("f", 2), ("h", 1)])
    assert ring.nvars == 3
    assert ring.names == ["f1", "f2", "h"]
    assert ring.block("f") == (0, 1)
    assert ring.block("h") == (2,)
    with pytest.raises(ValueError):
        Ring([("a", 1), ("a", 2)])


@pytest.mark.parametrize("size", [-1, True, 2.5, 2.0, "2"])
def test_ring_refuses_a_block_size_that_is_not_a_nonnegative_int(size):
    # True made a one-variable block; 2.5 died inside range
    with pytest.raises(ValueError, match="block size must be a nonnegative int"):
        Ring([("a", size)])


@pytest.mark.parametrize("i", [-1, -3, 3, 1.0, True, None])
def test_variable_refuses_an_index_outside_the_ring(i):
    # -1 named a3 through negative indexing
    ring = Ring([("a", 3)])
    with pytest.raises(ValueError, match=r"variable index must be an int in 0\.\.2"):
        ring.variable(i)
    assert [str(ring.variable(j)) for j in range(3)] == ["a1", "a2", "a3"]


def test_pack_unpack_round_trip():
    e = (3, 0, 7)
    assert R.unpack(R.pack(e)) == e
    assert R.key_degree(R.pack(e)) == 10
    with pytest.raises(OverflowError):
        R.pack((MAX_EXP + 1, 0, 0))


def test_poly_refuses_keys_outside_the_ring():
    ring = Ring([("x", 2)])
    # negative, past the last variable, a guard bit in the first or the last field
    for key in (-1, 1 << (SHIFT * 2), MAX_EXP + 1, (MAX_EXP + 1) << SHIFT):
        with pytest.raises(ValueError):
            ring.poly({key: 1})
    assert ring.poly({ring.fields: 1}) == ring.monomial((MAX_EXP, MAX_EXP))


def test_pack_refuses_more_exponents_than_variables():
    assert R.pack((1, 2)) == R.pack((1, 2, 0))
    with pytest.raises(ValueError):
        R.pack((0, 0, 0, 1))
    with pytest.raises(ValueError):
        Ring([("x", 2)]).monomial((0, 0, 1))


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_arithmetic_refuses_polynomials_of_another_ring(op):
    x = Ring([("x", 2)]).variable(0)
    y = Ring([("y", 2)]).variable(1)
    with pytest.raises(ValueError):
        getattr(operator, op)(x, y)


def test_constants_and_scalars():
    assert R.const(0).is_zero()
    assert R.const(2) == 2
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
    assert recomputed_degree(P * Q) == recomputed_degree(P) + recomputed_degree(Q)


@given(polys, polys, coeffs)
def test_carried_degree_matches_the_terms(P, Q, c):
    P.total_degree()  # an earlier query of the operands must not leak into the results
    Q.total_degree()
    # (P + x1)(P - x1) = P^2 - x1^2 cancels the middle degrees
    results = [P * Q, (P + x1) * (P - x1), P * (x2 - x3), -P, P.scale(c), P * R.zero, R.zero * Q]
    for S in results:
        assert S.total_degree() == recomputed_degree(S)


def test_carried_degree_with_lower_degree_cancellation():
    P = (x1 + 1) * (x1 - 1)  # the degree-1 terms cancel
    assert str(P) == "x1^2 - 1"
    assert P.total_degree() == 2
    Q = (x1 * x2 + x3).scale(3) * (x1 * x2 - x3).scale(2)
    assert str(Q) == "6*x1^2*x2^2 - 6*x3^2"
    assert Q.total_degree() == recomputed_degree(Q) == 4
    assert (-Q).total_degree() == Q.scale(-3).total_degree() == 4
    assert (Q * R.zero).total_degree() == -1


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


def test_exact_division_over_the_integers():
    assert exact_div((x1 + x2).scale(6), (x1 + x2).scale(-2)) == R.const(-3)
    assert exact_div(x1 * x2 * 3, x2.scale(3)) == x1
    # divisible over the rationals, not over the integers
    with pytest.raises(NonDivisibleError):
        exact_div(x1 + x2, (x1 + x2).scale(2))
    with pytest.raises(NonDivisibleError):
        exact_div(x1.scale(2) + x2.scale(3), x1.scale(2) + x2.scale(2))


@given(polys, polys, coeffs)
def test_coefficients_are_normalized(P, Q, c):
    # every coefficient is a nonzero int
    for S in (P + Q, P - Q, P * Q, P.scale(c)):
        for v in S.terms.values():
            assert v != 0
            assert type(v) is int


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(4, 2), 0.5, 2.0])
def test_non_integer_scalars_are_refused(c):
    for op in (
        lambda: x1.scale(c),
        lambda: R.const(c),
        lambda: R.monomial((1, 0, 0), c),
        lambda: x1 + c,
        lambda: c + x1,
        lambda: x1 - c,
        lambda: c - x1,
        lambda: x1 * c,
        lambda: c * x1,
        lambda: R.poly({0: 1, 1: c}),
    ):
        with pytest.raises(TypeError):
            op()


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


@given(polys, polys, polys, coeffs)
def test_mul_add_accumulates_the_exact_sum(P, Q, S, c):
    acc: dict = {}
    mul_add(acc, P, Q, c)
    mul_add(acc, S, Q)
    assert R.finish(acc) == P * Q * c + S * Q
    # adding the negatives cancels every term and leaves no entry
    mul_add(acc, P, Q, -c)
    mul_add(acc, S, -Q)
    assert R.finish(acc).terms == {}


def test_mul_add_refuses_a_surviving_guard_bit_only():
    big = R.monomial((40, 0, 0))
    acc: dict = {}
    mul_add(acc, big, big + x2)
    with pytest.raises(OverflowError):
        R.finish(acc)
    # the same product cancelled: nothing past the bound survives
    mul_add(acc, big, big, -1)
    assert R.finish(acc) == big * x2


def test_finish_refuses_a_coefficient_that_is_not_an_int_even_zero():
    for c in (Fraction(1, 2), 0.5, 0.0, Fraction(0)):
        acc: dict = {}
        mul_add(acc, x1, x2, c)
        with pytest.raises(TypeError, match="coefficients are ints"):
            R.finish(acc)
    with pytest.raises(ValueError, match="different rings"):
        mul_add({}, x1, Ring([("x", 3)]).variable(0))


def sparse_polys(n):
    """Up to four terms in n variables, exponents near the bound or small."""
    exponent = st.integers(min_value=MAX_EXP - 40, max_value=MAX_EXP) | st.integers(0, 2)
    return st.dictionaries(st.tuples(*[exponent] * n), coeffs, max_size=4)


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(st.just(n), sparse_polys(n), sparse_polys(n))
))
def test_product_overflows_exactly_past_the_bound(case):
    n, a, b = case
    ring = Ring([("y", n)])
    P, Q = (ring.poly({ring.pack(e): c for e, c in d.items()}) for d in (a, b))
    exps_p, exps_q = ([ring.unpack(k) for k in S.terms] for S in (P, Q))
    if exps_p and exps_q and any(
        max(e[i] for e in exps_p) + max(e[i] for e in exps_q) > MAX_EXP for i in range(n)
    ):
        with pytest.raises(OverflowError):
            P * Q
        return
    expected = {}
    for ep, cp in zip(exps_p, P.terms.values()):
        for eq, cq in zip(exps_q, Q.terms.values()):
            e = tuple(x + y for x, y in zip(ep, eq))
            expected[e] = expected.get(e, 0) + cp * cq
    assert {ring.unpack(k): c for k, c in (P * Q).terms.items()} == {
        e: c for e, c in expected.items() if c
    }


def test_structure_queries():
    P = x1 * x1 * x2 + x2 * x3 * 2 + 5
    assert P.total_degree() == 3
    assert P.constant() == 5
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
    # two-digit exponents
    assert str(x1**12 * x3**10 - x2**11 * 3 + x1**10) == "x1^12*x3^10 - 3*x2^11 + x1^10"
    # mixed blocks
    M = Ring([("f", 2), ("k", 1), ("h", 1)])
    f1, f2, k, hv = (M.variable(i) for i in range(4))
    assert str(f1 * k * hv + f2**2 * hv - k**3 + f1 * f2 * 5) == "-k^3 + f2^2*h + f1*k*h + 5*f1*f2"
    # negative leading coefficient
    assert str(-(x1**2) * 4 + x2 * x3 - 7) == "-4*x1^2 + x2*x3 - 7"


def reference_render(P):
    """The renderer kept as the reference: sort on (degree of the unpacked
    exponents, -key), largest first, and render every field of every key."""
    ring = P.ring
    pieces = []
    for k in sorted(P.terms, key=lambda k: (sum(ring.unpack(k)), -k), reverse=True):
        c = P.terms[k]
        mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(ring.names, ring.unpack(k)) if e)
        body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else mono or str(abs(c))
        sign = ("-" if c < 0 else "") if not pieces else (" - " if c < 0 else " + ")
        pieces.append(sign + body)
    return "".join(pieces) or "0"


@st.composite
def _rendered_polys(draw):
    """A polynomial on 0 to 14 variables in blocks of 1 to 4, with
    exponents up to MAX_EXP and coefficients of either sign, +-1 and
    past 2^64 among them."""
    nvars = draw(st.integers(min_value=0, max_value=14))
    sizes = []
    while sum(sizes) < nvars:
        sizes.append(draw(st.integers(min_value=1, max_value=min(4, nvars - sum(sizes)))))
    ring = Ring([(chr(ord("a") + i), size) for i, size in enumerate(sizes)])
    exponent = st.one_of(st.just(0), st.just(1), st.integers(min_value=0, max_value=MAX_EXP))
    coefficient = st.one_of(
        st.sampled_from([1, -1]),
        st.integers(min_value=-1000, max_value=1000),
        st.integers(min_value=2**64, max_value=2**80).flatmap(lambda c: st.sampled_from([c, -c])),
    )
    terms = draw(st.dictionaries(st.tuples(*(exponent for _ in range(nvars))), coefficient, max_size=20))
    return ring.poly({ring.pack(e): c for e, c in terms.items()})


@given(_rendered_polys())
def test_rendering_matches_the_reference(P):
    assert str(P) == reference_render(P)


@given(st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(*(st.integers(min_value=0, max_value=MAX_EXP) for _ in range(n))), max_size=12),
    )
))
def test_sort_key_is_grevlex(case):
    # the packed-key orders agree with grevlex on unpacked exponents
    n, exponents = case
    ring = Ring([("y", n)])
    keys = [ring.pack(e) for e in exponents]
    expected = sorted(set(exponents), key=old_sort_key, reverse=True)
    assert [ring.unpack(k) for k in sorted(set(keys), key=ring.sort_key, reverse=True)] == expected
    assert [ring.unpack(k) for k in sorted(set(keys), key=ring._invkey)] == expected


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
    # -2 aliased position 1 and read True; 3 died with a bare IndexError
    for positions in ([1, -2], [0, 3], [0, True]):
        with pytest.raises(ValueError, match=r"integers in 0\.\.2"):
            is_symmetric(x1 + x2 * 2, positions)


R4 = Ring([("y", 4)])
polys4 = st.dictionaries(
    st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(4))), coeffs, max_size=6
).map(lambda d: R4.poly({R4.pack(e): c for e, c in d.items()}))


def _swapped(P, a, b):
    perm = list(range(P.ring.nvars))
    perm[a], perm[b] = b, a
    return apply_permutation(P, perm)


@given(polys4, st.lists(st.integers(0, 3), unique=True, min_size=2, max_size=4), st.booleans())
def test_is_symmetric_agrees_with_the_permutation_oracle(P, positions, symmetrize):
    # symmetrized input reaches the True answer, raw input mostly False
    if symmetrize:
        total = R4.zero
        for image in permutations(positions):
            perm = list(range(R4.nvars))
            for a, b in zip(positions, image):
                perm[a] = b
            total = total + apply_permutation(P, perm)
        P = total
    want = all(_swapped(P, a, b) == P for a, b in zip(positions, positions[1:]))
    assert is_symmetric(P, positions) == want


def test_product_helper():
    assert product(R, []) == R.one
    assert product(R, [x1, x2, x1]) == x1 * x1 * x2
