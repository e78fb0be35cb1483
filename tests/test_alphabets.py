from fractions import Fraction
from itertools import combinations, product as cartesian
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

from qlocus import alphabets, schur
from qlocus.alphabets import (
    Alphabet,
    complete_series,
    complete_sym,
    difference,
    make_model,
    pair_sum_product,
    q_sym,
    tensor_sum_product,
)
from qlocus.chern import ctop_sym2, ctop_wedge2
from qlocus.partitions import Partition
from qlocus.polyring import Ring, is_symmetric, product
from qlocus.schur import pfaffian_q, schur_q, schur_s


def alphabet_of(ring, pos=(), neg=()):
    """(roots of the alphabets ``pos``) - (roots of those of ``neg``),
    built by differences alone: each alphabet of ``pos`` is taken away
    as its negative, the empty alphabet less it."""
    empty = total = Alphabet(ring, ())
    for a in pos:
        total = difference(total, difference(empty, a))
    for b in neg:
        total = difference(total, b)
    return total


def test_alphabet_basics():
    ring = Ring([("a", 3)])
    A = Alphabet(ring, ring.block("a"))
    assert A.pos == ((0, False), (1, False), (2, False)) and A.neg == ()
    assert [str(r) for r in A.roots()[0]] == ["a1", "a2", "a3"] and A.roots()[1] == []
    assert [str(r) for r in A.dual().roots()[0]] == ["-a1", "-a2", "-a3"]
    assert A.dual().dual() == A and A.dual().dual().roots() == A.roots()
    with pytest.raises(ValueError):
        Alphabet(ring, (0, 0))


def test_value_alphabet_basics():
    ring = Ring([("x", 1)])
    A = Alphabet(ring, (0,), values=(2, -1))
    assert A.pos == ((0, False), 2, -1)
    assert [str(r) for r in A.roots()[0]] == ["x", "2", "-1"]
    assert [str(r) for r in A.dual().roots()[0]] == ["-x", "-2", "1"]
    assert A.dual() == Alphabet(ring, (0,), True, (2, -1))


@pytest.mark.parametrize("values", [(0.1, 0.2), (2.0,), (1, Fraction(1, 2))])
def test_value_alphabet_refuses_non_integer_values(values):
    # a float root once made complete_sym return a float
    with pytest.raises(ValueError):
        Alphabet(Ring([]), (), values=values)


@pytest.mark.parametrize("variables", [(0.0, 1.0), (0, 1.0), (True,)])
def test_alphabet_refuses_non_integer_variables(variables):
    # a float position was accepted, and schur_s on it then raised TypeError
    with pytest.raises(ValueError, match="must be integers"):
        Alphabet(Ring([("x", 2)]), variables)


@pytest.mark.parametrize("other", ["values", "dual"])
def test_value_alphabets_never_share_a_memo_entry(other):
    # odd degrees throughout, so the dual's values differ in sign
    def build(ring):
        A = Alphabet(ring, (), values=(1, 2, 2))
        return A, Alphabet(ring, (), values=(1, 2, 3)) if other == "values" else A.dual()

    ring = Ring([])
    A, B = build(ring)

    def values(X):
        got = (complete_sym(3, X), schur_s(Partition((2, 1)), X), schur_q(Partition((3, 2)), X))
        return [P.constant() for P in got]

    on_a = values(A)
    before = set(ring.memo)
    on_b = values(B)
    assert {key[0] for key in set(ring.memo) - before} == {"h", "q", "Pf"}
    assert on_b == values(build(Ring([]))[1])
    assert on_b != on_a


def test_equal_alphabets_built_separately_share_one_memo_entry():
    # the memo keys on the alphabet's value: a second build of the same
    # roots reads the first one's series and Q-polynomials
    ring = Ring([("a", 3), ("b", 2)])

    def build():
        A = Alphabet(ring, ring.block("a"), values=(2,))
        return A, difference(A, Alphabet(ring, ring.block("b")))

    (A, v), (A2, v2) = build(), build()
    assert A is not A2 and v is not v2
    first = complete_series(v, 5), complete_series(A, 5), schur_q(Partition((3, 1)), A), q_sym(4, A)
    keys = set(ring.memo)
    again = complete_series(v2, 5), complete_series(A2, 5), schur_q(Partition((3, 1)), A2), q_sym(4, A2)
    assert set(ring.memo) == keys
    assert all(x is y for x, y in zip(first, again))


@given(st.data())
def test_a_struck_difference_is_the_alphabet_of_the_roots_it_leaves(data):
    # A + X + ... - (X + ...) strikes every root of the X's, as a
    # multiset: what is left is A itself, equal, hashed alike and reading
    # the memo entries of A.
    ring = Ring([("x", 3)])
    A = Alphabet(ring, *data.draw(_root_args(3)))
    X = tuple(data.draw(st.lists(_root_alphabets(ring), min_size=1, max_size=3)))
    v = difference(alphabet_of(ring, (A, *X)), alphabet_of(ring, X))
    assert v is not A and v == A and hash(v) == hash(A)

    def entries(a):
        return complete_series(a, 4), schur_q(Partition((3, 1)), a), pfaffian_q(Partition((2, 1)), a), q_sym(3, a)

    first = entries(A)
    keys = set(ring.memo)
    assert all(x is y for x, y in zip(first, entries(v)))
    assert set(ring.memo) == keys


def test_striking_keeps_the_order_of_repeated_roots():
    # one 5 struck from 2, 1, 2, 5 leaves 2, 1, 2 in that order: the
    # alphabet of those values, reading its memo entries
    ring = Ring([])
    A = Alphabet(ring, (), values=(2, 1, 2))
    v = difference(Alphabet(ring, (), values=(2, 1, 2, 5)), Alphabet(ring, (), values=(5,)))
    assert v.pos == (2, 1, 2) and v == A and hash(v) == hash(A)
    first = complete_series(A, 4), schur_q(Partition((3, 1)), A), q_sym(3, A)
    keys = set(ring.memo)
    assert all(x is y for x, y in zip(first, (complete_series(v, 4), schur_q(Partition((3, 1)), v), q_sym(3, v))))
    assert set(ring.memo) == keys


@pytest.mark.parametrize("values", [(), (3,), (2, -1), (1, 0, 2)])
def test_size_counts_values(values):
    # ctop_sym2 and ctop_wedge2 take their staircase from the number of
    # roots, values included
    ring = Ring([("x", 1)])
    A = Alphabet(ring, (0,), values=values)
    assert len(A.pos) == 1 + len(values)
    assert ctop_sym2(A) == pair_sum_product(A, strict=False)
    assert ctop_wedge2(A) == pair_sum_product(A, strict=True)


def test_complete_sym_small_cases():
    ring = Ring([("a", 2)])
    a1, a2 = ring.variable(0), ring.variable(1)
    A = Alphabet(ring, ring.block("a"))
    assert complete_sym(0, A) == 1
    assert complete_sym(-1, A).is_zero()
    assert complete_sym(1, A) == a1 + a2
    assert complete_sym(2, A) == a1 * a1 + a1 * a2 + a2 * a2


def test_complete_sym_of_difference():
    # {x} - {-x, -d}: series (1+xt)(1+dt)/(1-xt), degree 2 term 2x^2 + 2xd
    ring = Ring([("x", 1), ("d", 1)])
    x, d = ring.variable(0), ring.variable(1)
    X = Alphabet(ring, ring.block("x"))
    v = difference(X, Alphabet(ring, ring.block("x") + ring.block("d"), negated=True))
    assert complete_sym(1, v) == x * 2 + d
    assert complete_sym(2, v) == x * x * 2 + x * d * 2


def test_complete_sym_self_difference_vanishes():
    ring = Ring([("a", 3)])
    A = Alphabet(ring, ring.block("a"))
    v = difference(A, A)
    assert complete_sym(0, v) == 1
    for i in range(1, 5):
        assert complete_sym(i, v).is_zero()


@st.composite
def _root_args(draw, nvars):
    """(variables, negated, values) of an alphabet on ``nvars`` variables:
    distinct variables, values with repeats and zeros, and either sign."""
    variables = draw(st.lists(st.sampled_from(range(nvars)), unique=True, max_size=nvars))
    values = draw(st.lists(st.integers(-2, 2), max_size=3))
    return tuple(variables), draw(st.booleans()), tuple(values)


def _root_alphabets(ring):
    return _root_args(ring.nvars).map(lambda args: Alphabet(ring, *args))


def _series_of_sides(ring, pos, neg, upto):
    """prod 1/(1-a t) over the roots of the alphabets ``pos`` times
    prod (1-b t) over those of ``neg``, to t^upto: the one-sided series
    of each side, built factor by factor from ``Alphabet.roots`` and
    multiplied as Poly series, with no difference built and no root
    struck."""
    h = [ring.one] + [ring.zero] * upto
    for a in (r for alph in pos for r in alph.roots()[0]):
        for j in range(1, upto + 1):
            h[j] = h[j] + a * h[j - 1]
    e = [ring.one] + [ring.zero] * upto
    for b in (r for alph in neg for r in alph.roots()[0]):
        for j in range(upto, 0, -1):
            e[j] = e[j] - b * e[j - 1]
    return [sum((h[j] * e[i - j] for j in range(i + 1)), ring.zero) for i in range(upto + 1)]


@given(st.data())
def test_difference_in_lowest_terms_keeps_the_series(data):
    # A + X - X strikes the roots of X, as a multiset: the series is the
    # series of A, and that of both sides multiplied with nothing struck
    ring = Ring([("x", 3)])
    A, X, B = (data.draw(_root_alphabets(ring)) for _ in range(3))
    for got, pos, neg in [
        (difference(alphabet_of(ring, (A, X)), X), (A, X), (X,)),
        (difference(alphabet_of(ring, (A, X)), X), (A,), ()),
        (difference(alphabet_of(ring, (A, X)), alphabet_of(ring, (X, B))), (A, X), (X, B)),
        (alphabet_of(ring, (A, X), (X, B)), (A, X), (X, B)),
        (difference(A, difference(X, alphabet_of(ring, (X, B)))), (A, B), ()),
    ]:
        assert complete_series(got, 4)[:5] == _series_of_sides(ring, pos, neg, 4)


@given(st.data())
def test_no_virtual_alphabet_has_a_root_on_both_sides(data):
    # the constructor, difference, dual and the sides and hook halves
    # that schur builds all strike a root found on both sides
    ring = Ring([("x", 3)])
    pos = tuple(data.draw(st.lists(_root_alphabets(ring), min_size=1, max_size=3)))
    neg = tuple(data.draw(st.lists(_root_alphabets(ring), max_size=3)))
    A = data.draw(_root_alphabets(ring))
    v = alphabet_of(ring, pos, neg)
    built = [v, alphabet_of(ring, neg + pos, pos), difference(v, A), difference(A, v), difference(v, v.dual())]
    built += [w for u in list(built) for w in (u.dual(), u.minus_dual(), *u.halves())]
    seen = []  # the alphabet of every determinant and S-polynomial schur_s builds

    def recording(build):
        def recorded(*args):
            seen.append(args[-1])
            return build(*args)

        return recorded

    with patch.object(schur, "jacobi_trudi", recording(schur.jacobi_trudi)), patch.object(
        schur, "schur_skew", recording(schur.schur_skew)
    ):
        for lam in [(1,), (2, 1), (3, 3), (1, 1, 1, 1)]:
            schur_s(Partition(lam), v)
    assert seen
    built += seen
    assert not any(set(w.pos) & set(w.neg) for w in built)


@given(st.data())
def test_a_fully_cancelled_difference_is_the_empty_alphabet(data):
    ring = Ring([("x", 3)])
    A, X = (data.draw(_root_alphabets(ring)) for _ in range(2))
    v = difference(alphabet_of(ring, (A, X)), alphabet_of(ring, (X, A)))
    assert v.pos == v.neg == () and v.ring is ring
    assert schur_s(Partition(), v) == 1
    for lam in [(1,), (2,), (1, 1), (2, 1), (3, 1, 1)]:
        assert schur_s(Partition(lam), v).is_zero(), lam


@given(st.data())
def test_difference_of_two_rings_raises_before_matching_roots(data):
    # the same positions and values on two rings must not cancel
    rings = Ring([("x", 3)]), Ring([("x", 3)])
    args = data.draw(_root_args(3))
    A, B = (Alphabet(ring, *args) for ring in rings)
    assert A.pos == B.pos
    with pytest.raises(ValueError, match="share one ring"):
        difference(A, B)


def literal_series_coefficient(ring, i, pos, neg):
    """Degree-i coefficient of prod 1/(1-a t) * prod (1-b t), multiplied
    out literally: sum over j of (-1)^j e_j(neg) h_{i-j}(pos)."""
    total = ring.zero
    for j in range(min(i, len(neg)) + 1):
        e_j = ring.zero
        for subset in combinations(neg, j):
            e_j = e_j + product(ring, subset)
        h = ring.zero
        for exps in cartesian(range(i - j + 1), repeat=len(pos)):
            if sum(exps) == i - j:
                h = h + product(ring, (a**x for a, x in zip(pos, exps)))
        total = total + (e_j if j % 2 == 0 else -e_j) * h
    return total


def test_complete_sym_extends_the_memoized_series(monkeypatch):
    # degrees 9, 10, 11 asked in turn: each call continues where the
    # last stopped, so no degree is built twice
    calls = []
    build = alphabets._complete_series

    def counting(v, upto, grown=None):
        calls.append((0 if grown is None else len(grown[0]), upto))
        return build(v, upto, grown)

    monkeypatch.setattr(alphabets, "_complete_series", counting)
    ring = Ring([("a", 3), ("b", 2)])
    A = Alphabet(ring, ring.block("a"))
    B = Alphabet(ring, ring.block("b"))
    v = difference(A, B.dual())
    got = {i: complete_sym(i, v) for i in (9, 10, 11, 4, 11)}
    assert calls == [(0, 9), (10, 10), (11, 11)]
    for i, P in got.items():
        assert P == literal_series_coefficient(ring, i, A.roots()[0], B.dual().roots()[0])


def test_complete_sym_builds_the_series_only_to_the_degree_asked(monkeypatch):
    # a fresh alphabet asked for s_2 builds s_0..s_2 and nothing beyond:
    # the cost of a series grows with its degree, and E - F in the
    # independent model runs over e + f variables
    calls = []
    build = alphabets._complete_series

    def counting(v, upto, grown=None):
        calls.append(upto)
        return build(v, upto, grown)

    monkeypatch.setattr(alphabets, "_complete_series", counting)
    ring = Ring([("a", 3), ("b", 2)])
    A = Alphabet(ring, ring.block("a"))
    B = Alphabet(ring, ring.block("b"))
    assert complete_sym(2, difference(A, B)) == literal_series_coefficient(ring, 2, A.roots()[0], B.roots()[0])
    assert calls == [2]


def test_series_overflow_leaves_the_memo_whole():
    ring = Ring([("a", 1)])
    A = Alphabet(ring, ring.block("a"))
    a = ring.variable(0)
    assert complete_sym(10, A) == a**10
    for _ in range(2):
        with pytest.raises(OverflowError):
            complete_sym(64, A)
    assert complete_sym(63, A) == a**63


@given(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.booleans(),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=4),
)
def test_extended_series_matches_the_literal_product(p, q, dual, m, extra):
    ring = Ring([("a", p), ("b", q)])
    A = Alphabet(ring, ring.block("a"), dual)
    B = Alphabet(ring, ring.block("b"))
    v = difference(A, B)
    series, _ = alphabets._complete_series(v, m + extra, alphabets._complete_series(v, m))
    assert len(series) == m + extra + 1
    for i, P in enumerate(series):
        assert P == literal_series_coefficient(ring, i, A.roots()[0], B.roots()[0])


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=5))
def test_complete_sym_duality_sign(n, i):
    # s_i of the negated alphabet is (-1)^i times s_i composed with a -> -a,
    # which for a homogeneous degree-i polynomial is just a global sign twist
    ring = Ring([("a", n)])
    A = Alphabet(ring, ring.block("a"))
    flip = {j: -ring.variable(j) for j in range(n)}
    from qlocus.polyring import apply_substitution

    assert complete_sym(i, A.dual()) == apply_substitution(complete_sym(i, A), flip)


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=5))
def test_whitney_sum_formula(f, n, i):
    # under a surjection, s_i(E) = sum_j s_j(F) s_{i-j}(K)
    ctx = make_model("surjection", f + n, f)
    lhs = complete_sym(i, ctx.E)
    rhs = ctx.ring.zero
    for j in range(i + 1):
        rhs = rhs + complete_sym(j, ctx.F) * complete_sym(i - j, ctx.K)
    assert lhs == rhs


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=6))
def test_q_sym_known_series(n, i):
    # prod (1+at)/(1-at) = (sum e_j t^j)(sum h_j t^j), so
    # q_i = sum_j e_j h_{i-j}
    ring = Ring([("a", n)])
    A = Alphabet(ring, ring.block("a"))
    roots, _ = A.roots()
    # elementary symmetric functions by direct expansion of prod (1 + a t)
    e = [ring.one] + [ring.zero] * i
    for a in roots:
        for d in range(i, 0, -1):
            e[d] = e[d] + a * e[d - 1]
    rhs = ring.zero
    for j in range(i + 1):
        rhs = rhs + e[j] * complete_sym(i - j, A)
    assert q_sym(i, A) == rhs


def test_q_sym_one_variable():
    ring = Ring([("a", 1)])
    a = ring.variable(0)
    A = Alphabet(ring, ring.block("a"))
    assert q_sym(0, A) == 1
    assert q_sym(1, A) == a * 2
    assert q_sym(3, A) == (a**3) * 2


def test_q_sym_is_symmetric():
    ring = Ring([("a", 3)])
    A = Alphabet(ring, ring.block("a"))
    for i in range(1, 5):
        assert is_symmetric(q_sym(i, A), ring.block("a"))


def test_q_sym_rejects_virtual_input():
    ring = Ring([("a", 2), ("b", 2)])
    A = Alphabet(ring, ring.block("a"))
    B = Alphabet(ring, ring.block("b"))
    with pytest.raises(TypeError):
        q_sym(2, difference(A, B))


def test_root_sum_products_refuse_a_negative_side():
    # they read the roots of a genuine alphabet, and would otherwise drop
    # the negative side without a word; (A + B) - B is A
    ring = Ring([("a", 2), ("b", 2)])
    A = Alphabet(ring, ring.block("a"))
    B = Alphabet(ring, ring.block("b"))
    for V in (difference(A, B), alphabet_of(ring, (), (A,))):
        with pytest.raises(TypeError, match="genuine alphabets only"):
            pair_sum_product(V, strict=True)
        with pytest.raises(TypeError, match="genuine alphabets only"):
            tensor_sum_product(A, V)
        with pytest.raises(TypeError, match="genuine alphabets only"):
            tensor_sum_product(V, A)
    v = difference(Alphabet(ring, ring.block("a") + ring.block("b")), B)
    assert pair_sum_product(v, strict=False) == pair_sum_product(A, strict=False)
    assert tensor_sum_product(v, B) == tensor_sum_product(A, B)


@pytest.mark.parametrize("variables", [(1, -1), (0, 5), (-1,), (2,)])
def test_alphabet_rejects_variables_outside_the_ring(variables):
    # (1, -1) named x2 twice through negative indexing, so complete_sym(2, .)
    # read 3*x2^2; (0, 5) died later with a bare IndexError
    with pytest.raises(ValueError, match=r"must lie in 0\.\.1"):
        Alphabet(Ring([("x", 2)]), variables)


def test_virtual_alphabet_rejects_alphabets_of_two_rings():
    # the series would multiply roots of one ring by roots of the other
    # and come out wrong; complete_sym(2, A - B) read 0 here
    A = Alphabet(Ring([("a", 1)]), (0,))
    B = Alphabet(Ring([("b", 1)]), (0,))
    for a, b in [(A, B), (B, A), (A, alphabet_of(B.ring, (), (B,)))]:
        with pytest.raises(ValueError, match="share one ring"):
            difference(a, b)


def test_model_context_surjection():
    ctx = make_model("surjection", 5, 3)
    assert ctx.n == 2
    assert ctx.ring.names == ["f1", "f2", "f3", "k1", "k2"]
    assert ctx.e_minus_f() is ctx.K
    assert ctx.E.pos == ctx.F.pos + ctx.K.pos


def test_model_context_independent():
    ctx = make_model("independent", 4, 2)
    assert ctx.K is None
    v = ctx.e_minus_f()
    assert (v.pos, v.neg) == (ctx.E.pos, ctx.F.pos)


def test_model_context_validation():
    with pytest.raises(ValueError):
        make_model("diagonal", 3, 2)
    with pytest.raises(ValueError):
        make_model("surjection", 2, 3)
    # a float rank died inside Ring with a bare TypeError
    for e, f in [(3, 2.5), (3.0, 2), (3, True)]:
        with pytest.raises(ValueError, match="ranks must be integers"):
            make_model("surjection", e, f)
        with pytest.raises(ValueError, match="ranks must be integers"):
            make_model("independent", e, f)


def test_surjection_and_independent_models_agree():
    # s_i(E - F) computed virtually must equal s_i(K) after the roots of E
    # are identified with (roots of F) + (roots of K)
    from qlocus.polyring import apply_substitution

    sur = make_model("surjection", 4, 2)
    ind = make_model("independent", 4, 2)
    fv = ind.ring.block("f")
    ev = ind.ring.block("e")
    mapping = {}
    for i, j in zip(fv, sur.ring.block("f")):
        mapping[i] = sur.ring.variable(j)
    for i, j in zip(ev, sur.ring.block("f") + sur.ring.block("k")):
        mapping[i] = sur.ring.variable(j)
    for i in range(4):
        lhs = apply_substitution(complete_sym(i, ind.e_minus_f()), mapping, sur.ring)
        assert lhs == complete_sym(i, sur.K)
