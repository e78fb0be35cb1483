from fractions import Fraction
from itertools import combinations, product as cartesian

import pytest
from hypothesis import given, strategies as st

from qlocus import alphabets
from qlocus.alphabets import (
    Alphabet,
    VirtualAlphabet,
    complete_sym,
    difference,
    make_model,
    pair_sum_product,
    q_sym,
)
from qlocus.chern import ctop_sym2, ctop_wedge2
from qlocus.partitions import Partition
from qlocus.polyring import Ring, is_symmetric, product
from qlocus.schur import schur_q, schur_s


def test_alphabet_basics():
    ring = Ring([("a", 3)])
    A = Alphabet(ring, ring.block("a"))
    assert A.size == 3
    assert [str(r) for r in A.roots()] == ["a1", "a2", "a3"]
    assert [str(r) for r in A.dual().roots()] == ["-a1", "-a2", "-a3"]
    assert A.dual().dual().roots()[0] == A.roots()[0]
    with pytest.raises(ValueError):
        Alphabet(ring, (0, 0))


def test_value_alphabet_basics():
    ring = Ring([("x", 1)])
    A = Alphabet(ring, (0,), values=(2, -1))
    assert A.size == 3
    assert [str(r) for r in A.roots()] == ["x", "2", "-1"]
    assert [str(r) for r in A.dual().roots()] == ["-x", "-2", "1"]
    assert A.dual().values == A.values


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
    ring = Ring([])
    A = Alphabet(ring, (), values=(1, 2, 2))
    B = Alphabet(ring, (), values=(1, 2, 3)) if other == "values" else A.dual()

    def values(X):
        got = (complete_sym(3, X), schur_s(Partition((2, 1)), X), schur_q(Partition((3, 2)), X))
        return [P.constant() for P in got]

    on_a = values(A)
    before = set(ring.memo)
    on_b = values(B)
    assert {key[0] for key in set(ring.memo) - before} == {"h", "Q"}
    fresh = Ring([])
    assert on_b == values(Alphabet(fresh, (), B.negated, B.values))
    assert on_b != on_a


@pytest.mark.parametrize("values", [(), (3,), (2, -1), (1, 0, 2)])
def test_size_counts_values(values):
    # ctop_sym2 and ctop_wedge2 take their staircase from ``size``
    ring = Ring([("x", 1)])
    A = Alphabet(ring, (0,), values=values)
    assert A.size == 1 + len(values)
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
    D = Alphabet(ring, ring.block("d"))
    v = VirtualAlphabet((X,), (X.dual(), D.dual()))
    assert complete_sym(1, v) == x * 2 + d
    assert complete_sym(2, v) == x * x * 2 + x * d * 2


def test_complete_sym_self_difference_vanishes():
    ring = Ring([("a", 3)])
    A = Alphabet(ring, ring.block("a"))
    v = difference(A, A)
    assert complete_sym(0, v) == 1
    for i in range(1, 5):
        assert complete_sym(i, v).is_zero()


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
        assert P == literal_series_coefficient(ring, i, A.roots(), B.dual().roots())


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
    assert complete_sym(2, difference(A, B)) == literal_series_coefficient(ring, 2, A.roots(), B.roots())
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
        assert P == literal_series_coefficient(ring, i, A.roots(), B.roots())


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
    roots = A.roots()
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


@pytest.mark.parametrize("variables", [(1, -1), (0, 5), (-1,), (2,)])
def test_alphabet_rejects_variables_outside_the_ring(variables):
    # (1, -1) named x2 twice through negative indexing, so complete_sym(2, .)
    # read 3*x2^2; (0, 5) died later with a bare IndexError
    with pytest.raises(ValueError, match=r"must lie in 0\.\.1"):
        Alphabet(Ring([("x", 2)]), variables)


def test_virtual_alphabet_needs_an_alphabet():
    with pytest.raises(ValueError, match="at least one alphabet"):
        VirtualAlphabet((), ())


def test_virtual_alphabet_rejects_alphabets_of_two_rings():
    # the series would multiply roots of one ring by roots of the other
    # and come out wrong; complete_sym(2, A - B) read 0 here
    A = Alphabet(Ring([("a", 1)]), (0,))
    B = Alphabet(Ring([("b", 1)]), (0,))
    for pos, neg in [((A,), (B,)), ((A, B), ()), ((), (A, B))]:
        with pytest.raises(ValueError, match="share one ring"):
            VirtualAlphabet(pos, neg)
    with pytest.raises(ValueError, match="share one ring"):
        difference(A, B)


def test_model_context_surjection():
    ctx = make_model("surjection", 5, 3)
    assert ctx.n == 2
    assert ctx.ring.names == ["f1", "f2", "f3", "k1", "k2"]
    assert ctx.e_minus_f() is ctx.K
    assert ctx.E.variables == ctx.F.variables + ctx.K.variables


def test_model_context_independent():
    ctx = make_model("independent", 4, 2)
    assert ctx.K is None
    v = ctx.e_minus_f()
    assert isinstance(v, VirtualAlphabet)


def test_model_context_validation():
    with pytest.raises(ValueError):
        make_model("diagonal", 3, 2)
    with pytest.raises(ValueError):
        make_model("surjection", 2, 3)


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
