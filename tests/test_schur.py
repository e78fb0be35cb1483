import math
import time
from functools import reduce
from itertools import permutations
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from qlocus import locus, schur
from qlocus.alphabets import Alphabet, VirtualAlphabet, complete_sym, difference, make_model, q_sym
from qlocus.locus import ClassExpression, LocusProblem, class_of, class_schur_pair_expansion, expression_to_poly
from qlocus.partitions import (
    Partition,
    rectangle,
    rectangle_partitions,
    staircase,
    strict_partitions_bounded,
    subpartitions,
)
from qlocus.polyring import (
    Poly,
    Ring,
    apply_permutation,
    apply_substitution,
    exact_div,
    is_symmetric,
    product,
)
from qlocus.schur import (
    SchurPairExpansion,
    determinant,
    expand_schur_basis,
    expand_schur_pair,
    jacobi_trudi,
    pfaffian_q,
    schur_difference_split,
    schur_p,
    schur_q,
    schur_s,
    schur_skew,
    schur_sum,
)


# ---------------------------------------------------------------- oracles


def _perm_sign(p):
    s = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                s = -s
    return s


def bialternant_schur(I: Partition, ring: Ring, n: int):
    """Classical ratio-of-alternants Schur polynomial in n variables:
    det(x_i^(I_j + n - j)) / det(x_i^(n - j))."""
    if I.length > n:
        return ring.zero
    lam = I.padded(n)
    num = determinant(
        ring,
        [[ring.variable(i) ** (lam[j] + n - 1 - j) for j in range(n)] for i in range(n)],
    )
    den = determinant(
        ring, [[ring.variable(i) ** (n - 1 - j) for j in range(n)] for i in range(n)]
    )
    return exact_div(num, den)


def symmetrizer_q(I: Partition, ring: Ring, n: int):
    """Hall-Littlewood symmetrizer at t = -1, scaled by 2^length:

        Q_I = (2^l / (n-l)!) sum_w sign(w) w( x^I prod_{i<=l, i<j<=n} (x_i+x_j)
                                                  prod_{l<i<j<=n} (x_i-x_j) ) / V

    with V the full Vandermonde determinant.  Completely independent of the
    one- and two-row recurrences used by the implementation.
    """
    l = I.length
    if l > n:
        return ring.zero
    xs = [ring.variable(i) for i in range(n)]
    V = product(ring, [xs[i] - xs[j] for i in range(n) for j in range(i + 1, n)])
    core = ring.one
    for i in range(l):
        for j in range(i + 1, n):
            core = core * (xs[i] + xs[j])
    for i in range(l, n):
        for j in range(i + 1, n):
            core = core * (xs[i] - xs[j])
    base = ring.monomial(I.padded(n)) * core
    total = ring.zero
    for w in permutations(range(n)):
        term = apply_permutation(base, list(w))
        total = total + (term if _perm_sign(w) > 0 else -term)
    sym = exact_div(total, V)
    d = math.factorial(n - l)
    assert all(c % d == 0 for c in sym.terms.values())
    return Poly(ring, {k: c // d for k, c in sym.terms.items()}).scale(2**l)


def recurrence_q(I: Partition, a: Alphabet, memo: dict) -> Poly:
    """Q_I by the classical recurrences on I itself, with no zero part:

    * one row:          q_i
    * two rows, i > j:  q_i q_j + 2 * sum_{p=1..j} (-1)^p q_{i+p} q_{j-p}
    * odd length:       sum over p of (-1)^(p+1) q_{I_p} Q_{I minus I_p}
    * even length >= 4: sum over p >= 2 of (-1)^p Q_{(I_1, I_p)} Q_{I minus I_1, I_p}

    It shares only the one-row series q_i with :func:`schur_q`.
    """
    got = memo.get(I)
    if got is not None:
        return got
    parts, k = I.parts, I.length
    if k == 0:
        got = a.ring.one
    elif k == 1:
        got = q_sym(parts[0], a)
    elif k == 2:
        i, j = parts
        got = q_sym(i, a) * q_sym(j, a)
        for p in range(1, j + 1):
            got = got + (q_sym(i + p, a) * q_sym(j - p, a)).scale(2 if p % 2 == 0 else -2)
    elif k % 2:
        got = a.ring.zero
        for p in range(1, k + 1):
            term = q_sym(parts[p - 1], a) * recurrence_q(I.remove_part(p), a, memo)
            got = got + (term if p % 2 else -term)
    else:
        got = a.ring.zero
        for p in range(2, k + 1):
            head = recurrence_q(Partition((parts[0], parts[p - 1])), a, memo)
            rest = recurrence_q(Partition(parts[1 : p - 1] + parts[p:]), a, memo)
            got = got + (head * rest if p % 2 == 0 else -(head * rest))
    memo[I] = got
    return got


def greedy_expand(P: Poly, alphabets: tuple[Alphabet, ...]) -> dict:
    """Write P, symmetric in each of the disjoint alphabets, as a sum of
    coeff * prod s_{I_k}(alphabets[k]), keyed by the tuple of the I_k.

    Greedy elimination of the leading monomial: for such input the
    leading exponents on each alphabet form a partition, and subtracting
    that product of S-polynomials strictly lowers the leading term.
    """
    ring = P.ring
    inside = [v for a in alphabets for v in a.variables]
    if len(set(inside)) < len(inside):
        raise ValueError("alphabets overlap")
    outside = [i for i in range(ring.nvars) if i not in inside]
    work = P
    out: dict[tuple[Partition, ...], int] = {}
    while not work.is_zero():
        lead = work.leading_key()
        exps = ring.unpack(lead)
        if any(exps[i] for i in outside):
            raise ValueError("polynomial involves variables outside the alphabets")
        shapes = [tuple(exps[i] for i in a.variables) for a in alphabets]
        if any(x < y for shape in shapes for x, y in zip(shape, shape[1:])):
            raise ValueError("leading exponent is not a partition; input not symmetric?")
        lams = tuple(map(Partition, shapes))
        c = work.terms[lead]
        out[lams] = c
        work = work - reduce(mul, map(schur_s, lams, alphabets)).scale(c)
        if not work.is_zero() and ring.sort_key(work.leading_key()) >= ring.sort_key(lead):
            raise RuntimeError("expansion failed to make progress")
    return out


# ---------------------------------------------------------------- determinant


def test_determinant_known_values():
    ring = Ring([("x", 2)])
    x1, x2 = ring.variable(0), ring.variable(1)
    assert determinant(ring, []) == 1
    assert determinant(ring, [[x1]]) == x1
    assert determinant(ring, [[x1, x2], [ring.one, ring.one]]) == x1 - x2
    rows = [[x1, x2, ring.one], [x2, x1, ring.zero], [ring.one, ring.zero, x1]]
    assert determinant(ring, rows) == x1**3 - x1 * x2**2 - x1


@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=9, max_size=9))
def test_determinant_matches_permutation_expansion(entries):
    ring = Ring([("x", 1)])
    rows = [[ring.const(entries[3 * i + j]) for j in range(3)] for i in range(3)]
    expected = 0
    for w in permutations(range(3)):
        t = _perm_sign(w)
        for i in range(3):
            t *= entries[3 * i + w[i]]
        expected += t
    assert determinant(ring, rows) == expected


# ---------------------------------------------------------------- S-polynomials


@pytest.mark.parametrize("n", [1, 2, 3])
def test_schur_s_matches_bialternant(n):
    ring = Ring([("x", n)])
    A = Alphabet(ring, ring.block("x"))
    shapes = [(), (1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (3, 2, 1)]
    for parts in shapes:
        I = Partition(parts)
        assert schur_s(I, A) == bialternant_schur(I, ring, n), parts


def test_schur_s_vanishes_beyond_alphabet_size():
    ring = Ring([("x", 2)])
    A = Alphabet(ring, ring.block("x"))
    assert schur_s(Partition((1, 1, 1)), A).is_zero()
    assert not schur_s(Partition((1, 1)), A).is_zero()


def test_resultant_factorization():
    # s of the full rectangle on a difference is the product of root
    # differences: s_{(m)^n}(A - B) = prod (a_i - b_j)
    for n, m in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]:
        ring = Ring([("a", n), ("b", m)])
        A = Alphabet(ring, ring.block("a"))
        B = Alphabet(ring, ring.block("b"))
        expected = product(
            ring,
            [
                ring.variable(i) - ring.variable(n + j)
                for i in range(n)
                for j in range(m)
            ],
        )
        assert jacobi_trudi(rectangle(n, m), Partition(), difference(A, B)) == expected


@given(st.integers(min_value=1, max_value=3), st.data())
def test_schur_s_is_symmetric(n, data):
    ring = Ring([("x", n)])
    A = Alphabet(ring, ring.block("x"))
    I = data.draw(st.sampled_from(subpartitions(rectangle(n, 3))))
    P = schur_s(I, A)
    assert is_symmetric(P, ring.block("x"))
    if not P.is_zero():
        assert P.total_degree() == I.weight


def test_skew_requires_containment():
    ring = Ring([("x", 2)])
    A = Alphabet(ring, ring.block("x"))
    # the message names the caller's shapes, not the conjugates the
    # determinant is built on
    with pytest.raises(ValueError, match=r"\[2,2\] is not contained in \[2,1\]"):
        schur_skew(Partition((2, 1)), Partition((2, 2)), A)
    # the determinant has length(lam) rows, so it would drop the extra
    # parts of mu: s_{[1]/[1,1]} read as 1 and s_{[2]/[1,1]} as h_1
    for lam, mu in [((1,), (1, 1)), ((2,), (1, 1)), ((2, 1), (3,))]:
        with pytest.raises(ValueError, match="is not contained in"):
            jacobi_trudi(Partition(lam), Partition(mu), A)


@given(st.data())
def test_skew_branching_over_a_subalphabet_split(data):
    # s_lam(E) = sum over mu of s_mu(F) s_{lam/mu}(K) when E = F + K
    ctx = make_model("surjection", 4, 2)
    lam = data.draw(st.sampled_from(subpartitions(rectangle(2, 3))))
    lhs = schur_s(lam, ctx.E)
    rhs = ctx.ring.zero
    for mu in subpartitions(lam):
        rhs = rhs + schur_s(mu, ctx.F) * schur_skew(lam, mu, ctx.K)
    assert lhs == rhs


def test_skew_of_equal_shapes_is_one():
    ring = Ring([("x", 2)])
    A = Alphabet(ring, ring.block("x"))
    lam = Partition((3, 1))
    assert schur_skew(lam, lam, A) == 1
    assert schur_skew(lam, Partition(()), A) == schur_s(lam, A)


# ---------------------------------------------------------------- Q and P


@pytest.mark.parametrize("n", [2, 3])
def test_schur_q_matches_symmetrizer(n):
    ring = Ring([("x", n)])
    A = Alphabet(ring, ring.block("x"))
    for I in strict_partitions_bounded(4, 3, 8):
        assert schur_q(I, A) == symmetrizer_q(I, ring, n), I


@st.composite
def _q_problems(draw):
    """A strict partition of length 0 to 5 with parts up to 7, and an
    alphabet of 1 to 4 roots, variables or numbers, plain or dual."""
    I = Partition(sorted(draw(st.sets(st.integers(1, 7), max_size=5)), reverse=True))
    nvars = draw(st.integers(0, 4))
    values = draw(st.lists(st.integers(-3, 3), min_size=0 if nvars else 1, max_size=4 - nvars))
    ring = Ring([("x", nvars)])
    return I, Alphabet(ring, ring.block("x"), draw(st.booleans()), tuple(values))


@given(_q_problems())
def test_schur_q_matches_the_recurrence(problem):
    I, A = problem
    assert schur_q(I, A) == recurrence_q(I, A, {})


@st.composite
def _factorizable_q_problems(draw):
    """An alphabet of 0 to 4 roots, variables or numbers, plain or dual,
    and a strict partition of length n - 1, n or n + 1 (n roots) with
    parts up to 7: the lengths around the factorization threshold."""
    nvars = draw(st.integers(0, 4))
    values = draw(st.lists(st.integers(-3, 3), max_size=4 - nvars))
    n = nvars + len(values)
    length = draw(st.sampled_from([l for l in (n - 1, n, n + 1) if l >= 0]))
    parts = draw(st.sets(st.integers(1, 7), min_size=length, max_size=length))
    ring = Ring([("x", nvars)])
    A = Alphabet(ring, ring.block("x"), draw(st.booleans()), tuple(values))
    return Partition(sorted(parts, reverse=True)), A


@given(_factorizable_q_problems())
def test_schur_q_factorization_matches_the_pfaffian(problem):
    I, A = problem
    assert schur_q(I, A) == pfaffian_q(I, A)


def test_schur_q_factors_every_partition_of_length_n_minus_1_or_more(monkeypatch):
    # on three roots, lengths 2 and 3 are read off the factorization and
    # length 4 is zero: none of them builds a Pfaffian
    ring = Ring([("x", 3)])
    A = Alphabet(ring, ring.block("x"))
    shapes = [(2, 1), (5, 2), (3, 2, 1), (6, 3, 1), (4, 3, 2, 1)]
    want = {Partition(parts): pfaffian_q(Partition(parts), A) for parts in shapes}

    def refuse(I, a):
        raise AssertionError(f"Pfaffian built for {I}")

    monkeypatch.setattr(schur, "pfaffian_q", refuse)
    for I, value in want.items():
        assert schur_q(I, A) == value, I
    assert schur_q(Partition((4, 3, 2, 1)), A).is_zero()
    with pytest.raises(AssertionError):
        schur_q(Partition((1,)), A)


def test_schur_q_refuses_a_virtual_alphabet():
    # Q_∅ included: it used to return 1 while every other shape raised
    ring = Ring([("x", 2)])
    V = VirtualAlphabet((Alphabet(ring, ring.block("x")),))
    for parts in [(), (1,), (2, 1), (3, 2, 1)]:
        with pytest.raises(TypeError):
            schur_q(Partition(parts), V)
        with pytest.raises(TypeError):
            pfaffian_q(Partition(parts), V)


def test_schur_q_hand_value():
    # Q_{(2,1)}(x, y) = 4xy(x + y)
    ring = Ring([("x", 2)])
    x, y = ring.variable(0), ring.variable(1)
    assert schur_q(Partition((2, 1)), Alphabet(ring, ring.block("x"))) == (
        x * y * (x + y)
    ).scale(4)


def test_schur_q_rejects_non_strict():
    ring = Ring([("x", 2)])
    A = Alphabet(ring, ring.block("x"))
    with pytest.raises(ValueError):
        schur_q(Partition((2, 2)), A)


def test_schur_q_vanishes_beyond_alphabet_size():
    ring = Ring([("x", 2)])
    A = Alphabet(ring, ring.block("x"))
    assert schur_q(Partition((3, 2, 1)), A).is_zero()


def test_schur_q_duality_sign():
    # Q_I is homogeneous of degree |I|, so the dual alphabet contributes
    # a global sign (-1)^{|I|}
    ring = Ring([("x", 3)])
    A = Alphabet(ring, ring.block("x"))
    for parts in [(1,), (2,), (2, 1), (3, 2)]:
        I = Partition(parts)
        sign = -1 if I.weight % 2 else 1
        assert schur_q(I, A.dual()) == schur_q(I, A).scale(sign)


@given(st.data())
def test_schur_q_stability(data):
    # setting the last variable to zero recovers the smaller alphabet
    I = data.draw(st.sampled_from(strict_partitions_bounded(4, 2, 6)))
    big = Ring([("x", 3)])
    small = Ring([("x", 2)])
    sub = {0: small.variable(0), 1: small.variable(1), 2: small.zero}
    got = apply_substitution(schur_q(I, Alphabet(big, big.block("x"))), sub, small)
    assert got == schur_q(I, Alphabet(small, small.block("x")))


@given(st.data())
def test_schur_p_is_integral_and_symmetric(data):
    I = data.draw(st.sampled_from(strict_partitions_bounded(5, 3, 9)))
    ring = Ring([("x", 3)])
    A = Alphabet(ring, ring.block("x"))
    P = schur_p(I, A)
    assert all(type(c) is int for c in P.terms.values())
    assert is_symmetric(P, ring.block("x"))
    assert schur_q(I, A) == P.scale(2**I.length)


@pytest.mark.parametrize(
    "length,coeffs,halved",
    [(1, (4, 2), (2, 1)), (2, (4, 8), (1, 2)), (2, (4, 2), None)],
)
def test_schur_p_divides_exactly_or_raises(monkeypatch, length, coeffs, halved):
    ring = Ring([("x", 2)])
    A = Alphabet(ring, ring.block("x"))
    x1, x2 = ring.variable(0), ring.variable(1)
    monkeypatch.setattr(schur, "schur_q", lambda I, a: x1.scale(coeffs[0]) + x2.scale(coeffs[1]))
    I = Partition(tuple(range(length, 0, -1)))
    if halved is None:
        with pytest.raises(ArithmeticError):
            schur_p(I, A)
    else:
        P = schur_p(I, A)
        assert P == x1.scale(halved[0]) + x2.scale(halved[1])
        assert all(type(c) is int for c in P.terms.values())


def test_expansion_rejects_a_value_alphabet():
    ring = Ring([("x", 2)])
    A = Alphabet(ring, ring.block("x"))
    with pytest.raises(ValueError):
        expand_schur_basis(ring.one, Alphabet(ring, (), values=(1, 2)))
    with pytest.raises(ValueError):
        expand_schur_pair(ring.variable(0), Alphabet(ring, (0,)), Alphabet(ring, (1,), values=(2,)))
    assert expand_schur_basis(schur_s(Partition((1,)), A), A) == {Partition((1,)): 1}


def test_staircase_q_is_a_product_of_root_sums():
    # Q of the full staircase on n variables factors completely
    for n in (1, 2, 3):
        ring = Ring([("x", n)])
        A = Alphabet(ring, ring.block("x"))
        expected = product(
            ring,
            [
                ring.variable(i) + ring.variable(j)
                for i in range(n)
                for j in range(i, n)
            ],
        )
        assert schur_q(staircase(n), A) == expected
        assert pfaffian_q(staircase(n), A) == expected
        assert schur_q(staircase(n), A) == schur_s(staircase(n), A).scale(2**n)


def test_staircase_p_is_schur_s():
    # P of the staircase (n-1, ..., 1) on n variables equals the S-polynomial
    for n in (2, 3, 4):
        ring = Ring([("x", n)])
        A = Alphabet(ring, ring.block("x"))
        I = staircase(n - 1)
        assert schur_p(I, A) == schur_s(I, A)
        expected = product(
            ring,
            [
                ring.variable(i) + ring.variable(j)
                for i in range(n)
                for j in range(i + 1, n)
            ],
        )
        assert schur_p(I, A) == expected


def test_staircase_plus_partition_factors_on_matching_rank():
    # Q_{rho_k + I} = Q_{rho_k} s_I on an alphabet of k variables, length <= k;
    # one more row makes it vanish
    for k in (1, 2, 3):
        ring = Ring([("x", k)])
        A = Alphabet(ring, ring.block("x"))
        for I in subpartitions(rectangle(k, 2)):
            rhs = schur_q(staircase(k), A) * schur_s(I, A)
            assert schur_q(staircase(k).add(I), A) == rhs, (k, I)
            assert pfaffian_q(staircase(k).add(I), A) == rhs, (k, I)
    ring = Ring([("x", 2)])
    A = Alphabet(ring, ring.block("x"))
    assert schur_q(staircase(2).add(Partition((1, 1, 1))), A).is_zero()
    assert pfaffian_q(staircase(2).add(Partition((1, 1, 1))), A).is_zero()


def test_rectangle_plus_partition_factors_on_difference():
    # s_{(m)^n + I}(A - B) = s_{(m)^n}(A - B) s_I(A) for length(I) <= n
    ring = Ring([("a", 2), ("b", 2)])
    A = Alphabet(ring, ring.block("a"))
    B = Alphabet(ring, ring.block("b"))
    v = difference(A, B)
    R = rectangle(2, 2)
    for parts in [(1,), (2, 1), (2, 2)]:
        I = Partition(parts)
        lhs = jacobi_trudi(R.add(I), Partition(), v)
        assert lhs == jacobi_trudi(R, Partition(), v) * schur_s(I, A), parts


# ---------------------------------------------------------------- Schur sums


def literal_schur_sum(kind, terms, a, d):
    """Reference for schur_sum: a sum of Polys, one scaled product per term."""
    x = {"Q": schur_q, "P": schur_p, "s": schur_s}[kind]
    total = a.ring.zero
    for K, L, c in terms:
        total = total + (x(K, a) * schur_s(L, d)).scale(c)
    return total


@pytest.mark.parametrize("kind", ["Q", "P", "s"])
def test_schur_sum_matches_a_sum_of_polys(kind):
    ctx = make_model("independent", 3, 2)
    a, d = ctx.F, ctx.e_minus_f()
    Ks = strict_partitions_bounded(3, 2)
    Ls = subpartitions(Partition((2, 1)))
    coeffs = (3, -1, 1, -2, 5)
    pairs = [(K, L) for K in Ks for L in Ls]
    terms = [(K, L, coeffs[i % len(coeffs)]) for i, (K, L) in enumerate(pairs)]
    got = schur_sum(kind, terms, a, d)
    assert got == literal_schur_sum(kind, terms, a, d) and not got.is_zero()
    # a term and its negative cancel, and a cancelled key leaves no entry
    K, L, c = terms[-1]
    assert schur_sum(kind, terms[:-1], a, d) == schur_sum(kind, terms + [(K, L, -c)], a, d)
    assert schur_sum(kind, terms + [(K, L, -c) for K, L, c in terms], a, d).terms == {}
    assert schur_sum(kind, [], a, d) == 0


def test_schur_sum_refuses_an_unknown_kind_and_a_non_integer_coefficient(monkeypatch):
    ctx = make_model("independent", 3, 2)
    with pytest.raises(ValueError, match="kind must be"):
        schur_sum("S", [(Partition((1,)), Partition(), 1)], ctx.F, ctx.E)
    # the pair expansion reads the same kind table, so it is not read as P
    bad = ClassExpression("S", ((Partition((1,)), Partition(), 1),))
    monkeypatch.setattr(locus, "class_of", lambda problem: bad)
    with pytest.raises(ValueError, match="kind must be"):
        class_schur_pair_expansion(LocusProblem(3, 2, 1, "sym"))
    with pytest.raises(TypeError, match="coefficients are ints"):
        schur_sum("s", [(Partition((1,)), Partition(), 0.5)], ctx.F, ctx.E)


# ------------------------------------------------- hook factorization and side


@st.composite
def _hook_problems(draw):
    """(lam, P - N) with a = |P| and b = |N| at most 3, not both 0.  Each
    side is split over up to two alphabets, each of variables or of
    values, plain or dual; lam lies on the (a, b)-hook's boundary
    (lam_a = b), just past it (lam_{a+1} > b, where s_lam vanishes) or
    anywhere up to a + 2 rows of b + 2."""
    a = draw(st.integers(0, 3))
    b = draw(st.integers(0 if a else 1, 3))
    sides = []
    for total in (a, b):
        sizes = [total]
        if total >= 2 and draw(st.booleans()):
            first = draw(st.integers(1, total - 1))
            sizes = [first, total - first]
        sides.append([(size, draw(st.booleans()), draw(st.booleans())) for size in sizes if size])
    nvars = sum(size for side in sides for size, as_values, _ in side if not as_values)
    ring = Ring([("x", nvars)])
    free = iter(range(nvars))
    alphabets = []
    for side in sides:
        alphabets.append([])
        for size, as_values, negated in side:
            if as_values:
                values = tuple(draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size)))
                alphabets[-1].append(Alphabet(ring, (), negated, values))
            else:
                alphabets[-1].append(Alphabet(ring, tuple(next(free) for _ in range(size)), negated))
    kind = draw(st.sampled_from(["boundary", "vanishing", "free"] if a else ["vanishing", "free"]))
    if kind == "boundary":
        head = [b + x for x in draw(st.lists(st.integers(0, 2), min_size=a - 1, max_size=a - 1))] + [b]
        tail = draw(st.lists(st.integers(0, b), max_size=2))
    elif kind == "vanishing":
        head = [b + 1 + x for x in draw(st.lists(st.integers(0, 1), min_size=a + 1, max_size=a + 1))]
        tail = []
    else:
        head, tail = draw(st.lists(st.integers(0, b + 2), max_size=a + 2)), []
    lam = Partition(sorted(head, reverse=True) + sorted(tail, reverse=True))
    return lam, VirtualAlphabet(tuple(alphabets[0]), tuple(alphabets[1]))


@given(_hook_problems())
def test_hook_factorization_matches_the_determinant(problem):
    lam, v = problem
    assert schur_s(lam, v) == jacobi_trudi(lam, Partition(), v)


def _conjugate_jacobi_trudi(lam, mu, v):
    """s_{lam/mu}(v) as the determinant of the conjugate shape over -V^∨:
    the other side of the dual Jacobi-Trudi identity from jacobi_trudi."""
    d = (v if isinstance(v, VirtualAlphabet) else VirtualAlphabet((v,))).dual()
    return jacobi_trudi(lam.conjugate(), mu.conjugate(), VirtualAlphabet(d.neg, d.pos))


def _one_sided_alphabets():
    """Alphabets of 1 to 5 roots, plain and negated, each on the positive
    and on the negative side: variables up to 4 roots, values on 5 (the
    oracle's determinant over the complete series of 5 variables is slow),
    and one alphabet split over variables, a negated variable and a
    value."""
    for n in range(1, 6):
        ring = Ring([("x", n if n < 5 else 0)])
        for negated in (False, True):
            if n < 5:
                A = Alphabet(ring, ring.block("x"), negated)
            else:
                A = Alphabet(ring, (), negated, (3, -1, 2, 1, -2))
            yield n, VirtualAlphabet((A,))
            yield n, VirtualAlphabet((), (A,))
    ring = Ring([("x", 3)])
    split = (Alphabet(ring, (0, 1)), Alphabet(ring, (2,), True), Alphabet(ring, (), False, (2,)))
    yield 4, VirtualAlphabet(split)
    yield 4, VirtualAlphabet((), split)


def test_one_sided_schur_s_matches_the_complete_series_determinant():
    # every shape on n roots with parts <= 5, or <= 4 for negative roots:
    # schur_s builds a one-sided alphabet on its elementary series, the
    # oracle on its complete series (the shape as it stands for positive
    # roots, the conjugate over -V^∨, with up to 5 rows, for negative ones)
    for n, v in _one_sided_alphabets():
        oracle = _conjugate_jacobi_trudi if v.neg else jacobi_trudi
        for lam in rectangle_partitions(n, 4 if v.neg else 5):
            assert schur_s(lam, v) == oracle(lam, Partition(), v), (n, lam)


def test_one_sided_alphabets_build_on_the_elementary_series(monkeypatch):
    # every determinant of a one-sided alphabet, of variables or of
    # values, is over a series with no positive side: -A^∨ for the roots
    # of A, -F itself
    built = []
    build = schur.jacobi_trudi

    def recording(lam, mu, v):
        built.append(v)
        return build(lam, mu, v)

    monkeypatch.setattr(schur, "jacobi_trudi", recording)
    ring = Ring([("x", 4)])
    F = Alphabet(ring, ring.block("x"))
    C = Alphabet(Ring([]), (), False, (3, -1, 2, 1))
    box = rectangle_partitions(4, 5)
    for A in (F, F.dual(), VirtualAlphabet((), (F,)), C, VirtualAlphabet((), (C,))):
        for lam in box:
            schur_s(lam, A)
    for lam in box:
        for mu in subpartitions(lam):
            schur_skew(lam, mu, VirtualAlphabet((), (F,)))
    assert built and all(not v.pos for v in built)


def test_staircase_six_on_six_roots_expands_to_itself_quickly():
    # s_{(6,...,1)}(F) took about two minutes as a 6 x 6 determinant over
    # the complete series; straightening is an independent route back to
    # the shape
    ctx = make_model("surjection", 8, 6)
    t0 = time.perf_counter()
    assert expand_schur_basis(schur_s(staircase(6), ctx.F), ctx.F) == {staircase(6): 1}
    assert time.perf_counter() - t0 < 2.0


@given(st.data())
def test_schur_skew_matches_the_determinant_on_either_side(data):
    # on a two-sided alphabet tall shapes are built on the conjugate side
    # and wide ones as they stand; a one-sided one takes its elementary
    # series.  Both determinants are checked, so one of them is always
    # a route other than the one taken.
    lam = data.draw(st.sampled_from(subpartitions(rectangle(4, 2)) + subpartitions(rectangle(2, 4))))
    mu = data.draw(st.sampled_from(subpartitions(lam)))
    ring = Ring([("a", 2), ("b", 2)])
    A = Alphabet(ring, ring.block("a"), data.draw(st.booleans()))
    B = Alphabet(ring, ring.block("b"), data.draw(st.booleans()))
    C = Alphabet(ring, (), data.draw(st.booleans()), (2, -1))
    v = data.draw(st.sampled_from([A, difference(A, B), difference(C, A), VirtualAlphabet((), (B,))]))
    assert schur_skew(lam, mu, v) == jacobi_trudi(lam, mu, v) == _conjugate_jacobi_trudi(lam, mu, v)


def test_jacobi_trudi_reads_the_series_once(monkeypatch):
    calls = []
    series = schur.complete_series

    def counting(v, upto):
        calls.append(upto)
        return series(v, upto)

    monkeypatch.setattr(schur, "complete_series", counting)
    ring = Ring([("x", 3)])
    A = Alphabet(ring, ring.block("x"))
    lam, mu = Partition((3, 2, 2)), Partition((1,))
    jacobi_trudi(lam, mu, A)
    assert calls == [lam.part(1) + lam.length - 1]


# ---------------------------------------------------------------- expansions


@given(st.data())
def test_expand_schur_basis_round_trip(data):
    ring = Ring([("x", 3)])
    A = Alphabet(ring, ring.block("x"))
    shapes = subpartitions(rectangle(3, 2))
    coeffs = data.draw(
        st.dictionaries(
            st.sampled_from(shapes), st.integers(min_value=-4, max_value=4), max_size=4
        )
    )
    P = ring.zero
    for I, c in coeffs.items():
        P = P + schur_s(I, A).scale(c)
    got = expand_schur_basis(P, A)
    assert got == {I: c for I, c in coeffs.items() if c}


def test_expand_schur_basis_rejects_asymmetric_input():
    ring = Ring([("x", 2)])
    A = Alphabet(ring, ring.block("x"))
    x1, x2 = ring.variable(0), ring.variable(1)
    with pytest.raises(ValueError):
        expand_schur_basis(x1, A)
    # leading monomials that are partitions: only the symmetry check
    # tells these apart from s_[2], s_[2,1] + s_[1,1] and s_[2] + s_[1,1]
    for P in (x1**2, x1**2 * x2 + x1 * x2, x1 * x1 + x1 * x2):
        with pytest.raises(ValueError):
            expand_schur_basis(P, A)
        with pytest.raises(ValueError):
            expand_schur_basis(P, A.dual())
    pair = Ring([("a", 2), ("b", 2)])
    A = Alphabet(pair, pair.block("a"))
    B = Alphabet(pair, pair.block("b"))
    # symmetric in A, not in B
    P = schur_s(Partition((2, 1)), A) * pair.variable(2) ** 2
    with pytest.raises(ValueError):
        expand_schur_pair(P, A, B)
    with pytest.raises(ValueError):
        expand_schur_pair(P, B, A)


def test_expand_schur_basis_rejects_foreign_variables():
    ring = Ring([("x", 2), ("y", 1)])
    A = Alphabet(ring, ring.block("x"))
    with pytest.raises(ValueError):
        expand_schur_basis(ring.variable(2), A)
    # alphabets of another ring: read off its positions, F and E would
    # trade places
    ring = Ring([("f", 2), ("e", 2)])
    F, E = Alphabet(ring, ring.block("f")), Alphabet(ring, ring.block("e"))
    P = schur_s(Partition((2,)), F) * schur_s(Partition((1,)), E)
    other = Ring([("e", 2), ("f", 2)])
    F2, E2 = Alphabet(other, other.block("f")), Alphabet(other, other.block("e"))
    with pytest.raises(ValueError, match="ring of the polynomial"):
        expand_schur_pair(P, F2, E2)
    assert expand_schur_pair(P, F, E).render() == "1 * s[2](F) * s[1](E)"
    # the same layout is not the same ring
    with pytest.raises(ValueError, match="ring of the polynomial"):
        expand_schur_basis(schur_s(Partition((2,)), F), Alphabet(Ring([("f", 2)]), (0, 1)))


@given(st.data())
def test_expand_schur_pair_round_trip(data):
    ring = Ring([("a", 2), ("b", 2)])
    A = Alphabet(ring, ring.block("a"))
    B = Alphabet(ring, ring.block("b"))
    shapes = subpartitions(rectangle(2, 2))
    coeffs = data.draw(
        st.dictionaries(
            st.tuples(st.sampled_from(shapes), st.sampled_from(shapes)),
            st.integers(min_value=-3, max_value=3),
            max_size=4,
        )
    )
    P = ring.zero
    for (I, J), c in coeffs.items():
        P = P + (schur_s(I, A) * schur_s(J, B)).scale(c)
    got = expand_schur_pair(P, A, B)
    assert got == SchurPairExpansion(coeffs)
    assert got.to_poly(A, B) == P


def test_expansions_on_dual_alphabets():
    # s_lam(A*) = (-1)^|lam| s_lam(A); the S-basis of A* must read back
    # every integer combination of its own elements, odd weights included
    ring = Ring([("x", 3)])
    A = Alphabet(ring, ring.block("x"))
    D = A.dual()
    assert expand_schur_basis(schur_s(Partition((1,)), D), D) == {Partition((1,)): 1}
    for w in range(1, 5):
        shapes = [I for I in subpartitions(rectangle(3, w)) if I.weight == w]
        coeffs = {I: (-1) ** k * (k + 2) for k, I in enumerate(shapes)}
        P = ring.zero
        for I, c in coeffs.items():
            P = P + schur_s(I, D).scale(c)
        assert expand_schur_basis(P, D) == coeffs, w
        assert expand_schur_basis(P, A) == {
            I: c * (-1) ** w for I, c in coeffs.items()
        }, w
    pair = Ring([("a", 2), ("b", 2)])
    A = Alphabet(pair, pair.block("a"))
    B = Alphabet(pair, pair.block("b"))
    coeffs = {
        (Partition((1,)), Partition((2, 1))): 3,
        (Partition((2, 1)), Partition(())): -2,
        (Partition((1, 1)), Partition((1,))): 5,
        (Partition(()), Partition((1,))): 1,
    }
    P = pair.zero
    for (I, J), c in coeffs.items():
        P = P + (schur_s(I, A.dual()) * schur_s(J, B)).scale(c)
    got = expand_schur_pair(P, A.dual(), B)
    assert got == SchurPairExpansion(coeffs)
    assert got.to_poly(A.dual(), B) == P


def test_expansions_match_greedy_reference_on_small_loci():
    problems = [
        LocusProblem(e, f, r, sym)
        for e in range(1, 6)
        for f in range(1, e + 1)
        for r in range(f + 1)
        for sym in ("sym", "skew")
        if not (sym == "skew" and e == f and r % 2)
    ]
    assert len(problems) == 91
    for prob in problems:
        ctx = make_model("independent", prob.e, prob.f)
        P = expression_to_poly(class_of(prob), ctx)
        want = SchurPairExpansion(greedy_expand(P, (ctx.F, ctx.E)))
        assert expand_schur_pair(P, ctx.F, ctx.E) == want, prob
        assert class_schur_pair_expansion(prob) == want, prob


def test_pair_expansion_render():
    e = SchurPairExpansion(
        {
            (Partition((2,)), Partition(())): 4,
            (Partition((1,)), Partition((1,))): -4,
            (Partition(()), Partition(())): 1,
        }
    )
    assert e.render() == "4 * s[2](F)\n-4 * s[1](F) * s[1](E)\n1"


def test_difference_split_reassembles():
    # sum_mu s_mu(A) * piece_mu(B) must equal s_L(A - B)
    ring = Ring([("a", 2), ("b", 2)])
    A = Alphabet(ring, ring.block("a"))
    B = Alphabet(ring, ring.block("b"))
    for parts in [(1,), (2,), (2, 1), (2, 2), (3, 1)]:
        L = Partition(parts)
        total = ring.zero
        for mu, piece in schur_difference_split(L, B, max_a_length=2):
            total = total + schur_s(mu, A) * piece
        assert total == jacobi_trudi(L, Partition(), difference(A, B)), parts


def test_difference_split_respects_length_cutoff():
    ring = Ring([("b", 2)])
    B = Alphabet(ring, ring.block("b"))
    for mu, _ in schur_difference_split(Partition((2, 2, 1)), B, max_a_length=1):
        assert mu.length <= 1
