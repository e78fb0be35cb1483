import pytest
from hypothesis import given, strategies as st

from qlocus import schur
from qlocus.alphabets import Alphabet, difference, make_model, pair_sum_product, tensor_sum_product
from qlocus.chern import (
    ctop_product_oracle,
    ctop_sym2,
    ctop_tensor,
    ctop_vee,
    ctop_vee_skew,
    ctop_wedge,
    ctop_wedge2,
    ctop_wedge_skew,
    skew_schur_sum,
)
from qlocus.locus import LocusProblem, class_of, expression_to_poly
from qlocus.partitions import Partition, subpartitions
from qlocus.polyring import Ring, product
from qlocus.schur import jacobi_trudi
from qlocus.verify import FlagModel


def literal_skew_schur_sum(T, a, d):
    """Reference for skew_schur_sum: the sum over J ⊂ T of
    s_{T/J}(a) * s_{J̃}(d), two Jacobi-Trudi determinants per J."""
    total = a.ring.zero
    for J in subpartitions(T):
        total = total + jacobi_trudi(T, J, a) * jacobi_trudi(J.conjugate(), Partition(), d)
    return total


def _skew_shapes(top: int, bottom: int) -> Partition:
    """The staircase-like shape (top, top - 1, ..., bottom)."""
    return Partition(tuple(range(top, bottom - 1, -1)))


def test_tensor_top_class_is_the_product_of_root_sums():
    for e, f in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        ring = Ring([("a", e), ("b", f)])
        A = Alphabet(ring, ring.block("a"))
        B = Alphabet(ring, ring.block("b"))
        assert ctop_tensor(A, B) == tensor_sum_product(A, B), (e, f)


def test_tensor_top_class_with_dual_factor():
    # c_top(A ⊗ B*) multiplies out the differences instead
    ring = Ring([("a", 2), ("b", 2)])
    A = Alphabet(ring, ring.block("a"))
    B = Alphabet(ring, ring.block("b"))
    expected = product(
        ring,
        (x - y for x in A.roots() for y in B.roots()),
    )
    assert ctop_tensor(A, B.dual()) == expected


@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_square_top_classes_factor(e):
    ring = Ring([("a", e)])
    A = Alphabet(ring, ring.block("a"))
    assert ctop_sym2(A) == pair_sum_product(A, strict=False)
    assert ctop_wedge2(A) == pair_sum_product(A, strict=True)


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 6])
def test_top_classes_are_the_classes_of_d0(e):
    # c_top(E v F) = [D_0] of a symmetric map, c_top(E ^ F) of a skew one
    for f in range(1, e + 1):
        ctx = make_model("surjection", e, f)
        assert ctop_vee(ctx) == expression_to_poly(class_of(LocusProblem(e, f, 0, "sym")), ctx)
        assert ctop_wedge(ctx) == expression_to_poly(class_of(LocusProblem(e, f, 0, "skew")), ctx)


@pytest.mark.parametrize("f,n", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1)])
def test_vee_class_three_ways(f, n):
    ctx = make_model("surjection", f + n, f)
    closed = ctop_vee(ctx)
    assert closed == ctop_product_oracle(ctx, "vee")
    assert closed == ctop_vee_skew(ctx)


@pytest.mark.parametrize("f,n", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1)])
def test_wedge_class_three_ways(f, n):
    ctx = make_model("surjection", f + n, f)
    closed = ctop_wedge(ctx)
    assert closed == ctop_product_oracle(ctx, "wedge")
    assert closed == ctop_wedge_skew(ctx)


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.sampled_from(["vee", "wedge"]),
)
def test_split_classes_have_the_right_degree(f, n, kind):
    # ranks: f(f+1)/2 + fn for vee, f(f-1)/2 + fn for wedge
    ctx = make_model("surjection", f + n, f)
    P = ctop_vee(ctx) if kind == "vee" else ctop_wedge(ctx)
    pairs = f * (f + 1) // 2 if kind == "vee" else f * (f - 1) // 2
    assert P.total_degree() == pairs + f * n


def test_product_oracle_needs_the_surjection_model():
    ctx = make_model("independent", 3, 2)
    with pytest.raises(ValueError):
        ctop_product_oracle(ctx, "wedge")


def test_closed_forms_work_on_the_independent_model():
    # the closed forms make sense for unrelated E and F; specializing the
    # independent model to a surjection must recover the split answer
    from qlocus.polyring import apply_substitution

    ind = make_model("independent", 3, 2)
    sur = make_model("surjection", 3, 2)
    mapping = {}
    for i, j in zip(ind.ring.block("f"), sur.ring.block("f")):
        mapping[i] = sur.ring.variable(j)
    for i, j in zip(ind.ring.block("e"), sur.ring.block("f") + sur.ring.block("k")):
        mapping[i] = sur.ring.variable(j)
    for fn_ind, fn_sur in [(ctop_vee, ctop_vee), (ctop_wedge, ctop_wedge)]:
        got = apply_substitution(fn_ind(ind), mapping, sur.ring)
        assert got == fn_sur(sur)


def test_product_oracle_rejects_unknown_kind():
    ctx = make_model("surjection", 3, 2)
    with pytest.raises(ValueError):
        ctop_product_oracle(ctx, "cup")


@pytest.mark.parametrize("kind,skewform", [("vee", ctop_vee_skew), ("wedge", ctop_wedge_skew)])
def test_skew_route_builds_no_determinant_over_the_virtual_alphabet(monkeypatch, kind, skewform):
    # at (7,4) s_T(F - K^∨) factors as prod (f_i + k_j) * s_{rho}(F), so
    # the only determinants are those of s_{rho}(F), each over a
    # one-sided alphabet: none over the two-sided F - K^∨
    built = []
    build = schur.jacobi_trudi

    def recording(lam, mu, v):
        if lam.length:  # the empty shape is 1 without a determinant
            built.append(v)
        return build(lam, mu, v)

    monkeypatch.setattr(schur, "jacobi_trudi", recording)
    ctx = make_model("surjection", 7, 4)
    assert skewform(ctx) == ctop_product_oracle(ctx, kind)
    assert built and all(not (v.pos and v.neg) for v in built)


def _assert_skew_route_is_the_literal_sum(ctx, f, n):
    e = f + n
    d = ctx.e_minus_f()  # the kernel K, or the virtual E - F
    for T in (_skew_shapes(e, n + 1), _skew_shapes(e - 1, n)):
        assert skew_schur_sum(T, ctx.F, d) == literal_skew_schur_sum(T, ctx.F, d), T


# Criterion-3 shapes T = (e, ..., n+1) for vee and (e-1, ..., n) for wedge,
# as far as the literal sum stays cheap: on the independent model it
# multiplies out s_J(E - F) in e + f variables.
@pytest.mark.parametrize("f,n", [(f, n) for f in range(1, 5) for n in range(0, 4) if f + n <= 5])
def test_skew_schur_sum_matches_the_literal_sum_on_the_surjection_model(f, n):
    _assert_skew_route_is_the_literal_sum(make_model("surjection", f + n, f), f, n)


@pytest.mark.parametrize("f,n", [(f, n) for f in range(1, 4) for n in range(0, 4) if f + n <= 4])
def test_skew_schur_sum_matches_the_literal_sum_on_the_independent_model(f, n):
    _assert_skew_route_is_the_literal_sum(make_model("independent", f + n, f), f, n)


# The middle members of the push-forward identities of criterion 5, on (S*, R* - S*).
_FLAG_CASES = [(f, p, n) for f in range(1, 5) for p in range(0, min(1, (f - 1) // 2) + 1) for n in range(0, 2)]


@pytest.mark.parametrize("f,p,n", _FLAG_CASES + [(5, 2, 0)])
def test_skew_schur_sum_matches_the_literal_sum_on_the_flag_model(f, p, n):
    e = f + n
    model = FlagModel(f, p, n)
    s_dual, rs_diff = model.s_dual, model.rs_diff
    for T in (_skew_shapes(e - p, n + 1), _skew_shapes(e - p - 1, n)):
        assert skew_schur_sum(T, s_dual, rs_diff) == literal_skew_schur_sum(T, s_dual, rs_diff), T


@st.composite
def _skew_problems(draw):
    """T with at most three parts of at most 5; a plain or dual alphabet
    of at most three roots; d plain, dual or virtual, at most three roots."""
    T = Partition(sorted(draw(st.lists(st.integers(0, 5), max_size=3)), reverse=True))
    virtual = draw(st.booleans())
    npos = draw(st.integers(1, 2 if virtual else 3))
    nneg = draw(st.integers(1, 3 - npos)) if virtual else 0
    ring = Ring([("a", draw(st.integers(1, 3))), ("b", npos), ("c", nneg)])
    negated = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    a, b, c = (Alphabet(ring, ring.block(name), neg) for name, neg in zip("abc", negated))
    return T, a, difference(b, c) if virtual else b


@given(_skew_problems())
def test_skew_schur_sum_matches_the_literal_sum(problem):
    T, a, d = problem
    assert skew_schur_sum(T, a, d) == literal_skew_schur_sum(T, a, d)
