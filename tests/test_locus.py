import pytest
from hypothesis import assume, given, strategies as st

from qlocus import locus, polyring
from qlocus.alphabets import difference, make_model
from qlocus.locus import (
    ClassExpression,
    LocusProblem,
    class_of,
    class_schur_pair_expansion,
    class_via_pushforward,
    expected_codim,
    expression_to_poly,
    projective_degree,
)
from qlocus.partitions import Partition, staircase
from qlocus.polyring import Ring, apply_substitution, is_symmetric
from qlocus.schur import expand_schur_pair, schur_s
from qlocus.verify import FlagModel, IdentityCheck, class_via_mnemonic, identity_via_product, verify_identity


problems = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.sampled_from(["sym", "skew"]),
).filter(
    lambda t: t[0] >= t[1] >= 1
    and t[2] <= t[1]
    and not (t[3] == "skew" and t[0] == t[1] and t[2] % 2)
)

# every valid (e, f, r, symmetry) with e <= 5
small_shapes = [
    (e, f, r, sym)
    for e in range(1, 6)
    for f in range(1, e + 1)
    for r in range(f + 1)
    for sym in ("sym", "skew")
    if not (sym == "skew" and e == f and r % 2)
]


def generic_degree(e_twists, f_twists, r, symmetry):
    """Oracle for projective_degree: the generic class in the independent
    model, each root replaced by twist * h, and the coefficient of
    h^codim, which must be the whole value."""
    problem = LocusProblem(len(e_twists), len(f_twists), r, symmetry)
    codim = expected_codim(problem)
    ctx = make_model("independent", problem.e, problem.f)
    P = expression_to_poly(class_of(problem), ctx)
    hring = Ring([("h", 1)])
    h = hring.variable(0)
    mapping = {v: h.scale(t) for v, t in zip(ctx.ring.block("f"), f_twists)}
    mapping.update({v: h.scale(t) for v, t in zip(ctx.ring.block("e"), e_twists)})
    value = apply_substitution(P, mapping, hring)
    degree = value.terms.get(hring.pack((codim,)), 0)
    assert value == h**codim * degree
    return codim, degree


def test_problem_validation():
    with pytest.raises(ValueError):
        LocusProblem(3, 2, 1, "hermitian")
    with pytest.raises(ValueError):
        LocusProblem(2, 3, 1, "sym")
    with pytest.raises(ValueError):
        LocusProblem(3, 2, 3, "sym")
    with pytest.raises(ValueError):
        LocusProblem(3, 3, 1, "skew")
    # a float rank once gave expected_codim 2.0, or failed deep in class_of
    for ranks in [(4.5, 3, 2), (4.0, 3, 2), (4, 3.0, 2), (4, 3, 2.0), (4, 3, True)]:
        with pytest.raises(ValueError, match="ranks must be integers"):
            LocusProblem(*ranks, "sym")


def test_problem_derived_ranks():
    prob = LocusProblem(5, 3, 1, "sym")
    assert prob.n == 2
    assert prob.q == 2


def test_expected_codim_values():
    assert expected_codim(LocusProblem(4, 3, 2, "sym")) == 2
    assert expected_codim(LocusProblem(4, 3, 2, "skew")) == 1
    assert expected_codim(LocusProblem(8, 4, 2, "sym")) == 11
    assert expected_codim(LocusProblem(3, 3, 0, "sym")) == 6
    assert expected_codim(LocusProblem(3, 3, 0, "skew")) == 3
    assert expected_codim(LocusProblem(3, 3, 3, "sym")) == 0


def test_worked_example_renders():
    worked = {
        (4, 3, 2, "sym"): "Q[2](F) + Q[1](F)*s[1](E-F)",
        (5, 3, 2, "sym"): "Q[3](F) + Q[2](F)*s[1](E-F) + Q[1](F)*s[1,1](E-F)",
        (4, 3, 2, "skew"): "P[1](F) + s[1](E-F)",
        (5, 3, 2, "skew"): "P[2](F) + P[1](F)*s[1](E-F) + s[1,1](E-F)",
        (5, 4, 2, "skew"): "P[2,1](F) + P[2](F)*s[1](E-F) + P[1](F)*s[2](E-F)",
        (4, 2, 1, "skew"): "P[2](F) + P[1](F)*s[1](E-F)",
    }
    for (e, f, r, sym), want in worked.items():
        assert str(class_of(LocusProblem(e, f, r, sym))) == want, (e, f, r, sym)


def test_full_rank_class_is_one():
    assert str(class_of(LocusProblem(3, 2, 2, "sym"))) == "1"
    assert str(class_of(LocusProblem(3, 2, 2, "skew"))) == "1"


@given(problems)
def test_class_terms_are_well_formed(t):
    e, f, r, sym = t
    prob = LocusProblem(e, f, r, sym)
    expr = class_of(prob)
    codim = expected_codim(prob)
    assert expr.kind == ("Q" if sym == "sym" else "P")
    assert expr.terms  # never empty: the q = 0 class is the single term 1
    for K, L, c in expr.terms:
        assert c == 1
        assert K.is_strict()
        assert K.weight + L.weight == codim


@given(problems)
def test_mnemonic_agrees_where_defined(t):
    e, f, r, sym = t
    prob = LocusProblem(e, f, r, sym)
    if sym == "skew" and r % 2:
        with pytest.raises(ValueError):
            class_via_mnemonic(prob)
        return
    assert class_via_mnemonic(prob) == class_of(prob)


@given(problems)
def test_evaluated_class_is_symmetric_of_pure_degree(t):
    e, f, r, sym = t
    prob = LocusProblem(e, f, r, sym)
    ctx = make_model("surjection", e, f)
    P = expression_to_poly(class_of(prob), ctx)
    codim = expected_codim(prob)
    assert not P.is_zero()
    assert P.total_degree() == codim
    assert P == P.total_degree_component(codim)
    assert is_symmetric(P, ctx.ring.block("f"))
    assert is_symmetric(P, ctx.ring.block("k"))


@pytest.mark.parametrize(
    "e,f,r,sym",
    [(3, 2, 1, "sym"), (4, 3, 2, "sym"), (4, 3, 2, "skew"), (4, 2, 1, "skew")],
)
def test_class_agrees_with_pushforward_derivation(e, f, r, sym):
    prob = LocusProblem(e, f, r, sym)
    ctx = make_model("surjection", e, f)
    assert expression_to_poly(class_of(prob), ctx) == class_via_pushforward(prob, ctx)


def test_pushforward_derivation_validates_context():
    prob = LocusProblem(4, 3, 2, "sym")
    with pytest.raises(ValueError):
        class_via_pushforward(prob, make_model("independent", 4, 3))
    with pytest.raises(ValueError):
        class_via_pushforward(prob, make_model("surjection", 5, 3))


def test_empty_expression_renders_zero():
    assert str(ClassExpression("Q", ())) == "0"


def test_class_terms_come_out_strictly_decreasing():
    # class_of emits the terms of staircase_terms as they come, with no
    # merge or sort, so distinct K in decreasing order is what keeps the
    # rendered and structured forms canonical
    problems = [
        LocusProblem(e, f, r, sym)
        for e in range(1, 10)
        for f in range(1, e + 1)
        for r in range(f + 1)
        for sym in ("sym", "skew")
        if not (sym == "skew" and e == f and r % 2)
    ]
    assert len(problems) == 395
    for prob in problems:
        keys = [(K.parts, L.parts) for K, L, _ in class_of(prob).terms]
        assert all(a > b for a, b in zip(keys, keys[1:])), prob


def test_structured_form():
    prob = LocusProblem(4, 3, 2, "sym")
    got = class_of(prob).to_structured()
    assert got == {
        "kind": "Q",
        "terms": [
            {"K": [2], "L": [], "coeff": 1},
            {"K": [1], "L": [1], "coeff": 1},
        ],
    }


@pytest.mark.parametrize(
    "e,f,r,sym", [(4, 3, 2, "sym"), (4, 3, 2, "skew"), (4, 2, 1, "skew")]
)
def test_pair_expansion_matches_literal_greedy(e, f, r, sym):
    prob = LocusProblem(e, f, r, sym)
    ctx = make_model("independent", e, f)
    fast = class_schur_pair_expansion(prob)
    literal = expand_schur_pair(expression_to_poly(class_of(prob), ctx), ctx.F, ctx.E)
    assert fast == literal


def test_porteous_specialization():
    # r = f - 1 in the symmetric case is the classical determinantal class
    for e, f in [(2, 2), (3, 2), (4, 3)]:
        ctx = make_model("surjection", e, f)
        got = expression_to_poly(class_of(LocusProblem(e, f, f - 1, "sym")), ctx)
        want = schur_s(Partition((e - f + 1,)), difference(ctx.F, ctx.E.dual()))
        assert got == want, (e, f)


def test_pfaffian_specialization():
    # skew, n = 1, even r: the class collapses onto the bigger bundle
    ctx = make_model("surjection", 3, 2)
    got = expression_to_poly(class_of(LocusProblem(3, 2, 0, "skew")), ctx)
    assert got == schur_s(staircase(2), ctx.E)


def test_projective_degree_table():
    assert projective_degree((1, 1, 1, 1), (1, 1, 1), 2, "skew") == (1, 4)
    assert projective_degree((1, 1, 1, 1, 1), (1, 1, 1), 2, "skew") == (2, 16)
    assert projective_degree((1, 1, 1), (1, 1), 1, "skew") == (1, 2)
    assert projective_degree((1, 1, 1, 1), (1, 1), 1, "skew") == (2, 8)


# the degree requests of the benchmark's query pool and of ``verify``
QUERY_DEGREES = [
    ((1, 1, 1, 1), (1, 1, 1), 2, "skew"),
    ((1, 1, 1, 1, 1), (1, 1, 1), 2, "skew"),
    ((1, 1, 1, 1, 1, 1), (1, 1, 1, 1), 2, "skew"),
    ((1, 1, 1, 1, 1, 1), (1, 1, 1), 1, "skew"),
    ((2, 1, 1, 1, 1), (1, 1, 1), 1, "sym"),
    ((1, 2, 3, 1, 2), (2, 1, 1), 2, "sym"),
    ((1, 2, 1, 2, 1, 1), (1, 1, 2, 1), 2, "sym"),
]
VERIFY_DEGREES = [
    ((1, 1, 1, 1), (1, 1, 1), 2, "skew"),
    ((1, 1, 1, 1, 1), (1, 1, 1), 2, "skew"),
    ((1, 1, 1), (1, 1), 1, "skew"),
    ((1, 1, 1, 1), (1, 1), 1, "skew"),
]


@pytest.mark.parametrize("et,ft,r,sym", QUERY_DEGREES + VERIFY_DEGREES)
def test_projective_degree_agrees_with_the_generic_class(et, ft, r, sym):
    assert projective_degree(et, ft, r, sym) == generic_degree(et, ft, r, sym)


@given(st.data())
def test_projective_degree_sweep_agrees_with_the_generic_class(data):
    e, f, r, sym = data.draw(st.sampled_from(small_shapes))
    twists = st.integers(min_value=-2, max_value=3)
    et = data.draw(st.lists(twists, min_size=e, max_size=e))
    ft = data.draw(st.lists(twists, min_size=f, max_size=f))
    assert projective_degree(et, ft, r, sym) == generic_degree(et, ft, r, sym)


@pytest.mark.parametrize(
    "e,f,sym", [(3, 2, "sym"), (4, 4, "skew"), (11, 10, "sym"), (13, 12, "skew")]
)
@pytest.mark.parametrize("t", [-2, 0, 1, 3])
def test_projective_degree_of_the_zero_locus(e, f, sym, t):
    # D_0 is the zero locus of E v F (sym) or E ^ F (skew); with every
    # twist t each of its roots is 2t h, so the degree is (2t)^codim,
    # past the packed exponent bound of 63 in the larger cases
    codim = expected_codim(LocusProblem(e, f, 0, sym))
    assert projective_degree((t,) * e, (t,) * f, 0, sym) == (codim, (2 * t) ** codim)


def test_projective_degree_past_the_generic_route():
    assert projective_degree((1,) * 11, (1,) * 10, 0, "sym") == (65, 2**65)
    assert projective_degree((1,) * 13, (1,) * 12, 0, "skew") == (78, 2**78)
    assert projective_degree((1,) * 7, (1,) * 4, 1, "sym") == (15, 1376256)


def test_projective_degree_builds_no_ring_with_variables(monkeypatch):
    sizes = []
    init = polyring.Ring.__init__

    def recording(self, blocks):
        init(self, blocks)
        sizes.append(self.nvars)

    monkeypatch.setattr(polyring.Ring, "__init__", recording)
    projective_degree((1, 2, 3, 1, 2), (2, 1, 1), 2, "sym")
    assert sizes == [0]


@pytest.mark.parametrize("e_twists,f_twists", [((1.5, 1, 1, 1), (1, 1, 1)), ((1, 1, 1, 1), (1, 1, 0.5))])
def test_projective_degree_rejects_non_integer_twists(e_twists, f_twists):
    with pytest.raises(ValueError):
        projective_degree(e_twists, f_twists, 2, "skew")


def test_projective_degree_rejects_an_inhomogeneous_class(monkeypatch):
    # the weight-1 term does not belong in a class of codimension 2
    bad = ClassExpression(
        "Q", ((Partition((2,)), Partition(()), 1), (Partition((1,)), Partition(()), 1))
    )
    monkeypatch.setattr(locus, "class_of", lambda problem: bad)
    with pytest.raises(ArithmeticError):
        projective_degree((1, 1, 1, 1), (1, 1, 1), 2, "sym")


def test_projective_degree_with_mixed_twists():
    # P[1](F) + s[1](E-F) collapses to the root sum of E, so the degree
    # is just the total twist of E
    codim, degree = projective_degree((2, 1, 1, 1), (1, 1, 1), 2, "skew")
    assert codim == 1
    assert degree == 2 + 1 + 1 + 1


@pytest.mark.parametrize("f,p,n", [(1, 0, 0), (1, 0, 1), (2, 0, 1), (3, 1, 0), (3, 1, 1)])
def test_identity_members_sym(f, p, n):
    chk = verify_identity("sym", FlagModel(f, p, n))
    assert chk.ok, (f, p, n)


@pytest.mark.parametrize("f,p,n", [(1, 0, 0), (1, 0, 1), (2, 0, 1), (3, 1, 0), (3, 1, 1)])
def test_identity_members_skew(f, p, n):
    chk = verify_identity("skew", FlagModel(f, p, n))
    assert chk.ok, (f, p, n)


def test_identity_cross_check_via_product_of_grassmannians():
    model = FlagModel(3, 1, 1)
    for kind in ("sym", "skew"):
        chk = verify_identity(kind, model)
        assert chk.ok, kind
        assert identity_via_product(kind, model) == chk.rhs, kind


def test_a_shared_flag_model_gives_the_fresh_results():
    # both kinds on one flag model, as the identities suite runs them,
    # against a fresh model per kind
    for f, p, n in [(1, 0, 1), (2, 0, 1), (3, 1, 0), (3, 1, 1), (4, 1, 1)]:
        shared = FlagModel(f, p, n)
        for kind in ("sym", "skew"):
            got = verify_identity(kind, shared)
            fresh = verify_identity(kind, FlagModel(f, p, n))
            assert got.ok and fresh.ok, (kind, f, p, n)
            for member in ("lhs", "middle", "rhs"):
                assert getattr(got, member).terms == getattr(fresh, member).terms, (kind, f, p, n)


def test_a_shared_model_gives_the_fresh_results():
    # every rank bound and symmetry on one surjection model per (e, f), as
    # the locus suite runs them, against a fresh model per problem
    for e in range(1, 5):
        for f in range(1, e + 1):
            shared = make_model("surjection", e, f)
            for r in range(f + 1):
                for sym in ("sym", "skew"):
                    if sym == "skew" and e == f and r % 2:
                        continue
                    prob = LocusProblem(e, f, r, sym)
                    fresh = make_model("surjection", e, f)
                    direct = expression_to_poly(class_of(prob), shared)
                    pushed = class_via_pushforward(prob, shared)
                    assert direct == pushed, (e, f, r, sym)
                    assert direct.terms == expression_to_poly(class_of(prob), fresh).terms
                    assert pushed.terms == class_via_pushforward(prob, fresh).terms


def test_identity_rejects_an_unknown_kind():
    with pytest.raises(ValueError):
        verify_identity("Sym", FlagModel(2, 0, 1))


def test_identity_check_flags_mismatch():
    chk = verify_identity("sym", FlagModel(2, 0, 1))
    bad = IdentityCheck(
        chk.kind, chk.f, chk.p, chk.n, chk.lhs, chk.middle, chk.rhs + 1
    )
    assert not bad.ok
