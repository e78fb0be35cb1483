from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from qlocus.alphabets import Alphabet
from qlocus.gysin import (
    BlockSymmetryError,
    FlagSetup,
    GrassmannSetup,
    RepeatedPushforward,
    flag_pushforward,
    grassmann_pushforward,
)
from qlocus.partitions import Partition, rectangle, strict_partitions_bounded, subpartitions
from qlocus.polyring import Ring, apply_permutation, exact_div, is_symmetric, product
from qlocus.schur import schur_s
from qlocus.verify import (
    PushforwardInstance,
    pushforward_degree_factor,
    verify_pushforward_coefficient,
    verify_pushforward_special,
)


def coset_sum_pushforward(P, setup):
    """Reference push-forward: the literal symmetrizing sum over the cosets
    of S_e/(S_q x S_r), cleared of denominators.

    Over the full Vandermonde V = prod_{i<j} (a_i - a_j), the coset of a
    q-subset T contributes sign(T) * sigma_T(P) * V_T, where V_T keeps the
    factors with both indices on the same side of T; the sum is exactly
    divisible by V.
    """
    ring, vs, e, q = P.ring, setup.variables, setup.e, setup.q
    gens = [ring.variable(i) for i in vs]
    pairs = [(i, j) for i in range(e) for j in range(i + 1, e)]
    vandermonde = product(ring, (gens[i] - gens[j] for i, j in pairs))
    total = ring.zero
    for T in combinations(range(e), q):
        target = list(T) + [i for i in range(e) if i not in T]
        perm = list(range(ring.nvars))
        for i, t in enumerate(target):
            perm[vs[i]] = vs[t]
        same_side = product(ring, (gens[i] - gens[j] for i, j in pairs if (i in T) == (j in T)))
        term = apply_permutation(P, perm) * same_side
        total = total + (-term if sum(t - i for i, t in enumerate(T)) % 2 else term)
    return exact_div(total, vandermonde)


def block_symmetric_integrands(ring, vs, q):
    """Integrands symmetric in vs[:q] and in vs[q:], reaching past the
    fibre dimension, with a spectator variable and a non-unit coefficient."""
    r = len(vs) - q
    Q = Alphabet(ring, vs[:q])
    R = Alphabet(ring, vs[q:])
    rest = [i for i in range(ring.nvars) if i not in vs]
    x = ring.variable(rest[0]) if rest else ring.const(2)
    box = rectangle(q, r)
    cross = product(ring, (ring.variable(i) + ring.variable(j) for i in vs[:q] for j in vs[q:]))
    return [
        ring.one + x,
        schur_s(box, Q),
        schur_s(box.add(Partition((1,))), Q) * (x + schur_s(Partition((1,)), R)),
        schur_s(box.add(Partition((2, 1))), Q) * schur_s(Partition((2,)), R),
        (cross * schur_s(Partition((3, 1)), Q) * x * x).scale(-3),
    ]


# (ring size, designated roots): every e <= 5 in ring order, then rotated
# and non-contiguous designations with spectator variables
DESIGNATIONS = [(e, tuple(range(e))) for e in range(1, 6)] + [
    (4, (2, 3, 0, 1)),
    (6, (5, 1, 3)),
    (5, (3, 1)),
    (6, (4, 0, 2, 5, 1)),
]


@pytest.mark.parametrize("nvars,vs", DESIGNATIONS)
def test_pushforward_matches_the_coset_sum(nvars, vs):
    ring = Ring([("a", nvars)])
    for q in range(len(vs) + 1):
        setup = GrassmannSetup(vs, q)
        for P in block_symmetric_integrands(ring, vs, q):
            assert grassmann_pushforward(P, setup) == coset_sum_pushforward(P, setup), (q, P)


def line_setup(e):
    ring = Ring([("a", e)])
    return ring, GrassmannSetup(tuple(range(e)), 1)


def test_rank_one_quotient_pushforward_is_a_complete_sym():
    # push of a1^k along G^1(E) is (a1^k - a2^k)/(a1 - a2) and its
    # higher-rank analogues: the complete symmetric function h_{k-r}
    ring, setup = line_setup(2)
    a1 = ring.variable(0)
    a2 = ring.variable(1)
    assert grassmann_pushforward(ring.one, setup).is_zero()
    assert grassmann_pushforward(a1, setup) == 1
    assert grassmann_pushforward(a1**3, setup) == a1 * a1 + a1 * a2 + a2 * a2


def test_pushforward_of_quotient_schur_shifts_the_shape():
    # pi_*(s_{I + (r)^q}(Q)) = s_I(E) on G^q(E) with r = e - q
    e, q, r = 4, 2, 2
    ring = Ring([("a", e)])
    setup = GrassmannSetup(tuple(range(e)), q)
    Q = Alphabet(ring, tuple(range(q)))
    E = Alphabet(ring, tuple(range(e)))
    for I in subpartitions(rectangle(2, 2)):
        shifted = I.add(rectangle(q, r))
        assert grassmann_pushforward(schur_s(shifted, Q), setup) == schur_s(I, E), I
    # too-low degrees die
    assert grassmann_pushforward(schur_s(Partition((1,)), Q), setup).is_zero()


def test_pushforward_is_linear():
    ring, setup = line_setup(3)
    a1 = ring.variable(0)
    p1, p2 = a1**4, a1**2
    lhs = grassmann_pushforward(p1.scale(2) + p2.scale(-7), setup)
    assert lhs == grassmann_pushforward(p1, setup).scale(2) + grassmann_pushforward(
        p2, setup
    ).scale(-7)


def test_projection_formula():
    # classes pulled back from the base factor out of the push-forward
    ring, setup = line_setup(3)
    a1 = ring.variable(0)
    base = schur_s(Partition((2, 1)), Alphabet(ring, (0, 1, 2)))
    assert grassmann_pushforward(a1**3 * base, setup) == (
        grassmann_pushforward(a1**3, setup) * base
    )


def test_pushforward_drops_degree_by_the_fibre_dimension():
    e, q = 4, 2
    ring = Ring([("a", e)])
    setup = GrassmannSetup(tuple(range(e)), q)
    Q = Alphabet(ring, tuple(range(q)))
    P = schur_s(Partition((4, 3)), Q)
    got = grassmann_pushforward(P, setup)
    assert got.total_degree() == P.total_degree() - q * (e - q)


def test_pushforward_rejects_asymmetric_input():
    ring = Ring([("a", 3)])
    setup = GrassmannSetup((0, 1, 2), 2)
    with pytest.raises(BlockSymmetryError):
        grassmann_pushforward(ring.variable(0), setup)  # quotient part a1, a2
    setup1 = GrassmannSetup((0, 1, 2), 1)
    with pytest.raises(BlockSymmetryError):
        grassmann_pushforward(ring.variable(1), setup1)  # sub part a2, a3


def test_trivial_fibres_are_the_identity():
    ring = Ring([("a", 3)])
    P = schur_s(Partition((2,)), Alphabet(ring, (0, 1, 2))) + 3
    for q in (0, 3):
        setup = GrassmannSetup((0, 1, 2), q)
        assert grassmann_pushforward(P, setup) == P


def test_setup_validation():
    ring = Ring([("a", 2)])
    with pytest.raises(ValueError):
        GrassmannSetup((0, 1), 3)
    with pytest.raises(ValueError):
        GrassmannSetup((0, 0), 1)
    with pytest.raises(ValueError):
        GrassmannSetup((-1, 0), 1)
    with pytest.raises(ValueError, match="must be integers"):
        GrassmannSetup((0.0, 1.0, 2.0), 1)
    # a setup holds positions only; the push checks them against P.ring
    with pytest.raises(ValueError, match=r"designated roots must lie in 0\.\.1"):
        grassmann_pushforward(ring.one, GrassmannSetup((0, 7), 1))  # not a variable of the ring
    ring3 = Ring([("a", 3)])
    with pytest.raises(ValueError, match=r"designated roots must lie in 0\.\.2"):
        grassmann_pushforward(ring3.variable(0) ** 2, GrassmannSetup((3, 4), 1))
    with pytest.raises(ValueError, match="designated roots"):
        flag_pushforward(ring3.one, FlagSetup((0, 1, 2), (3,), 1))


@given(st.data())
def test_repeated_pushforward_matches_direct(data):
    e, q = 3, 1
    ring = Ring([("a", e)])
    setup = GrassmannSetup(tuple(range(e)), q)
    gens = [ring.variable(i) for i in range(e)]
    factor = product(ring, (gens[0] + gens[j] for j in range(q, e)))
    pusher = RepeatedPushforward(setup, factor)
    k = data.draw(st.integers(min_value=0, max_value=5))
    P = gens[0] ** k
    assert pusher.push(P) == grassmann_pushforward(factor * P, setup)


def test_degree_factor_values():
    assert pushforward_degree_factor(3, 1, Partition(())) == 1
    assert pushforward_degree_factor(4, 1, Partition(())) == 0  # odd parity
    assert pushforward_degree_factor(4, 2, Partition(())) == 2
    assert pushforward_degree_factor(6, 2, Partition(())) == 3
    assert pushforward_degree_factor(4, 2, Partition((2,))) == 1
    assert pushforward_degree_factor(5, 3, Partition((2, 1))) == 1


@pytest.mark.parametrize(
    "e,q,parts",
    [
        (3, 1, ()),
        (3, 1, (2,)),
        (4, 2, ()),
        (4, 2, (2,)),
        (4, 2, (2, 1)),
        (5, 2, (3, 1)),
    ],
)
def test_pushforward_coefficient_formula(e, q, parts):
    chk = verify_pushforward_coefficient(Partition(parts), PushforwardInstance(e, q))
    assert chk.ok, (e, q, parts, chk.d)


def test_pushforward_coefficient_rejects_bad_shapes():
    inst = PushforwardInstance(4, 2)
    with pytest.raises(ValueError):
        verify_pushforward_coefficient(Partition((2, 2)), inst)
    with pytest.raises(ValueError):
        verify_pushforward_coefficient(Partition((3, 2, 1)), inst)


def test_pushforward_special_cases():
    # full-length I keeps the Q-polynomial on the nose
    applicable, ok = verify_pushforward_special(PushforwardInstance(3, 1), Partition((2,)))
    assert applicable and ok
    applicable, ok = verify_pushforward_special(PushforwardInstance(4, 2), Partition((3, 1)))
    assert applicable and ok
    # one-short I: survives for even e - q, dies for odd
    applicable, ok = verify_pushforward_special(PushforwardInstance(4, 2), Partition((2,)))
    assert applicable and ok
    applicable, ok = verify_pushforward_special(PushforwardInstance(4, 1), Partition(()))
    assert applicable and ok
    applicable, ok = verify_pushforward_special(PushforwardInstance(4, 2), Partition(()))
    assert not applicable and ok


def test_a_shared_instance_gives_the_fresh_results():
    # both kinds of check on one instance per (e, q), as the gysin suite
    # runs them, against a fresh instance per check: the ring memo must
    # never serve one check's series or Q-polynomials to another
    for e in range(1, 5):
        for q in range(e + 1):
            shared = PushforwardInstance(e, q)
            for I in strict_partitions_bounded(4, q, 4):
                got = verify_pushforward_coefficient(I, shared)
                fresh = verify_pushforward_coefficient(I, PushforwardInstance(e, q))
                assert got.ok and fresh.ok, (e, q, I)
                assert got.computed.terms == fresh.computed.terms, (e, q, I)
                assert got.expected.terms == fresh.expected.terms, (e, q, I)
            for I in strict_partitions_bounded(5, q, 5):
                if I.length in (q, q - 1):
                    got = verify_pushforward_special(shared, I)
                    assert got == verify_pushforward_special(PushforwardInstance(e, q), I)
                    assert got == (True, True), (e, q, I)


def test_pushforward_instance_parts():
    inst = PushforwardInstance(4, 1)
    assert (inst.e, inst.q) == (4, 1)
    assert inst.setup == GrassmannSetup((0, 1, 2, 3), 1)
    assert inst.quotient.variables == (0,) and inst.total.variables == (0, 1, 2, 3)
    a = [inst.total.ring.variable(i) for i in range(4)]
    assert inst.ctop_rq == (a[1] + a[0]) * (a[2] + a[0]) * (a[3] + a[0])


def test_flag_setup_validation_and_parts():
    fs = FlagSetup((0, 1, 2), (3,), 1)
    assert fs.f == 3 and fs.n == 1
    assert fs.s_vars() == (0, 1)
    assert fs.fq_vars() == (2,)
    with pytest.raises(ValueError):
        FlagSetup((0, 1), (2,), 1)  # needs 2p < f


def test_flag_pushforward_trivial_stage():
    # p = 0 flags add no fibre directions at all
    ring = Ring([("f", 3), ("k", 1)])
    fs = FlagSetup(ring.block("f"), ring.block("k"), 0)
    P = schur_s(Partition((2, 1)), Alphabet(ring, ring.block("f")))
    assert flag_pushforward(P, fs) == P


def test_flag_pushforward_drops_the_right_degree():
    # relative dimension p*n + p*(f - p); pinned instance on Fl_{2,3}
    ring = Ring([("f", 3), ("k", 1)])
    fs = FlagSetup(ring.block("f"), ring.block("k"), 1)
    f3 = ring.variable(2)
    k = ring.variable(3)
    P = f3**4 * k
    got = flag_pushforward(P, fs)
    assert got.total_degree() == P.total_degree() - (1 * 1 + 1 * 2)
    assert is_symmetric(got, ring.block("f"))
    e1 = sum((ring.variable(i) for i in range(4)), ring.zero)
    assert got == k * e1  # s_1(K) s_1(E)
