"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package, prints a single
PASS/FAIL line (visible under ``pytest -s``), and enforces a wall-clock
budget.  Everything is exact integer/rational arithmetic; there are no
tolerances anywhere.
"""
import contextlib
import random
import time

from qlocus.alphabets import Alphabet, VirtualAlphabet, difference, make_model
from qlocus.chern import (
    ctop_product_oracle,
    ctop_vee,
    ctop_vee_skew,
    ctop_wedge,
    ctop_wedge_skew,
)
from qlocus.locus import (
    LocusProblem,
    class_of,
    class_schur_pair_expansion,
    class_via_pushforward,
    expression_to_poly,
    projective_degree,
)
from qlocus.partitions import (
    Partition,
    rectangle,
    staircase,
    strict_partitions_bounded,
    subpartitions,
)
from qlocus.polyring import Ring, product
from qlocus.schur import jacobi_trudi, pfaffian_q, schur_p, schur_q, schur_s
from qlocus.verify import (
    FlagModel,
    PushforwardInstance,
    run_suites,
    verify_identity,
    verify_pushforward_coefficient,
    verify_pushforward_special,
)


@contextlib.contextmanager
def criterion(num: int, slug: str, budget: float):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        dt = time.perf_counter() - t0
        status = "PASS" if ok and dt < budget else "FAIL"
        print(f"ACCEPTANCE {num} {slug}: {status} ({dt:.2f}s)")
    assert dt < budget, f"{slug} took {dt:.2f}s, budget {budget}s"


def test_criterion_1_worked_examples():
    with criterion(1, "worked-examples", 1.0):
        worked = {
            (4, 3, 2, "sym"): "Q[2](F) + Q[1](F)*s[1](E-F)",
            (5, 3, 2, "sym"): "Q[3](F) + Q[2](F)*s[1](E-F) + Q[1](F)*s[1,1](E-F)",
            (4, 3, 2, "skew"): "P[1](F) + s[1](E-F)",
            (5, 3, 2, "skew"): "P[2](F) + P[1](F)*s[1](E-F) + s[1,1](E-F)",
            (5, 4, 2, "skew"): "P[2,1](F) + P[2](F)*s[1](E-F) + P[1](F)*s[2](E-F)",
            # f even, n = q = 1 collapses to the single term P_1(F)
            (3, 2, 1, "skew"): "P[1](F)",
            (5, 4, 3, "skew"): "P[1](F)",
            (4, 2, 1, "skew"): "P[2](F) + P[1](F)*s[1](E-F)",
        }
        for (e, f, r, sym), want in worked.items():
            got = str(class_of(LocusProblem(e, f, r, sym)))
            assert got == want, (e, f, r, sym, got)


def test_criterion_2_fifteen_term_class_and_pair_table():
    with criterion(2, "rank-8-4-table", 60.0):
        prob = LocusProblem(8, 4, 2, "sym")
        expr = class_of(prob)
        assert len(expr.terms) == 15
        assert str(expr) == (
            "Q[6,5](F) + Q[6,4](F)*s[1](E-F) + Q[6,3](F)*s[1,1](E-F)"
            " + Q[6,2](F)*s[1,1,1](E-F) + Q[6,1](F)*s[1,1,1,1](E-F)"
            " + Q[5,4](F)*s[2](E-F) + Q[5,3](F)*s[2,1](E-F)"
            " + Q[5,2](F)*s[2,1,1](E-F) + Q[5,1](F)*s[2,1,1,1](E-F)"
            " + Q[4,3](F)*s[2,2](E-F) + Q[4,2](F)*s[2,2,1](E-F)"
            " + Q[4,1](F)*s[2,2,1,1](E-F) + Q[3,2](F)*s[2,2,2](E-F)"
            " + Q[3,1](F)*s[2,2,2,1](E-F) + Q[2,1](F)*s[2,2,2,2](E-F)"
        )
        assert (
            Partition((4, 1)),
            Partition((2, 2, 1, 1)),
            1,
        ) in expr.terms

        pairs = class_schur_pair_expansion(prob)
        want = {
            ((10, 1), ()): 4,
            ((8, 3), ()): 4,
            ((8, 1), (2,)): -4,
            ((8, 1), (1, 1)): 4,
            ((6, 5), ()): 4,
            ((6, 3), (2,)): -4,
            ((6, 3), (1, 1)): 4,
            ((6, 1), (2, 2)): 4,
            ((6, 1), (2, 1, 1)): -4,
            ((6, 1), (1, 1, 1, 1)): 4,
            ((4, 3), (2, 2)): 4,
            ((4, 1), (2, 2, 2)): -4,
            ((4, 1), (2, 2, 1, 1)): 4,
            ((2, 1), (2, 2, 2, 2)): 4,
        }
        got = {(I.parts, J.parts): c for (I, J), c in pairs.coeffs.items()}
        assert got == want
        assert len(pairs) == 14


def test_criterion_3_top_chern_three_ways():
    with criterion(3, "chern-three-ways", 10.0):
        for f in range(1, 5):
            for n in range(0, 4):
                ctx = make_model("surjection", f + n, f)
                for closed, skew, kind in (
                    (ctop_vee, ctop_vee_skew, "vee"),
                    (ctop_wedge, ctop_wedge_skew, "wedge"),
                ):
                    a = closed(ctx)
                    assert a == skew(ctx), (f, n, kind)
                    assert a == ctop_product_oracle(ctx, kind), (f, n, kind)


def test_criterion_4_pushforward_coefficients():
    with criterion(4, "pushforward-coefficients", 300.0):
        for e in range(1, 7):
            for q in range(0, e + 1):
                inst = PushforwardInstance(e, q)
                for I in strict_partitions_bounded(5, q, 5):
                    chk = verify_pushforward_coefficient(I, inst)
                    assert chk.ok, (e, q, I, chk.d)
        # boundary shapes with their own closed forms
        for e in range(1, 6):
            for q in range(1, e + 1):
                inst = PushforwardInstance(e, q)
                for I in strict_partitions_bounded(6, q, 6):
                    if I.length in (q, q - 1):
                        applicable, ok = verify_pushforward_special(inst, I)
                        assert applicable and ok, (e, q, I)


def test_criterion_5_flag_pushforward_identities():
    with criterion(5, "flag-identities", 900.0):
        cases = [
            (f, p, n)
            for f in range(1, 5)
            for p in range(0, min(1, (f - 1) // 2) + 1)
            for n in range(0, 2)
        ]
        cases.append((5, 2, 0))
        for f, p, n in cases:
            model = FlagModel(f, p, n)
            assert verify_identity("sym", model).ok, ("sym", f, p, n)
            assert verify_identity("skew", model).ok, ("skew", f, p, n)


def test_criterion_6_projective_degrees():
    with criterion(6, "projective-degrees", 10.0):
        # all-ones instances
        assert projective_degree((1, 1, 1, 1), (1, 1, 1), 2, "skew") == (1, 4)
        assert projective_degree((1, 1, 1, 1, 1), (1, 1, 1), 2, "skew") == (2, 16)
        assert projective_degree((1, 1, 1), (1, 1), 1, "skew") == (1, 2)
        assert projective_degree((1, 1, 1, 1), (1, 1), 1, "skew") == (2, 8)

        # general twists, F split off E, against the stated products
        rng = random.Random(83)
        for _ in range(3):
            a, b, c, d, e2 = (rng.randint(1, 6) for _ in range(5))
            assert projective_degree((a, b, c, d), (a, b, c), 2, "skew") == (
                1,
                a + b + c + d,
            )
            assert projective_degree((a, b, c, d, e2), (a, b, c), 2, "skew") == (
                2,
                (a + b + c + d) * (a + b + c + e2),
            )
            assert projective_degree((a, b, c), (a, b), 1, "skew") == (1, a + b)
            assert projective_degree((a, b, c, d), (a, b), 1, "skew") == (
                2,
                (a + b) * (a + b + c + d),
            )


def test_criterion_7_pushforward_rederives_every_class():
    with criterion(7, "pushforward-rederivation", 300.0):
        for e in range(1, 6):
            for f in range(1, e + 1):
                ctx = make_model("surjection", e, f)
                for r in range(0, f + 1):
                    for sym in ("sym", "skew"):
                        if sym == "skew" and e == f and r % 2:
                            continue
                        prob = LocusProblem(e, f, r, sym)
                        direct = expression_to_poly(class_of(prob), ctx)
                        pushed = class_via_pushforward(prob, ctx)
                        assert direct == pushed, (e, f, r, sym)


def test_criterion_8_classical_specializations():
    with criterion(8, "classical-specializations", 60.0):
        # the e = f symmetric class is the staircase Q, twice-power of a Schur
        for f in range(1, 5):
            ctx = make_model("surjection", f, f)
            for r in range(0, f + 1):
                q = f - r
                got = expression_to_poly(class_of(LocusProblem(f, f, r, "sym")), ctx)
                assert got == schur_q(staircase(q), ctx.F)
                assert got == schur_s(staircase(q), ctx.F).scale(2**q)

        # P of the full staircase is an ordinary Schur polynomial
        for q in range(1, 5):
            ring = Ring([("x", q + 1)])
            A = Alphabet(ring, ring.block("x"))
            assert schur_p(staircase(q), A) == schur_s(staircase(q), A)

        # rectangle factorization on a difference of alphabets, on the
        # Jacobi-Trudi determinant (schur_s factors the rectangle itself)
        for n in (1, 2):
            for m in (1, 2):
                ring = Ring([("a", n), ("b", m)])
                A = Alphabet(ring, ring.block("a"))
                B = Alphabet(ring, ring.block("b"))
                v = difference(A, B)
                R = rectangle(n, m)
                for I in subpartitions(rectangle(n, 2)):
                    lhs = jacobi_trudi(R.add(I), Partition(), v)
                    assert lhs == jacobi_trudi(R, Partition(), v) * schur_s(I, A)

        # staircase factorization on a matching-rank alphabet, with the
        # vanishing just past the boundary; schur_q reads these shapes off
        # the factorization of Q itself, so the Pfaffian checks it
        for k in (1, 2, 3):
            ring = Ring([("x", k)])
            A = Alphabet(ring, ring.block("x"))
            for I in subpartitions(rectangle(k, 2)):
                rhs = schur_q(staircase(k), A) * schur_s(I, A)
                assert schur_q(staircase(k).add(I), A) == rhs
                assert pfaffian_q(staircase(k).add(I), A) == rhs
        ring = Ring([("x", 2)])
        A = Alphabet(ring, ring.block("x"))
        assert schur_q(staircase(2).add(Partition((1, 1, 1))), A).is_zero()
        assert pfaffian_q(staircase(2).add(Partition((1, 1, 1))), A).is_zero()

        # staircase Q as a product of root sums
        for n in range(1, 5):
            ring = Ring([("x", n)])
            A = Alphabet(ring, ring.block("x"))
            expected = product(
                ring,
                (
                    ring.variable(i) + ring.variable(j)
                    for i in range(n)
                    for j in range(i, n)
                ),
            )
            assert schur_q(staircase(n), A) == expected
            assert pfaffian_q(staircase(n), A) == expected

        # resultant form of the full rectangle, on the determinant
        for n in range(1, 4):
            for m in range(1, 4):
                ring = Ring([("a", n), ("b", m)])
                A = Alphabet(ring, ring.block("a"))
                B = Alphabet(ring, ring.block("b"))
                expected = product(
                    ring,
                    (
                        ring.variable(i) - ring.variable(n + j)
                        for i in range(n)
                        for j in range(m)
                    ),
                )
                assert jacobi_trudi(rectangle(n, m), Partition(), difference(A, B)) == expected


def test_criterion_9_porteous_and_pfaffian():
    with criterion(9, "porteous-pfaffian", 60.0):
        for e in range(1, 7):
            for f in range(1, e + 1):
                ctx = make_model("surjection", e, f)
                got = expression_to_poly(class_of(LocusProblem(e, f, f - 1, "sym")), ctx)
                want = schur_s(
                    Partition((e - f + 1,)),
                    VirtualAlphabet((ctx.F,), (ctx.E.dual(),)),
                )
                assert got == want, (e, f)
        for e, f, r in [(3, 2, 0), (5, 4, 2)]:
            ctx = make_model("surjection", e, f)
            got = expression_to_poly(class_of(LocusProblem(e, f, r, "skew")), ctx)
            assert got == schur_s(staircase(e - r - 1), ctx.E), (e, f, r)


def test_criterion_10_verify_locus_at_rank_6():
    # the locus suite at e <= 6: every class, push-forward and Porteous
    # case on rank-6 alphabets (about 1 s; 16 to 18 s before Q-polynomials
    # of length >= f - 1 were factored and the models shared)
    with criterion(10, "verify-locus-e6", 10.0):
        results = run_suites(["locus"], max_e=6)
        assert results and all(c.ok for c in results), [c.render() for c in results if not c.ok]
