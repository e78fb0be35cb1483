"""Named verification suites: every identity the library implements,
checked by brute-force polynomial arithmetic over bounded rank ranges.

Each case is exact — a polynomial identity either holds or it does not —
so a suite returns a flat list of :class:`CaseResult` and the CLI turns
them into ``CASE <name> <params> : PASS/FAIL`` lines.
"""
from __future__ import annotations

from .alphabets import Alphabet, difference, make_model, pair_sum_product, tensor_sum_product
from .chern import (
    ctop_product_oracle,
    ctop_sym2,
    ctop_tensor,
    ctop_vee,
    ctop_vee_skew,
    ctop_wedge,
    ctop_wedge2,
    ctop_wedge_skew,
)
from .gysin import (
    GrassmannSetup,
    PushforwardInstance,
    grassmann_pushforward,
    verify_pushforward_coefficient,
    verify_pushforward_special,
)
from .locus import (
    FlagModel,
    LocusProblem,
    class_of,
    class_schur_pair_expansion,
    class_via_mnemonic,
    class_via_pushforward,
    expression_to_poly,
    projective_degree,
    verify_identity,
)
from .partitions import Partition, rectangle, staircase, strict_partitions_bounded
from .polyring import Ring, product
from .records import Frozen
from .schur import expand_schur_pair, jacobi_trudi, pfaffian_q, schur_p, schur_q, schur_s


class CaseResult(Frozen):
    """One checked case: a suite-qualified name, its parameters, and
    whether the identity held."""

    __slots__ = ("name", "params", "ok")

    def __init__(self, name: str, params: str, ok: bool):
        self._set(name=name, params=params, ok=ok)

    def render(self) -> str:
        return f"CASE {self.name} {self.params} : {'PASS' if self.ok else 'FAIL'}"


def suite_schur(max_n: int = 4) -> list[CaseResult]:
    out = []
    # resultant: s_{(m)^n}(A - B) = prod (a_i - b_j), on the Jacobi-Trudi
    # determinant itself (schur_s would read it off the hook factorization)
    for n in range(1, max_n):
        for m in range(1, max_n):
            ring = Ring([("a", n), ("b", m)])
            A = Alphabet(ring, ring.block("a"))
            B = Alphabet(ring, ring.block("b"))
            lhs = jacobi_trudi(rectangle(n, m), Partition(), difference(A, B))
            rhs = product(ring, (x - y for x in A.roots() for y in B.roots()))
            out.append(CaseResult("schur.resultant", f"n={n} m={m}", lhs == rhs))
    # Q/P staircase products, Q on both the factorization and the Pfaffian
    for n in range(1, max_n + 1):
        ring = Ring([("a", n)])
        A = Alphabet(ring, ring.block("a"))
        pq = pair_sum_product(A, strict=False)
        ok = schur_q(staircase(n), A) == pq and pfaffian_q(staircase(n), A) == pq
        ok = ok and pq == schur_s(staircase(n), A).scale(2**n)
        out.append(CaseResult("schur.q-staircase", f"n={n}", ok))
        pp = pair_sum_product(A, strict=True)
        ok = schur_p(staircase(n - 1), A) == pp and pp == schur_s(staircase(n - 1), A)
        out.append(CaseResult("schur.p-staircase", f"n={n}", ok))
    # rectangle factorization: s_{(m)^n + I}(A - B) = s_{(m)^n}(A - B) s_I(A),
    # again on the determinant
    for n, m, I in [(2, 2, Partition((2, 1))), (3, 1, Partition((2, 2))), (2, 3, Partition((3,)))]:
        ring = Ring([("a", n), ("b", m)])
        A = Alphabet(ring, ring.block("a"))
        d = difference(A, Alphabet(ring, ring.block("b")))
        lhs = jacobi_trudi(rectangle(n, m).add(I), Partition(), d)
        rhs = jacobi_trudi(rectangle(n, m), Partition(), d) * schur_s(I, A)
        out.append(CaseResult("schur.rect-factor", f"n={n} m={m} I={I}", lhs == rhs))
    # staircase factorization on a rank-k alphabet:
    # Q_{rho_k + I}(A) = Q_{rho_k}(A) s_I(A) for l(I) <= k (the Q-version
    # needs the staircase length to match the rank; one row longer, both
    # sides vanish), with the left side on the Pfaffian (schur_q would
    # read it off the factorization)
    for k in range(1, max_n):
        ring = Ring([("a", k)])
        A = Alphabet(ring, ring.block("a"))
        base = schur_q(staircase(k), A)
        for I in [Partition((1,)), Partition((2, 1)), Partition((2, 2)), Partition((3, 1, 1))]:
            if I.length > k:
                continue
            lhs = pfaffian_q(staircase(k).add(I), A)
            out.append(
                CaseResult("schur.stair-factor", f"k={k} I={I}", lhs == base * schur_s(I, A))
            )
        J = Partition((1,) * (k + 1))
        ok = pfaffian_q(staircase(k).add(J), A).is_zero() and schur_s(J, A).is_zero()
        out.append(CaseResult("schur.stair-factor-vanish", f"k={k}", ok))
    return out


def suite_chern(max_f: int = 3, max_n: int = 2) -> list[CaseResult]:
    out = []
    for f in range(1, max_f + 1):
        for n in range(0, max_n + 1):
            ctx = make_model("surjection", f + n, f)
            for kind, closed, skewform in (
                ("vee", ctop_vee, ctop_vee_skew),
                ("wedge", ctop_wedge, ctop_wedge_skew),
            ):
                oracle = ctop_product_oracle(ctx, kind)
                ok = closed(ctx) == oracle and skewform(ctx) == oracle
                out.append(CaseResult(f"chern.{kind}-threeway", f"f={f} n={n}", ok))
    for e, fr in [(2, 2), (3, 2), (3, 3)]:
        ring = Ring([("a", e), ("b", fr)])
        A = Alphabet(ring, ring.block("a"))
        B = Alphabet(ring, ring.block("b"))
        ok = ctop_tensor(A, B) == tensor_sum_product(A, B)
        out.append(CaseResult("chern.tensor", f"e={e} f={fr}", ok))
    for e in range(1, max_f + 2):
        ring = Ring([("a", e)])
        A = Alphabet(ring, ring.block("a"))
        ok = ctop_sym2(A) == pair_sum_product(A, strict=False)
        ok = ok and ctop_wedge2(A) == pair_sum_product(A, strict=True)
        out.append(CaseResult("chern.square", f"e={e}", ok))
    return out


def suite_gysin(max_e: int = 5, max_weight: int = 5) -> list[CaseResult]:
    out = []
    # one instance per (e, q) for both loops
    inst = {(e, q): PushforwardInstance(e, q) for e in range(1, max_e + 1) for q in range(e + 1)}
    for e in range(1, max_e + 1):
        for q in range(0, e + 1):
            for I in strict_partitions_bounded(max_weight, q, max_weight):
                chk = verify_pushforward_coefficient(I, inst[e, q])
                out.append(
                    CaseResult("gysin.pushforward", f"e={e} q={q} I={I} d={chk.d}", chk.ok)
                )
    for e in range(1, max_e + 1):
        for q in range(1, e + 1):
            for I in strict_partitions_bounded(6, q, 6):
                if I.length not in (q, q - 1) or I.length == 0:
                    continue
                applicable, ok = verify_pushforward_special(inst[e, q], I)
                if applicable:
                    out.append(CaseResult("gysin.boundary", f"e={e} q={q} I={I}", ok))
    # linearity and the projection formula on a fixed instance
    ring = Ring([("a", 3)])
    a0, a1, a2 = (ring.variable(i) for i in range(3))
    setup = GrassmannSetup(ring, (0, 1, 2), 1)
    P, Q = a0**3, a0 * (a1 + a2)
    lin = grassmann_pushforward(P.scale(3) - Q.scale(2), setup) == grassmann_pushforward(
        P, setup
    ).scale(3) - grassmann_pushforward(Q, setup).scale(2)
    out.append(CaseResult("gysin.linearity", "e=3 q=1", lin))
    sym_factor = (a0 + a1 + a2) ** 2
    proj = grassmann_pushforward(P * sym_factor, setup) == grassmann_pushforward(
        P, setup
    ) * sym_factor
    out.append(CaseResult("gysin.projection-formula", "e=3 q=1", proj))
    return out


# the rendered closed-form classes, keyed by (e, f, r, symmetry)
WORKED_CLASSES = {
    (4, 3, 2, "sym"): "Q[2](F) + Q[1](F)*s[1](E-F)",
    (5, 3, 2, "sym"): "Q[3](F) + Q[2](F)*s[1](E-F) + Q[1](F)*s[1,1](E-F)",
    (4, 3, 2, "skew"): "P[1](F) + s[1](E-F)",
    (5, 3, 2, "skew"): "P[2](F) + P[1](F)*s[1](E-F) + s[1,1](E-F)",
    (5, 4, 2, "skew"): "P[2,1](F) + P[2](F)*s[1](E-F) + P[1](F)*s[2](E-F)",
    (4, 2, 1, "skew"): "P[2](F) + P[1](F)*s[1](E-F)",
}


def suite_locus(max_e: int = 4) -> list[CaseResult]:
    out = []
    models = {}  # one surjection model per (e, f) for every case below

    def model(e: int, f: int):
        if (e, f) not in models:
            models[e, f] = make_model("surjection", e, f)
        return models[e, f]

    for (e, f, r, sym), want in WORKED_CLASSES.items():
        got = str(class_of(LocusProblem(e, f, r, sym)))
        out.append(CaseResult("locus.example", f"e={e} f={f} r={r} {sym}", got == want))
    for e in range(1, max_e + 1):
        for f in range(1, e + 1):
            for r in range(0, f + 1):
                for sym in ("sym", "skew"):
                    if sym == "skew" and e == f and r % 2:
                        continue
                    prob = LocusProblem(e, f, r, sym)
                    params = f"e={e} f={f} r={r} {sym}"
                    if not (sym == "skew" and r % 2):
                        ok = class_of(prob).term_set() == class_via_mnemonic(prob).term_set()
                        out.append(CaseResult("locus.mnemonic", params, ok))
                    ctx = model(e, f)
                    direct = expression_to_poly(class_of(prob), ctx)
                    pushed = class_via_pushforward(prob, ctx)
                    out.append(CaseResult("locus.pushforward", params, direct == pushed))
    # Porteous: r = f-1 gives s_{e-f+1}(F - E*)
    for e in range(1, max_e + 1):
        for f in range(1, e + 1):
            ctx = model(e, f)
            got = expression_to_poly(class_of(LocusProblem(e, f, f - 1, "sym")), ctx)
            want = schur_s(Partition((e - f + 1,)), difference(ctx.F, ctx.E.dual()))
            out.append(CaseResult("locus.porteous", f"e={e} f={f} r={f-1}", got == want))
    # Pfaffian loci: skew, n = 1, r even: s_{rho_{e-r-1}}(E)
    for e, f, r in [(3, 2, 0), (5, 4, 2)]:
        ctx = model(e, f)
        got = expression_to_poly(class_of(LocusProblem(e, f, r, "skew")), ctx)
        out.append(
            CaseResult("locus.pfaffian", f"e={e} f={f} r={r}", got == schur_s(staircase(e - r - 1), ctx.E))
        )
    # projective degrees of the classical examples
    degree_table = [
        ((1, 1, 1, 1), (1, 1, 1), 2, "skew", 1, 4),
        ((1, 1, 1, 1, 1), (1, 1, 1), 2, "skew", 2, 16),
        ((1, 1, 1), (1, 1), 1, "skew", 1, 2),
        ((1, 1, 1, 1), (1, 1), 1, "skew", 2, 8),
    ]
    for et, ft, r, sym, c_want, d_want in degree_table:
        got = projective_degree(et, ft, r, sym)
        out.append(
            CaseResult("locus.degree", f"e={len(et)} f={len(ft)} r={r} {sym}", got == (c_want, d_want))
        )
    # Schur-pair expansion per E-shape against the two-alphabet expansion
    # of the evaluated class
    for e, f, r, sym in [(4, 3, 2, "sym"), (5, 4, 2, "skew"), (5, 3, 1, "skew")]:
        prob = LocusProblem(e, f, r, sym)
        ctx = make_model("independent", e, f)
        fast = class_schur_pair_expansion(prob)
        lit = expand_schur_pair(expression_to_poly(class_of(prob), ctx), ctx.F, ctx.E)
        out.append(CaseResult("locus.schur-pair", f"e={e} f={f} r={r} {sym}", fast == lit))
    return out


def suite_identities(max_f: int = 4, max_p: int = 1, max_n: int = 1) -> list[CaseResult]:
    out = []
    for f in range(1, max_f + 1):
        for p in range(0, max_p + 1):
            if 2 * p >= f:
                continue
            for n in range(0, max_n + 1):
                flag_model = FlagModel(f, p, n)
                for kind in ("sym", "skew"):
                    chk = verify_identity(kind, flag_model)
                    out.append(CaseResult(f"identity.{kind}", f"f={f} p={p} n={n}", chk.ok))
    return out


SUITES = {
    "schur": suite_schur,
    "chern": suite_chern,
    "gysin": suite_gysin,
    "locus": suite_locus,
    "identities": suite_identities,
}


def run_suites(names, **bounds) -> list[CaseResult]:
    """Run the named suites with any applicable bound overrides.

    Each suite picks up the bounds among its own parameters, read off its
    code object; bounds left as None keep the suite's default.
    """
    out = []
    for name in names:
        fn = SUITES[name]
        accepted = fn.__code__.co_varnames[: fn.__code__.co_argcount]
        kw = {k: v for k, v in bounds.items() if v is not None and k in accepted}
        out.extend(fn(**kw))
    return out
