"""Named verification suites: every identity the library implements,
checked by brute-force polynomial arithmetic over bounded rank ranges.

Each case is exact — a polynomial identity either holds or it does not —
so a suite returns a flat list of :class:`CaseResult` and the CLI turns
them into ``CASE <name> <params> : PASS/FAIL`` lines.

The check drivers, with their records and fixtures, live here beside
the suites that run them, so the layers they judge (``gysin``,
``locus``) keep only their production routes.
"""
from __future__ import annotations

import math

from .alphabets import Alphabet, difference, make_model, pair_sum_product, tensor_sum_product
from .chern import (
    ctop_product_oracle,
    ctop_sym2,
    ctop_vee,
    ctop_vee_skew,
    ctop_wedge,
    ctop_wedge2,
    ctop_wedge_skew,
    skew_schur_sum,
    staircase_schur_sum,
)
from .gysin import FlagSetup, GrassmannSetup, flag_pushforward, grassmann_pushforward
from .locus import (
    ClassExpression,
    LocusProblem,
    class_of,
    class_schur_pair_expansion,
    class_via_pushforward,
    expression_to_poly,
    projective_degree,
)
from .partitions import Partition, rectangle, rectangle_partitions, staircase, strict_partitions_bounded
from .polyring import Poly, Ring, product
from .records import Frozen
from .schur import expand_schur_pair, jacobi_trudi, pfaffian_q, schur_p, schur_q, schur_s, schur_sum


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
            d = difference(Alphabet(ring, ring.block("a")), Alphabet(ring, ring.block("b")))
            xs, ys = d.roots()
            lhs = jacobi_trudi(rectangle(n, m), Partition(), d)
            rhs = product(ring, (x - y for x in xs for y in ys))
            out.append(CaseResult("schur.resultant", f"n={n} m={m}", lhs == rhs))
    # Q/P staircase products, Q on both the branching rule and the Pfaffian
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
    # take the branching rule)
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


def ctop_tensor(a: Alphabet, b: Alphabet) -> Poly:
    """c_top(A ⊗ B) = sum over I in the e x f box of s_I(A) s_{CĨ}(B)
    (Fulton-Pragacz), the staircase sum of "s" with no staircase."""
    return staircase_schur_sum("s", 0, len(a.pos), len(b.pos), a, b)


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


# -- the Q/P push-forward formula on G^q(E) --------------------------


class PushforwardCheck(Frozen):
    """Outcome of one instance of the Q/P push-forward formula on
    G^q(E): pi_*(c_top(R ⊗ Q) P_I(Q)) against d * P_I(E); immutable."""

    __slots__ = ("e", "q", "I", "d", "computed", "expected")

    def __init__(self, e: int, q: int, I: Partition, d: int, computed: Poly, expected: Poly):
        self._set(e=e, q=q, I=I, d=d, computed=computed, expected=expected)

    @property
    def ok(self) -> bool:
        return self.computed == self.expected


def pushforward_degree_factor(e: int, q: int, I: Partition) -> int:
    """The integer d: zero when (q - k)(e - q) is odd, otherwise
    binomial(floor((e-k)/2), floor((q-k)/2)) with k the length of I."""
    k = I.length
    r = e - q
    if ((q - k) * r) % 2:
        return 0
    return math.comb((e - k) // 2, (q - k) // 2)


class PushforwardInstance(Frozen):
    """G^q(E) on ``ring``, whose variables are the roots of E: the setup,
    c_top(R ⊗ Q), and the alphabets of Q and E; immutable.  One instance
    serves every check at (e, q), and the instances of one e share a
    ring, so the ring memo builds each series and Q-polynomial of E once."""

    __slots__ = ("e", "q", "setup", "ctop_rq", "quotient", "total")

    def __init__(self, ring: Ring, q: int):
        e = ring.nvars
        quotient = Alphabet(ring, tuple(range(q)))
        ctop_rq = tensor_sum_product(Alphabet(ring, tuple(range(q, e))), quotient)
        setup = GrassmannSetup(tuple(range(e)), q)
        total = Alphabet(ring, tuple(range(e)))
        self._set(e=e, q=q, setup=setup, ctop_rq=ctop_rq, quotient=quotient, total=total)


def verify_pushforward_coefficient(I: Partition, inst: PushforwardInstance) -> PushforwardCheck:
    """Exercise pi_*(c_top(R ⊗ Q) P_I(Q)) = d P_I(E) on G^q(E) by brute
    force on the instance's ring."""
    e, q = inst.e, inst.q
    if not I.is_strict() or I.length > q:
        raise ValueError(f"need a strict partition with at most q={q} parts, got {I}")
    computed = grassmann_pushforward(inst.ctop_rq * schur_p(I, inst.quotient), inst.setup)
    d = pushforward_degree_factor(e, q, I)
    return PushforwardCheck(e, q, I, d, computed, schur_p(I, inst.total).scale(d))


def verify_pushforward_special(inst: PushforwardInstance, I: Partition) -> tuple[bool, bool]:
    """The two boundary cases with their own closed forms:

    * length(I) = q:     pi_*(c_top(R ⊗ Q) Q_I(Q)) = Q_I(E)
    * length(I) = q - 1: the same with P gives P_I(E) for even e - q,
                         and 0 for odd e - q.

    Returns (applicable, ok).
    """
    e, q = inst.e, inst.q
    if I.length == q:
        lhs = grassmann_pushforward(inst.ctop_rq * schur_q(I, inst.quotient), inst.setup)
        return True, lhs == schur_q(I, inst.total)
    if I.length == q - 1:
        lhs = grassmann_pushforward(inst.ctop_rq * schur_p(I, inst.quotient), inst.setup)
        want = schur_p(I, inst.total) if (e - q) % 2 == 0 else inst.total.ring.zero
        return True, lhs == want
    return False, True


def suite_gysin(max_e: int = 5, max_weight: int = 5) -> list[CaseResult]:
    out = []
    # one instance per (e, q) for both loops, on one ring per e
    rings = {e: Ring([("a", e)]) for e in range(1, max_e + 1)}
    inst = {(e, q): PushforwardInstance(rings[e], q) for e in rings for q in range(e + 1)}
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
    setup = GrassmannSetup((0, 1, 2), 1)
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


def class_via_mnemonic(problem: LocusProblem) -> ClassExpression:
    """Reindexed form of the sum of :func:`~qlocus.locus.class_of`: the
    coefficient of s_{Ĩ}(E-F) is [Q|P]_{T - I}(F) with I written with
    increasing parts, where

    * symmetric:    T = (e-r, ..., n+1)
    * skew, r even: T = (e-r-1, ..., n)

    No such reindexing is defined for skew loci with odd r.  Each I gives
    one term, sorted here into the order of ``class_of``.
    """
    q, n = problem.q, problem.n
    if problem.symmetry == "sym":
        kind, T = "Q", tuple(range(problem.e - problem.r, n, -1))
    elif problem.r % 2 == 0:
        kind, T = "P", tuple(range(problem.e - problem.r - 1, n - 1, -1))
    else:
        raise ValueError("no mnemonic form for skew loci with odd r")
    terms = []
    for I in rectangle_partitions(q, n):
        inc = tuple(reversed(I.padded(q)))
        K = Partition(tuple(t - i for t, i in zip(T, inc)))
        terms.append((K, I.conjugate(), 1))
    terms.sort(key=lambda t: (t[0].parts, t[1].parts), reverse=True)
    return ClassExpression(kind, tuple(terms))


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
                        ok = class_of(prob) == class_via_mnemonic(prob)
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


# -- push-forward identities along the kernel flag --------------------


class IdentityCheck(Frozen):
    """Three members of one push-forward identity: the staircase-sum
    integrand and its skew-Schur rewriting, both pushed down the flag,
    against the closed form; immutable.  For kind "sym" every member
    carries a factor 2^p, so all of them are integral."""

    __slots__ = ("kind", "f", "p", "n", "lhs", "middle", "rhs")

    def __init__(self, kind: str, f: int, p: int, n: int, lhs: Poly, middle: Poly, rhs: Poly):
        self._set(kind=kind, f=f, p=p, n=n, lhs=lhs, middle=middle, rhs=rhs)  # kind "sym" | "skew"

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs and self.middle == self.rhs


class FlagModel(Frozen):
    """The surjection model of ranks (f + n, f) with the kernel flag of
    step p: the model ``ctx``, the flag setup ``flag``, S* and R* - S*
    (in lowest terms K*, as R = S + K); immutable.  One model serves both
    kinds of :func:`verify_identity`, so the ring memo builds each series
    and Q-polynomial once."""

    __slots__ = ("ctx", "flag", "s_dual", "rs_diff")

    def __init__(self, f: int, p: int, n: int):
        ctx = make_model("surjection", f + n, f)
        flag = FlagSetup(ctx.ring.block("f"), ctx.ring.block("k"), p)
        s_dual = Alphabet(ctx.ring, flag.s_vars(), negated=True)
        r_dual = Alphabet(ctx.ring, flag.s_vars() + flag.k_vars, negated=True)
        self._set(ctx=ctx, flag=flag, s_dual=s_dual, rs_diff=difference(r_dual, s_dual))


def _identity_integrand(kind: str, f: int, p: int, n: int, s_dual: Alphabet, rs_diff):
    """(s_rho(S*), the staircase-sum integrand) of :func:`verify_identity`:
    rho = rho_{p-1} and the Q-staircase sum for "sym", rho = rho_p and
    the P-staircase sum for "skew"."""
    if kind not in ("sym", "skew"):
        raise ValueError(f"kind must be 'sym' or 'skew', got {kind!r}")
    skew = kind == "skew"
    mult = schur_s(staircase(p - 1 + skew), s_dual)
    stair = staircase_schur_sum("P" if skew else "Q", f - p - skew, f - p, n, s_dual, rs_diff)
    return mult, stair * mult


def verify_identity(kind: str, model: FlagModel) -> IdentityCheck:
    """Push two equal integrands down Fl_{f-p, e-p}(F, E) of the model
    and compare with the closed staircase sum in F* and E* - F*.  For kind "sym", with
    all three members multiplied by 2^p so that every coefficient is an
    integer:

      [Q-staircase sum over the (f-p) x n box on S*, R*-S*]          * s_{rho_{p-1}}(S*)
      2^{f-p} * [skew sum over T = (e-p, ..., n+1) on S*, R*-S*]     * s_{rho_{p-1}}(S*)
      == 2^p * [Q-staircase sum over the (f-2p) x n box on F*, E*-F*],

    with staircases rho_{f-p} and rho_{f-2p}.  For kind "skew", with no
    powers of 2:

      [P-staircase sum over the (f-p) x n box on S*, R*-S*] * s_{rho_p}(S*)
      [skew sum over T = (e-p-1, ..., n) on S*, R*-S*]      * s_{rho_p}(S*)
      == [P-staircase sum over the (f-2p) x n box on F*, E*-F*],

    with staircases rho_{f-p-1} and rho_{f-2p-1}.
    """
    ctx, fs, s_dual, rs_diff = model.ctx, model.flag, model.s_dual, model.rs_diff
    f, p, n, e = fs.f, fs.p, fs.n, ctx.e
    mult, member1 = _identity_integrand(kind, f, p, n, s_dual, rs_diff)
    skew = kind == "skew"
    T = Partition(tuple(range(e - p - skew, n - skew, -1)))
    member2 = skew_schur_sum(T, s_dual, rs_diff) * mult
    f_dual = ctx.F.dual()
    ef_diff = difference(ctx.E.dual(), f_dual)
    rhs = staircase_schur_sum("P" if skew else "Q", f - 2 * p - skew, f - 2 * p, n, f_dual, ef_diff)
    if not skew:
        member2 = member2.scale(2 ** (f - p))
        rhs = rhs.scale(2**p)
    lhs = flag_pushforward(member1, fs)
    middle = flag_pushforward(member2, fs)
    return IdentityCheck(kind, f, p, n, lhs, middle, rhs)


def identity_via_product(kind: str, model: FlagModel) -> Poly:
    """The left member of :func:`verify_identity`, pushed forward through
    the product of Grassmannians G_{f-p}(F) x G_{e-p}(E), not the flag.

    The flag embeds in the product as the zero locus of S' -> E/R', so
    the push-forward picks up the factor c_top(S'* ⊗ E/R').  The result,
    a symmetric function pair in fresh alphabets, is mapped back onto
    the Chern roots of F and E of the model.
    """
    ctx, fs = model.ctx, model.flag
    f, p, n, e = fs.f, fs.p, fs.n, ctx.e
    ring = Ring([("u", f), ("v", e)])
    u = ring.block("u")
    v = ring.block("v")
    s_dual = Alphabet(ring, u[: f - p], negated=True)
    r_dual = Alphabet(ring, v[: e - p], negated=True)
    rs_diff = difference(r_dual, s_dual)
    correction = tensor_sum_product(s_dual, Alphabet(ring, v[e - p :]))
    integrand = _identity_integrand(kind, f, p, n, s_dual, rs_diff)[1] * correction
    pushed = grassmann_pushforward(integrand, GrassmannSetup(u[f - p :] + u[: f - p], p))
    pushed = grassmann_pushforward(pushed, GrassmannSetup(v[e - p :] + v[: e - p], p))
    pairs = expand_schur_pair(pushed, Alphabet(ring, u), Alphabet(ring, v))
    return schur_sum("s", ((I, J, c) for (I, J), c in pairs.items()), ctx.F, ctx.E)


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
    code object; bounds left as None keep the suite's default.  A bound
    that none of the named suites takes raises ``ValueError`` before any
    suite runs, since ignoring it would report the default sweep as the
    one asked for.
    """
    suites = [SUITES[name] for name in names]
    takes = [fn.__code__.co_varnames[: fn.__code__.co_argcount] for fn in suites]
    given = {k: v for k, v in bounds.items() if v is not None}
    taken = set().union(*takes)
    unused = [k for k in given if k not in taken]
    if unused:
        raise ValueError(
            f"suite {'/'.join(names)} takes no {', '.join(unused)}"
            f" (it takes {', '.join(sorted(taken))})"
        )
    out = []
    for fn, accepted in zip(suites, takes):
        out.extend(fn(**{k: v for k, v in given.items() if k in accepted}))
    return out
