"""Closed-form cohomology classes of symmetric and skew-symmetric
degeneracy loci, with independent derivation routes for cross-checking.

For a generic morphism phi: E* -> E (e = rank E) that is symmetric or
skew-symmetric and factors through a subbundle F of rank f, the locus
D_r where rank(phi) <= r has a class expressible as

    sum over I in the (e-f) x (f-r) box of
        [Q or P]_{staircase + I}(F) * s_{CĨ}(E - F)

with the staircase and the Q/P flavour depending on the symmetry type
and the parity of r.  The same class is also computable as a Gysin
push-forward from a Grassmannian bundle of kernels, which is the
brute-force check; a mnemonic reindexing of the sum and a Schur-pair
expansion over independent E and F round out the interfaces.
"""
from __future__ import annotations

from .alphabets import Alphabet, ModelContext, difference, make_model, tensor_sum_product
from .chern import ctop_sym2, ctop_wedge2, skew_schur_sum, staircase_schur_sum, staircase_terms
from .gysin import FlagSetup, GrassmannSetup, flag_pushforward, grassmann_pushforward
from .partitions import Partition, rectangle_partitions, staircase
from .polyring import Poly, Ring
from .records import Frozen, Value
from .schur import (
    SchurPairExpansion,
    expand_schur_basis,
    expand_schur_pair,
    schur_difference_split,
    schur_p,
    schur_q,
    schur_s,
    schur_sum,
)


class LocusProblem(Value):
    """Ranks and symmetry type of one degeneracy problem, immutable and
    compared by value.

    e >= f >= 1 and 0 <= r <= f; for skew morphisms the rank drops in
    steps of two, so e = f forces r even.
    """

    __slots__ = ("e", "f", "r", "symmetry")

    def __init__(self, e: int, f: int, r: int, symmetry: str):
        if symmetry not in ("sym", "skew"):
            raise ValueError(f"symmetry must be 'sym' or 'skew', got {symmetry!r}")
        if not e >= f >= 1:
            raise ValueError(f"need e >= f >= 1, got e={e}, f={f}")
        if not 0 <= r <= f:
            raise ValueError(f"need 0 <= r <= f, got r={r}")
        if symmetry == "skew" and e == f and r % 2:
            raise ValueError("skew with e=f requires even r")
        self._set(e=e, f=f, r=r, symmetry=symmetry)  # symmetry "sym" | "skew"

    @property
    def n(self) -> int:
        return self.e - self.f

    @property
    def q(self) -> int:
        return self.f - self.r


def expected_codim(problem: LocusProblem) -> int:
    """q(2n + q + 1)/2 in the symmetric case, q(2n + q - 1)/2 in the
    skew case, with q = f - r and n = e - f."""
    q, n = problem.q, problem.n
    if problem.symmetry == "sym":
        return q * (2 * n + q + 1) // 2
    return q * (2 * n + q - 1) // 2


class ClassExpression(Value):
    """A sum of coeff * [Q|P]_K(F) * s_L(E-F) terms with strict K,
    immutable and compared by value."""

    __slots__ = ("kind", "terms")

    def __init__(self, kind: str, terms: tuple[tuple[Partition, Partition, int], ...]):
        self._set(kind=kind, terms=terms)  # kind "Q" | "P"

    @staticmethod
    def build(kind: str, terms) -> "ClassExpression":
        merged: dict[tuple[Partition, Partition], int] = {}
        for K, L, c in terms:
            merged[(K, L)] = merged.get((K, L), 0) + c
        ordered = sorted(
            ((K, L, c) for (K, L), c in merged.items() if c),
            key=lambda t: (t[0].parts, t[1].parts),
            reverse=True,
        )
        return ClassExpression(kind, tuple(ordered))

    def term_set(self) -> set[tuple[Partition, Partition, int]]:
        return set(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for K, L, c in self.terms:
            factors = []
            if abs(c) != 1 or (not K.length and not L.length):
                factors.append(str(abs(c)))
            if K.length:
                factors.append(f"{self.kind}{K}(F)")
            if L.length:
                factors.append(f"s{L}(E-F)")
            body = "*".join(factors)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append((" + " if c > 0 else " - ") + body)
        return "".join(pieces)

    def to_structured(self) -> dict:
        return {
            "kind": self.kind,
            "terms": [
                {"K": list(K.parts), "L": list(L.parts), "coeff": c}
                for K, L, c in self.terms
            ],
        }


def class_of(problem: LocusProblem) -> ClassExpression:
    """The closed-form class of D_r.

    * symmetric:            Q_{rho_q + I}(F) s_{CĨ}(E-F),  I in the q x n box
    * skew, r even:         P_{rho_{q-1} + I}(F) s_{CĨ}(E-F), same box
    * skew, r odd (n >= 1): P_{rho_q + J}(F) s_{CJ̃}(E-F),  J in the q x (n-1) box
    """
    q, n = problem.q, problem.n
    if problem.symmetry == "sym":
        kind, stair, cols = "Q", q, n
    elif problem.r % 2 == 0:
        kind, stair, cols = "P", q - 1, n
    else:
        kind, stair, cols = "P", q, n - 1
    return ClassExpression.build(kind, [(K, L, 1) for K, L in staircase_terms(stair, q, cols)])


def class_via_mnemonic(problem: LocusProblem) -> ClassExpression:
    """Reindexed form of the same sum: the coefficient of s_{Ĩ}(E-F) is
    [Q|P]_{T - I}(F) with I written with increasing parts, where

    * symmetric:    T = (e-r, ..., n+1)
    * skew, r even: T = (e-r-1, ..., n)

    No such reindexing is defined for skew loci with odd r.
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
    return ClassExpression.build(kind, terms)


def expression_to_poly(expr: ClassExpression, ctx: ModelContext) -> Poly:
    """Evaluate on Chern roots."""
    return schur_sum(expr.kind, expr.terms, ctx.F, ctx.e_minus_f())


def class_via_pushforward(problem: LocusProblem, ctx: ModelContext) -> Poly:
    """Independent derivation of the class in the surjection model:

        pi_*( c_top(K ⊗ Q) c_top(R ⊗ Q) c_top(S²Q or ∧²Q) )

    over the Grassmannian bundle G^q(F) of corank-q quotients of F, with
    R the tautological subbundle, Q the quotient and K the kernel of
    E -> F.  The kernel of the degenerate form is the preimage of R.
    """
    if ctx.mode != "surjection":
        raise ValueError("push-forward derivation needs the surjection model")
    if (ctx.e, ctx.f) != (problem.e, problem.f):
        raise ValueError("context ranks do not match the problem")
    q = problem.q
    ring = ctx.ring
    fv = ring.block("f")
    quotient = Alphabet(ring, fv[:q])
    ctop_kq = tensor_sum_product(ctx.K, quotient)
    ctop_rq = tensor_sum_product(Alphabet(ring, fv[q:]), quotient)
    top = ctop_sym2(quotient) if problem.symmetry == "sym" else ctop_wedge2(quotient)
    setup = GrassmannSetup(ring, fv, q)
    return grassmann_pushforward(ctop_kq * ctop_rq * top, setup)


def class_schur_pair_expansion(problem: LocusProblem) -> SchurPairExpansion:
    """The class as sum of coeff * s_I(F) * s_J(E) with E, F independent.

    Works term by term: Q/P_K(F) is a polynomial in f variables, and
    s_L(E - F) splits as a signed sum of s_mu(E) times a skew
    S-polynomial of F, so only small f-variable polynomials are ever
    expanded in the S-basis.  By linearity the F-parts of every term are
    first summed per E-shape mu, and each sum is expanded once.  Agrees
    with the two-alphabet expansion of the evaluated class.
    """
    ring = Ring([("f", problem.f)])
    F = Alphabet(ring, tuple(range(problem.f)))
    expr = class_of(problem)
    qp = schur_q if expr.kind == "Q" else schur_p
    by_mu: dict[Partition, Poly] = {}
    for K, L, c in expr.terms:
        base = qp(K, F).scale(c)
        for mu, f_part in schur_difference_split(L, F, max_a_length=problem.e):
            piece = base * f_part
            by_mu[mu] = by_mu[mu] + piece if mu in by_mu else piece
    pairs: dict[tuple[Partition, Partition], int] = {}
    for mu, total in by_mu.items():
        for iota, c2 in expand_schur_basis(total, F).items():
            pairs[(iota, mu)] = c2
    return SchurPairExpansion(pairs)


def projective_degree(e_twists, f_twists, r: int, symmetry: str) -> tuple[int, int]:
    """Codimension and degree of D_r for E = sum of O(e_i), F = sum of
    O(f_j) over projective space.  The class is homogeneous of degree
    codim in the roots e_i h and f_j h, so it is deg * h^codim, and deg is
    the closed form evaluated on the twists themselves: on two value
    alphabets, in a ring with no variables."""
    for t in (*e_twists, *f_twists):
        if t != int(t):
            raise ValueError(f"twists must be integers, got {t!r}")
    problem = LocusProblem(len(e_twists), len(f_twists), r, symmetry)
    codim = expected_codim(problem)
    expr = class_of(problem)
    if any(K.weight + L.weight != codim for K, L, _ in expr.terms):
        raise ArithmeticError("class is not homogeneous of degree codim")
    ring = Ring([])
    E = Alphabet(ring, (), values=tuple(map(int, e_twists)))
    F = Alphabet(ring, (), values=tuple(map(int, f_twists)))
    return codim, schur_sum(expr.kind, expr.terms, F, difference(E, F)).constant()


# -- push-forward identities along the kernel flag --------------------


class IdentityCheck(Frozen):
    """Three members of one push-forward identity: the staircase-sum
    integrand and its skew-Schur rewriting, both pushed down the flag,
    against the closed form; optionally the same push-forward computed
    through the ambient product of Grassmannians; immutable.  For kind
    "sym" every member carries a factor 2^p, so all of them are integral."""

    __slots__ = ("kind", "f", "p", "n", "lhs", "middle", "rhs", "via_product")

    def __init__(
        self, kind: str, f: int, p: int, n: int,
        lhs: Poly, middle: Poly, rhs: Poly, via_product: Poly | None = None,
    ):
        self._set(  # kind "sym" | "skew"
            kind=kind, f=f, p=p, n=n, lhs=lhs, middle=middle, rhs=rhs, via_product=via_product
        )

    @property
    def ok(self) -> bool:
        if not (self.lhs == self.rhs and self.middle == self.rhs):
            return False
        return self.via_product is None or self.via_product == self.rhs


class FlagModel(Frozen):
    """The surjection model of ranks (f + n, f) with the kernel flag of
    step p: the model ``ctx``, the flag setup ``flag``, S* and R* - S*;
    immutable.  One model serves both kinds of :func:`verify_identity`,
    so the ring memo builds each series and Q-polynomial once."""

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
    skew = kind == "skew"
    mult = schur_s(staircase(p - 1 + skew), s_dual)
    stair = staircase_schur_sum("P" if skew else "Q", f - p - skew, f - p, n, s_dual, rs_diff)
    return mult, stair * mult


def verify_identity(kind: str, model: FlagModel, cross_check: bool = False) -> IdentityCheck:
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

    with staircases rho_{f-p-1} and rho_{f-2p-1}.  ``cross_check`` also
    evaluates the first member through the product of Grassmannians.
    """
    if kind not in ("sym", "skew"):
        raise ValueError(f"kind must be 'sym' or 'skew', got {kind!r}")
    skew = kind == "skew"
    ctx, fs, s_dual, rs_diff = model.ctx, model.flag, model.s_dual, model.rs_diff
    f, p, n, e = fs.f, fs.p, fs.n, ctx.e
    mult, member1 = _identity_integrand(kind, f, p, n, s_dual, rs_diff)
    T = Partition(tuple(range(e - p - skew, n - skew, -1)))
    member2 = skew_schur_sum(T, s_dual, rs_diff) * mult
    f_dual = ctx.F.dual()
    ef_diff = difference(ctx.E.dual(), f_dual)
    rhs = staircase_schur_sum("P" if skew else "Q", f - 2 * p - skew, f - 2 * p, n, f_dual, ef_diff)
    if not skew:
        member2 = member2.scale(2 ** (f - p))
        rhs = rhs.scale(2**p)
    lhs = flag_pushforward(member1, fs, ctx.ring)
    middle = flag_pushforward(member2, fs, ctx.ring)
    via = _identity_via_product(kind, f, p, n, ctx) if cross_check else None
    return IdentityCheck(kind, f, p, n, lhs, middle, rhs, via)


def _identity_via_product(kind: str, f: int, p: int, n: int, ctx: ModelContext) -> Poly:
    """Evaluate the identity's left member through the product of
    Grassmannians G_{f-p}(F) x G_{e-p}(E) instead of the flag.

    The flag embeds in the product as the zero locus of S' -> E/R', so
    the push-forward picks up the factor c_top(S'* ⊗ E/R').  The result,
    a symmetric function pair in fresh alphabets, is mapped back onto
    the Chern roots of F and E.
    """
    e = f + n
    ring = Ring([("u", f), ("v", e)])
    u = ring.block("u")
    v = ring.block("v")
    s_dual = Alphabet(ring, u[: f - p], negated=True)
    r_dual = Alphabet(ring, v[: e - p], negated=True)
    rs_diff = difference(r_dual, s_dual)
    correction = tensor_sum_product(s_dual, Alphabet(ring, v[e - p :]))
    integrand = _identity_integrand(kind, f, p, n, s_dual, rs_diff)[1] * correction
    pushed = grassmann_pushforward(integrand, GrassmannSetup(ring, u[f - p :] + u[: f - p], p))
    pushed = grassmann_pushforward(pushed, GrassmannSetup(ring, v[e - p :] + v[: e - p], p))
    return expand_schur_pair(pushed, Alphabet(ring, u), Alphabet(ring, v)).to_poly(ctx.F, ctx.E)
