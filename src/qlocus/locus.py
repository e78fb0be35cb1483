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
brute-force check, and expanded into S-polynomials of independent E and
F as a Schur-pair table.  The comparisons of these routes, a mnemonic
reindexing of the sum, and the push-forward identities along the kernel
flag live in :mod:`qlocus.verify`.
"""
from __future__ import annotations

from .alphabets import Alphabet, ModelContext, difference, tensor_sum_product
from .chern import ctop_sym2, ctop_wedge2, staircase_terms
from .gysin import GrassmannSetup, grassmann_pushforward
from .partitions import Partition
from .polyring import Poly, Ring, mul_add
from .records import Value
from .schur import expand_schur_basis, schur_difference_split, schur_of_kind, schur_sum


class LocusProblem(Value):
    """Ranks and symmetry type of one degeneracy problem, immutable and
    compared by value.

    e >= f >= 1 and 0 <= r <= f; for skew morphisms the rank drops in
    steps of two, so e = f forces r even.
    """

    __slots__ = ("e", "f", "r", "symmetry")

    def __init__(self, e: int, f: int, r: int, symmetry: str):
        if any(type(x) is not int for x in (e, f, r)):
            raise ValueError(f"ranks must be integers, got e={e!r}, f={f!r}, r={r!r}")
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
    # rectangle_partitions emits the I in decreasing lexicographic order,
    # and adding the fixed staircase keeps it: the K = rho + I come out
    # distinct and decreasing, so the terms need no merge and no sort
    return ClassExpression(kind, tuple((K, L, 1) for K, L in staircase_terms(stair, q, cols)))


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
    return grassmann_pushforward(ctop_kq * ctop_rq * top, GrassmannSetup(fv, q))


def class_schur_pair_expansion(problem: LocusProblem) -> dict[tuple[Partition, Partition], int]:
    """The class as sum of coeff * s_I(F) * s_J(E) with E, F independent,
    keyed by (I, J).

    Works term by term: Q/P_K(F) is a polynomial in f variables, and
    s_L(E - F) splits as a signed sum of s_mu(E) times a skew
    S-polynomial of F, so only small f-variable polynomials are ever
    expanded in the S-basis.  By linearity the F-parts of every term are
    first summed per E-shape mu, each into one raw sum
    (:func:`~qlocus.polyring.mul_add`), and each sum is expanded once.
    Agrees with the two-alphabet expansion of the evaluated class.
    """
    ring = Ring([("f", problem.f)])
    F = Alphabet(ring, tuple(range(problem.f)))
    expr = class_of(problem)
    qp = schur_of_kind(expr.kind)
    by_mu: dict[Partition, dict] = {}
    for K, L, c in expr.terms:
        base = qp(K, F)
        for mu, f_part in schur_difference_split(L, F, max_a_length=problem.e):
            total = by_mu.get(mu)
            if total is None:
                total = by_mu[mu] = {}
            mul_add(total, base, f_part, c)
    pairs: dict[tuple[Partition, Partition], int] = {}
    for mu, total in by_mu.items():
        for iota, c2 in expand_schur_basis(ring.finish(total), F).items():
            pairs[(iota, mu)] = c2
    return pairs


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
