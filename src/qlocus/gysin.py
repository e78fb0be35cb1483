"""Gysin push-forwards along Grassmannian and two-step flag bundles.

The push-forward along G^q(E) -> X is the classical symmetrizing
operator: with Chern roots a_1..a_e of E, the first q designated as the
quotient part,

    pi_*(P) = sum over cosets sigma of S_e/(S_q x S_r) of
              sigma( P / prod_{i<=q<j} (a_i - a_j) ).

It equals the divided-difference operator d_w of the longest minimal
coset representative w of S_e/(S_q x S_r) (Lascoux-Schutzenberger; see
Fulton-Pragacz, Schubert Varieties and Degeneracy Loci, LNM 1689).  With
r = e - q, a reduced word for w applies

    d_k, d_{k+1}, ..., d_{k+r-1}    for k = q-1 down to 0,

which carries each quotient root, the last one first, past all r
complementary roots.  Each d_i(P) = (P - s_i P) / (a_i - a_{i+1}) is
evaluated term by term on packed keys, so the result is exact by
construction: no rational function and no polynomial division anywhere.
A P that is not symmetric in each designated part is rejected rather
than symmetrized.
"""
from __future__ import annotations

import math

from .alphabets import Alphabet, tensor_sum_product
from .partitions import Partition
from .polyring import MAX_EXP, SHIFT, Poly, Ring, is_symmetric
from .records import Frozen, Value
from .schur import schur_p, schur_q


class BlockSymmetryError(ValueError):
    """Input to a symmetrizing operator is not symmetric in a designated
    variable group."""


class GrassmannSetup(Value):
    """Push-forward data for G^q(E) -> X, immutable and compared by value.

    ``variables`` are the Chern roots of E in a fixed order; the first
    ``q`` positions are the quotient part of the initial designation.
    """

    __slots__ = ("ring", "variables", "q")

    def __init__(self, ring: Ring, variables: tuple[int, ...], q: int):
        if not 0 <= q <= len(variables):
            raise ValueError(f"q={q} out of range for {len(variables)} roots")
        if len(set(variables)) != len(variables):
            raise ValueError("designated roots must be distinct")
        if not all(0 <= v < ring.nvars for v in variables):
            raise ValueError(f"designated roots must lie in 0..{ring.nvars - 1}")
        self._set(ring=ring, variables=variables, q=q)

    @property
    def e(self) -> int:
        return len(self.variables)


def _divided_difference(P: Poly, a: int, b: int) -> Poly:
    """(P - s P) / (x_a - x_b), s swapping the variables a and b: a term
    m x_a^i x_b^j maps to sign(i - j) (x_a x_b)^min(i,j) h_{|i-j|-1}(x_a, x_b) m,
    so no exponent grows."""
    sa, sb = SHIFT * a, SHIFT * b
    step = (1 << sa) - (1 << sb)
    out: dict = {}
    get = out.get
    for k, c in P.terms.items():
        i = (k >> sa) & MAX_EXP
        j = (k >> sb) & MAX_EXP
        if i == j:
            continue
        lo, d = min(i, j), abs(i - j)
        c = c if i > j else -c
        # x_a^lo x_b^(lo+d-1) m, then d-1 steps each moving one x_b to x_a
        k += ((lo - i) << sa) + ((lo + d - 1 - j) << sb)
        for _ in range(d):
            out[k] = get(k, 0) + c
            k += step
    return P.ring.poly(out)


def grassmann_pushforward(P: Poly, setup: GrassmannSetup) -> Poly:
    """Push forward a class along G^q(E) -> X.

    ``P`` must be symmetric separately in the quotient part and in the
    complementary part of the designated roots.
    """
    vs, q = setup.variables, setup.q
    if not is_symmetric(P, vs[:q]):
        raise BlockSymmetryError("not symmetric in the quotient roots")
    if not is_symmetric(P, vs[q:]):
        raise BlockSymmetryError("not symmetric in the complementary roots")
    for k in range(q - 1, -1, -1):
        for j in range(k, k + setup.e - q):
            P = _divided_difference(P, vs[j], vs[j + 1])
    return P


class RepeatedPushforward(Frozen):
    """Push-forwards of ``factor * P`` for one fixed factor and many P."""

    __slots__ = ("setup", "factor")

    def __init__(self, setup: GrassmannSetup, factor: Poly):
        self._set(setup=setup, factor=factor)

    def push(self, P: Poly) -> Poly:
        return grassmann_pushforward(self.factor * P, self.setup)


class FlagSetup(Value):
    """Two-step flag bundle Fl_{f-p, e-p}(F, E) -> X in the surjection
    model, presented as an inner Grassmannian over an outer one;
    immutable and compared by value.

    Chern roots: ``f_vars`` for F, ``k_vars`` for the kernel of E -> F.
    The outer stage is G^p(F) (sub S of rank f-p, the first f-p roots of
    F); the inner stage is G_n(C) for the rank n+p cokernel C = E/S,
    whose roots are the last p roots of F together with the kernel roots.
    ``2p < f`` is required.
    """

    __slots__ = ("f_vars", "k_vars", "p")

    def __init__(self, f_vars: tuple[int, ...], k_vars: tuple[int, ...], p: int):
        if not 0 <= 2 * p < len(f_vars):
            raise ValueError(f"need 0 <= 2p < f, got p={p}, f={len(f_vars)}")
        self._set(f_vars=f_vars, k_vars=k_vars, p=p)

    @property
    def f(self) -> int:
        return len(self.f_vars)

    @property
    def n(self) -> int:
        return len(self.k_vars)

    def s_vars(self) -> tuple[int, ...]:
        return self.f_vars[: self.f - self.p]

    def fq_vars(self) -> tuple[int, ...]:
        return self.f_vars[self.f - self.p :]


def flag_pushforward(P: Poly, fs: FlagSetup, ring: Ring) -> Poly:
    """Push forward along the two-step flag: first the inner G_n(C)
    (quotient part: the roots of C/R), then the outer G^p(F)."""
    inner = GrassmannSetup(ring, fs.fq_vars() + fs.k_vars, fs.p)
    outer = GrassmannSetup(ring, fs.fq_vars() + fs.s_vars(), fs.p)
    return grassmann_pushforward(grassmann_pushforward(P, inner), outer)


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
    """G^q(E) on its own e-variable ring: the setup, c_top(R ⊗ Q), and
    the alphabets of Q and E; immutable.  One instance serves every check
    at (e, q), so the ring memo builds each series and Q-polynomial once."""

    __slots__ = ("e", "q", "setup", "ctop_rq", "quotient", "total")

    def __init__(self, e: int, q: int):
        ring = Ring([("a", e)])
        quotient = Alphabet(ring, tuple(range(q)))
        ctop_rq = tensor_sum_product(Alphabet(ring, tuple(range(q, e))), quotient)
        setup = GrassmannSetup(ring, tuple(range(e)), q)
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
        want = schur_p(I, inst.total) if (e - q) % 2 == 0 else inst.setup.ring.zero
        return True, lhs == want
    return False, True
