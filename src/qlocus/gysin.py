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

A setup holds root positions only, in the ring of the class pushed:
every push reads its ring off ``P`` and refuses a position outside it.

The checks of these push-forwards against the closed Q/P formulas live
in :mod:`qlocus.verify`.
"""
from __future__ import annotations

from .polyring import MAX_EXP, SHIFT, Poly, is_symmetric
from .records import Frozen, Value


class BlockSymmetryError(ValueError):
    """Input to a symmetrizing operator is not symmetric in a designated
    variable group."""


class GrassmannSetup(Value):
    """Push-forward data for G^q(E) -> X, immutable and compared by value.

    ``variables`` are the positions of the Chern roots of E, in a fixed
    order, in the ring of the class pushed; the first ``q`` positions are
    the quotient part of the initial designation.
    """

    __slots__ = ("variables", "q")

    def __init__(self, variables: tuple[int, ...], q: int):
        if any(type(v) is not int for v in variables):
            raise ValueError(f"designated roots must be integers, got {variables!r}")
        if not 0 <= q <= len(variables):
            raise ValueError(f"q={q} out of range for {len(variables)} roots")
        if len(set(variables)) != len(variables):
            raise ValueError("designated roots must be distinct")
        if min(variables, default=0) < 0:
            raise ValueError("designated roots must be non-negative")
        self._set(variables=variables, q=q)

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
    if max(vs, default=0) >= P.ring.nvars:
        raise ValueError(f"designated roots must lie in 0..{P.ring.nvars - 1}")
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


def flag_pushforward(P: Poly, fs: FlagSetup) -> Poly:
    """Push forward along the two-step flag: first the inner G_n(C)
    (quotient part: the roots of C/R), then the outer G^p(F)."""
    inner = GrassmannSetup(fs.fq_vars() + fs.k_vars, fs.p)
    outer = GrassmannSetup(fs.fq_vars() + fs.s_vars(), fs.p)
    return grassmann_pushforward(grassmann_pushforward(P, inner), outer)
