"""Alphabets of Chern roots, their generating series and the products of
root sums (:func:`pair_sum_product`, :func:`tensor_sum_product`).

An :class:`Alphabet` is the formal difference P - N of two flat tuples
of signed roots in one ring, the alphabet A - B of Fulton-Pragacz
(*Schubert Varieties and Degeneracy Loci*, LNM 1689): a bundle and a
difference of bundles are one object, and the alphabet is genuine when N
is empty.  The constructor builds a genuine one from ring variables and
root values, optionally with all signs flipped (the roots of a dual
bundle); :func:`difference` and the methods build every other.  Every
way of building one keeps it in lowest terms: a root found on both sides
is struck, so R - S with R ⊃ S is genuine, and an S-polynomial of it
takes the one-sided or hook rules of :mod:`qlocus.schur` instead of a
two-sided determinant.

Two evaluation models are used everywhere:

* ``surjection`` — one variable block ``f`` for F and one block ``k``
  for the kernel K, with E presented as the concatenation F + K, so that
  s_i(E - F) is literally s_i(K);
* ``independent`` — separate blocks ``e`` and ``f`` with E - F a
  two-sided difference.

An alphabet is a :class:`~qlocus.records.Value` record, and the memo
tables of its ring key on its root tuples: two alphabets built from the
same roots of one ring share every entry.
"""
from __future__ import annotations

from .polyring import Poly, Ring, product
from .records import Value


class Alphabet(Value):
    """The formal difference (roots of ``pos``) - (roots of ``neg``) in
    ``ring``.  A root is (position, negated) for a ring variable and the
    signed integer for a value.  No root is on both sides.

    The constructor builds the genuine alphabet (``neg`` empty) of the
    ring ``variables``, then the integers ``values``, all negated when
    ``negated`` is set."""

    __slots__ = ("ring", "pos", "neg")

    def __init__(
        self, ring: Ring, variables: tuple[int, ...], negated: bool = False, values: tuple = ()
    ):
        if any(type(x) is not int for x in (*variables, *values)):
            raise ValueError(f"alphabet variables and values must be integers, got {variables!r}, {values!r}")
        if len(set(variables)) != len(variables):
            raise ValueError("alphabet variables must be distinct")
        if variables and (min(variables) < 0 or max(variables) >= ring.nvars):
            raise ValueError(f"alphabet variables must lie in 0..{ring.nvars - 1}")
        pos = tuple((x, negated) for x in variables) + tuple(-c if negated else c for c in values)
        self._set(ring=ring, pos=pos, neg=())

    def dual(self) -> "Alphabet":
        return _alphabet(self.ring, _flipped(self.pos), _flipped(self.neg))

    def minus_dual(self) -> "Alphabet":
        """-V^∨, whose complete series is the elementary series of V."""
        return _alphabet(self.ring, _flipped(self.neg), _flipped(self.pos))

    def halves(self) -> tuple["Alphabet", "Alphabet"]:
        """P and -N, the one-sided alphabets of V = P - N."""
        return _alphabet(self.ring, self.pos, ()), _alphabet(self.ring, (), self.neg)

    def roots(self) -> tuple[list[Poly], list[Poly]]:
        """The roots of P and of N as polynomials."""
        return [_root(self.ring, r) for r in self.pos], [_root(self.ring, r) for r in self.neg]


def _alphabet(ring: Ring, pos: tuple, neg: tuple) -> Alphabet:
    """The alphabet ``pos`` - ``neg`` of flat signed roots, with every
    root found on both sides struck.  This is exact: the series is
    prod (1 - b t) / prod (1 - a t), and a factor found on both sides is
    1.  Roots are struck one occurrence at a time, from the right, and
    what is left keeps its order: (A + X) - X has the root tuple of A, so
    it reads A's memo entries."""
    if pos and neg:  # a one-sided alphabet has nothing to strike
        left, kept = list(reversed(pos)), []
        for r in reversed(neg):
            if r in left:
                left.remove(r)
            else:
                kept.append(r)
        pos, neg = tuple(reversed(left)), tuple(reversed(kept))
    v = object.__new__(Alphabet)
    v._set(ring=ring, pos=pos, neg=neg)
    return v


def _root(ring: Ring, root) -> Poly:
    if type(root) is int:
        return ring.const(root)
    x = ring.variable(root[0])
    return -x if root[1] else x


def _flipped(roots: tuple) -> tuple:
    return tuple(-r if type(r) is int else (r[0], not r[1]) for r in roots)


def difference(a: Alphabet, b: Alphabet) -> Alphabet:
    """a - b in lowest terms: (P - N) - (P' - N') = (P + N') - (N + P'),
    with every root found on both sides struck.  A difference that
    cancels completely has no root on either side: its s_0 is 1 and every
    other S-polynomial 0."""
    if a.ring is not b.ring:  # before any root is matched
        raise ValueError("the alphabets of a difference must share one ring")
    return _alphabet(a.ring, a.pos + b.neg, a.neg + b.pos)


def _complete_series(v: Alphabet, upto: int, grown=None) -> tuple[list[Poly], list[Poly]]:
    """Coefficients of the series prod 1/(1-a t) * prod (1-b t) up to t^upto.

    The series is built one degree at a time through the factors, linear
    ones first (that order makes the series of A - A^∨, ``q_sym``, two to
    three times cheaper than the other).  Entry j of a degree's column is
    the coefficient of the product of the first j factors, and the last
    column is all the next degree needs.  So ``grown``, the
    (coefficients, last column) pair of an earlier call, is extended,
    never rebuilt from t^0; the new pair is returned.
    """
    ring = v.ring
    pos, neg = v.roots()
    factors = [(b, False) for b in neg] + [(a, True) for a in pos]
    if grown is None:
        grown = ([ring.one], [ring.one] * (len(factors) + 1))
    series, column = list(grown[0]), grown[1]  # a copy: ``grown`` stays whole if a product overflows
    for _ in range(len(series), upto + 1):
        new = [ring.zero]
        for j, (r, geometric) in enumerate(factors, 1):
            new.append(new[-1] + r * column[j] if geometric else new[-1] - r * column[j - 1])
        series.append(new[-1])
        column = new
    return series, column


def complete_series(v: Alphabet, upto: int) -> list[Poly]:
    """s_0, s_1, ... of an alphabet, at least through s_upto: the
    memoized series, extended when it is too short."""
    key = ("h", v.pos, v.neg)
    grown = v.ring.memo.get(key)
    if grown is None or len(grown[0]) <= upto:
        grown = v.ring.memo[key] = _complete_series(v, upto, grown)
    return grown[0]


def complete_sym(i: int, v: Alphabet) -> Poly:
    """s_i of an alphabet: the degree-i coefficient of the product of
    geometric series of the positive roots times the linear factors of
    the negative roots."""
    if i < 0:
        return v.ring.zero
    return complete_series(v, i)[i]


def q_sym(i: int, a: Alphabet) -> Poly:
    """Degree-i coefficient of prod (1+a t)/(1-a t), the one-row
    Q-function: the complete series of A - A^∨.

    Only genuine alphabets are valid here: the series of a two-sided
    difference is not a Q-function and is rejected.
    """
    if a.neg:
        raise TypeError("Q-functions are defined for genuine alphabets only")
    memo = a.ring.memo
    key = ("q", a.pos)
    v = memo.get(key)
    if v is None:  # A - A^∨ is built once per alphabet
        v = memo[key] = difference(a, a.dual())
    return complete_sym(i, v)


def _genuine_roots(a: Alphabet) -> list[Poly]:
    if a.neg:
        raise TypeError("root-sum products are defined for genuine alphabets only")
    return a.roots()[0]


def pair_sum_product(a: Alphabet, strict: bool) -> Poly:
    """Product of (a_i + a_j) over the roots of a genuine alphabet, i < j
    (strict) or i <= j."""
    roots = _genuine_roots(a)
    return product(
        a.ring,
        (
            roots[i] + roots[j]
            for i in range(len(roots))
            for j in range(i + 1 if strict else i, len(roots))
        ),
    )


def tensor_sum_product(a: Alphabet, b: Alphabet) -> Poly:
    """Product of (a_i + b_j) over all root pairs of two genuine
    alphabets."""
    return product(a.ring, (x + y for x in _genuine_roots(a) for y in _genuine_roots(b)))


class ModelContext:
    """A ring with the bundle alphabets of one evaluation model."""

    def __init__(self, mode: str, e: int, f: int):
        if mode not in ("surjection", "independent"):
            raise ValueError(f"unknown model {mode!r}")
        if any(type(x) is not int for x in (e, f)):
            raise ValueError(f"ranks must be integers, got e={e!r}, f={f!r}")
        if not e >= f >= 0:
            raise ValueError(f"need e >= f >= 0, got e={e}, f={f}")
        self.mode = mode
        self.e = e
        self.f = f
        self.n = e - f
        if mode == "surjection":
            self.ring = Ring([("f", f), ("k", self.n)])
            fv = self.ring.block("f")
            kv = self.ring.block("k")
            self.F = Alphabet(self.ring, fv)
            self.K = Alphabet(self.ring, kv)
            self.E = Alphabet(self.ring, fv + kv)
        else:
            self.ring = Ring([("f", f), ("e", e)])
            self.F = Alphabet(self.ring, self.ring.block("f"))
            self.E = Alphabet(self.ring, self.ring.block("e"))
            self.K = None

    def e_minus_f(self):
        """The alphabet of E - F: the kernel block under a surjection,
        a two-sided difference otherwise."""
        if self.mode == "surjection":
            return self.K
        return difference(self.E, self.F)


def make_model(mode: str, e: int, f: int) -> ModelContext:
    return ModelContext(mode, e, f)
