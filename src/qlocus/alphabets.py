"""Alphabets of Chern roots, their generating series and the products of
root sums (:func:`pair_sum_product`, :func:`tensor_sum_product`).

An :class:`Alphabet` is an ordered tuple of ring variables and root
values, optionally with all signs flipped (the roots of a dual bundle).  A
:class:`VirtualAlphabet` is a formal difference of alphabets; only the
complete symmetric series is defined for it.

Two evaluation models are used everywhere:

* ``surjection`` — one variable block ``f`` for F and one block ``k``
  for the kernel K, with E presented as the concatenation F + K, so that
  s_i(E - F) is literally s_i(K);
* ``independent`` — separate blocks ``e`` and ``f`` with E - F a genuine
  virtual difference.

Both are :class:`~qlocus.records.Frozen` records, so they compare by
identity: two alphabets built from the same roots are distinct objects,
and the memo tables key on :meth:`sig` instead.
"""
from __future__ import annotations

from .polyring import Poly, Ring, product
from .records import Frozen


class Alphabet(Frozen):
    """An ordered set of Chern roots, possibly negated: the ring
    ``variables``, then the integers ``values``."""

    __slots__ = ("ring", "variables", "negated", "values")

    def __init__(
        self, ring: Ring, variables: tuple[int, ...], negated: bool = False, values: tuple = ()
    ):
        if any(type(x) is not int for x in (*variables, *values)):
            raise ValueError(f"alphabet variables and values must be integers, got {variables!r}, {values!r}")
        if len(set(variables)) != len(variables):
            raise ValueError("alphabet variables must be distinct")
        if variables and (min(variables) < 0 or max(variables) >= ring.nvars):
            raise ValueError(f"alphabet variables must lie in 0..{ring.nvars - 1}")
        self._set(ring=ring, variables=variables, negated=negated, values=values)

    @property
    def size(self) -> int:
        return len(self.variables) + len(self.values)

    def dual(self) -> "Alphabet":
        return Alphabet(self.ring, self.variables, not self.negated, self.values)

    def roots(self) -> list[Poly]:
        vs = [self.ring.variable(i) for i in self.variables] + [self.ring.const(c) for c in self.values]
        return [-v for v in vs] if self.negated else vs

    def sig(self) -> tuple:
        return ("A", self.variables, self.negated, self.values)


class VirtualAlphabet(Frozen):
    """Formal difference (sum of ``pos``) - (sum of ``neg``)."""

    __slots__ = ("pos", "neg")

    def __init__(self, pos: tuple[Alphabet, ...], neg: tuple[Alphabet, ...] = ()):
        alphabets = pos + neg
        if not alphabets:
            raise ValueError("a virtual alphabet needs at least one alphabet")
        if any(a.ring is not alphabets[0].ring for a in alphabets):
            raise ValueError("the alphabets of a virtual alphabet must share one ring")
        self._set(pos=pos, neg=neg)

    @property
    def ring(self) -> Ring:
        return (self.pos + self.neg)[0].ring

    def dual(self) -> "VirtualAlphabet":
        return VirtualAlphabet(
            tuple(a.dual() for a in self.pos), tuple(a.dual() for a in self.neg)
        )

    def sig(self) -> tuple:
        return ("V", tuple(a.sig() for a in self.pos), tuple(a.sig() for a in self.neg))


def _as_virtual(v) -> VirtualAlphabet:
    if isinstance(v, Alphabet):
        return VirtualAlphabet((v,))
    return v


def difference(a, b) -> VirtualAlphabet:
    """a - b, for alphabets or virtual alphabets on either side:
    (P - N) - (P' - N') = (P + N') - (N + P')."""
    a, b = _as_virtual(a), _as_virtual(b)
    return VirtualAlphabet(a.pos + b.neg, a.neg + b.pos)


def _complete_series(v: VirtualAlphabet, upto: int, grown=None) -> tuple[list[Poly], list[Poly]]:
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
    factors = [(b, False) for alph in v.neg for b in alph.roots()]
    factors += [(a, True) for alph in v.pos for a in alph.roots()]
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


def complete_series(v, upto: int) -> list[Poly]:
    """s_0, s_1, ... of an alphabet or virtual alphabet, at least through
    s_upto: the memoized series, extended when it is too short."""
    v = _as_virtual(v)
    ring = v.ring
    key = ("h", v.sig())
    grown = ring.memo.get(key)
    if grown is None or len(grown[0]) <= upto:
        grown = _complete_series(v, upto, grown)
        ring.memo[key] = grown
    return grown[0]


def complete_sym(i: int, v) -> Poly:
    """s_i of an alphabet or virtual alphabet: the degree-i coefficient of
    the product of geometric series of the positive roots times the
    linear factors of the negative roots."""
    if i < 0:
        return _as_virtual(v).ring.zero
    return complete_series(v, i)[i]


def q_sym(i: int, a: Alphabet) -> Poly:
    """Degree-i coefficient of prod (1+a t)/(1-a t), the one-row
    Q-function: the complete series of A - A^∨.

    Only genuine alphabets are valid here: the series of a virtual
    difference is not a Q-function and is rejected.
    """
    if not isinstance(a, Alphabet):
        raise TypeError("Q-functions are defined for genuine alphabets only")
    return complete_sym(i, difference(a, a.dual()))


def pair_sum_product(a: Alphabet, strict: bool) -> Poly:
    """Product of (a_i + a_j) over i < j (strict) or i <= j."""
    roots = a.roots()
    return product(
        a.ring,
        (
            roots[i] + roots[j]
            for i in range(len(roots))
            for j in range(i + 1 if strict else i, len(roots))
        ),
    )


def tensor_sum_product(a: Alphabet, b: Alphabet) -> Poly:
    """Product of (a_i + b_j) over all root pairs."""
    return product(a.ring, (x + y for x in a.roots() for y in b.roots()))


class ModelContext:
    """A ring with the bundle alphabets of one evaluation model."""

    def __init__(self, mode: str, e: int, f: int):
        if mode not in ("surjection", "independent"):
            raise ValueError(f"unknown model {mode!r}")
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
        a virtual difference otherwise."""
        if self.mode == "surjection":
            return self.K
        return difference(self.E, self.F)


def make_model(mode: str, e: int, f: int) -> ModelContext:
    return ModelContext(mode, e, f)
