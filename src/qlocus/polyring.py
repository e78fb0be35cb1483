"""Exact sparse multivariate polynomials over the integers.

Variables live in named blocks declared once per :class:`Ring` (one ring
per computation).  A monomial is stored as a single integer with a field
of seven bits per variable, six exponent bits and a guard bit above them,
so multiplying monomials is integer addition; coefficients are Python
ints, the one coefficient type.  Every class computed here is
an integer polynomial, so a coefficient of any other type (a float, a
rational) is refused with ``TypeError`` rather than carried along.

The term order everywhere (leading terms, canonical rendering, exact
division) is graded reverse lexicographic with respect to the global
variable order, larger degrees first.  Its sort key is
(degree, -packed key): the last variable sits in the top field, so
comparing packed keys as integers compares (e_{n-1}, ..., e_0)
lexicographically.  Rendering splits each key at a field boundary into
a low and a high half, and memoizes the degree and the text of each
distinct half for the one call, so only distinct halves, far fewer than
the terms, are walked field by field, and the sign-and-factor text of
each distinct coefficient; it groups the keys by degree and sorts each
group as plain integers, ascending, with the degrees descending.

Every exponent is at most MAX_EXP = 63, so a valid key sets no bit
outside ``Ring.fields``, the ring's exponent bits.  Two exponents of at
most 63 add up to at most 126 < 2^7, so the sum of two valid keys never
carries into the next field, and a product passes the bound exactly when
one of its keys sets a guard bit.  A sum of products is added into one
raw dict by :func:`mul_add` and checked once, by :meth:`Ring.finish`.
"""
from __future__ import annotations

from functools import reduce
from operator import or_

SHIFT = 7                       # bits per exponent field, the top one a guard bit
MAX_EXP = (1 << (SHIFT - 1)) - 1  # 63; enough for every computation done here


class NonDivisibleError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _int(c) -> int:
    """``c`` itself when it is an ``int``, the one coefficient type."""
    if type(c) is not int:
        raise TypeError(f"polynomial coefficients are ints, got {type(c).__name__}")
    return c


def _ints(coefficients) -> None:
    """Refuse, with ``TypeError``, coefficients that are not all ints."""
    kinds = sorted(t.__name__ for t in set(map(type, coefficients)) - {int})
    if kinds:
        raise TypeError(f"polynomial coefficients are ints, got {', '.join(kinds)}")


def _render_fields(key: int, names, first: int) -> tuple[int, str]:
    """(degree, text) of the fields of ``key``, its first field being the
    exponent of variable ``first``: ``f1^2*f3``, or "" for no factor."""
    d = 0
    factors = []
    i = first
    while key:
        e = key & MAX_EXP
        if e == 1:
            factors.append(names[i])
        elif e:
            factors.append(f"{names[i]}^{e}")
        d += e
        key >>= SHIFT
        i += 1
    return d, "*".join(factors)


class Ring:
    """An ordered family of variable blocks, e.g. ``[("f", 3), ("k", 1)]``.

    Blocks of size one render as the bare block name (``h``); larger
    blocks append a 1-based index (``f1``, ``f2``, ...).
    """

    def __init__(self, blocks):
        self.blocks: dict[str, tuple[int, ...]] = {}
        self.names: list[str] = []
        pos = 0
        for name, size in blocks:
            if name in self.blocks:
                raise ValueError(f"duplicate block {name!r}")
            if type(size) is not int or size < 0:
                raise ValueError(f"block size must be a nonnegative int, got {size!r}")
            self.blocks[name] = tuple(range(pos, pos + size))
            if size == 1:
                self.names.append(name)
            else:
                self.names.extend(f"{name}{i + 1}" for i in range(size))
            pos += size
        self.nvars = pos
        self.fields = sum(MAX_EXP << (SHIFT * i) for i in range(pos))  # the valid exponent bits
        self.zero = Poly(self, {})
        self.one = Poly(self, {0: 1})
        self._vcache = [Poly(self, {1 << (SHIFT * i): 1}) for i in range(pos)]
        # alphabets/schur memo, keyed on an alphabet's root tuples (the
        # memo is the ring's own, so no key names the ring): ("h", pos,
        # neg) complete series, ("q", pos) the difference A - A^∨, ("Q",
        # prefix of pos, parts) Q-polynomials by the branching rule and
        # ("Pf", pos, parts) Pfaffian ones
        self.memo: dict = {}

    def block(self, name: str) -> tuple[int, ...]:
        return self.blocks[name]

    def variable(self, i: int) -> "Poly":
        if type(i) is not int or not 0 <= i < self.nvars:
            raise ValueError(f"variable index must be an int in 0..{self.nvars - 1}, got {i!r}")
        return self._vcache[i]

    def const(self, c) -> "Poly":
        return Poly(self, {0: c} if _int(c) else {})

    def poly(self, terms: dict) -> "Poly":
        """Canonicalize a raw {packed key: int coefficient} mapping; a key
        that is negative, reaches past the last variable or has a guard
        bit set raises ``ValueError``, a coefficient that is not an
        ``int`` raises ``TypeError``."""
        invalid = ~self.fields
        if any(k & invalid for k in terms):
            raise ValueError("not a packed key of this ring")
        _ints(terms.values())
        return Poly(self, {k: c for k, c in terms.items() if c})

    def finish(self, acc: dict) -> "Poly":
        """The polynomial of a raw sum of products of this ring's keys
        (:func:`mul_add`), which it takes over: zero coefficients are
        dropped, a surviving key outside ``fields`` (a guard bit set: an
        exponent past MAX_EXP) raises ``OverflowError``, and a coefficient
        that is not an ``int``, zero or not, raises ``TypeError``."""
        _ints(acc.values())
        if 0 in acc.values():  # only a cancelled key holds a 0
            acc = {k: c for k, c in acc.items() if c}
        if reduce(or_, acc, 0) & ~self.fields:
            raise OverflowError("product exponent exceeds the packed-exponent bound")
        return Poly(self, acc)

    def monomial(self, exps, c=1) -> "Poly":
        """Monomial from a full-length exponent sequence."""
        return self.poly({self.pack(exps): c})

    # -- packed-key helpers -------------------------------------------

    def pack(self, exps) -> int:
        """Packed key of an exponent sequence; a short one pads with zeros."""
        if len(exps) > self.nvars:
            raise ValueError(f"{len(exps)} exponents for a ring of {self.nvars} variables")
        k = 0
        for i, e in enumerate(exps):
            if not 0 <= e <= MAX_EXP:
                raise OverflowError(f"exponent {e} out of range")
            k |= e << (SHIFT * i)
        return k

    def unpack(self, key: int) -> tuple[int, ...]:
        return tuple((key >> (SHIFT * i)) & MAX_EXP for i in range(self.nvars))

    def key_degree(self, key: int) -> int:
        d = 0
        while key:
            d += key & MAX_EXP
            key >>= SHIFT
        return d

    def _invkey(self, key: int):
        """Heap key: grevlex-larger monomials compare smaller."""
        return (-self.key_degree(key), key)

    def sort_key(self, key: int):
        """Grevlex sort key; sort descending to get the canonical order."""
        return (self.key_degree(key), -key)


class Poly:
    """Sparse polynomial; ``terms`` maps packed monomial keys to nonzero
    int coefficients.  Instances are treated as immutable."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        return isinstance(other, Poly) and self.ring is other.ring and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, int):
                return NotImplemented
            other = self.ring.const(other)
        elif other.ring is not self.ring:
            raise ValueError("polynomials of different rings")
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, int):
                return NotImplemented
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "Poly":
        if not _int(c):
            return self.ring.zero
        return Poly(self.ring, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other) if isinstance(other, int) else NotImplemented
        out: dict = {}
        mul_add(out, self, other)
        return self.ring.finish(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- structure -----------------------------------------------------

    def total_degree(self) -> int:
        """Maximum total degree of a term; -1 for the zero polynomial."""
        return max(map(self.ring.key_degree, self.terms), default=-1)

    def leading_key(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=self.ring.sort_key)

    def total_degree_component(self, d: int) -> "Poly":
        kd = self.ring.key_degree
        return Poly(self.ring, {k: c for k, c in self.terms.items() if kd(k) == d})

    def constant(self):
        """The coefficient of the constant monomial."""
        return self.terms.get(0, 0)

    # -- rendering -----------------------------------------------------

    def __str__(self):
        terms = self.terms
        if not terms:
            return "0"
        names = self.ring.names
        half = (self.ring.nvars + 1) // 2
        cut = SHIFT * half
        mask = (1 << cut) - 1
        # half key -> (degree, text), built once per distinct half; a high
        # half also keeps its text with the joining "*" in front
        lows: dict = {}
        highs: dict = {}
        by_degree: dict = {}
        for k in terms:
            low, high = k & mask, k >> cut
            lo = lows.get(low)
            if lo is None:
                lo = lows[low] = _render_fields(low, names, 0)
            hi = highs.get(high)
            if hi is None:
                d, text = _render_fields(high, names, half)
                hi = highs[high] = (d, text, "*" + text if text else "")
            d = lo[0] + hi[0]
            group = by_degree.get(d)
            if group is None:
                by_degree[d] = [k]
            else:
                group.append(k)
        constant = terms.get(0)
        if constant is not None:
            del by_degree[0]  # the constant is the one key of degree 0
        # coefficient -> its sign and factor, " - 3*", built once per
        # distinct coefficient; the first term's sign is fixed at the end
        heads = {
            c: (" - " if c < 0 else " + ") + (f"{abs(c)}*" if abs(c) != 1 else "")
            for c in set(terms.values())
        }
        pieces = []
        append = pieces.append
        # descending (degree, -key): degrees down, keys up within a degree
        for d in sorted(by_degree, reverse=True):
            for k in sorted(by_degree[d]):
                head, lo = heads[terms[k]], lows[k & mask][1]
                append(head + lo + highs[k >> cut][2] if lo else head + highs[k >> cut][1])
        if constant is not None:
            append((" - " if constant < 0 else " + ") + str(-constant if constant < 0 else constant))
        first = pieces[0]  # fixed here, not on the joined text, which would copy it
        pieces[0] = first[3:] if first[1] == "+" else "-" + first[3:]
        return "".join(pieces)

    def __repr__(self):
        s = str(self)
        return f"<Poly {s if len(s) <= 60 else s[:57] + '...'}>"


def exact_div(num: Poly, den: Poly) -> Poly:
    """Exact quotient ``num / den`` in Z[x]; raises NonDivisibleError if
    ``den`` does not divide ``num`` there, also when a leading coefficient
    does not divide.

    Standard leading-term elimination in grevlex order with a lazy-deletion
    heap; since an exact quotient exists iff every intermediate leading
    term is divisible by the leading term of ``den``, no full reduction is
    needed.
    """
    import heapq  # here, not at the top: only the tests divide, so a CLI start skips it

    ring = num.ring
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return ring.zero
    dk = den.leading_key()
    dc = den.terms[dk]
    dexp = ring.unpack(dk)
    work = dict(num.terms)
    invkey = ring._invkey
    heap = [(invkey(k), k) for k in work]
    heapq.heapify(heap)
    unpack = ring.unpack
    dterms = list(den.terms.items())
    quotient: dict = {}
    while heap:
        _, k = heapq.heappop(heap)
        c = work.get(k)
        if not c:
            continue
        ke = unpack(k)
        if any(a < b for a, b in zip(ke, dexp)):
            raise NonDivisibleError("leading term not divisible")
        qc, rem = divmod(c, dc)
        if rem:
            raise NonDivisibleError("leading coefficient not divisible")
        diff = k - dk
        quotient[diff] = qc
        for k2, c2 in dterms:
            kk = k2 + diff
            old = work.get(kk)
            if old is None:
                work[kk] = -qc * c2
                heapq.heappush(heap, (invkey(kk), kk))
            else:
                v = old - qc * c2
                if v:
                    work[kk] = v
                else:
                    del work[kk]
    if any(work.values()):
        raise NonDivisibleError("nonzero remainder")
    return ring.poly(quotient)


def apply_permutation(P: Poly, perm) -> Poly:
    """Relabel variables: exponent of variable i moves to ``perm[i]``.

    ``perm`` is a full-length bijection of variable positions.
    """
    ring = P.ring
    if sorted(perm) != list(range(ring.nvars)):
        raise ValueError("not a permutation of the variables")
    shifts = [SHIFT * p for p in perm]
    out = {}
    for k, c in P.terms.items():
        nk = 0
        i = 0
        while k:
            e = k & MAX_EXP
            if e:
                nk |= e << shifts[i]
            k >>= SHIFT
            i += 1
        out[nk] = c
    return Poly(ring, out)


def apply_substitution(P: Poly, mapping: dict, target: Ring | None = None) -> Poly:
    """Substitute polynomials for variables.

    ``mapping`` sends variable positions of ``P.ring`` to polynomials in
    ``target`` (default: the same ring).  Unmapped variables are carried
    over unchanged, which requires ``target`` to be the source ring.
    """
    ring = P.ring
    if target is None:
        target = ring
    powers: dict[tuple[int, int], Poly] = {}

    def power(i: int, e: int) -> Poly:
        got = powers.get((i, e))
        if got is None:
            got = mapping[i] ** e
            powers[(i, e)] = got
        return got

    total = target.zero
    for k, c in P.terms.items():
        exps = ring.unpack(k)
        carried = 0
        piece = None
        for i, e in enumerate(exps):
            if not e:
                continue
            if i in mapping:
                piece = power(i, e) if piece is None else piece * power(i, e)
            else:
                if target is not ring:
                    raise ValueError(f"variable {ring.names[i]} has no image")
                carried |= e << (SHIFT * i)
        term = Poly(target, {carried: c})
        total = total + (term if piece is None else term * piece)
    return total


def is_symmetric(P: Poly, variables) -> bool:
    """True when ``P`` is invariant under all permutations of the listed
    variable positions, checked on adjacent transpositions (a, b): each
    term's coefficient against the coefficient at its key with fields a
    and b swapped, so no permuted copy is built, stopping at the first
    mismatch.  A position that is not an int in 0..nvars-1 raises
    ``ValueError``."""
    variables = list(variables)
    n = P.ring.nvars
    if any(type(v) is not int or not 0 <= v < n for v in variables):
        raise ValueError(f"variable positions must be integers in 0..{n - 1}, got {variables!r}")
    terms = P.terms
    get = terms.get
    for a, b in zip(variables, variables[1:]):
        sa, sb = SHIFT * a, SHIFT * b
        for k, c in terms.items():
            d = ((k >> sa) & MAX_EXP) - ((k >> sb) & MAX_EXP)
            if d and get(k - (d << sa) + (d << sb)) != c:
                return False
    return True


def mul_add(acc: dict, a: Poly, b: Poly, c: int = 1) -> None:
    """Add c * a * b into ``acc``, a raw {packed key: coefficient} sum
    that :meth:`Ring.finish` turns into a polynomial.  A sum of products
    built this way copies nothing per term, where adding Polys copies the
    growing total once per product.  Zeros are left in ``acc`` and the
    guard bits are checked by the one finishing step, so an exponent past
    the bound is refused exactly when it survives the sum."""
    if a.ring is not b.ring:
        raise ValueError("polynomials of different rings")
    ta, tb = a.terms, b.terms
    if len(ta) < len(tb):
        ta, tb = tb, ta
    get = acc.get
    for kb, cb in tb.items():
        cb *= c
        for ka, ca in ta.items():
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb


def product(ring: Ring, factors) -> Poly:
    """Product of an iterable of polynomials (1 for the empty product)."""
    result = ring.one
    for f in factors:
        result = result * f
    return result
