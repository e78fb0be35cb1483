"""Integer partitions and the rectangle combinatorics used throughout.

A partition is a weakly decreasing tuple of positive integers; the empty
partition is written ``[]``.  Everything here is exact and purely
combinatorial: conjugation, containment, componentwise addition,
staircases, and complements of conjugates inside a rectangle.
"""
from __future__ import annotations

from itertools import combinations

from .records import Frozen


class Partition(Frozen):
    """Immutable partition with value semantics.

    Parts are stored with trailing zeros stripped, so ``Partition((2, 1, 0))``
    and ``Partition((2, 1))`` are the same object as far as ``==`` and
    ``hash`` are concerned.  It compares on ``parts`` alone, which is
    cheaper than the field tuple of :class:`~qlocus.records.Value`.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        ps = tuple(parts)
        if any(type(p) is not int for p in ps):
            raise ValueError(f"parts must be integers, got {parts}")
        while ps and ps[-1] == 0:
            ps = ps[:-1]
        for a, b in zip(ps, ps[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        if ps and ps[-1] < 0:
            raise ValueError(f"parts must be nonnegative, got {parts}")
        # set directly: ``_set`` would add about a third to the cost of the
        # most frequently built record
        object.__setattr__(self, "parts", ps)

    # -- basic protocol ------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def __str__(self):
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Inverse of ``str``: ``parse("[6,5]")`` and ``parse("[]")``."""
        t = text.strip()
        if not (t.startswith("[") and t.endswith("]")):
            raise ValueError(f"not a partition literal: {text!r}")
        inner = t[1:-1].strip()
        if not inner:
            return cls(())
        return cls(tuple(int(p) for p in inner.split(",")))

    # -- numerics ------------------------------------------------------

    @property
    def weight(self) -> int:
        """Sum of the parts."""
        return sum(self.parts)

    @property
    def length(self) -> int:
        """Number of nonzero parts."""
        return len(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (1-based), zero beyond the length."""
        if i < 1:
            raise ValueError(f"{self} has no part {i}: parts are numbered from 1")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def padded(self, n: int) -> tuple[int, ...]:
        """Parts zero-padded on the right to length ``n`` (must fit)."""
        if len(self.parts) > n:
            raise ValueError(f"{self} has more than {n} parts")
        return self.parts + (0,) * (n - len(self.parts))

    # -- structure -----------------------------------------------------

    def conjugate(self) -> "Partition":
        """Transpose of the diagram: part p of the conjugate counts the
        parts of ``self`` that are >= p."""
        if not self.parts:
            return Partition(())
        return Partition(
            tuple(sum(1 for q in self.parts if q >= p) for p in range(1, self.parts[0] + 1))
        )

    def contains(self, other: "Partition") -> bool:
        """Diagram containment: ``other`` fits inside ``self`` componentwise."""
        return all(self.part(i + 1) >= p for i, p in enumerate(other.parts))

    def add(self, other: "Partition") -> "Partition":
        """Componentwise sum of the zero-padded part vectors, a partition
        since a sum of weakly decreasing sequences is weakly decreasing."""
        n = max(len(self.parts), len(other.parts))
        return Partition(tuple(self.part(i) + other.part(i) for i in range(1, n + 1)))

    def is_strict(self) -> bool:
        """All parts distinct (and positive)."""
        return all(a > b for a, b in zip(self.parts, self.parts[1:] + (0,)))

    def remove_part(self, i: int) -> "Partition":
        """Partition with the i-th part (1-based) deleted."""
        if not 1 <= i <= len(self.parts):
            raise ValueError(f"{self} has no part {i}")
        return Partition(self.parts[: i - 1] + self.parts[i:])


def staircase(k: int) -> Partition:
    """The staircase (k, k-1, ..., 1); empty for k <= 0."""
    if k <= 0:
        return Partition(())
    return Partition(tuple(range(k, 0, -1)))


def rectangle_partitions(rows: int, cols: int) -> list[Partition]:
    """All partitions fitting in a ``rows x cols`` box, in decreasing
    lexicographic order of the zero-padded part vector.

    There are binomial(rows + cols, rows) of them.
    """
    if rows < 0 or cols < 0:
        raise ValueError("rows and cols must be nonnegative")
    return subpartitions(rectangle(rows, cols))


def rectangle(rows: int, cols: int) -> Partition:
    """The full ``rows x cols`` rectangle (cols, ..., cols)."""
    return Partition((cols,) * rows)


def complement_conjugate(I: Partition, n: int, q: int) -> Partition:
    """Complement of the conjugate of ``I`` inside the transposed box.

    ``I`` must fit in the box with q rows and n columns; the conjugate
    then fits in the box with n rows and q columns, and the result is
    (q - t_n, ..., q - t_1) where t is the conjugate padded to n parts.
    Applying the operation twice with (n, q) swapped gives back ``I``.
    """
    if not rectangle(q, n).contains(I):
        raise ValueError(f"{I} does not fit in a {q} x {n} box")
    t = I.conjugate().padded(n)
    return Partition(tuple(q - t[n - 1 - j] for j in range(n)))


def subpartitions(bound: Partition) -> list[Partition]:
    """All partitions contained in ``bound``, decreasing lexicographic."""
    out: list[Partition] = []

    def rec(prefix: list[int], i: int):
        out.append(Partition(tuple(prefix)))
        if i >= len(bound.parts):
            return
        hi = bound.parts[i]
        if prefix:
            hi = min(hi, prefix[-1])
        for p in range(hi, 0, -1):
            prefix.append(p)
            rec(prefix, i + 1)
            prefix.pop()

    rec([], 0)
    out.sort(key=lambda P: P.padded(len(bound.parts)), reverse=True)
    return out


def strict_partitions_bounded(max_part: int, max_length: int, max_weight: int | None = None) -> list[Partition]:
    """Strict partitions with parts <= max_part, length <= max_length and,
    optionally, weight <= max_weight.  Decreasing lexicographic order."""
    out = []
    pool = range(max_part, 0, -1)
    for k in range(min(max_length, max_part) + 1):
        for combo in combinations(pool, k):
            P = Partition(combo)
            if max_weight is None or P.weight <= max_weight:
                out.append(P)
    out.sort(key=lambda P: P.padded(max_length), reverse=True)
    return out
