"""Schur S-, Q- and P-polynomials of alphabets, and expansions into them.

S-polynomials of (virtual) alphabets, skew or not, are all built by
:func:`schur_skew` (``schur_s`` is the skew shape over the empty
partition), with no memo of their own.  A straight shape on a difference
P - N is read off the factorization of hook Schur functions, a product
of root differences times two smaller S-polynomials, whenever the shape
allows it, and is 0 when it leaves the hook.  Every other S-polynomial is
a Jacobi-Trudi determinant (:func:`jacobi_trudi`) over a memoized
complete series: on a one-sided alphabet, that of its elementary series
(the conjugate shape over -V^∨ when the roots are positive, the shape as
it stands when they are negative); on a two-sided one, that of V or, for
a shape with fewer columns than rows, of -V^∨ on the conjugate shape.

A Q-polynomial of a strict lam on n roots with length(lam) >= n - 1 is
2^length(lam) * prod_{i<j} (a_i + a_j) * s_{lam - delta}, delta =
(n-1, ..., 0), the staircase factorization (:func:`schur_q`).  Shorter
ones are the Pfaffian Q_lam = Pf[Q_(lam_i, lam_j)], with a zero part
appended when lam has odd length (Macdonald, *Symmetric Functions and
Hall Polynomials*, III.8 (8.11)), expanded along the first part
(:func:`pfaffian_q`).  Its entries come from the one-row series q_i, the
complete series of A - A^∨:

    Q_(i,j) = q_i q_j + 2 * sum_{p=1..j} (-1)^p q_{i+p} q_{j-p},

so Q_(i,0) = q_i; a factor q_0 = 1 is never multiplied out.
P_I is Q_I divided by 2^length, which is always exact.

Expansions into the S-basis of one or two alphabets read each coefficient
off the terms of the input by straightening (see :func:`_straighten`).
"""
from __future__ import annotations

from .alphabets import (
    Alphabet,
    VirtualAlphabet,
    _as_virtual,
    complete_series,
    pair_sum_product,
    q_sym,
    tensor_sum_product,
)
from .partitions import Partition, subpartitions
from .polyring import MAX_EXP, SHIFT, Poly, Ring, is_symmetric, product


def determinant(ring: Ring, rows: list[list[Poly]]) -> Poly:
    """Determinant of a square matrix of polynomials, expanded row by row
    over column subsets."""
    k = len(rows)
    if k == 0:
        return ring.one
    dp = {0: ring.one}
    for r in range(k):
        ndp: dict[int, Poly] = {}
        for mask, val in dp.items():
            for c in range(k):
                bit = 1 << c
                if mask & bit:
                    continue
                entry = rows[r][c]
                if entry.is_zero():
                    continue
                term = val * entry
                if bin(mask >> (c + 1)).count("1") & 1:  # inversions added
                    term = -term
                key = mask | bit
                acc = ndp.get(key)
                ndp[key] = term if acc is None else acc + term
        dp = ndp
        if not dp:
            return ring.zero
    return dp.get((1 << k) - 1, ring.zero)


def schur_s(I: Partition, v) -> Poly:
    """S-polynomial s_I of an alphabet or virtual alphabet: the skew shape
    I over the empty partition."""
    return schur_skew(I, Partition(), v)


def schur_skew(lam: Partition, mu: Partition, v) -> Poly:
    """Skew S-polynomial s_{lam/mu}(v); requires mu ⊂ lam.

    A straight shape on P - N first tries the hook factorization
    (:func:`_hook_factor`).  Otherwise the value is a Jacobi-Trudi
    determinant (:func:`jacobi_trudi`) on one of two sides:
    s_{lam/mu}(V) = s_{lam'/mu'}(-V^∨), the dual Jacobi-Trudi identity,
    since the complete series of -V^∨ is the elementary series of V
    (Macdonald, *Symmetric Functions and Hall Polynomials*, I.5).  A
    one-sided alphabet takes the side of its elementary series: the
    conjugate shape over -V^∨ for positive roots, the shape as it stands
    for negative ones.  A two-sided alphabet takes the side with fewer
    rows.
    """
    if not lam.contains(mu):
        raise ValueError(f"{mu} is not contained in {lam}")
    v = _as_virtual(v)
    got = None if mu.parts else _hook_factor(lam, v)
    if got is not None:
        return got
    # The elementary series of n roots is 0 past n, and on variables its
    # entries have at most C(n, j) terms, where the complete series grows
    # without end; a two-sided alphabet has no such side.
    if lam.part(1) < lam.length if v.pos and v.neg else not v.neg:
        d = v.dual()  # -V^∨ swaps the sides of V^∨
        return jacobi_trudi(lam.conjugate(), mu.conjugate(), VirtualAlphabet(d.neg, d.pos))
    return jacobi_trudi(lam, mu, v)


def jacobi_trudi(lam: Partition, mu: Partition, v) -> Poly:
    """det [ s_{lam_p - mu_q - p + q}(v) ], built as it stands: no memo, no
    factorization, no change of side; requires mu ⊂ lam, as the matrix
    has only length(lam) rows.  :func:`schur_skew` calls it where the
    factorization does not apply; tests and ``verify`` call it directly
    as the oracle of the factorization."""
    if not lam.contains(mu):
        raise ValueError(f"{mu} is not contained in {lam}")
    v = _as_virtual(v)
    ring = v.ring
    k = lam.length
    if k == 0:
        return ring.one
    h = complete_series(v, lam.part(1) - mu.part(k) + k - 1)
    zero = ring.zero
    rows = [
        [h[j] if j >= 0 else zero for j in (lam.part(p) - mu.part(q) - p + q for q in range(1, k + 1))]
        for p in range(1, k + 1)
    ]
    return determinant(ring, rows)


def _hook_factor(lam: Partition, v: VirtualAlphabet) -> Poly | None:
    """s_lam(P - N) by the factorization of hook Schur functions
    (Berele-Regev, *Adv. Math.* 64, 1987; Macdonald I.3 ex. 23), with
    a = |P| and b = |N|:

    * lam_{a+1} > b: the shape leaves the (a, b)-hook and s_lam is 0;
    * lam_a >= b, a, b > 0: s_lam = prod (x - y over x in P, y in N)
      * s_alpha(P) * s_beta(-N), with alpha = (lam_1 - b, ..., lam_a - b)
      and beta = (lam_{a+1}, lam_{a+2}, ...).

    Returns None where neither applies (lam_a < b, or a one-sided
    alphabet), which leaves the determinant.
    """
    a = sum(x.size for x in v.pos)
    b = sum(x.size for x in v.neg)
    if lam.part(a + 1) > b:
        return v.ring.zero
    if not (a and b) or lam.part(a) < b:
        return None
    P = VirtualAlphabet(v.pos)
    minus_N = VirtualAlphabet((), v.neg)
    resultant = product(v.ring, (tensor_sum_product(xs, ys.dual()) for xs in v.pos for ys in v.neg))
    alpha = Partition(tuple(p - b for p in lam.parts[:a]))
    beta = Partition(lam.parts[a:])
    return resultant * schur_s(alpha, P) * schur_s(beta, minus_N)


def schur_q(I: Partition, a: Alphabet) -> Poly:
    """Q-polynomial of a strict partition on a genuine alphabet of n roots.

    A partition longer than n gives 0.  One of length l >= n - 1 is read
    off the staircase factorization, memoized on its parts:

        Q_lam(A) = 2^l * prod_{i<j} (a_i + a_j) * s_{lam - delta}(A),

    with lam padded to n parts and delta = (n-1, ..., 0).  At such a
    length every pair i < j enters the symmetrization formula for P_lam
    (Macdonald, *Symmetric Functions and Hall Polynomials*, III.2 (2.2)
    at t = -1), so P_lam is the product times the bialternant ratio
    a_lam / a_delta.  Shorter partitions are the Pfaffian
    (:func:`pfaffian_q`).
    """
    if not isinstance(a, Alphabet):
        raise TypeError("Q-polynomials are defined for genuine alphabets only")
    if not I.is_strict():
        raise ValueError(f"Q-polynomials are indexed by strict partitions, got {I}")
    n, l = a.size, I.length
    if l < n - 1:
        return pfaffian_q(I, a)
    ring = a.ring
    if l > n:
        return ring.zero
    key = ("Q", a.sig(), I.parts)
    got = ring.memo.get(key)
    if got is None:
        shape = Partition(tuple(p - (n - 1 - i) for i, p in enumerate(I.padded(n))))
        got = ring.memo[key] = (pair_sum_product(a, strict=True) * schur_s(shape, a)).scale(2**l)
    return got


def pfaffian_q(I: Partition, a: Alphabet) -> Poly:
    """Q_I(A) as the Pfaffian Pf[Q_(I_i, I_j)], expanded along the first
    part, memoized on the parts padded to even length.  It recurses only
    into itself and its memo entries are its own, so it never sees the
    staircase factorization: :func:`schur_q` calls it for the partitions
    that are too short to factor, and tests and ``verify`` call it as the
    oracle of the factorization."""
    if not isinstance(a, Alphabet):
        raise TypeError("Q-polynomials are defined for genuine alphabets only")
    parts = I.parts + (0,) * (I.length % 2)
    ring = a.ring
    key = ("Pf", a.sig(), parts)
    got = ring.memo.get(key)
    if got is not None:
        return got
    if not parts:
        got = ring.one
    elif len(parts) == 2:
        i, j = parts
        # q_0 = 1, so its products (j = 0, and p = j below) are skipped
        got = q_sym(i, a) * q_sym(j, a) if j else q_sym(i, a)
        for p in range(1, j + 1):
            term = q_sym(i + p, a) * q_sym(j - p, a) if p < j else q_sym(i + j, a)
            got = got + term.scale(2 if p % 2 == 0 else -2)
    else:
        got = ring.zero
        for p in range(1, len(parts)):
            head = pfaffian_q(Partition((parts[0], parts[p])), a)
            term = head * pfaffian_q(Partition(parts[1:p] + parts[p + 1 :]), a)
            got = got + (term if p % 2 else -term)
    ring.memo[key] = got
    return got


def schur_p(I: Partition, a: Alphabet) -> Poly:
    """P-polynomial: Q_I / 2^length(I), an exact integer division."""
    Q = schur_q(I, a)
    d = 2**I.length
    if any(c % d for c in Q.terms.values()):
        raise ArithmeticError(f"P-polynomial {I} came out non-integral")
    return Poly(a.ring, {k: c // d for k, c in Q.terms.items()})


def schur_of_kind(kind: str):
    """The Q-, P- or S-polynomial function of ``kind`` "Q", "P" or "s",
    read off the module bindings at each call, so a rebound name (the
    per-layer tracer of ``perfbench`` wraps them) reaches every caller."""
    name = {"Q": "schur_q", "P": "schur_p", "s": "schur_s"}.get(kind)
    if name is None:
        raise ValueError(f"kind must be 'Q', 'P' or 's', got {kind!r}")
    return globals()[name]


def schur_sum(kind: str, terms, a, d) -> Poly:
    """sum of c * X_K(a) * s_L(d) over the (K, L, c) ``terms``, with X the
    Q-, P- or S-polynomial for ``kind`` "Q", "P" or "s".  Every product is
    added into one dict, since a sum of Polys would copy the growing total
    once per term; ``Ring.poly`` then refuses a coefficient that is not an
    int."""
    x = schur_of_kind(kind)
    total: dict = {}
    get = total.get
    for K, L, c in terms:
        for k, v in (x(K, a) * schur_s(L, d)).terms.items():
            total[k] = get(k, 0) + c * v
    return a.ring.poly(total)


# -- expansions -------------------------------------------------------


def _straighten(P: Poly, alphabets: tuple[Alphabet, ...]) -> dict:
    """Write P, symmetric in each of the disjoint alphabets, as a sum of
    coeff * prod s_{I_k}(alphabets[k]), keyed by the tuple of the I_k.

    Straightening by the bialternant identity (Macdonald, *Symmetric
    Functions and Hall Polynomials*, I.3): for P symmetric in n variables,
    P * a_delta = sum of c_lam * a_{lam + delta}, with delta = (n-1, ..., 0)
    laid along the alphabet's variables.  So each term c * x^beta adds
    sign * c to c_lam, where gamma = beta + delta sorted decreasingly is
    lam + delta and sign is the parity of that sort; a gamma with a
    repeated entry adds nothing.  No S-polynomial is built.  A dual
    alphabet contributes (-1)^{|lam|}, since s_lam(-a) = (-1)^{|lam|} s_lam(a).

    Only symmetric input has such an expansion, so symmetry in each
    alphabet is checked first; on other input the rule would silently
    return a wrong answer.
    """
    ring = P.ring
    if any(a.ring is not ring for a in alphabets):
        raise ValueError("alphabets must belong to the ring of the polynomial")
    if any(a.values for a in alphabets):
        raise ValueError("only alphabets of variables have an S-basis expansion")
    inside = [v for a in alphabets for v in a.variables]
    if len(set(inside)) < len(inside):
        raise ValueError("alphabets overlap")
    outside = ring.fields - sum(MAX_EXP << (SHIFT * v) for v in inside)
    if any(k & outside for k in P.terms):
        raise ValueError("polynomial involves variables outside the alphabets")
    for a in alphabets:
        if not is_symmetric(P, a.variables):
            raise ValueError("polynomial is not symmetric in the alphabet")
    layout = [[(SHIFT * v, a.size - 1 - i) for i, v in enumerate(a.variables)] for a in alphabets]
    out: dict[tuple[tuple[int, ...], ...], int] = {}
    for key, c in P.terms.items():
        shapes = []
        for a, places in zip(alphabets, layout):
            gamma = [((key >> shift) & MAX_EXP) + d for shift, d in places]
            if len(set(gamma)) < len(gamma):
                break
            lam = tuple(g - d for g, (_, d) in zip(sorted(gamma, reverse=True), places))
            inversions = sum(x < y for i, x in enumerate(gamma) for y in gamma[i + 1 :])
            if (inversions + (a.negated and sum(lam))) % 2:
                c = -c
            shapes.append(lam)
        else:
            shapes = tuple(shapes)
            out[shapes] = out.get(shapes, 0) + c
    return {tuple(map(Partition, shapes)): c for shapes, c in out.items() if c}


def expand_schur_basis(P: Poly, a: Alphabet) -> dict[Partition, int]:
    """Write a symmetric polynomial of one alphabet in the S-basis."""
    return {lam: c for (lam,), c in _straighten(P, (a,)).items()}


def expand_schur_pair(P: Poly, a: Alphabet, b: Alphabet) -> "SchurPairExpansion":
    """Write a polynomial symmetric in each of two disjoint alphabets as
    sum of coeff * s_I(a) * s_J(b)."""
    return SchurPairExpansion(_straighten(P, (a, b)))


class SchurPairExpansion:
    """An integer combination of products s_I(A) * s_J(B)."""

    def __init__(self, coeffs: dict):
        self.coeffs = {pair: c for pair, c in coeffs.items() if c}

    def __eq__(self, other):
        return isinstance(other, SchurPairExpansion) and self.coeffs == other.coeffs

    def __len__(self):
        return len(self.coeffs)

    def sorted_items(self):
        """Terms in decreasing (|I|+|J|, then lexicographic) order."""
        return sorted(
            self.coeffs.items(),
            key=lambda kv: (
                kv[0][0].weight + kv[0][1].weight,
                kv[0][0].parts,
                kv[0][1].parts,
            ),
            reverse=True,
        )

    def render(self, label_a: str = "F", label_b: str = "E") -> str:
        lines = []
        for (I, J), c in self.sorted_items():
            factors = [str(c)]
            if I.length:
                factors.append(f"s{I}({label_a})")
            if J.length:
                factors.append(f"s{J}({label_b})")
            lines.append(" * ".join(factors))
        return "\n".join(lines)

    def to_poly(self, a: Alphabet, b: Alphabet) -> Poly:
        return schur_sum("s", ((I, J, c) for (I, J), c in self.coeffs.items()), a, b)


def schur_difference_split(L: Partition, b: Alphabet, max_a_length: int):
    """Decompose s_L(A - B) without touching the alphabet A:

        s_L(A - B) = sum over mu ⊂ L of s_mu(A) * s_{L/mu}(-B)

    by the coproduct.  Returns a list of (mu, polynomial in B).
    Partitions mu longer than ``max_a_length`` are dropped, which is the
    vanishing of s_mu on an alphabet of that size.
    """
    minus_b = VirtualAlphabet((), (b,))
    out = []
    for mu in subpartitions(L):
        if mu.length > max_a_length:
            continue
        skew = schur_skew(L, mu, minus_b)
        if not skew.is_zero():
            out.append((mu, skew))
    return out
