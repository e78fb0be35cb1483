"""Schur S-, Q- and P-polynomials of alphabets, and expansions into them.

S-polynomials of alphabets, skew or not, are all built by
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

A Q-polynomial of an alphabet with a variable root is built by the
branching rule on its last root x (:func:`_branching_q`),

    Q_lam(A + x) = sum over mu of 2^r(lam/mu) * x^(|lam| - |mu|) * Q_mu(A),

over the strict mu with lam_1 >= mu_1 >= lam_2 >= ... >= 0, r counting
the runs of consecutive diagonals of lam/mu (Macdonald, *Symmetric
Functions and Hall Polynomials*, III.5 and III.8), memoized on each
prefix of the roots; a step shifts keys and multiplies no polynomials.
An alphabet of values takes the Pfaffian Q_lam = Pf[Q_(lam_i, lam_j)],
with a zero part appended when lam has odd length (Macdonald III.8
(8.11)), expanded along the first part (:func:`pfaffian_q`), which is
also the oracle of the branching rule.  Its entries come from the
one-row series q_i, the complete series of A - A^∨:

    Q_(i,j) = q_i q_j + 2 * sum_{p=1..j} (-1)^p q_{i+p} q_{j-p},

so Q_(i,0) = q_i; a factor q_0 = 1 is never multiplied out.
P_I is Q_I divided by 2^length, which is always exact.

Expansions into the S-basis of one or two alphabets are plain dicts from
a shape, or a pair of shapes, to its coefficient; each coefficient is
read off the terms of the input by straightening (see :func:`_straighten`).
"""
from __future__ import annotations

from itertools import product as cartesian

from .alphabets import Alphabet, complete_series, difference, q_sym
from .partitions import Partition, subpartitions
from .polyring import MAX_EXP, SHIFT, Poly, Ring, is_symmetric, mul_add, product


def determinant(ring: Ring, rows: list[list[Poly]]) -> Poly:
    """Determinant of a square matrix of polynomials, expanded row by row
    over column subsets: each row adds its entry products into one raw
    sum per column subset (:func:`~qlocus.polyring.mul_add`)."""
    k = len(rows)
    if k == 0:
        return ring.one
    dp = {0: ring.one}
    for r in range(k):
        ndp: dict[int, dict] = {}
        for mask, val in dp.items():
            for c in range(k):
                bit = 1 << c
                if mask & bit:
                    continue
                entry = rows[r][c]
                if entry.is_zero():
                    continue
                acc = ndp.get(mask | bit)
                if acc is None:
                    acc = ndp[mask | bit] = {}
                # the sign counts the inversions added
                mul_add(acc, val, entry, -1 if bin(mask >> (c + 1)).count("1") & 1 else 1)
        dp = {mask: got for mask, acc in ndp.items() if (got := ring.finish(acc))}
        if not dp:
            return ring.zero
    return dp.get((1 << k) - 1, ring.zero)


def schur_s(I: Partition, v: Alphabet) -> Poly:
    """S-polynomial s_I of an alphabet: the skew shape I over the empty
    partition."""
    return schur_skew(I, Partition(), v)


def schur_skew(lam: Partition, mu: Partition, v: Alphabet) -> Poly:
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
    rows.  Both alphabets come from :mod:`qlocus.alphabets` in lowest
    terms (-V^∨ is ``Alphabet.minus_dual``), so no series is built over
    a root found on both sides.
    """
    if not lam.contains(mu):
        raise ValueError(f"{mu} is not contained in {lam}")
    got = None if mu.parts else _hook_factor(lam, v)
    if got is not None:
        return got
    # The elementary series of n roots is 0 past n, and on variables its
    # entries have at most C(n, j) terms, where the complete series grows
    # without end; a two-sided alphabet has no such side.
    if lam.part(1) < lam.length if v.pos and v.neg else not v.neg:
        return jacobi_trudi(lam.conjugate(), mu.conjugate(), v.minus_dual())
    return jacobi_trudi(lam, mu, v)


def jacobi_trudi(lam: Partition, mu: Partition, v: Alphabet) -> Poly:
    """det [ s_{lam_p - mu_q - p + q}(v) ], built as it stands: no memo, no
    factorization, no change of side; requires mu ⊂ lam, as the matrix
    has only length(lam) rows.  :func:`schur_skew` calls it where the
    factorization does not apply; tests and ``verify`` call it directly
    as the oracle of the factorization."""
    if not lam.contains(mu):
        raise ValueError(f"{mu} is not contained in {lam}")
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


def _hook_factor(lam: Partition, v: Alphabet) -> Poly | None:
    """s_lam(P - N) by the factorization of hook Schur functions
    (Berele-Regev, *Adv. Math.* 64, 1987; Macdonald I.3 ex. 23), with
    a = |P| and b = |N|:

    * lam_{a+1} > b: the shape leaves the (a, b)-hook and s_lam is 0;
    * lam_a >= b, a, b > 0: s_lam = prod (x - y over x in P, y in N)
      * s_alpha(P) * s_beta(-N), with alpha = (lam_1 - b, ..., lam_a - b)
      and beta = (lam_{a+1}, lam_{a+2}, ...).

    The sizes and the product are read off the flat roots of v, and the
    halves P and -N are ``Alphabet.halves``.

    Returns None where neither applies (lam_a < b, or a one-sided
    alphabet), which leaves the determinant.
    """
    a, b = len(v.pos), len(v.neg)
    if lam.part(a + 1) > b:
        return v.ring.zero
    if not (a and b) or lam.part(a) < b:
        return None
    P, minus_N = v.halves()
    xs, ys = v.roots()
    resultant = product(v.ring, (x - y for x in xs for y in ys))
    alpha = Partition(tuple(p - b for p in lam.parts[:a]))
    beta = Partition(lam.parts[a:])
    return resultant * schur_s(alpha, P) * schur_s(beta, minus_N)


def schur_q(I: Partition, a: Alphabet) -> Poly:
    """Q-polynomial of a strict partition on a genuine alphabet of n roots.

    A partition longer than n gives 0.  An alphabet with a variable root
    takes the branching rule at every length (:func:`_branching_q`); an
    alphabet of values only takes the Pfaffian (:func:`pfaffian_q`), since
    on ints the branching rule's many small states cost 10-30 times more
    than the Pfaffian's few products of numbers.
    """
    if a.neg:
        raise TypeError("Q-polynomials are defined for genuine alphabets only")
    if not I.is_strict():
        raise ValueError(f"Q-polynomials are indexed by strict partitions, got {I}")
    if I.length > len(a.pos):
        return a.ring.zero
    if all(type(r) is int for r in a.pos):
        return pfaffian_q(I, a)
    return _branching_q(I.parts, a)


def _branches(lam: tuple) -> list[tuple[tuple, int, int]]:
    """(mu, |lam| - |mu|, r(lam/mu)) for every strict mu with lam_1 >=
    mu_1 >= lam_2 >= mu_2 >= ... >= 0: the shapes that a marked shifted
    tableau of shape lam holds below its largest letter.  Row i of
    lam/mu covers the diagonals mu_i .. lam_i - 1, and r counts the
    maximal runs of consecutive diagonals covered."""
    out = []
    for mu in cartesian(*(range(low, high + 1) for high, low in zip(lam, lam[1:] + (0,)))):
        # mu_i >= lam_{i+1} >= mu_{i+1}: a repeated part is the only way
        # to fail strictness, and only the last part can be 0
        if any(m == below for m, below in zip(mu, mu[1:])):
            continue
        runs = sum(
            1
            for i, (m, high) in enumerate(zip(mu, lam))
            if m < high and not (i and mu[i - 1] < lam[i - 1] and mu[i - 1] == high)
        )
        out.append((mu if mu[-1] else mu[:-1], sum(lam) - sum(mu), runs))
    return out


def _branching_q(parts: tuple, a: Alphabet) -> Poly:
    """Q_parts of the roots of ``a``, by the branching rule on its last
    root x (Macdonald, *Symmetric Functions and Hall Polynomials*, III.5
    and III.8: Q_lam is the sum over marked shifted tableaux of shape
    lam, filled one letter at a time):

        Q_lam(A + x) = sum over mu of 2^r(lam/mu) * x^(|lam| - |mu|) * Q_mu(A)

    over the mu of :func:`_branches`, down to the empty shape, whose Q is
    1.  Each Q_mu(A) is memoized under ("Q", roots of A, mu), so
    alphabets that share a prefix of roots share its entries.  A step multiplies no
    polynomials: a variable root shifts the keys of Q_mu(A) and flips the
    sign of odd powers of a negated root, a value root scales by its
    power.  A shift past MAX_EXP is placed beyond every field, so the
    finishing step (:meth:`~qlocus.polyring.Ring.finish`) refuses exactly
    the keys that survive past the bound."""
    ring = a.ring
    memo = ring.memo
    roots = a.pos
    beyond = SHIFT * ring.nvars

    def q(j: int, lam: tuple) -> Poly:  # Q_lam of the first j roots
        if len(lam) > j:
            return ring.zero
        if not lam:
            return ring.one
        key = ("Q", roots[:j], lam)
        got = memo.get(key)
        if got is not None:
            return got
        x = roots[j - 1]
        acc: dict = {}
        get = acc.get
        for mu, k, r in _branches(lam):
            below = q(j - 1, mu).terms
            if not below:
                continue
            if type(x) is int:
                f, shift = x**k << r, 0
                if not f:
                    continue
            else:
                f = -1 << r if x[1] and k & 1 else 1 << r
                shift = k << (SHIFT * x[0] if k <= MAX_EXP else beyond)
            for kb, c in below.items():
                kb += shift
                acc[kb] = get(kb, 0) + c * f
        got = memo[key] = ring.finish(acc)
        return got

    return q(len(roots), parts)


def pfaffian_q(I: Partition, a: Alphabet) -> Poly:
    """Q_I(A) as the Pfaffian Pf[Q_(I_i, I_j)], expanded along the first
    part, memoized on the parts padded to even length.  It recurses only
    into itself and its memo entries are its own, so it never sees the
    branching rule: :func:`schur_q` calls it on alphabets of values, and
    tests and ``verify`` call it as the oracle of the branching rule."""
    if a.neg:
        raise TypeError("Q-polynomials are defined for genuine alphabets only")
    parts = I.parts + (0,) * (I.length % 2)
    ring = a.ring
    key = ("Pf", a.pos, parts)
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
    added into one raw sum (:func:`~qlocus.polyring.mul_add`), since a sum
    of Polys would copy the growing total once per term; the finishing
    step refuses a coefficient that is not an int."""
    x = schur_of_kind(kind)
    total: dict = {}
    for K, L, c in terms:
        mul_add(total, x(K, a), schur_s(L, d), c)
    return a.ring.finish(total)


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
    So each alphabet must be genuine, of variables only, all of one sign.

    Only symmetric input has such an expansion, so symmetry in each
    alphabet is checked first; on other input the rule would silently
    return a wrong answer.
    """
    ring = P.ring
    if any(a.neg for a in alphabets):
        raise TypeError("only genuine alphabets have an S-basis expansion")
    if any(a.ring is not ring for a in alphabets):
        raise ValueError("alphabets must belong to the ring of the polynomial")
    if any(type(r) is int for a in alphabets for r in a.pos):
        raise ValueError("only alphabets of variables have an S-basis expansion")
    signs = [{s for _, s in a.pos} for a in alphabets]
    if any(len(s) > 1 for s in signs):
        raise ValueError("only alphabets of roots of one sign have an S-basis expansion")
    inside = [v for a in alphabets for v, _ in a.pos]
    if len(set(inside)) < len(inside):
        raise ValueError("alphabets overlap")
    outside = ring.fields - sum(MAX_EXP << (SHIFT * v) for v in inside)
    if any(k & outside for k in P.terms):
        raise ValueError("polynomial involves variables outside the alphabets")
    for a in alphabets:
        if not is_symmetric(P, [v for v, _ in a.pos]):
            raise ValueError("polynomial is not symmetric in the alphabet")
    layout = [[(SHIFT * v, len(a.pos) - 1 - i) for i, (v, _) in enumerate(a.pos)] for a in alphabets]
    out: dict[tuple[tuple[int, ...], ...], int] = {}
    for key, c in P.terms.items():
        shapes = []
        for negated, places in zip(map(any, signs), layout):
            gamma = [((key >> shift) & MAX_EXP) + d for shift, d in places]
            if len(set(gamma)) < len(gamma):
                break
            lam = tuple(g - d for g, (_, d) in zip(sorted(gamma, reverse=True), places))
            inversions = sum(x < y for i, x in enumerate(gamma) for y in gamma[i + 1 :])
            if (inversions + (negated and sum(lam))) % 2:
                c = -c
            shapes.append(lam)
        else:
            shapes = tuple(shapes)
            out[shapes] = out.get(shapes, 0) + c
    return {tuple(map(Partition, shapes)): c for shapes, c in out.items() if c}


def expand_schur_basis(P: Poly, a: Alphabet) -> dict[Partition, int]:
    """Write a symmetric polynomial of one alphabet in the S-basis."""
    return {lam: c for (lam,), c in _straighten(P, (a,)).items()}


def expand_schur_pair(P: Poly, a: Alphabet, b: Alphabet) -> dict[tuple[Partition, Partition], int]:
    """Write a polynomial symmetric in each of two disjoint alphabets as
    sum of coeff * s_I(a) * s_J(b), keyed by (I, J)."""
    return _straighten(P, (a, b))


def render_schur_pair(pairs: dict[tuple[Partition, Partition], int]) -> str:
    """One line ``c * s_I(F) * s_J(E)`` per term of a Schur-pair
    expansion, in decreasing (|I|+|J|, then lexicographic) order."""
    lines = []
    for (I, J), c in sorted(
        pairs.items(),
        key=lambda kv: (kv[0][0].weight + kv[0][1].weight, kv[0][0].parts, kv[0][1].parts),
        reverse=True,
    ):
        factors = [str(c)]
        if I.length:
            factors.append(f"s{I}(F)")
        if J.length:
            factors.append(f"s{J}(E)")
        lines.append(" * ".join(factors))
    return "\n".join(lines)


def schur_difference_split(L: Partition, b: Alphabet, max_a_length: int):
    """Decompose s_L(A - B) without touching the alphabet A:

        s_L(A - B) = sum over mu ⊂ L of s_mu(A) * s_{L/mu}(-B)

    by the coproduct.  Returns a list of (mu, polynomial in B).
    Partitions mu longer than ``max_a_length`` are dropped, which is the
    vanishing of s_mu on an alphabet of that size.
    """
    minus_b = difference(Alphabet(b.ring, ()), b)
    out = []
    for mu in subpartitions(L):
        if mu.length > max_a_length:
            continue
        skew = schur_skew(L, mu, minus_b)
        if not skew.is_zero():
            out.append((mu, skew))
    return out
