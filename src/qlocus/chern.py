"""Top Chern classes of tensor-type constructions, in closed form.

Each class has a closed-form expression in Schur S/Q/P polynomials, a
skew-Schur form evaluated as the single S-polynomial s_T(F - (E - F)^∨)
(see :func:`skew_schur_sum`; in the surjection model the hook
factorization makes it a product of root sums times a staircase
S-polynomial of F), and a literal product-of-linear-forms oracle over the
Chern roots; agreement of the three is the main correctness check.  That
check lives in :mod:`qlocus.verify`, beside the formula c_top(A ⊗ B) =
sum of s_I(A) s_{CĨ}(B) of Fulton-Pragacz that the staircase sums here
extend.

For a subbundle F of E (presented by a surjection model with kernel K),
``E v F`` denotes the rank f(f+1)/2 + fn bundle of "symmetrized pairs"
whose roots are the pairwise sums x_i + x_j (i <= j) of F-roots together
with the sums x_i + y_j of an F-root and a K-root; ``E ^ F`` is its
alternating cousin with i < j.
"""
from __future__ import annotations

from .alphabets import Alphabet, ModelContext, difference, pair_sum_product, tensor_sum_product
from .partitions import Partition, complement_conjugate, rectangle_partitions, staircase
from .polyring import Poly
from .schur import schur_p, schur_q, schur_s, schur_sum


def staircase_terms(stair: int, rows: int, cols: int):
    """The pairs (rho_stair + I, CĨ) over I in the rows x cols box, where
    CĨ is the complement of the conjugate inside the transposed box."""
    rho = staircase(stair)
    for I in rectangle_partitions(rows, cols):
        yield rho.add(I), complement_conjugate(I, cols, rows)


def staircase_schur_sum(kind: str, stair: int, rows: int, cols: int, a: Alphabet, d) -> Poly:
    """The recurring shape

        sum over I in the rows x cols box of
            X_{rho_stair + I}(a) * s_{CĨ}(d)

    over the pairs of :func:`staircase_terms`, with X the Q-, P- or
    S-polynomial for ``kind`` "Q", "P" or "s" (:func:`~qlocus.schur.schur_sum`).
    All closed-form classes here (E v F, E ^ F, the degeneracy classes
    and their push-forward identities) are instances of Q and P, and
    c_top(A ⊗ B) (:func:`qlocus.verify.ctop_tensor`) of "s" with no
    staircase.
    """
    return schur_sum(kind, ((K, L, 1) for K, L in staircase_terms(stair, rows, cols)), a, d)


def skew_schur_sum(T: Partition, a: Alphabet, d) -> Poly:
    """sum over J ⊂ T of s_{T/J}(a) * s_{J̃}(d), evaluated as the single
    S-polynomial s_T(a - d^∨).

    By the coproduct s_T(A + B) = sum over J of s_{T/J}(A) s_J(B), and
    s_J(-D^∨) = s_{J̃}(D) (Macdonald, *Symmetric Functions and Hall
    Polynomials*, I.3 and I.5).  ``d`` may be genuine or two-sided; its
    dual flips every sign, so a - (P - N)^∨ = (a + N^∨) - P^∨.
    Writing a - d^∨ in lowest terms as X - Y,
    :func:`~qlocus.schur.schur_skew` factors s_T when T_{|X|} >= |Y|, as
    for the surjection-model shapes of :func:`ctop_vee_skew` and
    :func:`ctop_wedge_skew` and for the flag identities, where
    S* - (R* - S*)^∨ is S* - K; otherwise (the independent model) it is
    one Jacobi-Trudi determinant.
    """
    return schur_s(T, difference(a, d.dual()))


def ctop_sym2(a: Alphabet) -> Poly:
    """c_top(S²A) = Q_{rho_e}(A) = 2^e s_{rho_e}(A)."""
    return schur_q(staircase(len(a.pos)), a)


def ctop_wedge2(a: Alphabet) -> Poly:
    """c_top(∧²A) = P_{rho_{e-1}}(A) = s_{rho_{e-1}}(A)."""
    return schur_p(staircase(len(a.pos) - 1), a)


def _require_split(ctx: ModelContext):
    if ctx.mode != "surjection":
        raise ValueError("this construction needs the surjection model (F ⊂ E)")


def ctop_vee(ctx: ModelContext) -> Poly:
    """c_top(E v F) = sum over I in the f x n box of
    Q_{rho_f + I}(F) * s_{CĨ}(E - F)."""
    return staircase_schur_sum("Q", ctx.f, ctx.f, ctx.n, ctx.F, ctx.e_minus_f())


def ctop_wedge(ctx: ModelContext) -> Poly:
    """c_top(E ^ F) = sum over I in the f x n box of
    P_{rho_{f-1} + I}(F) * s_{CĨ}(E - F)."""
    return staircase_schur_sum("P", ctx.f - 1, ctx.f, ctx.n, ctx.F, ctx.e_minus_f())


def ctop_vee_skew(ctx: ModelContext) -> Poly:
    """Skew-Schur form of c_top(E v F):
    2^f * sum over J ⊂ T of s_{T/J}(F) s_{J̃}(E - F), T = (e, ..., n+1).

    In the surjection model this is s_T(F - K^∨), and since T_f = n + 1
    >= n the hook factorization makes it prod (f_i + k_j) * s_{rho_f}(F):
    no determinant over the difference is built."""
    T = Partition(tuple(range(ctx.e, ctx.n, -1)))
    return skew_schur_sum(T, ctx.F, ctx.e_minus_f()).scale(2**ctx.f)


def ctop_wedge_skew(ctx: ModelContext) -> Poly:
    """Skew-Schur form of c_top(E ^ F):
    sum over J ⊂ T of s_{T/J}(F) s_{J̃}(E - F), T = (e-1, ..., n).

    In the surjection model this is s_T(F - K^∨) = prod (f_i + k_j) *
    s_{rho_{f-1}}(F) by the hook factorization, since T_f = n."""
    T = Partition(tuple(range(ctx.e - 1, ctx.n - 1, -1)))
    return skew_schur_sum(T, ctx.F, ctx.e_minus_f())


def ctop_product_oracle(ctx: ModelContext, kind: str) -> Poly:
    """Literal linear-factor product for c_top(E v F) or c_top(E ^ F) in
    the surjection model: the roots are x_i + x_j over F-root pairs
    (i <= j for "vee", i < j for "wedge") and x_i + y_j across F and K."""
    _require_split(ctx)
    if kind not in ("vee", "wedge"):
        raise ValueError(f"unknown kind {kind!r}")
    return pair_sum_product(ctx.F, kind == "wedge") * tensor_sum_product(ctx.F, ctx.K)
