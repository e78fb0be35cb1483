#!/usr/bin/env python3
"""Print every worked example in one go: the closed-form classes for the
small symmetric and skew cases, the 15-term rank-(8,4) class with its
Schur-pair table, and the classical projective degrees."""
import argparse
import time

from qlocus import (
    LocusProblem,
    class_of,
    class_schur_pair_expansion,
    expected_codim,
    projective_degree,
)
from qlocus.schur import render_schur_pair

WORKED = [
    (4, 3, 2, "sym"),
    (5, 3, 2, "sym"),
    (4, 3, 2, "skew"),
    (5, 3, 2, "skew"),
    (5, 4, 2, "skew"),
    (3, 2, 1, "skew"),
    (4, 2, 1, "skew"),
]

DEGREES = [
    ((1, 1, 1, 1), (1, 1, 1), 2, "skew"),
    ((1, 1, 1, 1, 1), (1, 1, 1), 2, "skew"),
    ((1, 1, 1), (1, 1), 1, "skew"),
    ((1, 1, 1, 1), (1, 1), 1, "skew"),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--skip-pairs", action="store_true", help="skip the Schur-pair table"
    )
    args = parser.parse_args()
    t0 = time.perf_counter()

    print("== closed-form classes ==")
    for e, f, r, sym in WORKED:
        prob = LocusProblem(e, f, r, sym)
        print(f"(e={e}, f={f}, r={r}, {sym})  codim {expected_codim(prob)}:")
        print(f"  {class_of(prob)}")

    print()
    print("== rank (8, 4), r = 2, symmetric ==")
    prob = LocusProblem(8, 4, 2, "sym")
    expr = class_of(prob)
    print(f"codim {expected_codim(prob)}, {len(expr.terms)} terms:")
    for K, L, _ in expr.terms:
        tail = f" * s{L}(E-F)" if L.length else ""
        print(f"  Q{K}(F){tail}")
    if not args.skip_pairs:
        print("Schur-pair table (independent E, F):")
        for line in render_schur_pair(class_schur_pair_expansion(prob)).splitlines():
            print(f"  {line}")

    print()
    print("== projective degrees ==")
    for et, ft, r, sym in DEGREES:
        codim, degree = projective_degree(et, ft, r, sym)
        print(
            f"E twists {et}, F twists {ft}, r={r}, {sym}:"
            f" codim={codim} degree={degree}"
        )

    print()
    print(f"done in {time.perf_counter() - t0:.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
