"""Command-line interface.

Subcommands:

* ``class``  — the closed-form class of one degeneracy problem, as an
  expression, an evaluated polynomial, a Schur-pair table, or JSON;
* ``chern``  — top Chern classes of the paired constructions by any of
  their three computation routes;
* ``degree`` — codimension and projective degree for split twisted
  bundles over projective space;
* ``expand`` — the Schur-pair table of a class over independent E, F,
  the same as ``class --format schur-pair``;
* ``verify`` — run the brute-force identity suites.

All output is deterministic; identical invocations print identical
bytes.  Every request is a fresh process, so a start imports only what
every request needs: ``json`` is imported by ``--format structured``
alone.  Usage and domain errors exit with status 2 and one line on
stderr; a failed verification exits with status 1, and a reader closing
stdout early (``| head``) with status 141 and nothing on stderr.
"""
from __future__ import annotations

import argparse
import os
import sys

from .alphabets import make_model
from .chern import (
    ctop_product_oracle,
    ctop_vee,
    ctop_vee_skew,
    ctop_wedge,
    ctop_wedge_skew,
)
from .locus import (
    LocusProblem,
    class_of,
    class_schur_pair_expansion,
    expected_codim,
    expression_to_poly,
    projective_degree,
)
from .schur import render_schur_pair
from .verify import SUITES, run_suites


def _twists(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _attach_twists(argv: list[str]) -> list[str]:
    """Write ``--e-twists -1,2`` as ``--e-twists=-1,2``: argparse reads a
    separate value that starts with a dash and is not a plain number as
    an option, so a list with a negative first twist needs the ``=``."""
    out: list[str] = []
    for arg in argv:
        negative = arg[:1] == "-" and arg[1:2].isdigit()
        if negative and out and out[-1] in ("--e-twists", "--f-twists"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _bound(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qlocus")
    sub = top.add_subparsers(dest="command", required=True)

    def ranks(p, with_r=True):
        p.add_argument("--e", type=int, required=True, help="rank of E")
        p.add_argument("--f", type=int, required=True, help="rank of F")
        if with_r:
            p.add_argument("--r", type=int, required=True, help="rank bound of the locus")
            p.add_argument("--symmetry", choices=("sym", "skew"), required=True)

    p = sub.add_parser("class", help="closed-form class of D_r")
    ranks(p)
    p.add_argument(
        "--format",
        choices=("expression", "polynomial", "schur-pair", "structured"),
        default="expression",
    )
    p.add_argument("--mode", choices=("surjection", "independent"), default="surjection")

    p = sub.add_parser("chern", help="top Chern class of E v F or E ^ F")
    ranks(p, with_r=False)
    p.add_argument("--kind", choices=("vee", "wedge"), required=True)
    p.add_argument("--route", choices=("closed", "skew", "oracle"), default="closed")

    p = sub.add_parser("degree", help="codimension and projective degree")
    p.add_argument("--e-twists", type=_twists, required=True, help="e.g. 1,1,1,1")
    p.add_argument("--f-twists", type=_twists, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--symmetry", choices=("sym", "skew"), required=True)

    p = sub.add_parser("expand", help="Schur-pair table over independent E, F")
    ranks(p)
    p.set_defaults(format="schur-pair")

    p = sub.add_parser("verify", help="run brute-force identity suites")
    p.add_argument("--suite", choices=("all", *SUITES), default="all")
    for bound in ("--max-e", "--max-f", "--max-n", "--max-p", "--max-weight"):
        p.add_argument(bound, type=_bound)
    return top


def cmd_class(args) -> int:
    problem = LocusProblem(args.e, args.f, args.r, args.symmetry)
    expr = class_of(problem)
    if args.format == "expression":
        print(expr)
    elif args.format == "polynomial":
        ctx = make_model(args.mode, args.e, args.f)
        print(expression_to_poly(expr, ctx))
    elif args.format == "schur-pair":
        print(render_schur_pair(class_schur_pair_expansion(problem)))
    else:
        import json  # here, not at the top: only this format needs it

        doc = {
            "command": "class",
            "parameters": {
                "e": args.e,
                "f": args.f,
                "r": args.r,
                "symmetry": args.symmetry,
            },
            "codim": expected_codim(problem),
        }
        doc.update(expr.to_structured())
        print(json.dumps(doc, indent=2))
    return 0


def cmd_chern(args) -> int:
    if not args.e >= args.f >= 1:
        raise ValueError(f"need e >= f >= 1, got e={args.e}, f={args.f}")
    ctx = make_model("surjection", args.e, args.f)
    routes = {
        ("vee", "closed"): ctop_vee,
        ("vee", "skew"): ctop_vee_skew,
        ("wedge", "closed"): ctop_wedge,
        ("wedge", "skew"): ctop_wedge_skew,
    }
    if args.route == "oracle":
        out = ctop_product_oracle(ctx, args.kind)
    else:
        out = routes[(args.kind, args.route)](ctx)
    print(out)
    return 0


def cmd_degree(args) -> int:
    codim, degree = projective_degree(args.e_twists, args.f_twists, args.r, args.symmetry)
    print(f"codim={codim} degree={degree}")
    return 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(
        names,
        max_e=args.max_e,
        max_f=args.max_f,
        max_n=args.max_n,
        max_p=args.max_p,
        max_weight=args.max_weight,
    )
    for case in results:
        print(case.render())
    passed = sum(1 for c in results if c.ok)
    ok = passed == len(results)
    print(f"SUMMARY {passed}/{len(results)} {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_attach_twists(argv))
    handlers = {
        "class": cmd_class,
        "chern": cmd_chern,
        "degree": cmd_degree,
        "expand": cmd_class,
        "verify": cmd_verify,
    }
    try:
        status = handlers[args.command](args)
        sys.stdout.flush()
        return status
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader left early (``| head``); keep the flush at exit quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
