"""Traced entry point: ``python perfbench/traced_cli.py <qlocus args>``.

Wraps the public functions of each qlocus layer in timing spans, runs
``qlocus.cli.main`` on the arguments, and writes the per-layer totals of
this one process as a single ``PERFBENCH-TRACE {json}`` line on stderr.
Stdout is left exactly as the CLI writes it.

Spans are aggregated in memory per layer name as they close: calls,
self time (the span's duration minus the time its direct child spans
cover), total time (outermost spans only, so recursion is not counted
twice), memo hits and term counters.
"""
from __future__ import annotations

import functools
import json
import sys
import time

MARK = "PERFBENCH-TRACE "


def _terms(x) -> int:
    return len(x.terms) if hasattr(x, "terms") else 1


def _mul(args, out):
    return {"term_pairs": len(args[0].terms) * _terms(args[1]), "out_terms": len(out.terms)}


def _add(args, out):
    return {"in_terms": len(args[0].terms) + _terms(args[1])}


def _str(args, out):
    return {"out_bytes": len(out)}


def _div(args, out):
    return {"num_terms": len(args[0].terms), "quot_terms": len(out.terms)}


def _expansion(args, out):
    return {"out_terms": len(out)}


_ST = ("calls", "self_s")
_CT = ("calls", "total_s")
_MEMO = ("calls", "total_s", "memo_hit_ratio")

# (layer name, module, attribute path, memoised?, counter function,
# reported statistics).  A memoised layer's call counts as a memo hit when
# every span it opened was itself a memo hit, so it did no polynomial
# arithmetic of its own.
TARGETS = [
    ("cli.main", "qlocus.cli", "main", False, None, ("total_s",)),
    ("polyring.mul", "qlocus.polyring", "Poly.__mul__", False, _mul, _ST + ("term_pairs", "out_terms")),
    ("polyring.add", "qlocus.polyring", "Poly.__add__", False, _add, _ST + ("in_terms",)),
    ("polyring.str", "qlocus.polyring", "Poly.__str__", False, _str, _ST + ("out_bytes",)),
    ("polyring.leading_key", "qlocus.polyring", "Poly.leading_key", False, None, _ST),
    ("polyring.exact_div", "qlocus.polyring", "exact_div", False, _div, _ST + ("num_terms", "quot_terms")),
    ("polyring.apply_permutation", "qlocus.polyring", "apply_permutation", False, None, _ST),
    ("polyring.is_symmetric", "qlocus.polyring", "is_symmetric", False, None, _ST),
    ("polyring.apply_substitution", "qlocus.polyring", "apply_substitution", False, None, _ST),
    ("alphabets.complete_sym", "qlocus.alphabets", "complete_sym", True, None, _ST + ("memo_hit_ratio",)),
    ("alphabets.q_sym", "qlocus.alphabets", "q_sym", True, None, _ST + ("memo_hit_ratio",)),
    ("schur.determinant", "qlocus.schur", "determinant", False, None, _ST),
    ("schur.schur_s", "qlocus.schur", "schur_s", True, None, _MEMO),
    ("schur.schur_skew", "qlocus.schur", "schur_skew", True, None, _MEMO),
    ("schur.schur_q", "qlocus.schur", "schur_q", True, None, _MEMO),
    ("schur.schur_p", "qlocus.schur", "schur_p", True, None, _MEMO),
    ("schur.expand_schur_basis", "qlocus.schur", "expand_schur_basis", False, _expansion, _ST + ("out_terms",)),
    ("schur.expand_schur_pair", "qlocus.schur", "expand_schur_pair", False, _expansion, _ST + ("out_terms",)),
    ("chern.staircase_schur_sum", "qlocus.chern", "staircase_schur_sum", False, None, _CT),
    ("chern.skew_schur_sum", "qlocus.chern", "skew_schur_sum", False, None, _CT),
    ("chern.ctop_product_oracle", "qlocus.chern", "ctop_product_oracle", False, None, _CT),
    ("gysin.grassmann_pushforward", "qlocus.gysin", "grassmann_pushforward", False, None, _ST + ("total_s",)),
    ("gysin.RepeatedPushforward.push", "qlocus.gysin", "RepeatedPushforward.push", False, None, _CT),
    ("gysin.flag_pushforward", "qlocus.gysin", "flag_pushforward", False, None, _CT),
    ("locus.expression_to_poly", "qlocus.locus", "expression_to_poly", False, None, _CT),
    ("locus.class_via_pushforward", "qlocus.locus", "class_via_pushforward", False, None, _CT),
    ("locus.class_schur_pair_expansion", "qlocus.locus", "class_schur_pair_expansion", False, None, _CT),
    ("locus.projective_degree", "qlocus.locus", "projective_degree", False, None, _CT),
    ("partitions.rectangle_partitions", "qlocus.partitions", "rectangle_partitions", False, None, _ST),
    ("partitions.subpartitions", "qlocus.partitions", "subpartitions", False, None, _ST),
    ("verify.run_suites", "qlocus.verify", "run_suites", False, None, ("total_s",)),
]


class Tracer:
    """Per-process span aggregates for every layer in ``TARGETS``."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.sites: dict[str, list[str]] = {}
        # One [child seconds, all children were memo hits] per open span;
        # the bottom entry collects the outermost spans.
        self._frames = [[0.0, True]]

    def _wrap(self, name, fn, memo, count):
        frames = self._frames
        stat = self.stats[name] = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "hits": 0}
        depth = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frames.append([0.0, True])
            depth[0] += 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                child_s, children_hit = frames.pop()
                parent = frames[-1]
                parent[0] += span
                hit = memo and children_hit
                if not hit:
                    parent[1] = False
                depth[0] -= 1
                stat["calls"] += 1
                stat["hits"] += hit
                stat["self_s"] += span - child_s
                if not depth[0]:
                    stat["total_s"] += span
            if count is not None:
                for key, value in count(args, out).items():
                    stat[key] = stat.get(key, 0) + value
            return out

        return traced

    def install(self) -> None:
        """Replace every binding of each target: the defining module, each
        module that bound it by ``from .x import y``, and class aliases such
        as ``Poly.__radd__ = __add__``."""
        import qlocus.cli  # noqa: F401  (imports every layer)

        modules = [m for n, m in sys.modules.items() if n == "qlocus" or n.startswith("qlocus.")]
        for name, modname, path, memo, count, _ in TARGETS:
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, memo, count)
            sites = self.sites[name] = []
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        sites.append(f"{mod.__name__}.{key}")
                    elif isinstance(value, type) and value.__module__.startswith("qlocus"):
                        for ckey, cvalue in list(vars(value).items()):
                            if cvalue is original:
                                setattr(value, ckey, wrapper)
                                sites.append(f"{value.__module__}.{value.__name__}.{ckey}")


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    import qlocus.cli

    try:
        return qlocus.cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(MARK + json.dumps(tracer.stats) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
