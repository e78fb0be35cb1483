"""qlocus benchmark: times real ``qlocus`` CLI invocations from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload query --seed 1 --seconds 30 --trace 0

One closed-loop client sends one request at a time, each a fresh
``python -m qlocus.cli`` process, so a run uses two cores: this process
and one child.  Requests are drawn from the workload's fixed pool (see
``bench.POOLS``) in an order set by ``--seed``.  Every request's exit code
and stdout are checked against ``golden.json``; a mismatch or a ``FAIL``
line counts as a failed request.

A run is made of whole passes over the pool, each pass in a fresh seeded
order, and ends at the first pass boundary after ``--seconds``; so every
run measures the same mix of requests and the seed changes only their
order.

``--trace 0`` runs with tracing off and reports the end-to-end metrics.
Set-up probes, the trivial request ``bench.PROBE``, are interleaved
through the run at most once a second, because load on a shared host
comes in phases that would skew probes bunched at the start.

``--trace 1`` runs each request of each pass once untraced and once
through ``traced_cli.py``, and reports per-layer metrics per pass, the
tracing overhead (traced against untraced wall time of the same
requests), and a layer-coverage check that fails the run when a workload
stops exercising the layers it stands for.

Stdout lists every metric with its unit, plus ``failed_frac`` and, on
verify, ``cases_per_s`` (CASE lines per second).  The line prefixed
``result`` holds them with the run's metadata, and the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit
code is 0 when every output was correct, 1 when not, and 2 when the
program or the golden table is missing.
"""
from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import bench
from traced_cli import MARK, TARGETS

PROBE_EVERY_S = 1.0

UNITS = {
    "calls": "count",
    "self_s": "s",
    "total_s": "s",
    "term_pairs": "count",
    "out_terms": "count",
    "in_terms": "count",
    "out_bytes": "bytes",
    "num_terms": "count",
    "quot_terms": "count",
    "memo_hit_ratio": "ratio",
}

# Layer-coverage self-check of the traced run: layers that must make no
# calls, and layers that must make some, on each workload.
COVERAGE = {
    "query": (
        ["gysin.*", "polyring.exact_div", "schur.expand_schur_*"],
        ["polyring.str", "alphabets.*"],
    ),
    "tables": (["gysin.*", "polyring.exact_div"], ["schur.expand_schur_basis", "schur.determinant"]),
    "verify": ([], ["gysin.grassmann_pushforward"]),
}


def metadata(args) -> dict:
    git_sha = None
    if (bench.ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=bench.ROOT, capture_output=True, text=True
            )
            git_sha = proc.stdout.strip() or None
        except OSError:  # no git on this host
            pass
    src = hashlib.sha256()
    for path in sorted((bench.SRC / "qlocus").rglob("*.py")):
        src.update(path.relative_to(bench.SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "pool_sizes": {name: len(pool) for name, pool in bench.POOLS.items()},
        "clients": 1,
        "loop": "closed",
    }


def failures(outcomes, golden) -> list[str]:
    out = []
    for o in outcomes:
        why = bench.judge(o, golden)
        if why is not None:
            out.append(f"{o.request}: {why}")
    return out


def peak_rss(outcomes) -> float:
    """The largest per-request peak RSS, taking for each pool entry the
    median over its repeats: the maximum of all samples would grow with
    the number of passes a run happens to make."""
    by_request: dict[str, list[float]] = {}
    for o in outcomes:
        by_request.setdefault(o.request, []).append(o.rss_mb)
    return max(statistics.median(v) for v in by_request.values())


def timed_run(workload: str, seed: int, seconds: float, golden: dict):
    """Whole passes with tracing off, set-up probes interleaved."""
    bench.spawn(bench.PROBE)  # warms the bytecode and file caches; not counted
    requests, probes, passes = [], [], 0
    start = next_probe = time.perf_counter()
    for order in bench.cycles(workload, seed):
        for request in order:
            if time.perf_counter() >= next_probe:
                probes.append(bench.spawn(bench.PROBE))
                next_probe = time.perf_counter() + PROBE_EVERY_S
            requests.append(bench.spawn(request))
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    busy = time.perf_counter() - start - sum(p.wall_s for p in probes)

    walls = [o.wall_s for o in requests]
    tail_s, tail_pct = bench.tail(walls)
    metrics = {
        "latency_p50_s": (statistics.median(walls), "s"),
        "latency_tail_s": (tail_s, "s"),
        "throughput_rps": (len(requests) / busy, "1/s"),
        "setup_s": (statistics.median(p.wall_s for p in probes), "s"),
        "peak_rss_mb": (peak_rss(requests), "MB"),
    }
    attempted = requests + probes
    failed = failures(attempted, golden)
    extra = {}
    if workload == "verify":
        cases = sum(o.stdout.count(b"\nCASE ") + o.stdout.startswith(b"CASE ") for o in requests)
        extra["cases_per_s"] = (cases / busy, "1/s")
    info = {
        "samples": {
            "latency_p50_s": len(walls),
            "latency_tail_s": len(walls),
            "throughput_rps": len(requests),
            "setup_s": len(probes),
            "peak_rss_mb": len(requests),
        },
        "latency_tail_percentile": tail_pct,
        "passes": passes,
        "request_cpu_s_total": sum(o.cpu_s for o in requests),
    }
    return metrics, extra, attempted, failed, [], info


def _trace_of(outcome) -> dict | None:
    for line in outcome.stderr.decode(errors="replace").splitlines():
        if line.startswith(MARK):
            return json.loads(line[len(MARK):])
    return None


def layer_metrics(totals: dict[str, dict], passes: int) -> dict:
    """Per-pass values of every reported statistic in ``TARGETS``, from
    span totals summed over the traced requests."""
    metrics = {}
    for name, *_, reported in TARGETS:
        stat = totals.get(name, {})
        for key in reported:
            if key == "memo_hit_ratio":
                value = stat["hits"] / stat["calls"] if stat.get("calls") else 0.0
            else:
                value = stat.get(key, 0) / passes
            metrics[f"{name}.{key}"] = (value, UNITS[key])
    return metrics


def traced_run(workload: str, seed: int, seconds: float, golden: dict):
    """Whole passes, each request once untraced and once traced.  CPU time
    per pass is taken from the untraced twins; start-up is the traced
    request's wall time outside its ``cli.main`` span."""
    plain, traced, passes = [], [], 0
    start = time.perf_counter()
    for order in bench.cycles(workload, seed):
        for request in order:
            plain.append(bench.spawn(request))
            traced.append(bench.spawn(request, traced=True))
        passes += 1
        if time.perf_counter() - start >= seconds:
            break

    failed = failures(plain, golden)
    totals: dict[str, dict[str, float]] = {}
    startup = 0.0
    for o in traced:
        trace = _trace_of(o)
        why = bench.judge(o, golden) or (trace is None and "no trace line on stderr")
        if why:
            failed.append(f"{o.request} (traced): {why}")
        if trace is None:
            continue
        startup += o.wall_s - trace["cli.main"]["total_s"]
        for name, stat in trace.items():
            acc = totals.setdefault(name, {})
            for key, value in stat.items():
                acc[key] = acc.get(key, 0) + value

    metrics = layer_metrics(totals, passes)
    metrics["cli.startup_s"] = (startup / passes, "s")
    metrics["cli.request_cpu_s"] = (sum(o.cpu_s for o in plain) / passes, "s")
    overhead = sum(o.wall_s for o in traced) / sum(o.wall_s for o in plain)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    calls = {name: stat.get("calls", 0) for name, stat in totals.items()}
    errors = coverage_errors(workload, calls)
    info = {"passes": passes, "samples": {"traced_requests": len(traced)}}
    return metrics, {}, plain + traced, failed, errors, info


def coverage_errors(workload: str, calls: dict[str, int]) -> list[str]:
    """Layers that broke the workload's coverage rule."""
    zero, nonzero = COVERAGE[workload]
    errors = []
    for pattern in zero:
        for name in fnmatch.filter(calls, pattern):
            if calls[name]:
                errors.append(f"coverage: {name} made {calls[name]} calls on {workload}, expected 0")
    for pattern in nonzero:
        names = fnmatch.filter(calls, pattern)
        for name in names or [pattern]:
            if not calls.get(name):
                errors.append(f"coverage: {name} made no calls on {workload}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(bench.POOLS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (bench.SRC / "qlocus" / "cli.py").is_file():
        print(f"error: no qlocus sources under {bench.SRC}", file=sys.stderr)
        return 2
    try:
        golden = bench.load_golden()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read the golden table: {exc}", file=sys.stderr)
        return 2

    run = traced_run if args.trace else timed_run
    metrics, extra, attempted, failed, errors, info = run(
        args.workload, args.seed, args.seconds, golden
    )

    extra["failed_frac"] = (len(failed) / len(attempted), "ratio")
    for why in failed[:20] + errors:
        print(f"FAILED {why}", file=sys.stderr)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    as_json = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    doc = {"meta": metadata(args), **info, "metrics": as_json}
    doc["extra"] = {name: {"value": v, "unit": u} for name, (v, u) in extra.items()}
    doc["failures"] = failed + errors
    print("result " + json.dumps(doc))
    correct = not failed and not errors
    print(json.dumps({
        "correct": correct,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": as_json,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
