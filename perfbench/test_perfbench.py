"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""
from __future__ import annotations

import itertools
import json
import subprocess
import sys

import bench
import run

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _requests(workload, seed, n=40):
    return list(itertools.islice(itertools.chain.from_iterable(bench.cycles(workload, seed)), n))


def test_same_seed_same_requests_and_other_seed_other_requests():
    for workload, pool in bench.POOLS.items():
        assert _requests(workload, 7) == _requests(workload, 7)
        assert _requests(workload, 7) != _requests(workload, 8)
        first_pass = _requests(workload, 7, len(pool))
        assert sorted(first_pass) == sorted(pool)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert bench.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0)
    value, pct = bench.tail([float(x) for x in range(1, 12)])
    assert value == 1.0 and abs(pct - 100 / 11) < 1e-12
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 6
    value, pct = bench.tail(samples)
    assert sum(s > value for s in samples) <= 10 < sum(s >= value for s in samples)
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def _outcome(stdout: bytes, exit_code: int = 0) -> bench.Outcome:
    return bench.Outcome("verify --suite schur", 0.1, 0.1, 20.0, exit_code, stdout, b"")


def test_digest_mismatch_fail_line_and_exit_code_count_as_failures():
    good = b"CASE schur.x n=1 : PASS\nSUMMARY 1/1 PASS\n"
    bad = b"CASE schur.x n=1 : FAIL\nSUMMARY 0/1 FAIL\n"
    golden = {"verify --suite schur": {"exit": 0, "sha256": bench.digest(good)}}
    assert bench.judge(_outcome(good), golden) is None
    assert "digest" in bench.judge(_outcome(good + b"\n"), golden)
    assert "exit code" in bench.judge(_outcome(good, exit_code=1), golden)
    # A FAIL line fails the request even against a golden digest that has it.
    golden_bad = {"verify --suite schur": {"exit": 0, "sha256": bench.digest(bad)}}
    assert "FAIL" in bench.judge(_outcome(bad), golden_bad)
    assert run.failures([_outcome(good), _outcome(bad)], golden) == [
        "verify --suite schur: FAIL line on stdout"
    ]


def test_peak_rss_is_the_largest_per_entry_median():
    outcomes = [
        bench.Outcome(request, 0.1, 0.1, rss, 0, b"", b"")
        for request, rss in [("a", 30.0), ("a", 20.0), ("a", 21.0), ("b", 25.0)]
    ]
    assert run.peak_rss(outcomes) == 25.0


def test_golden_table_covers_every_request():
    golden = bench.load_golden()
    for pool in bench.POOLS.values():
        assert set(pool) <= set(golden)
    assert bench.PROBE in golden


def test_coverage_check_flags_a_layer_that_stopped_or_started():
    calls = {"polyring.str": 3, "alphabets.q_sym": 2, "alphabets.complete_sym": 1}
    assert run.coverage_errors("query", calls) == []
    errors = run.coverage_errors("query", {**calls, "gysin.grassmann_pushforward": 1})
    assert errors == ["coverage: gysin.grassmann_pushforward made 1 calls on query, expected 0"]
    assert run.coverage_errors("verify", {}) == [
        "coverage: gysin.grassmann_pushforward made no calls on verify"
    ]


def test_wrappers_cover_every_binding_and_class_alias():
    code = (
        "import json, sys; sys.path.insert(0, 'perfbench'); import traced_cli;"
        "t = traced_cli.Tracer(); t.install(); print(json.dumps(t.sites))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=bench.ROOT,
        env={"PYTHONPATH": str(bench.SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    sites = json.loads(proc.stdout)
    assert "qlocus.gysin.exact_div" in sites["polyring.exact_div"]
    for mod in ("chern", "locus", "gysin", "verify"):
        assert f"qlocus.{mod}.schur_q" in sites["schur.schur_q"]
    assert "qlocus.schur.complete_sym" in sites["alphabets.complete_sym"]
    assert "qlocus.polyring.Poly.__radd__" in sites["polyring.add"]
    assert "qlocus.polyring.Poly.__rmul__" in sites["polyring.mul"]
    assert all(sites.values())


def test_benchmark_json_names_match_what_the_runs_report():
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    from_spans = list(run.layer_metrics({}, 1))
    assert per_layer[: len(from_spans)] == from_spans
    assert per_layer[len(from_spans):] == ["cli.startup_s", "cli.request_cpu_s", "trace.overhead_ratio"]

    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query", "--seed", "1", "--seconds", "1"],
        cwd=bench.ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units
