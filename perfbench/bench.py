"""Shared pieces of the qlocus benchmark.

Request pools, the seeded request order, spawning one ``qlocus`` CLI
process per request (with that child's own rusage), judging a request's
output against the golden table, and the latency statistics.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_PATH = HERE / "golden.json"
TRACED_ENTRY = HERE / "traced_cli.py"

# The set-up probe: the cheapest request the CLI answers.  Its wall time is
# interpreter start, imports and argparse.
PROBE = "class --e 1 --f 1 --r 0 --symmetry sym"

# A run is whole passes over a pool, so one pass takes well under a run:
# 6 to 13 s on a 2-core host.  The tail statistic of a run with k passes
# lands on the pool entry ranked ceil(11 / k) by cost, so the entries
# ranked 2nd to 6th are kept close in cost; then the tail moves little
# when host speed changes k.  Every entry takes 2 s or less at the commit
# that recorded the golden table.  Heavier ranks (verify at e = 6,
# expand at (8,4,1,skew), schur-pair at (8,5,2,sym)) take 7 s to 2 min
# each, so one of them would be most of a run.
POOLS: dict[str, list[str]] = {
    # Start-up, the Q recurrence, complete-symmetric series, Poly mul/add,
    # Poly.__str__ and apply_substitution; no gysin, no Schur expansion.
    "query": [
        "class --e 8 --f 5 --r 2 --symmetry skew --format expression",
        "class --e 7 --f 5 --r 2 --symmetry sym --format expression --mode independent",
        "class --e 6 --f 4 --r 2 --symmetry sym --format expression",
        "class --e 8 --f 6 --r 3 --symmetry sym --format expression --mode independent",
        "class --e 8 --f 5 --r 2 --symmetry skew --format structured",
        "class --e 8 --f 6 --r 3 --symmetry sym --format structured --mode independent",
        "class --e 5 --f 3 --r 2 --symmetry sym --format structured",
        "class --e 7 --f 4 --r 1 --symmetry skew --format structured --mode independent",
        "class --e 8 --f 5 --r 2 --symmetry skew --format polynomial",
        "class --e 8 --f 5 --r 3 --symmetry sym --format polynomial",
        "class --e 8 --f 6 --r 4 --symmetry skew --format polynomial",
        "class --e 6 --f 5 --r 2 --symmetry sym --format polynomial",
        "class --e 5 --f 4 --r 1 --symmetry skew --format polynomial",
        "class --e 7 --f 3 --r 1 --symmetry skew --format polynomial --mode independent",
        "class --e 8 --f 4 --r 1 --symmetry skew --format polynomial",
        "class --e 6 --f 4 --r 1 --symmetry skew --format polynomial --mode independent",
        "class --e 6 --f 4 --r 2 --symmetry sym --format polynomial --mode independent",
        "class --e 5 --f 3 --r 1 --symmetry sym --format polynomial --mode independent",
        "class --e 6 --f 3 --r 1 --symmetry skew --format polynomial --mode independent",
        "chern --e 5 --f 3 --kind vee --route closed",
        "chern --e 6 --f 4 --kind wedge --route closed",
        "chern --e 6 --f 3 --kind vee --route closed",
        "chern --e 4 --f 4 --kind vee --route closed",
        "chern --e 7 --f 3 --kind vee --route closed",
        "chern --e 5 --f 3 --kind wedge --route oracle",
        "chern --e 6 --f 4 --kind wedge --route oracle",
        "chern --e 6 --f 3 --kind vee --route oracle",
        "chern --e 7 --f 3 --kind wedge --route oracle",
        "chern --e 8 --f 3 --kind wedge --route oracle",
        "degree --e-twists 1,1,1,1 --f-twists 1,1,1 --r 2 --symmetry skew",
        "degree --e-twists 1,1,1,1,1 --f-twists 1,1,1 --r 2 --symmetry skew",
        "degree --e-twists 1,1,1,1,1,1 --f-twists 1,1,1,1 --r 2 --symmetry skew",
        "degree --e-twists 1,1,1,1,1,1 --f-twists 1,1,1 --r 1 --symmetry skew",
        "degree --e-twists 2,1,1,1,1 --f-twists 1,1,1 --r 1 --symmetry sym",
        "degree --e-twists 1,2,3,1,2 --f-twists 2,1,1 --r 2 --symmetry sym",
        "degree --e-twists 1,2,1,2,1,1 --f-twists 1,1,2,1 --r 2 --symmetry sym",
    ],
    # Jacobi-Trudi determinants, skew Schur on virtual alphabets,
    # expand_schur_basis and large products; start-up is a small share.
    "tables": [
        "expand --e 7 --f 3 --r 0 --symmetry skew",
        "expand --e 7 --f 3 --r 1 --symmetry sym",
        "expand --e 7 --f 4 --r 2 --symmetry sym",
        "expand --e 7 --f 4 --r 1 --symmetry skew",
        "expand --e 8 --f 3 --r 1 --symmetry sym",
        "expand --e 8 --f 4 --r 2 --symmetry sym",
        "expand --e 8 --f 4 --r 2 --symmetry skew",
        "class --e 7 --f 5 --r 3 --symmetry sym --format schur-pair",
        "class --e 8 --f 5 --r 3 --symmetry skew --format schur-pair",
        "class --e 7 --f 4 --r 2 --symmetry skew --format schur-pair",
        "class --e 8 --f 6 --r 4 --symmetry sym --format schur-pair",
        "chern --e 5 --f 3 --kind vee --route skew",
        "chern --e 6 --f 3 --kind wedge --route skew",
        "chern --e 6 --f 4 --kind wedge --route skew",
        "chern --e 5 --f 4 --kind vee --route skew",
    ],
    # Push-forwards (coset sums, exact_div by the Vandermonde), shared
    # memo tables across the cases of one request, Fraction coefficients.
    "verify": [
        "verify --suite gysin --max-e 5 --max-weight 1",
        "verify --suite gysin --max-e 5 --max-weight 2",
        "verify --suite gysin --max-e 5 --max-weight 3",
        "verify --suite gysin --max-e 5 --max-weight 4",
        "verify --suite gysin --max-e 4",
        "verify --suite locus --max-e 5",
        "verify --suite identities",
        "verify --suite identities --max-f 4 --max-n 0",
        "verify --suite schur",
        "verify --suite chern",
        "verify --suite all --max-e 3 --max-f 2 --max-n 1",
    ],
}

TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile


def cycles(workload: str, seed: int):
    """Endless sequence of passes over the workload's pool, each pass in a
    fresh order drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    pool = POOLS[workload]
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield order


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond
    it, as (value, percentile).  By nearest rank that is the
    ``TAIL_BEYOND + 1``-th largest sample.  With too few samples for any
    such percentile the maximum is returned, at percentile 100."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return max(samples), 100.0
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


@dataclass
class Outcome:
    """One finished child process."""

    request: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes


def _read_both(proc: subprocess.Popen) -> tuple[bytes, bytes]:
    """Read stdout and stderr to EOF without reaping the child."""
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def spawn(request: str, traced: bool = False) -> Outcome:
    """Run one request as a fresh process and wait for it.

    Untraced requests run the real CLI, ``python -m qlocus.cli``; traced
    ones run the benchmark's own entry point around ``qlocus.cli.main``.
    Peak RSS and CPU time come from ``wait4`` on this child alone.
    """
    entry = [str(TRACED_ENTRY)] if traced else ["-m", "qlocus.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, *entry, *request.split()],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    ) as proc:
        out, err = _read_both(proc)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        request,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,  # Linux reports KiB
        proc.returncode,
        out,
        err,
    )


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def has_fail_line(stdout: bytes) -> bool:
    return any(line.rstrip().endswith(b"FAIL") for line in stdout.splitlines())


def judge(outcome: Outcome, golden: dict) -> str | None:
    """Why the request failed, or None when its output is correct: the
    exit code and stdout digest must equal the golden ones, and no stdout
    line may report FAIL."""
    want = golden.get(outcome.request)
    if want is None:
        return "no golden entry"
    if outcome.exit_code != want["exit"]:
        return f"exit code {outcome.exit_code}, golden {want['exit']}"
    if has_fail_line(outcome.stdout):
        return "FAIL line on stdout"
    if digest(outcome.stdout) != want["sha256"]:
        return "stdout digest differs from the golden table"
    return None
