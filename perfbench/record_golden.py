"""Record the golden table: exit code and stdout sha256 of every request
in every pool, plus the set-up probe.

    python3 perfbench/record_golden.py

Run it only at a commit whose outputs are known to be right; every timed
and traced run is judged against the table it writes.
"""
from __future__ import annotations

import json
import sys

import bench


def main() -> int:
    requests = sorted({bench.PROBE, *(r for pool in bench.POOLS.values() for r in pool)})
    table = {}
    for request in requests:
        o = bench.spawn(request)
        print(f"{o.wall_s:8.3f}s {o.rss_mb:7.1f}MB {len(o.stdout):9d}B  {request}", flush=True)
        if o.exit_code != 0 or bench.has_fail_line(o.stdout):
            print(f"error: {request!r} failed:\n{o.stderr.decode()}", file=sys.stderr)
            return 1
        table[request] = {"exit": o.exit_code, "sha256": bench.digest(o.stdout)}
    with open(bench.GOLDEN_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
