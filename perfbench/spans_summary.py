#!/usr/bin/env python3
"""Summarizes a traced run's span file by span name.

    python3 perfbench/spans_summary.py .bench_build/spans/paper_join-seed1.json

Prints, per span name under its top-level span, the number of spans and the
median wall time, self time (wall minus the part its children cover),
process CPU and charged I/O cost. Top-level names ending in "(1 thread)"
come from the same requests run with a one-thread scheduler.
"""

import json
import statistics
import sys
from collections import defaultdict


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        events = json.load(f)["traceEvents"]
    by_id = {e["args"]["span"]: e for e in events}

    def root_of(e):
        while e["args"]["parent"] in by_id:
            e = by_id[e["args"]["parent"]]
        return e

    # Spans are grouped by name under the name of their top-level span, so
    # the phases of the 1-thread and the parallel requests stay apart.
    by_name = defaultdict(list)
    for e in events:
        root = root_of(e)
        key = e["name"] if root is e else f"{root['name']} > {e['name']}"
        by_name[key].append(e)
    rows = []
    for name, spans in by_name.items():
        rows.append((
            name,
            len(spans),
            statistics.median(s["dur"] for s in spans) / 1e3,
            statistics.median(s["args"]["self_us"] for s in spans) / 1e3,
            statistics.median(s["args"]["process_cpu_us"] for s in spans) / 1e3,
            statistics.median(s["args"]["total_io"]["cost"] for s in spans),
        ))
    rows.sort(key=lambda r: -r[2] * r[1])
    print(f"{'span':64s} {'n':>5s} {'wall ms':>9s} {'self ms':>9s} "
          f"{'cpu ms':>9s} {'io cost':>9s}")
    for name, n, wall, self_ms, cpu, cost in rows:
        print(f"{name[:64]:64s} {n:5d} {wall:9.2f} {self_ms:9.2f} "
              f"{cpu:9.2f} {cost:9.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
