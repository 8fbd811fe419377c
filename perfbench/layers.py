#!/usr/bin/env python3
"""Traced run of the serving benchmark: every per-layer metric, per workload.

    python3 perfbench/layers.py [--seed 1] [--workload NAME ...]

Runs each workload once with --trace 1 (the wire trace flag set on every
timed request, plus the benchmark's own timers around the public calls the
server spans do not reach) and prints one table: a row per per-layer
metric, a column per workload. The rows include obs.trace_overhead_us
(traced minus untraced wire p50) and obs.unattributed_us (client-observed
mean latency minus the summed top-level server spans and the measured codec
time). README.md maps each row to the end-to-end metric and workload it
should move. A metric that does not apply to a workload (recovery on an
unreplicated shard) reads 0. --json PATH also writes the raw results.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from steadiness import load_benchmark, run_once  # noqa: E402


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="any workload perfbench_serving knows")
    parser.add_argument("--json", default=None)
    args = parser.parse_args()
    workloads = args.workload or names

    results = {}
    ok = True
    for w in workloads:
        r = run_once(w, args.seed, args.seconds, trace=1)
        results[w] = r
        ok &= bool(r["correct"]) and r["failed"] == 0
        print("%s: correct=%s attempted=%d failed=%d" %
              (w, r["correct"], r["attempted"], r["failed"]), flush=True)

    width = max(len(w) for w in workloads) + 2
    print("\n%-32s %-6s" % ("per-layer metric", "unit") +
          "".join("%*s" % (width, w) for w in workloads))
    for m in bench["per_layer"]:
        row = "%-32s %-6s" % (m["name"], m["unit"])
        for w in workloads:
            v = results[w]["metrics"].get(m["name"], {}).get("value")
            row += "%*s" % (width, "-" if v is None else "%.4g" % v)
        print(row)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
