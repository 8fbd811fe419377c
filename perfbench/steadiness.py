#!/usr/bin/env python3
"""Steadiness check of the serving benchmark.

    python3 perfbench/steadiness.py --workload spill-uniform --other hot-zipf --runs 10

Runs --workload N times, alternating the order with --other (W,O then O,W
...), each pair at its own seed (--seed-base + i). For each workload it
prints every end-to-end metric's median, IQR (as a share of the median,
from statistics.quantiles(n=4)) and min-max against the metric's bound in
BENCHMARK.json. It then reruns --workload at the first seed and requires
the deterministic counts (cold_pages_per_query, index_bytes_per_doc) to
repeat exactly.

Exits 1 if a run fails, reports an incorrect answer or a failed operation,
a spread (setup_s excepted) exceeds its bound, or a count does not repeat.
--json PATH also writes every run's metrics there; --markdown also prints
each workload's figures as the table perfbench/README.md shows.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT = ("cold_pages_per_query", "index_bytes_per_doc")


def load_benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d: exit %d" % (workload, seed,
                                                   proc.returncode))
    result = json.loads(lines[-1])
    # Reference figures the run prints but does not gate ("reference NAME
    # VALUE" lines), e.g. the wire p99.
    result["reference"] = {
        f[1]: float(f[2]) for f in (l.split() for l in lines[:-1])
        if len(f) == 3 and f[0] == "reference"}
    return result


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def summarize(name, runs, metrics):
    print("\n%s: %d runs" % (name, len(runs)))
    print("  %-22s %14s %9s %8s %14s %14s" %
          ("metric", "median", "IQR/med", "bound", "min", "max"))
    ok = True
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med, iqr = spread(values)
        bound = m["bound"]
        verdict = "ok" if iqr <= bound / 3 else (
            "WIDE" if iqr <= bound else "OVER")
        if m["name"] == "setup_s":
            verdict += " (not gated)"
        elif iqr > bound:
            ok = False
        print("  %-22s %14.6g %8.2f%% %7.0f%% %14.6g %14.6g  %s" %
              (m["name"], med, 100 * iqr, 100 * bound, min(values),
               max(values), verdict))
    for name in sorted({k for r in runs for k in r.get("reference", {})}):
        values = [r["reference"][name] for r in runs
                  if name in r.get("reference", {})]
        med, iqr = spread(values)
        print("  %-22s %14.6g %8.2f%% %8s %14.6g %14.6g  reference" %
              (name, med, 100 * iqr, "-", min(values), max(values)))
    return ok


def markdown(name, runs, metrics):
    print("\n`%s`, %d runs:\n" % (name, len(runs)))
    print("| metric | median | IQR/median | min-max | bound |")
    print("|---|---|---|---|---|")
    rows = [(m["name"], m["unit"], [r["metrics"][m["name"]]["value"]
                                    for r in runs], "%.2f" % m["bound"])
            for m in metrics]
    for ref in sorted({k for r in runs for k in r.get("reference", {})}):
        unit = "1/s" if ref.endswith("qps") else \
            "s" if ref.endswith("_s") else "us"
        rows.append((ref, unit, [r["reference"][ref] for r in runs
                                 if ref in r.get("reference", {})],
                     "reference"))
    def fmt(v):
        return "%.0f" % v if abs(v) >= 1000 else "%.4g" % v

    for metric, unit, values, bound in rows:
        med, iqr = spread(values)
        print("| `%s` | %s %s | %.1f%% | %s-%s | %s |" %
              (metric, fmt(med), unit, 100 * iqr, fmt(min(values)),
               fmt(max(values)), bound))


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--other", default=None,
                        help="workload to alternate with ('none' to skip)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--json", default=None)
    parser.add_argument("--markdown", action="store_true")
    args = parser.parse_args()
    other = args.other or next(n for n in names if n != args.workload)
    if other == "none":
        other = None

    results = {args.workload: [], other: []} if other else \
        {args.workload: []}
    ok = True
    for i in range(args.runs):
        seed = args.seed_base + i
        order = [args.workload, other] if i % 2 == 0 else \
            [other, args.workload]
        for w in order:
            if w is None:
                continue
            r = run_once(w, seed, args.seconds)
            results[w].append(r)
            line = "  run %2d seed %d %-18s correct=%s attempted=%d failed=%d" \
                % (i, seed, w, r["correct"], r["attempted"], r["failed"])
            print(line, flush=True)
            if not r["correct"] or r["failed"]:
                ok = False

    for w, runs in results.items():
        ok &= summarize(w, runs, bench["end_to_end"])
        if args.markdown:
            markdown(w, runs, bench["end_to_end"])

    again = run_once(args.workload, args.seed_base, args.seconds)
    first = results[args.workload][0]
    for m in EXACT:
        a = first["metrics"][m]["value"]
        b = again["metrics"][m]["value"]
        same = a == b
        ok &= same
        print("repeat at seed %d: %s %r vs %r -> %s" %
              (args.seed_base, m, a, b, "exact" if same else "DIFFERS"))

    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)
    print("\nsteadiness: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
