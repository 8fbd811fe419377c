#!/usr/bin/env python3
"""One run of the serving benchmark.

    python3 perfbench/run.py --workload spill-uniform --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call builds the library and the
benchmark from source into .bench_build/perfbench (CMake, Release); later
calls only re-check the build. Then it runs perfbench_serving with the same
arguments and relays its output: the last line of stdout is the result
JSON ({"correct", "attempted", "failed", "metrics"}).

Exits non-zero, printing no result, when the build fails (for example in a
directory that holds the benchmark but not the library sources) or the run
does not finish.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_serving")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            if cmd[1] == "-S":
                # A failed configure must not leave a cache that makes
                # the next call skip configuration.
                shutil.rmtree(BUILD, ignore_errors=True)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    scratch = os.path.join(ROOT, ".bench_build", "scratch",
                           "run-%d" % os.getpid())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out = proc.stdout.rstrip("\n")
    if proc.returncode != 0 or not out.splitlines()[-1:] or \
            not out.splitlines()[-1].startswith("{"):
        log(out[-4000:])
        log("perfbench: run failed with exit code %d" % proc.returncode)
        return 1
    print(out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
