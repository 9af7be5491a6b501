#!/usr/bin/env python3
"""Determinism test for the benchmark's counted metrics.

    python3 perfbench/test_determinism.py [--seed N] [--seconds S]

Runs every workload twice with the same seed, traced and untraced, and
requires tile_cycles and every per-layer metric with unit "count" or
"ratio" (minimise.steps, cluster.clusters, sched.levels,
alloc.inserted_cycles, the serve hit/patched tallies, ...) to repeat
exactly. Exits 1 on the first difference.
"""

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ["corpus-cold", "large-unroll", "serve-mix"]
EXACT_UNITS = {"count", "ratio", "cycles"}


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit("%s --trace %d failed (exit %d):\n%s%s" % (
            workload, trace, done.returncode, done.stdout[-2000:],
            done.stderr[-2000:]))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("%s --trace %d reported incorrect output" % (workload, trace))
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in EXACT_UNITS}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()
    checked = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            first = run(workload, args.seed, args.seconds, trace)
            second = run(workload, args.seed, args.seconds, trace)
            if not first:
                sys.exit("%s --trace %d reported no exact metrics" % (workload, trace))
            for name, value in sorted(first.items()):
                if second.get(name) != value:
                    sys.exit("%s --trace %d: %s was %r, then %r" % (
                        workload, trace, name, value, second.get(name)))
            checked += len(first)
            print("ok %s --trace %d: %d exact metrics repeat" % (
                workload, trace, len(first)))
    print("determinism: %d metric values repeated exactly" % checked)


if __name__ == "__main__":
    main()
