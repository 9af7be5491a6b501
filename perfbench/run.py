#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to .bench_build/ (release
profile, dune cache off, so nothing is written outside the checkout). The
benchmark's own output is passed through; its last stdout line is the
JSON result. A missing toolchain or source tree, a failed build or a
failed check gives a non-zero exit code.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
PROBE = os.path.join(BUILD_DIR, "default", "perfbench", "probe.exe")
WORKLOADS = ["corpus-cold", "large-unroll", "serve-mix"]


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    fail("dune not found on PATH or in an opam switch")


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a source checkout: %s is missing" % needed)
    dune = find_dune()
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    env = dict(os.environ)
    # the compilers live next to dune in an opam switch
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    cmd = [dune, "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled", "-j", "2",
           "--display", "quiet", "./perfbench/bench.exe", "./perfbench/probe.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=880)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not (os.path.exists(EXE) and os.path.exists(PROBE)):
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--probe", PROBE]
    if args.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out", 3)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
