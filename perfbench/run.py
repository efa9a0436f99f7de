#!/usr/bin/env python3
"""Builds the campaign benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload figure-detailed --seed 0 \\
        --seconds 20 --trace 0

Run from the root of a checkout. The simulator library, the catchsim
CLI (worker binary) and the catchbench program are built with CMake into
$CARGO_TARGET_DIR, or .bench_build when that is unset; the first run
builds, later runs only check that the build is current. CATCH_*
variables are removed from the environment so nothing but the
arguments decides what is measured. The last line of standard output
is the result object; build failures exit non-zero without one.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figure-detailed", "sweep-sampled", "resweep-isolated")
BUILD_JOBS = "3"


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures (once) and builds; returns False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", BUILD_JOBS, "--target",
                  "catchbench", "catchsim_worker"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    bdir = build_dir()
    if not build(bdir):
        return 1
    env = {k: v for k, v in os.environ.items() if not k.startswith("CATCH_")}
    cmd = [os.path.join(bdir, "catchbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--worker-bin", os.path.join(bdir, "catchsim_worker"),
           "--out-dir", os.path.join(bdir, "out")]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
