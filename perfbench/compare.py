#!/usr/bin/env python3
"""Paired comparison of two checkouts on the campaign benchmark.

    python3 perfbench/compare.py --parent ../parent --change . \\
        --workload figure-detailed [--pairs 10] [--seed-base 100]

Each side is the root of a checkout holding BENCHMARK.json and
perfbench/; each builds into its own .bench_build. Pair i runs both
sides on seed seed-base + i, alternating which side goes first. For
every end-to-end metric the report gives each side's median and
quartiles and a verdict:

  improved     over at least 10 pairs, the change wins at least 9 of
               every 10 (ties count for neither) and the medians differ
               by more than the parent's own quartile spread
  regressed    the change's median is worse than the parent's by more
               than the metric's bound from the parent's BENCHMARK.json
  unresolved   the parent's spread exceeds the bound, so "no worse"
               cannot be shown (unless every change run beats every
               parent run)
  unchanged    none of the above

One traced run per side on seed seed-base then compares every per-layer
count and the printed campaign digests exactly: a perf-only change must
leave them identical, and any difference is flagged. Exits 1 when a
metric regressed, a count or digest moved, or a run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(side, workload, seed, seconds, trace):
    env = {k: v for k, v in os.environ.items()
           if k != "CARGO_TARGET_DIR" and not k.startswith("CATCH_")}
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=side, env=env, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode or not lines:
        sys.exit("run failed in %s (exit %d):\n%s" %
                 (side, p.returncode, p.stderr[-2000:]))
    result = json.loads(lines[-1])
    digests = [l.strip() for l in lines if l.strip().startswith("digest")]
    return result, digests


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def verdict(spec, parent, change):
    lower = spec["better"] == "lower"
    pm, cm = statistics.median(parent), statistics.median(change)
    p1, p3 = quartiles(parent)
    spread = (p3 - p1) / abs(pm) if pm else 0.0

    def better(c, p):
        return c < p if lower else c > p

    wins = sum(better(c, p) for c, p in zip(change, parent))
    if (len(parent) >= 10 and wins * 10 >= 9 * len(parent)
            and abs(cm - pm) > (p3 - p1)):
        return "improved", wins, spread
    worse = (cm - pm) / abs(pm) if lower else (pm - cm) / abs(pm)
    all_better = all(better(c, p) for c in change for p in parent)
    if spread > spec["bound"] and not all_better:
        return "unresolved", wins, spread
    if pm and worse > spec["bound"]:
        return "regressed", wins, spread
    return "unchanged", wins, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=100)
    args = ap.parse_args()

    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    seconds = bench["run_seconds"]

    values = {"parent": {}, "change": {}}
    failed = False
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            path = args.parent if side == "parent" else args.change
            res, _ = run(path, args.workload, seed, seconds, 0)
            failed |= not res["correct"] or res["failed"] > 0
            for name, m in res["metrics"].items():
                values[side].setdefault(name, []).append(m["value"])
        print("pair %d (seed %d) done" % (i + 1, seed), file=sys.stderr)

    regressed = False
    print("workload %s, %d pairs" % (args.workload, args.pairs))
    print("%-22s %-10s %26s %26s %6s %7s  %s" %
          ("metric", "unit", "parent median [q1, q3]",
           "change median [q1, q3]", "wins", "spread", "verdict"))
    for name, spec in specs.items():
        p, c = values["parent"].get(name), values["change"].get(name)
        if not p or not c:
            print("%-22s missing from a side's output" % name)
            failed = True
            continue
        v, wins, spread = verdict(spec, p, c)
        regressed |= v == "regressed"
        pq, cq = quartiles(p), quartiles(c)
        print("%-22s %-10s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] %3d/%-2d "
              "%6.3f  %s" % (name, spec["unit"], statistics.median(p),
                             pq[0], pq[1], statistics.median(c), cq[0],
                             cq[1], wins, len(p), spread, v))

    # Deterministic counts and digests: one traced run per side.
    pres, pdig = run(args.parent, args.workload, args.seed_base, seconds, 1)
    cres, cdig = run(args.change, args.workload, args.seed_base, seconds, 1)
    moved = []
    for name, m in pres["metrics"].items():
        if units.get(name) != "count":
            continue
        other = cres["metrics"].get(name, {}).get("value")
        if other != m["value"]:
            moved.append("%s: %s -> %s" % (name, m["value"], other))
    if pdig != cdig:
        moved.append("digest: %s -> %s" % (pdig, cdig))
    if moved:
        print("deterministic counts or digests moved:")
        for line in moved:
            print("  " + line)
    else:
        print("every per-layer count and digest is identical")
    return 1 if regressed or moved or failed else 0


if __name__ == "__main__":
    sys.exit(main())
