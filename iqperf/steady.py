#!/usr/bin/env python3
"""Steadiness check: runs workloads N times and prints each metric's spread.

    python3 iqperf/steady.py [--workload <name> ...] [--runs 10] [--seed 1]
                             [--sets 1|2] [--seconds <s>] [--trace 0|1]

Each run uses its own seed (seed, seed+1, ...). For every metric the
tool prints the median, the first and third quartile (Python's
statistics.quantiles, n=4), the spread (q3 - q1) / median and, for the
end-to-end metrics of BENCHMARK.json, that spread against the metric's
bound. A spread above a third of its bound is flagged, above the bound
(setup_s excepted) it fails. With --sets 2 a second set of runs follows
on the next seeds, and every metric whose second median is worse than
the first by more than its bound fails. It also checks that every run
was correct, that the share of failed operations is the same in every
run, that the result line has exactly the keys correct, attempted,
failed and metrics, and that the metrics printed are exactly those
BENCHMARK.json declares for the mode (end_to_end for --trace 0,
per_layer for --trace 1), each with its declared unit. Exits 1 if any
check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def run_set(workload, seeds, args, declared):
    """Runs `workload` once per seed; returns (results, run seconds, ok)."""
    results, took, ok = [], [], True
    for seed in seeds:
        t0 = time.monotonic()
        r = run_once(workload, seed, args.seconds, args.trace)
        took.append(time.monotonic() - t0)
        if r is None or not r["correct"]:
            print(f"{workload}: run with seed {seed} failed")
            ok = False
            continue
        if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
            print(f"  FAIL: result keys {sorted(r)} (seed {seed})")
            ok = False
        for n, m in r["metrics"].items():
            if declared.get(n) != m["unit"]:
                print(f"  FAIL: {n} [{m['unit']}] not declared so in "
                      "BENCHMARK.json")
                ok = False
        for n in sorted(set(declared) - set(r["metrics"])):
            print(f"  FAIL: {n} declared in BENCHMARK.json but not printed "
                  f"(seed {seed})")
            ok = False
        results.append(r)
    return results, took, ok


def medians(results, bounds):
    """Prints the per-metric table of one set; returns (medians, ok)."""
    ok = True
    out = {}
    names = sorted({n for r in results for n in r["metrics"]})
    print(f"  {'metric':40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name in names:
        vals = [r["metrics"][name]["value"] for r in results
                if name in r["metrics"]]
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        out[name] = med
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            if spread > bound:
                flag = "  FAIL: over bound"
                ok = False
            elif spread > bound / 3:
                flag = "  over a third of bound"
        print(f"  {name:40} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {'' if bound is None else bound:>6}{flag}")
    return out, ok


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end" if args.trace == 0 else "per_layer"]
    declared = {m["name"]: m["unit"] for m in metrics}
    bounds = {m["name"]: m["bound"] for m in metrics if "bound" in m}
    better = {m["name"]: m["better"] for m in metrics}

    ok = True
    for wl in workloads:
        set_medians, set_shares = [], []
        for s in range(args.sets):
            first = args.seed + s * args.runs
            results, took, set_ok = run_set(
                wl, range(first, first + args.runs), args, declared)
            ok &= set_ok
            if len(results) < 2:
                ok = False
                continue
            shares = {r["failed"] / r["attempted"] for r in results}
            set_shares.append(shares)
            print(f"\n{wl}: set {s + 1}, seeds {first}..{first + args.runs - 1}"
                  f", {len(results)} runs, failed share {sorted(shares)}, "
                  f"run time {min(took):.1f}-{max(took):.1f} s")
            if len(shares) != 1:
                print("  FAIL: failed share differs between runs")
                ok = False
            meds, table_ok = medians(results, bounds)
            ok &= table_ok
            set_medians.append(meds)
        if len(set_medians) == 2:
            if set_shares[0] != set_shares[1]:
                print("  FAIL: failed share differs between the sets")
                ok = False
            print(f"  {'metric':40} {'set 2 vs 1':>12} {'bound':>6}")
            for name, m1 in set_medians[0].items():
                m2 = set_medians[1].get(name)
                if m2 is None or not m1:
                    continue
                worse = (m2 - m1) / abs(m1)
                if better.get(name) == "higher":
                    worse = -worse
                bound = bounds.get(name)
                flag = ""
                if bound is not None and worse > bound:
                    flag = "  FAIL: second median worse by more than bound"
                    ok = False
                print(f"  {name:40} {worse:+12.4f} "
                      f"{'' if bound is None else bound:>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
