#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs every workload (or those named) in sets of runs, one seed per run,
with the workload order reversed in every other set, then prints per
end-to-end metric each set's median and quartiles, the spread (distance
between the quartiles as a share of the median), and whether the sets
agree within the metric's bound. Also checks that the share of failed
operations is the same in every run.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --sets 1 --workloads live-chord-10k

Raw results are written to perfbench/out/steady-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default="", help="comma-separated; default all")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = [n for n in opts.workloads.split(",") if n]
    seconds = bench["run_seconds"]

    # results[set][workload] = list of run results
    results = []
    for s in range(opts.sets):
        order = names if s % 2 == 0 else list(reversed(names))
        per = {n: [] for n in names}
        for i in range(opts.runs):
            seed = 1 + s * opts.runs + i
            for name in order:
                r = run_once(bench["command"], name, seed, seconds)
                per[name].append(r)
                print(f"set {s + 1} seed {seed:3d} {name:24s} {r['wall_s']:6.1f} s wall, "
                      f"{r['failed']}/{r['attempted']} failed", flush=True)
        results.append(per)

    os.makedirs("perfbench/out", exist_ok=True)
    out_path = time.strftime("perfbench/out/steady-%Y%m%d-%H%M%S.json")
    with open(out_path, "w") as f:
        json.dump(results, f)

    ok = True
    for name in names:
        print(f"\n{name}")
        shares = {r["failed"] / r["attempted"] for per in results for r in per[name]}
        if len(shares) != 1:
            ok = False
            print(f"  FAILED SHARE DIFFERS between runs: {sorted(shares)}")
        else:
            print(f"  failed share {shares.pop():.6f} in every run")
        for m in bench["end_to_end"]:
            key, bound = m["name"], m["bound"]
            row = [f"  {key:22s}"]
            medians = []
            for per in results:
                values = [r["metrics"][key]["value"] for r in per[name]]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                flag = ""
                if key != "setup_s":
                    flag = " ok" if spread <= bound / 3 else (" WIDE" if spread > bound else " >1/3")
                    ok = ok and spread <= bound
                row.append(f"med {med:14.4f} [{q1:.4f}, {q3:.4f}] spread {spread:6.2%}{flag}")
            if len(medians) > 1:
                sign = 1 if m["better"] == "lower" else -1
                worse = max(sign * (b - medians[0]) / medians[0] for b in medians[1:])
                agree = worse <= bound
                ok = ok and agree
                row.append(f"worse by {max(worse, 0):6.2%} {'agree' if agree else 'DISAGREE'}")
            print(" | ".join(row))
    print(f"\nraw results: {out_path}")
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
