#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Runs run.py once per seed for each workload (all of BENCHMARK.json's
workloads by default, untraced) from the checkout root, prints each run's
figures, then per metric the median, the quartiles (Python's
statistics.quantiles, n=4) and the interquartile range as a share of the
median, next to a third of the metric's bound. A spread at or above a
third of the bound is flagged, for every metric, setup_s included.
Exits 1 when any run fails or any spread is flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]),
                                          "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                print("%s seed %d: FAILED (exit %d)" % (workload, seed, done.returncode))
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (name, result["metrics"][name]["value"]) for name in bounds)))
        print("%s (%d runs)" % (workload, args.runs))
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / q2
            flagged = spread >= bounds[name] / 3
            ok = ok and not flagged
            print("  %-18s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%%"
                  "  (bound/3 %5.2f%%)%s" % (name, q2, q1, q3, 100 * spread,
                                              100 * bounds[name] / 3,
                                              "  FLAGGED" if flagged else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
