#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs one workload over several seeds
and prints, per end-to-end metric, the median and the quartile spread
(third minus first quartile, as a share of the median) against the metric's
bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload serve_zipf --seeds 1-10

Run from the root of a checkout. A spread at or above the bound fails the
check; a spread below a third of the bound is the target.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    seconds = args.seconds or manifest["run_seconds"]
    values = {m["name"]: [] for m in manifest["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        cmd = ["python3", "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode != 0:
            sys.exit("seed %d failed with exit code %d" % (seed,
                                                          proc.returncode))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit("seed %d: wrong or failed answers" % seed)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.5g" % (n, m["value"]) for n, m in result["metrics"].items())),
            flush=True)

    ok = True
    print("%-24s %14s %10s %8s" % ("metric", "median", "spread", "bound"))
    for metric in manifest["end_to_end"]:
        series = values[metric["name"]]
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        verdict = ("ok" if spread < metric["bound"] / 3 else
                   "wide" if spread < metric["bound"] else "FAIL")
        if metric["name"] != "setup_s" and verdict == "FAIL":
            ok = False
        print("%-24s %14.6g %10.4f %8.4g  %s" % (metric["name"], median,
                                                 spread, metric["bound"],
                                                 verdict))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
