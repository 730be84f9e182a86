#!/usr/bin/env python3
"""Steadiness record: runs the benchmark several times per workload, each
run with its own seed, and reports every metric's median, quartiles and
quartile spread ((Q3 - Q1) / median) against the bounds in BENCHMARK.json.

    python3 panebench/steadiness.py --runs 10 --seconds 10 \
        --out panebench/steadiness.json [--trace 0|1] [--workload NAME]

Run from the checkout root. Each run is a full `run.py` invocation, so the
record reflects exactly what a comparison of two commits would see.
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
sys.path.insert(0, HERE)
import stats  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]

    record = {"runs": args.runs, "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    for workload in names:
        values, runs = {}, []
        for i in range(args.runs):
            seed = args.first_seed + i
            start = time.monotonic()
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)
            wall = time.monotonic() - start
            if done.returncode != 0:
                sys.exit("%s seed %d failed:\n%s" % (workload, seed,
                                                     done.stderr[-3000:]))
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "wall_s": wall,
                         "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"]})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d: %.0fs correct=%s failed=%d" % (
                workload, seed, wall, result["correct"], result["failed"]),
                flush=True)
        summary = {}
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            q2 = statistics.median(series)
            spread = stats.quartile_spread(series) if q2 else 0.0
            summary[name] = {"median": q2, "q1": q1, "q3": q3,
                             "spread": spread, "values": series}
            bound = bounds.get(name)
            print("  %-34s median %-12.6g spread %.3f%s" % (
                name, q2, spread,
                "" if bound is None else "  bound %.2f" % bound))
        record["workloads"][workload] = {"runs": runs, "metrics": summary}
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
