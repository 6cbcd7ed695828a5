#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]
                                [--trace 0|1]

Runs each workload --runs times through run.py, with seeds 1..runs, and
prints per metric its median, first and third quartile and the spread
(Q3 - Q1) / median, with the quartiles taken as statistics.quantiles(values,
n=4) gives them. A gated (end_to_end) metric whose spread exceeds its bound
in BENCHMARK.json is flagged FLAG; one above a third of its bound is flagged
"warn" (the target is a third, to leave room for a noisier host). Exits 1
when any metric is flagged or any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = False
    for workload in args.workloads.split(","):
        values, ok = {}, 0
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, args.seconds, args.trace)
            if result is None or not result["correct"]:
                print("%s seed %d: run failed" % (workload, seed))
                flagged = True
                continue
            ok += 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s (%d runs, %gs, trace %d)" % (workload, ok, args.seconds,
                                                  args.trace))
        print("%-32s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3",
                                                "spread", "bound"))
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                         else (v[0], v[0], v[0]))
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                if spread > bound:
                    mark, flagged = "FLAG", True
                elif spread > bound / 3:
                    mark = "warn"
            print("%-32s %14.6g %14.6g %14.6g %8.3f %6s %s" % (
                name, med, q1, q3, spread,
                "" if bound is None else "%.2f" % bound, mark))
        sys.stdout.flush()
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
