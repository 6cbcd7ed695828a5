#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py [--seconds 1]

Runs every workload of BENCHMARK.json briefly, untraced and traced, through
run.py and checks each output against BENCHMARK.json: exactly the listed
metric names with their units, finite values, correct == true, attempted
>= 1 and failed == 0. Then copies BENCHMARK.json and the benchmark's files
into a bare directory under the build directory and checks that run.py
fails there without printing a result. Exits 1 on the first mismatch.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, seconds, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", str(seconds),
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=900)


def check_output(spec, workload, trace, proc):
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        return "%s: exit code %d" % (where, proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "%s: result keys %s" % (where, sorted(result))
    if result["correct"] is not True:
        return "%s: correct is %r" % (where, result["correct"])
    if result["attempted"] < 1 or result["failed"] != 0:
        return "%s: attempted %d, failed %d" % (where, result["attempted"],
                                                result["failed"])
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    want = [(m["name"], m["unit"]) for m in listed]
    got = [(n, m["unit"]) for n, m in result["metrics"].items()]
    if got != want:
        return "%s: metrics %s, want %s" % (where, got, want)
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(
                m["value"]):
            return "%s: %s = %r" % (where, name, m["value"])
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    for w in spec["workloads"]:
        for trace in (0, 1):
            err = check_output(spec, w["name"], trace,
                               run(ROOT, w["name"], args.seconds, trace))
            if err:
                print("FAIL " + err)
                sys.exit(1)
            print("ok   %s --trace %d" % (w["name"], trace))

    # Without the library's sources the benchmark must refuse to run.
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = build if os.path.isabs(build) else os.path.join(ROOT, build)
    bare = os.path.join(build, "bare_checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=bare, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        print("FAIL bare checkout: exit %d, stdout %r" % (proc.returncode,
                                                         proc.stdout[:200]))
        sys.exit(1)
    print("ok   bare checkout refuses to run (exit %d)" % proc.returncode)


if __name__ == "__main__":
    main()
