#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload kv_hash_zipf --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds the library and the benchmark
runner from the checkout's sources (into $CARGO_TARGET_DIR, default
.bench_build), runs one workload and prints two JSON lines on stdout:

  1. {"manifest": ..., "extras": ..., "notes": ...} — the run manifest
     (source digest, git sha when available, build type, compiler, nproc,
     seed, run length, host-noise probe) and values reported beside the
     metrics;
  2. {"correct", "attempted", "failed", "metrics"} — with --trace 0 every
     end_to_end metric of BENCHMARK.json, with --trace 1 every per_layer
     metric, in that file's order.

Exit code: the runner's (0 ok, 1 a correctness check failed); 2 bad usage
or no library sources; 3 the runner's output does not match BENCHMARK.json;
4 the build failed; 5 the runner crashed or timed out.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lock_bench1", "kv_hash_zipf", "kv_mvcc_reads", "twin_kv")
RUNNER_TIMEOUT_S = 175


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures once, then builds the runner (incremental)."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    # "all" is the runner alone: the library's own targets are excluded.
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(4, "build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_runner")


def source_digest():
    """sha256 over the sources the benchmark builds, so a run names the code
    it measured even when the checkout is not a git repository."""
    h = hashlib.sha256()
    tops = ["CMakeLists.txt", "src", os.path.relpath(HERE, ROOT)]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail(2, "--seed must be >= 0 and --seconds in (0, 600]")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(2, "no library sources next to " + HERE)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    runner = build()
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(5, "runner timed out")
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(5, "runner exited %d without a result" % proc.returncode)

    measured = out["result"]["metrics"]
    metrics = {}
    for m in listed:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(3, "runner output lacks %s [%s]" % (m["name"], m["unit"]))
        metrics[m["name"]] = got
    manifest = dict(out["manifest"])
    manifest["source_sha256"] = source_digest()
    manifest["git_sha"] = git_sha()
    report = {
        "manifest": manifest,
        "extras": out["extras"],
        "notes": out["notes"],
        "unlisted_metrics": {k: v for k, v in measured.items()
                             if k not in metrics},
        "check_failures": out["check_failures"],
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": out["result"]["correct"],
        "attempted": out["result"]["attempted"],
        "failed": out["result"]["failed"],
        "metrics": metrics,
    }))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
