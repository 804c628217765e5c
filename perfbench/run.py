#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload serve-churn --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds the Thetis libraries and the
benchmark binary from source into .bench_build (or $CARGO_TARGET_DIR), runs
the workload, and prints as its last line one JSON object with `correct`,
`attempted`, `failed` and the metrics BENCHMARK.json lists for the mode:
the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_SECONDS = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "thetis_perfbench"])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        log("build failed")
        return 1
    command = [os.path.join(build_dir, "thetis_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(build_dir, "runs")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_SECONDS, text=True)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"run printed no result (exit code {proc.returncode})")
        return 1

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or in the wrong unit")
            return 1
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
