#!/usr/bin/env python3
"""Steadiness check of the repository benchmark.

    python3 perfbench/steady.py --runs 10 [--workloads serve-churn] \
        [--seed-base 100] [--traced 2] [--out results.json] [--against old.json]

Runs every workload (or the listed ones) --runs times through run.py, each
time with another seed, interleaving the workloads so that drift of the host
hits all of them alike. For every end-to-end metric it prints the median,
the quartiles (statistics.quantiles, n=4) and the spread, (q3 - q1) /
median, next to the metric's bound from BENCHMARK.json: a spread above
the bound makes the benchmark unfit to judge that metric; below a third of
it is the target. With --against, the medians are compared with an earlier
--out file: a median worse than the earlier one by more than the bound
fails. With --traced N, N seeds are also run with --trace 1 and the traced
run's p50/p90 are compared with the untraced run of the same seed: that is
the tracing overhead.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    start = time.time()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                         f"(exit code {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return result, wall


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(old, new, better):
    """Share by which `new` is worse than `old` (negative when better)."""
    if old == 0:
        return 0.0
    return (new - old) / old if better == "lower" else (old - new) / old


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=0,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out", default="")
    parser.add_argument("--against", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    values = {w: {m["name"]: [] for m in spec["end_to_end"]}
              for w in workloads}
    walls = {w: [] for w in workloads}
    untraced = {}
    for i in range(args.runs):
        for w in workloads:
            seed = args.seed_base + i
            result, wall = run_once(w, seed, seconds, 0)
            walls[w].append(wall)
            untraced[(w, seed)] = result["metrics"]
            for name in values[w]:
                values[w][name].append(result["metrics"][name]["value"])
            print(f"# {w} seed {seed}: {wall:.1f} s", flush=True)

    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    ok = True
    print(f"{'workload':14} {'metric':13} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            q1, med, q3 = spread(values[w][m["name"]])
            s = (q3 - q1) / med if med else 0.0
            verdict = ("steady" if s <= m["bound"] / 3 else
                       "within bound" if s <= m["bound"] else "TOO NOISY")
            if m["name"] == "setup_s":
                verdict += " (spread not gated)"
            elif s > m["bound"]:
                ok = False
            old = earlier.get(w, {}).get(m["name"])
            if old:
                drift = worse_by(statistics.median(old), med, m["better"])
                verdict += f"; vs earlier median {drift:+.3f}"
                if drift > m["bound"]:
                    verdict += " WORSE THAN BOUND"
                    ok = False
            print(f"{w:14} {m['name']:13} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{s:7.3f} {m['bound']:6.3f}  {verdict}")
            if m["name"] in ("setup_s", "p50_ms", "p90_ms", "qps"):
                runs = " ".join(f"{v:.4g}" for v in values[w][m["name"]])
                print(f"{'':14} {'':13} runs: {runs}")
        print(f"{w:14} {'run wall s':13} {statistics.median(walls[w]):12.1f} "
              f"max {max(walls[w]):.1f}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)

    for w in workloads:
        for i in range(args.traced):
            seed = args.seed_base + i
            result, wall = run_once(w, seed, seconds, 1)
            base = untraced[(w, seed)]
            for name in ("p50_ms", "p90_ms"):
                traced = result["metrics"]["trace." + name]["value"]
                plain = base[name]["value"]
                print(f"{w:14} seed {seed} tracing overhead on {name}: "
                      f"{traced / plain - 1:+.3f} ({plain:.4g} -> "
                      f"{traced:.4g} ms), traced run {wall:.1f} s")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
