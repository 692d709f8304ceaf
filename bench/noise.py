#!/usr/bin/env python3
"""Runs the benchmark the way its driver does and reports how steady it is.

For every workload it runs `bash bench/run.sh --workload W --seed S
--seconds N --trace 0` once per seed and prints, for every end-to-end
metric, the median over the seeds and the spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median. NOISE.md is this script's output.

    python3 bench/noise.py [--seeds 1-10] [--sets 1] [--workloads a,b] [--json FILE]

With --sets 2 the seed range is run twice, interleaved set by set, and the
second set's medians are compared with the first's.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

WORKLOADS = ["point", "analytic", "paper_mix", "pipeline"]


def run(workload, seed, seconds, trace):
    start = time.time()
    out = subprocess.run(
        ["bash", "bench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['correct']=} {result['failed']=}")
    return {k: v["value"] for k, v in result["metrics"].items()}, time.time() - start


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--json", help="also write every run's metrics here")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    workloads = args.workloads.split(",")

    runs = {w: [[] for _ in range(args.sets)] for w in workloads}
    walls = []
    for s in range(args.sets):
        for seed in seeds:
            for w in workloads:
                metrics, wall = run(w, seed + s * 1000, args.seconds, args.trace)
                runs[w][s].append(metrics)
                walls.append(wall)
                print(f"# set {s + 1} {w} seed {seed + s * 1000}: {wall:.1f} s", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f)

    print(f"runs: {len(walls)}, wall time per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    header = "| workload | metric | " + " | ".join(f"median {s + 1} | spread {s + 1}" for s in range(args.sets))
    if args.sets == 2:
        header += " | median 2 / median 1"
    print(header + " |")
    print("|" + "---|" * (header.count("|")))
    for w in workloads:
        for name in runs[w][0][0]:
            cells, medians = [], []
            for s in range(args.sets):
                values = [r[name] for r in runs[w][s]]
                medians.append(statistics.median(values))
                cells.append(f"{medians[-1]:.5g} | {spread(values):.3f}")
            row = f"| {w} | {name} | " + " | ".join(cells)
            if args.sets == 2:
                row += f" | {medians[1] / medians[0]:.3f}" if medians[0] else " | -"
            print(row + " |")


if __name__ == "__main__":
    main()
