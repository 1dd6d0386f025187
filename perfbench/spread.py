#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage (from the repository root):

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs each workload `--runs` times, each with another seed, and prints for
every end-to-end metric its median with its unit and, from two runs on,
its spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's bound from BENCHMARK.json. A spread above a third of the
bound is flagged `WIDE`, above the bound `OVER`. `--runs 1` prints every
end-to-end metric of every workload once. Raw results are appended to
`.perfbench_out/spread.jsonl`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    os.makedirs(".perfbench_out", exist_ok=True)
    worst = 0.0
    for w in args.workloads:
        values = {m: [] for m in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            run = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True,
            )
            if run.returncode != 0:
                sys.stderr.write(run.stderr)
                sys.exit(f"{w} seed {seed}: exit code {run.returncode}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            with open(".perfbench_out/spread.jsonl", "a") as log:
                log.write(json.dumps({"workload": w, "seed": seed, "result": result}) + "\n")
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: incorrect result {result}")
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        print(f"{w} ({args.runs} runs)")
        for m, xs in values.items():
            med = statistics.median(xs)
            if len(xs) < 2:
                print(f"  {m:14s} {med:12.6g} {units[m]}")
                continue
            q = statistics.quantiles(xs, n=4)
            spread = (q[2] - q[0]) / med
            flag = "OVER" if spread > bounds[m] else "WIDE" if spread > bounds[m] / 3 else "ok"
            if m != "setup_s":
                worst = max(worst, spread / bounds[m])
            print(f"  {m:14s} median {med:12.6g} {units[m]:4s} spread {spread:7.2%}  "
                  f"bound {bounds[m]:.2f}  {flag}")
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
