#!/usr/bin/env python3
"""Checks how steady the benchmark's end-to-end metrics are across seeds.

    python3 perfbench/spread.py --workload mix --seeds 10 [--seconds 40]

Runs perfbench/run.py once per seed (1..N), then prints for every
end-to-end metric its median and its spread: the distance between the
first and third quartile of the N values, as a share of the median. A
metric is steady enough when that spread stays under a third of its bound
in BENCHMARK.json; metrics that miss that are flagged.
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
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)

    print(f"\n{'metric':<24}{'median':>12}{'spread':>9}{'bound/3':>9}")
    for name, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med
        flag = "" if spread < bounds[name] / 3 else "  <-- too wide"
        print(f"{name:<24}{med:>12.4f}{spread:>9.3f}"
              f"{bounds[name] / 3:>9.3f}{flag}")


if __name__ == "__main__":
    main()
