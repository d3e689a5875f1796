"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--first-seed 1] [--workload prop-forcing ...]

Runs each workload ten times, one run at a time, with the seeds from
`--first-seed` on and the run length of BENCHMARK.json, and prints for
every metric the median and the spread: the distance between the first
and third quartiles (statistics.quantiles, n=4) as a share of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402

RUNS = 10


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    for name in args.workload or list(WORKLOADS):
        values, shares = {}, set()
        for seed in range(args.first_seed, args.first_seed + RUNS):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{name} seed {seed}: wrong verdicts\n{proc.stderr}")
            shares.add((result["failed"], result["attempted"]))
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        for metric, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            print(f"{name:14s} {metric:16s} median {med:10.4f} "
                  f"spread {100 * (q3 - q1) / med:5.1f}%", flush=True)
        ratios = {f / a for f, a in shares}
        print(f"{name:14s} failed share {sorted(ratios)}", flush=True)


if __name__ == "__main__":
    main()
