"""Run one workload of the omegalogic benchmark.

    python3 perfbench/run.py --workload prop-forcing --seed 1 --seconds 20 \
        --trace 0

Runs from the root of a source checkout: the package is imported from
`src/`.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones.  See README.md.
"""

import argparse
import json
import os
import sys

HASH_SEED = "0"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "prop-forcing": "wl_prop",
    "ef-iso": "wl_ef",
    "finite-models": "wl_finite",
    "presentations": "wl_presentations",
}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # a fresh interpreter with a fixed hash seed, so that set and dict
    # iteration orders inside the program repeat from run to run
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  env)

    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import harness

    workload = __import__(WORKLOADS[args.workload])
    print(f"PYTHONHASHSEED={HASH_SEED} workload={args.workload} "
          f"seed={args.seed} seconds={args.seconds} trace={args.trace}",
          file=sys.stderr)
    result = harness.run(workload, args.seed, args.seconds, args.trace, ROOT)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
