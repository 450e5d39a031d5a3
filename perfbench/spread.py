"""Run a workload over several seeds and report each metric's spread.

From the repository root::

    python3 perfbench/spread.py --workload direct-macro --seeds 1-10

For every metric it prints the median and the interquartile range (Q3 -
Q1 from ``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound from ``BENCHMARK.json``.  Runs go one at a
time, with ``--trace 0``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values, walls = {}, []
    for seed in parse_seeds(args.seeds):
        command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
        began = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=600, check=True)
        walls.append(time.perf_counter() - began)
        line = done.stdout.strip().splitlines()[-1]
        result = json.loads(line)
        if not result["correct"]:
            print("seed %d: %d of %d checks failed"
                  % (seed, result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, series in values.items():
        mid = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / mid if mid else 0.0
        bound = bounds.get(name)
        print("%-30s median %14.6g  spread %7.4f  bound %s"
              % (name, mid, share, bound if bound is not None else "-"))
    print("wall seconds per run: median %.1f, max %.1f"
          % (statistics.median(walls), max(walls)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
