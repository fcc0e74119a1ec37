"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload broad --seeds 1 2 3 4 5 --seconds 10

For every metric it prints the median of the runs and the distance
between the first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of that median, next to the metric's bound from
``BENCHMARK.json``. ``--out`` also writes every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"seed {seed} exited {completed.returncode}:\n{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    middle = statistics.median(values)
    first, _, third = statistics.quantiles(values, n=4)
    return middle, (third - first) / middle if middle else 0.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {entry["name"]: entry.get("bound") for entry in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        runs.append(run_once(args.workload, seed, seconds, args.trace))
        print(f"seed {seed}: attempted {runs[-1]['attempted']}, "
              f"failed {runs[-1]['failed']}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seeds": args.seeds, "runs": runs}, handle)
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        middle, share = spread(values)
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound:.2f}{'  OVER' if share > bound else ''}"
        print(f"{name:40s} median {middle:12.5g}  spread {share:6.3f}{flag}")


if __name__ == "__main__":
    main()
