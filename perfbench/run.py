"""Run one perfbench workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload selective --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the timed pass and prints every end-to-end metric
declared in ``BENCHMARK.json``; ``--trace 1`` runs the traced pass and
prints every per-layer metric. The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Exit codes: 0 on success; 1 when an output or the input series does
not match its oracle (no result is printed); 2 when the ``repro``
sources are not present under ``src/``.

A timed run of a static workload (``selective``, ``broad``) runs its
measurement in ``PARTS`` fresh interpreters one after another, each
started as this script with ``--part``, and pools their samples.

Scratch files live under ``.perfbench/`` at the checkout root; the spans
of a traced run are written there as JSON lines when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("selective", "broad", "live-ingest")
#: Fresh interpreters per static timed run: each sets up once and runs
#: its share of the measured time, and their samples are pooled. The
#: latencies of one interpreter shift together, by up to half between
#: interpreters (the allocator state each one reaches), so one run
#: spans several.
PARTS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one share of a static timed run and print its samples.
    parser.add_argument("--part", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def declared_metrics(trace: int) -> list[tuple[str, str]]:
    """``(name, unit)`` of the metrics a pass must print."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    section = spec["per_layer" if trace else "end_to_end"]
    return [(entry["name"], entry["unit"]) for entry in section]


class PartFailed(Exception):
    """A child interpreter's correctness gate tripped."""


def run_parts(args: argparse.Namespace) -> tuple[dict, int, int]:
    """A static timed run: ``PARTS`` children, one after another."""
    from perfbench.stats import combine

    parts = []
    for part in range(PARTS):
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds / PARTS), "--part", str(part)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stderr.write(completed.stderr)
        if completed.returncode == 1:
            raise PartFailed(f"part {part} failed its correctness gate")
        if completed.returncode != 0:
            raise RuntimeError(f"part {part} exited {completed.returncode}")
        parts.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    return combine(parts)


def run_workload(args: argparse.Namespace, work: str):
    """``(metrics, attempted, failed, spans or None)`` for one run, or
    the raw samples of one part."""
    from perfbench import workloads

    if args.workload == "live-ingest":
        bench = workloads.LiveBench(args.seed, work)
    else:
        bench = workloads.StaticBench(args.workload, args.seed)
    try:
        if args.part is not None:
            return bench.timed_part(args.seconds, args.part, PARTS)
        if args.trace:
            return bench.traced(work)
        return (*bench.timed(), None)
    finally:
        bench.close()


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [source, ROOT]
    from perfbench.gate import GateError

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.part is None and not args.trace and args.workload != "live-ingest":
            metrics, attempted, failed = run_parts(args)
            spans = None
        else:
            outcome = run_workload(args, work)
            if args.part is not None:
                print(json.dumps(outcome))
                return 0
            metrics, attempted, failed, spans = outcome
    except (GateError, PartFailed) as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = declared_metrics(args.trace)
    missing = [name for name, _ in names if name not in metrics]
    if missing:
        raise RuntimeError(f"workload did not produce {missing}")
    if spans is not None:
        spans.dump(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in names
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
