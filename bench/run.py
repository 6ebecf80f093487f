"""Benchmark the rascal CLI on one seeded workload and print one JSON result line.

    python3 bench/run.py --workload grt-roundtrip --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is taken from ``src/``.  With
``--trace 0`` the ops run as subprocesses, back to back, for ``--seconds``
seconds, and the end-to-end metrics are reported.  With ``--trace 1`` a
separate traced run reports the per-layer metrics instead; it makes one
fixed set of passes and does not use ``--seconds``.  Every output is
checked against the facts its input was built with; the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
See bench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import execute  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rascal" / "cli.py").is_file():
        print(f"bench: no program to measure: {SRC / 'rascal'} is missing", file=sys.stderr)
        return 2

    work_dir = OUT / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        result = _run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _run(args, work_dir: Path) -> dict:
    started = time.perf_counter()
    workload = workloads.build(args.workload, args.seed, work_dir)
    _note(f"built {len(workload.ops)} ops in {time.perf_counter() - started:.2f} s")
    with execute.Executor(execute.child_env(SRC, work_dir), work_dir) as executor:
        if args.trace:
            import traced

            trace_path = OUT / f"trace-{args.workload}.json"
            metrics, records = traced.traced_run(workload, executor, SRC, work_dir, trace_path)
        else:
            run = execute.measure(workload.ops, executor, args.seconds)
            metrics, records = execute.end_to_end(run), run.records
            _note(f"{len(run.pass_seconds)} full passes, {len(records)} ops, {len(run.setup)} setup starts")
            _note(f"mean calibration {statistics.fmean(run.calibration):.4f} s (reference {execute.REFERENCE_CALIBRATION_S} s)")
            wall = {}
            for rec in records:
                wall.setdefault(rec.op.label, []).append(rec.seconds)
            for label, seconds in execute.op_means(records).items():
                _note(f"  {label:<32} mean {seconds:.3f} s processor, {statistics.fmean(wall[label]):.3f} s wall")
    failures = [rec for rec in records if rec.problem]
    for rec in failures[:5]:
        _note(f"FAILED {rec.op.label}: {rec.problem}")
    return {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _note(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
