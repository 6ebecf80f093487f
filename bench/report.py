"""Print every end-to-end and per-layer metric, by name and with its unit, for each workload.

    python3 bench/report.py --seed 1 --seconds 35

Runs ``bench/run.py`` untraced and then traced on every workload, from the
root of a checkout, and prints one table.  ``fail_ratio`` is ``failed /
attempted`` of each run; the result line carries it as those two counts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    args = parser.parse_args()

    print(f"{'workload':<16} {'run':<8} {'metric':<38} {'value':>14}  unit")
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed)]
            command += ["--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(command, cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"{workload}: run.py exited {done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            kind = "traced" if trace else "untraced"
            rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
            rows += [
                ("ops_attempted", result["attempted"], "count"),
                ("fail_ratio", result["failed"] / result["attempted"], "ratio"),
            ]
            for name, value, unit in rows:
                shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
                print(f"{workload:<16} {kind:<8} {name:<38} {shown}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
