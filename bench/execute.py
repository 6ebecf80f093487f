"""Run ops as real subprocesses of the CLI, one after another, and time them.

Each op is ``python -m rascal <argv>`` started with ``posix_spawn`` and reaped
with ``os.wait4`` by a small launcher process (``launcher.py``), so its wall
time, processor time and peak RSS belong to that child alone.  The loop is
closed: one client, and no op overlaps another.

The end-to-end timings count processor time (user + system), not wall time,
scaled to a reference processor speed:

- On a virtual machine whose host takes processors away (``steal`` in
  ``/proc/stat``), wall time measures the host.  Processor time excludes the
  stolen time.  The program is one single-threaded process that only reads
  and writes small files, so on an unshared machine the two agree.
- The processor's speed itself drifts over minutes on a shared host, by 40%
  between runs a minute apart.  So after each op the benchmark times a fixed calibration, its own
  pure-Python code that never imports ``rascal``, and scales every timing by
  ``REFERENCE_CALIBRATION_S`` over the run's mean calibration time.  The
  figures read as processor seconds on a machine where the calibration takes
  ``REFERENCE_CALIBRATION_S``; a change to the program cannot move the scale.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from workloads import Op, closed_form_rows, render_text

OP_TIMEOUT_S = 60.0
LAUNCHER = Path(__file__).resolve().with_name("launcher.py")

# Processor seconds of one calibration on the 2-core VM (Python 3.11.7) that
# the bounds were set on; timings are reported at this speed.
REFERENCE_CALIBRATION_S = 0.1
_CALIBRATION_PARAMS, _CALIBRATION_ROWS = (123, 7, 45, 67), 480


def child_env(src: Path, work_dir: Path) -> dict:
    """The caller's environment with the program's sources as the only extra import path.

    The bytecode cache is pinned, whatever the caller's environment says:
    children write and read it under a fresh ``work_dir/pycache``, so no
    cache left in ``src/`` by another run (stale or current) is ever used.
    """
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    return {**env, "PYTHONPATH": str(src), "PYTHONPYCACHEPREFIX": str(work_dir / "pycache")}


@dataclass
class OpRecord:
    op: Op
    seconds: float  # wall time
    cpu_seconds: float  # processor time, what the end-to-end timings count
    rss_kib: int
    problem: str | None


@dataclass
class Run:
    records: list[OpRecord] = field(default_factory=list)
    pass_seconds: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    calibration: list[float] = field(default_factory=list)


class Executor:
    """Runs ops through the launcher and judges every output in full.

    Use it as a context manager: leaving it closes the launcher and waits for
    it to end.
    """

    def __init__(self, env: dict, work_dir: Path):
        self.work_dir = work_dir
        self.err = work_dir / "op.err"
        self._launcher = subprocess.Popen(
            [sys.executable, "-I", "-S", str(LAUNCHER)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
        )
        try:
            self.start_interpreter()  # untimed: fills the bytecode cache
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> Executor:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.wait()
        self._launcher.stdout.close()

    def spawn(self, argv: list[str], stdout: Path, stderr: Path):
        """Run ``argv`` to completion in the environment the executor was made with.

        Returns (wall seconds, processor seconds, max RSS in KiB, exit code
        or None if it was killed after ``OP_TIMEOUT_S``).
        """
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr), "timeout": OP_TIMEOUT_S}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        line = self._launcher.stdout.readline()
        if not line:
            raise RuntimeError(f"the launcher ended with exit code {self._launcher.wait()}")
        reply = json.loads(line)
        return reply["seconds"], reply["cpu_seconds"], reply["rss_kib"], reply["code"]

    def run(self, op: Op) -> OpRecord:
        argv = [sys.executable, "-m", "rascal", *op.argv]
        seconds, cpu_seconds, rss, code = self.spawn(argv, op.output, self.err)
        found = checks.problem(op, code, op.output.read_bytes())
        if found and code not in (op.expected_exit, None):
            found += f"; stderr: {self.err.read_text(errors='replace').strip()[-200:]}"
        return OpRecord(op, seconds, cpu_seconds, rss, found)

    def start_interpreter(self) -> float:
        """Processor seconds a fresh interpreter spends until ``rascal.cli`` is imported.

        The child reports its own process CPU clock right after the import;
        that clock starts when the process does.
        """
        code = "import time, rascal.cli; print(time.process_time())"
        out, err = self.work_dir / "setup.out", self.work_dir / "setup.err"
        exit_code = self.spawn([sys.executable, "-c", code], out, err)[-1]
        if exit_code != 0:
            raise RuntimeError(f"cannot import rascal.cli: {err.read_text().strip()[-300:]}")
        return float(out.read_text())


def calibrate() -> float:
    """Processor seconds of a fixed piece of work like the program's: build, render and parse a triangle."""
    start = time.process_time()
    rows = closed_form_rows(_CALIBRATION_PARAMS, _CALIBRATION_ROWS)
    parsed = [[int(cell) for cell in line.split()] for line in render_text(rows).splitlines()]
    elapsed = time.process_time() - start
    if parsed != rows:
        raise RuntimeError("calibration round trip failed")
    return elapsed


def measure(ops: list[Op], executor: Executor, seconds: float) -> Run:
    """Pass over ``ops`` again and again for ``seconds``; the first pass always completes.

    After each op, one fresh interpreter start is timed for ``setup_s`` and
    one calibration for the processor's speed, so both sample the same
    stretches of the run as the ops do.
    """
    run = Run()
    deadline = time.perf_counter() + seconds
    while not run.pass_seconds or time.perf_counter() < deadline:
        total = 0.0
        for op in ops:
            if run.pass_seconds and time.perf_counter() >= deadline:
                break
            record = executor.run(op)
            run.records.append(record)
            run.setup.append(executor.start_interpreter())
            run.calibration.append(calibrate())
            total += record.seconds
        else:
            run.pass_seconds.append(total)
    return run


def op_means(records: list[OpRecord]) -> dict[str, float]:
    """Mean processor time of each op across ``records``, by label."""
    by_op: dict[str, list[float]] = {}
    for rec in records:
        by_op.setdefault(rec.op.label, []).append(rec.cpu_seconds)
    return {label: statistics.fmean(seconds) for label, seconds in by_op.items()}


def end_to_end(run: Run) -> dict:
    """The untraced metrics of one run, every timing at the reference speed.

    Each op counts once, by its mean processor time over the run, so a pass
    cut at the deadline (which holds only the first ops) does not change the
    op mix.  Means, not medians: the ops and the calibrations sample the same
    stretches of the run, so their means carry the same average speed and the
    scale cancels it, while a median jumps from the slow to the fast speed
    when a run spends about half its time at each.  ``wall_s`` is one pass
    over the op list, the sum of those means; ``op_p50_s`` is their median;
    ``cells_per_s`` is the cells of one pass over ``wall_s``; ``setup_s`` is
    the mean interpreter start.
    """
    scale = REFERENCE_CALIBRATION_S / statistics.fmean(run.calibration)
    latency = {label: seconds * scale for label, seconds in op_means(run.records).items()}
    wall = sum(latency.values())
    cells = sum({rec.op.label: rec.op.cells for rec in run.records}.values())
    return {
        "wall_s": (wall, "s"),
        "op_p50_s": (statistics.median(latency.values()), "s"),
        "cells_per_s": (cells / wall, "1/s"),
        "peak_rss_mib": (max(rec.rss_kib for rec in run.records) / 1024, "MiB"),
        "setup_s": (statistics.fmean(run.setup) * scale, "s"),
    }
