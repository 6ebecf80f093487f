"""Smoke tests of the benchmark harness at tiny sizes.

    python3 -m pytest bench

They run the real CLI from ``src/`` on inputs a few rows deep, so the
harness cannot silently rot, and they show the checker rejects wrong output.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import execute
import traced
import workloads
from checks import problem

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TINY = {
    "grt-roundtrip": {"rows": 6, "probe_depth": 4},
    "nongrt-classify": {"rows": 9, "big_rows": 7, "probe_depth": 4},
    "props-sweep": {"depth": 4},
}


@pytest.fixture(params=workloads.WORKLOADS)
def built(request, tmp_path):
    workload = workloads.build(request.param, 7, tmp_path, TINY[request.param])
    with execute.Executor(execute.child_env(SRC, tmp_path), tmp_path) as executor:
        yield workload, executor, tmp_path


def test_untraced_pass_is_correct_and_reports_every_metric(built):
    workload, executor, _ = built
    run = execute.measure(workload.ops, executor, seconds=0)
    assert [rec.problem for rec in run.records] == [None] * len(workload.ops)
    assert len(run.setup) == len(run.calibration) == len(run.records)
    metrics = execute.end_to_end(run)
    assert set(metrics) == {"wall_s", "op_p50_s", "cells_per_s", "peak_rss_mib", "setup_s"}
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_run_covers_every_module(built):
    workload, executor, tmp_path = built
    metrics, records = traced.traced_run(workload, executor, SRC, tmp_path, tmp_path / "trace.json")
    assert [rec.problem for rec in records] == [None] * len(records)
    assert list(metrics) == [name for name, _ in traced.PER_LAYER]
    for module in ("triangle_io", "core", "generate", "analyze", "identities", "cli"):
        assert any(name.startswith(module + ".") and value > 0 for name, (value, _) in metrics.items())
    assert all(value > 0 for name, (value, _) in metrics.items() if name.endswith("_s") and name != "cli.process_gap_s")
    spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
    assert {span["op"] for span in spans} == set(range(len(workload.items)))
    assert all(span["start"] <= span["end"] for span in spans)


def test_children_fill_a_fresh_bytecode_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = execute.child_env(SRC, tmp_path)
    assert "PYTHONDONTWRITEBYTECODE" not in env
    with execute.Executor(env, tmp_path):
        pass
    assert list((tmp_path / "pycache").rglob("cli.*.pyc"))


def test_child_peak_rss_is_the_childs_own(tmp_path):
    ballast = b"x" * (96 * 2**20)  # the benchmark process's own peak, well above a bare interpreter's
    with execute.Executor(execute.child_env(SRC, tmp_path), tmp_path) as executor:
        rss_kib = executor.spawn([sys.executable, "-c", "pass"], tmp_path / "out", tmp_path / "err")[2]
    assert len(ballast) // 1024 > 2 * rss_kib


def test_same_seed_same_inputs(tmp_path):
    first = workloads.build("nongrt-classify", 3, tmp_path / "a", TINY["nongrt-classify"])
    second = workloads.build("nongrt-classify", 3, tmp_path / "b", TINY["nongrt-classify"])
    for a, b in zip(first.ops, second.ops):
        assert Path(a.argv[2]).read_text() == Path(b.argv[2]).read_text()
        assert a.facts == b.facts


def _corrupt(op: workloads.Op, output: bytes) -> bytes:
    if op.kind == "generate":
        # change the last digit of the last entry
        text = output.decode()
        last = max(m.start() for m in re.finditer(r"[0-9]", text))
        return (text[:last] + str((int(text[last]) + 1) % 10) + text[last + 1 :]).encode()
    doc = json.loads(output)
    if op.kind == "classify":
        doc["diagonals"][-1]["first_term"] += 1
    else:
        doc["checks"][0]["status"] = "failed"
    return json.dumps(doc).encode()


def test_checker_rejects_a_corrupted_output(built):
    workload, executor, _ = built
    for op in workload.ops:
        assert executor.run(op).problem is None
        output = op.output.read_bytes()
        assert problem(op, op.expected_exit, output) is None
        assert problem(op, op.expected_exit, _corrupt(op, output)) is not None, op.label
        assert problem(op, 1 - op.expected_exit, output) is not None
        assert problem(op, None, output) == "timed out"


def test_planted_cell_is_a_construction_fact(tmp_path):
    workload = workloads.build("nongrt-classify", 11, tmp_path, TINY["nongrt-classify"])
    planted = [op for op in workload.ops if op.label == "classify planted-text"]
    assert planted
    for op in planted:
        rows = [list(map(int, line.split())) for line in Path(op.argv[2]).read_text().splitlines()]
        expected = workloads.closed_form_rows(workloads.fitted_params(rows), len(rows))
        changed = [(n, r) for n, row in enumerate(rows) for r, v in enumerate(row) if v != expected[n][r]]
        assert len(changed) == 1
        n, r = changed[0]
        assert n >= len(rows) - 2
        witness = op.facts["addition"]["witnesses"][1]
        assert (witness["r"], witness["k"]) == (r, n - r)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "props-sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
