"""Judge one op's output against the facts its input was built with.

Nothing here reads output recorded from an earlier version of the program:
``generate`` output is compared with the benchmark's own closed form,
``classify`` reports with the construction facts, and ``props`` reports by
check status only.  Numbers may arrive as JSON numbers or integer strings,
and reports may carry keys the facts do not name; neither counts as wrong.
"""

from __future__ import annotations

import json
import re

from workloads import Op, closed_form_row

_INT = re.compile(r"-?[0-9]+")


def problem(op: Op, exit_code: int | None, output: bytes) -> str | None:
    """None when the op did what its facts say; otherwise a one-line reason."""
    if exit_code is None:
        return "timed out"
    if exit_code != op.expected_exit:
        return f"exit {exit_code}, expected {op.expected_exit}"
    try:
        text = output.decode("ascii")
        if op.kind == "generate":
            return _generate_problem(op.facts, text)
        doc = json.loads(text)
        if op.kind == "classify":
            return _mismatch(op.facts, doc, "report")
        return _props_problem(op.facts, doc)
    except (UnicodeDecodeError, ValueError, KeyError, TypeError, IndexError) as err:
        return f"unreadable output: {type(err).__name__}: {err}"


def _as_int(value):
    if isinstance(value, str) and _INT.fullmatch(value):
        return int(value)
    return value


def _mismatch(expected, actual, where: str) -> str | None:
    """First place where ``actual`` disagrees with ``expected``; extra keys in ``actual`` are fine."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return f"{where}: expected an object, got {actual!r:.60}"
        for key, value in expected.items():
            if key not in actual:
                return f"{where}.{key}: missing"
            found = _mismatch(value, actual[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return f"{where}: expected {len(expected)} entries, got {actual!r:.60}"
        for index, (want, got) in enumerate(zip(expected, actual)):
            found = _mismatch(want, got, f"{where}[{index}]")
            if found:
                return found
        return None
    if isinstance(expected, int) and not isinstance(expected, bool):
        actual = _as_int(actual)
        if isinstance(actual, bool) or actual != expected:
            return f"{where}: expected {expected}, got {actual!r:.60}"
        return None
    if actual != expected:
        return f"{where}: expected {expected!r}, got {actual!r:.60}"
    return None


def _generate_problem(facts: dict, text: str) -> str | None:
    params, n_rows, fmt = facts["params"], facts["n_rows"], facts["format"]
    if fmt == "csv":
        return _csv_problem(params, n_rows, text.splitlines())
    if fmt == "json":
        rows = [[_as_int(v) for v in row] for row in json.loads(text)["rows"]]
        expected = closed_form_row
    else:
        rows = [line.split() for line in text.splitlines()]
        expected = lambda params, n: list(map(str, closed_form_row(params, n)))  # noqa: E731
    if len(rows) != n_rows:
        return f"{len(rows)} rows, expected {n_rows}"
    for n, row in enumerate(rows):
        if row != expected(params, n):
            return f"row {n} differs from the closed form"
    return None


def _csv_problem(params, n_rows: int, lines: list[str]) -> str | None:
    """One ``n,r,k,value`` line per cell, in row order, after that header."""
    expected = ["n,r,k,value"]
    for n in range(n_rows):
        expected += [f"{n},{r},{n - r},{value}" for r, value in enumerate(closed_form_row(params, n))]
    if lines == expected:
        return None
    index = next((i for i, (got, want) in enumerate(zip(lines, expected)) if got != want), None)
    if index is None:
        return f"{len(lines) - 1} cells, expected {len(expected) - 1}"
    return f"line {index + 1}: {lines[index]!r:.60}, expected {expected[index]!r:.60}"


def _props_problem(facts: dict, doc: dict) -> str | None:
    statuses = {record["check"]: record["status"] for record in doc["checks"]}
    if statuses != facts["statuses"]:
        wrong = sorted(
            name
            for name in set(statuses) | set(facts["statuses"])
            if statuses.get(name) != facts["statuses"].get(name)
        )
        return "check status differs: " + ", ".join(
            f"{name} {statuses.get(name)} (expected {facts['statuses'].get(name)})" for name in wrong
        )
    return None
