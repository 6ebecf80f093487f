"""End-to-end command behavior and the exit-code contract."""

import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rascal
from helpers import (
    any_grid,
    i64_edge_grids,
    mixed_grids,
    oracle_classification_json,
    oracle_classify,
    oracle_closed_form,
    oracle_generate,
    oracle_props,
    oracle_row_sums,
    oracle_render_csv,
    oracle_render_json,
    oracle_render_text,
    small_grids,
    triangle_like_text,
    u_style_grid,
)
from rascal import (
    GrtParams,
    TriangleGrid,
    boundary_from_params,
    closed_form_entry,
    generate_closed_form,
    mult_constant,
    render_json,
    render_text,
)
from rascal.cli import CHECK_NAMES, Refusal, _build_parser, _classification_report, _read_argv, main

RASCAL_FLAGS = ["--c", "1", "--d", "1", "--d1", "0", "--d2", "0"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_on_input(capsys, path):
    """(exit code, stdout, stderr) of ``classify --input path``; ``props --input path`` must give the same."""
    result = run(capsys, "classify", "--input", path)
    assert run(capsys, "props", "--input", path) == result
    return result


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_no_command_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 64
    assert "error" in err


class TestGenerate:
    def test_rascal_multiplication(self, capsys):
        code, out, _ = run(capsys, "generate", *RASCAL_FLAGS, "--rows", "5", "--rule", "mul")
        assert code == 0
        assert out.splitlines()[4] == "1 4 5 4 1"

    def test_constant_two_rows(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--c", "7", "--d", "0", "--d1", "0", "--d2", "0", "--rows", "2"
        )
        assert (code, out) == (0, "7\n7 7\n")

    def test_addition_rule(self, capsys):
        code, out, _ = run(
            capsys,
            "generate",
            "--c", "1", "--d", "5", "--d1", "2", "--d2", "3",
            "--rows", "3", "--rule", "add",
        )
        assert (code, out) == (0, "1\n3 4\n5 11 7\n")

    def test_zero_apex_multiplication_exit_two(self, capsys):
        code, out, err = run(
            capsys,
            "generate",
            "--c", "0", "--d", "1", "--d1", "1", "--d2", "1",
            "--rows", "3", "--rule", "mul",
        )
        assert (code, out, err) == (2, "", "rascal: cannot fill (r=1, k=1): north entry (r=0, k=0) is zero\n")

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "generate", *RASCAL_FLAGS, "--rows", "2", "--format", "csv")
        assert (code, out) == (0, "n,r,k,value\n0,0,0,1\n1,0,1,1\n1,1,0,1\n")

    def test_json_output_parses(self, capsys):
        code, out, _ = run(capsys, "generate", *RASCAL_FLAGS, "--rows", "3", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"rows": [[1], [1, 1], [1, 2, 1]]}

    def test_rows_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "generate", *RASCAL_FLAGS, "--rows", "0")
        assert code == 64
        assert "--rows" in err

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "generate", "--c", "1", "--d", "1", "--d1", "0", "--rows", "3")
        assert code == 64

    def test_unknown_rule_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "generate", *RASCAL_FLAGS, "--rows", "3", "--rule", "weird")
        assert code == 64


class TestGenerateDigitLimit:
    """Entries that could not be written as text are refused before any output."""

    @pytest.mark.parametrize("rule", ["closed", "add", "mul"])
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_bound_past_the_limit_is_a_usage_error(self, capsys, rule, fmt):
        limit = sys.get_int_max_str_digits()
        flags = ["--c", "9" * limit, "--d", "1", "--d1", "1", "--d2", "1"]
        code, out, err = run(capsys, "generate", *flags, "--rows", "3", "--rule", rule, "--format", fmt)
        assert (code, out) == (64, "")
        assert err.startswith("rascal: error: ") and f"{limit} digits" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("rule", ["closed", "add", "mul"])
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_bound_at_the_limit_is_written(self, capsys, rule, fmt):
        big = int("9" * sys.get_int_max_str_digits())  # every entry has exactly the limit's digits
        params = GrtParams(big, 0, 0, 0)
        code, out, err = run(capsys, "generate", *_flags(params), "--rows", "3", "--rule", rule, "--format", fmt)
        assert (code, err) == (0, "")
        assert str(big) in out

    def test_rows_count_in_the_bound(self, capsys):
        limit = sys.get_int_max_str_digits()
        flags = ["--c", "0", "--d", "9" * (limit - 2), "--d1", "0", "--d2", "0"]
        assert run(capsys, "generate", *flags, "--rows", "10")[0] == 0
        assert run(capsys, "generate", *flags, "--rows", "12")[0] == 64


class TestJsonIntegers:
    """JSON reports write integers outside the signed 64-bit range as strings, as json_chunks does."""

    def test_classify_report(self, capsys, tmp_path):
        params = GrtParams(10**19, 2**63, -(2**63), 3)
        path = write(tmp_path, "t.json", render_json(generate_closed_form(params, 4)))
        code, out, _ = run(capsys, "classify", "--input", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["params"] == {"c": "10000000000000000000", "d": str(2**63), "d1": -(2**63), "d2": 3}
        assert doc["diagonals"][0]["first_term"] == "10000000000000000000"
        assert doc["addition"]["constant"] == str(2**63)

    def test_props_report(self, capsys):
        params = GrtParams(2**62, 2**62, 0, 0)
        code, out, _ = run(capsys, *["props", *_flags(params), "--depth", "3", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        checks = {record["check"]: record for record in doc["checks"]}
        assert checks["multiple"]["multiplier"] == 2**62
        assert checks["rowsums"]["sums"][:2] == [2**62, str(2**63)]
        assert doc["params"]["c"] == 2**62


class TestReportDigitLimit:
    """Report values derived from input within the int-to-str digit limit are written in full."""

    @staticmethod
    def full_text(value):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_classify_rule_constant_past_the_limit(self, capsys, tmp_path):
        n = int("9" * sys.get_int_max_str_digits())
        path = write(tmp_path, "t.txt", f"{n}\n{-n} {n}\n{n} {-n} {n}\n1 2 3 4\n")
        for fmt in ("text", "json"):
            limit = sys.get_int_max_str_digits()
            code, out, err = run(capsys, "classify", "--input", path, "--format", fmt)
            assert (code, err) == (1, "")
            assert sys.get_int_max_str_digits() == limit
            # the diamond at (r=1, k=2) implies south*north - east*west = 2*(-n) - (-n)*n
            assert self.full_text(n * n - 2 * n) in out
            # the fit (c = n, d1 = -2n, d2 = d = 0) first fails at (r=0, k=2), predicting -3n
            assert self.full_text(-3 * n) in out

    def test_props_row_sums_past_the_limit(self, capsys):
        n = int("9" * sys.get_int_max_str_digits())
        params = GrtParams(n, 1, 1, 1)
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "props", *_flags(params), "--checks", "rowsums", "--depth", "100")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        assert out.endswith(" " + self.full_text(sum(closed_form_entry(params, r, 100 - r) for r in range(101))) + "\n")


class TestGenerateStreaming:
    @pytest.mark.parametrize(
        "params",
        [
            GrtParams(1, 1, 0, 0),
            GrtParams(-7, -3, -2, -9),
            GrtParams(2**63 - 3, 1, 1, 2),  # entries cross into 64-bit overflow mid-row
            GrtParams(-(2**70), 3, -5, 7),
        ],
    )
    @pytest.mark.parametrize("rule", ["closed", "add", "mul"])
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_bytes_match_whole_grid_rendering(self, capsys, params, rule, fmt):
        n_rows = 9
        if rule == "closed":
            rows = oracle_closed_form(params, n_rows)
        else:
            constant = params.d if rule == "add" else mult_constant(params)
            rows = oracle_generate(boundary_from_params(params, n_rows), rule, constant)
        render = {"text": oracle_render_text, "json": oracle_render_json, "csv": oracle_render_csv}[fmt]
        code, out, err = run(
            capsys, "generate", *_flags(params), "--rows", str(n_rows), "--rule", rule, "--format", fmt
        )
        assert (code, out, err) == (0, render(rows), "")

    @pytest.mark.parametrize("rule", ["closed", "add", "mul"])
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_memory_grows_with_rows_not_cells(self, monkeypatch, rule, fmt):
        class Discard(io.TextIOBase):
            def write(self, text):
                return len(text)

        monkeypatch.setattr("sys.stdout", Discard())
        argv = ["generate", *_flags(GrtParams(1, 5, 2, 3)), "--rows", "1000", "--rule", rule, "--format", fmt]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 * 2**20  # the whole 1000-row triangle holds about 500k cells

    @pytest.mark.parametrize(
        "rule, params",
        [
            ("add", GrtParams(123, 7, 45, 67)),
            ("mul", GrtParams(123, 7, 45, 67)),
            ("mul", GrtParams(5, 0, 3, 7)),  # d = 0
            ("mul", GrtParams(6, 2, 3, 4)),  # D = c*d - d1*d2 = 0
            ("closed", GrtParams(123, 7, 45, 67)),  # its steps grow with the rows, not ahead of them
        ],
    )
    def test_first_row_of_ten_million_at_once(self, monkeypatch, rule, params):
        class FirstRow(io.TextIOBase):
            def writelines(self, chunks):
                self.first = next(iter(chunks))

        out = FirstRow()
        monkeypatch.setattr("sys.stdout", out)
        start = time.perf_counter()
        code = main(["generate", *_flags(params), "--rows", "10000000", "--rule", rule])
        assert time.perf_counter() - start < 0.5
        assert (code, out.first) == (0, f"{params.c}\n")

    def test_json_output_loads_no_json(self):
        # rows of plain ints inside 64 bits are written by a template; json is imported only for the others
        src = str(Path(rascal.__file__).resolve().parents[1])
        code = (
            "import sys; before = set(sys.modules); import rascal.cli; code = rascal.cli.main(sys.argv[1:]); "
            "print(code, 'json' in set(sys.modules) - before, file=sys.stderr)"
        )
        for c, loaded in (("1", False), (str(2**63), True)):
            argv = ["generate", "--c", c, "--d", "5", "--d1", "2", "--d2", "3", "--rows", "20", "--format", "json"]
            proc = subprocess.run(
                [sys.executable, "-c", code, *argv],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True,
            )
            assert proc.stderr == f"0 {loaded}\n", argv

    def test_closed_reader_exit_141_quietly(self):
        src = str(Path(rascal.__file__).resolve().parents[1])
        # stdout block-buffered, as by default: 3 rows reach the pipe only when flushed
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("PYTHONUNBUFFERED", None)
        for rows in ("3", "2000"):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "rascal", "generate", *RASCAL_FLAGS, "--rows", rows, "--format", "csv"],
                    stdout=write_end,
                    stderr=subprocess.PIPE,
                    env=env,
                    timeout=120,
                )
            finally:
                os.close(write_end)
            assert (proc.returncode, proc.stderr) == (141, b"")


def test_import_loads_no_dataclasses_or_fractions():
    # every CLI call is a fresh interpreter, so each module rascal.cli pulls in is paid per call;
    # without site (-S), a module that site would have loaded first shows up too, such as typing
    src = str(Path(rascal.__file__).resolve().parents[1])
    code = "import sys; before = set(sys.modules); import rascal.cli; print(*sorted(set(sys.modules) - before))"
    for flags in ([], ["-S"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True,
        )
        loaded = set(proc.stdout.split())
        assert "rascal.cli" in loaded
        # re: a site that loads it first keeps it out of ``loaded``; without site (-S) it is only rascal's
        unwanted = {"dataclasses", "inspect", "fractions", "decimal", "json", "typing", "re", "argparse", "gettext"}
        assert not loaded & unwanted, flags


def test_well_formed_calls_load_no_argparse(tmp_path):
    # a well-formed call is read from the command table; argparse, with gettext (and locale, which
    # its first message lookup imports), is imported only for help and refusals
    src = str(Path(rascal.__file__).resolve().parents[1])
    text = write(tmp_path, "t.txt", "1\n1 1\n1 2 1\n")
    document = write(tmp_path, "t.json", '{"rows": [[1], [1, 1], [1, 2, 1]]}')
    code = (
        "import sys, rascal.cli; code = rascal.cli.main(sys.argv[1:]); "
        "print(code, *sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)), file=sys.stderr)"
    )
    calls = [
        *(["generate", *RASCAL_FLAGS, "--rows", "3", "--rule", rule] for rule in ("closed", "add", "mul")),
        ["classify", "--input", text],
        ["classify", f"--input={document}", "--format", "json"],
        ["props", "--c=-3", "--d", "2", "--d1", "-0", "--d2", "5", "--checks", "rowsums,embed", "--depth", "4"],
        ["props", "--input", text, "--format", "json", "--format=text"],
    ]
    for argv, expected in [*((argv, "0\n") for argv in calls), (["generate", "--rows"], "64 argparse gettext locale\n")]:
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.stderr.splitlines()[-1:] == expected.splitlines(), argv


def test_refusal_loads_no_re(tmp_path):
    # a refusal escapes the line breaks of its message by str.translate; without site (-S) nothing
    # else has loaded re, so a refusal that imported it would show it here
    src = str(Path(rascal.__file__).resolve().parents[1])
    missing = str(tmp_path / "no\nfile")
    code = (
        "import sys, rascal.cli; code = rascal.cli.main(sys.argv[1:]); "
        "print(code, 're' in sys.modules, file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, "classify", "--input", missing],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    escaped = missing.replace("\n", "\\n")
    assert proc.stderr.splitlines() == [f"rascal: cannot read {escaped}: No such file or directory", "65 False"]


def test_classify_json_report_loads_json_only_for_json_input(tmp_path):
    # the report holds only integers, null, booleans and fixed words, so it is written without json;
    # json is imported only to read a JSON input
    src = str(Path(rascal.__file__).resolve().parents[1])
    grid = generate_closed_form(GrtParams(1, 5, 2, 3), 20)
    planted = [list(row) for row in grid.rows]
    planted[9][4] += 1  # a mismatch, and rules with witnesses, in the report
    code = (
        "import sys; before = set(sys.modules); import rascal.cli; code = rascal.cli.main(sys.argv[1:]); "
        "print(code, 'json' in set(sys.modules) - before, file=sys.stderr)"
    )
    for name, text, expected in (
        ("grt.txt", render_text(grid), "0 False\n"),
        ("planted.txt", "".join(" ".join(map(str, row)) + "\n" for row in planted), "1 False\n"),
        ("grt.json", render_json(grid), "0 True\n"),
    ):
        argv = ["classify", "--input", write(tmp_path, name, text), "--format", "json"]
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.stderr == expected, name


def test_props_loads_no_fractions_or_decimal():
    # the diamond checks compare cross-multiplied sums and build Fraction means only for a failure,
    # so a props run with every check, whose identities all hold, imports neither module
    src = str(Path(rascal.__file__).resolve().parents[1])
    code = (
        "import sys, rascal.cli; code = rascal.cli.main(sys.argv[1:]); "
        "print(code, *sorted({'fractions', 'decimal'} & set(sys.modules)), file=sys.stderr)"
    )
    for params in ("5 3 2 7", "300 350 0 0", "37 1 4 9"):
        c, d, d1, d2 = params.split()
        for fmt in ("text", "json"):
            argv = ["props", "--c", c, "--d", d, "--d1", d1, "--d2", d2, "--depth", "100", "--format", fmt]
            proc = subprocess.run(
                [sys.executable, "-c", code, *argv],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True,
            )
            assert proc.stderr == "0\n", argv


class TestClassify:
    def test_grt_file(self, capsys, tmp_path):
        path = write(tmp_path, "t.txt", "1\n1 1\n1 2 1\n1 3 3 1\n")
        code, out, _ = run(capsys, "classify", "--input", path)
        assert code == 0
        assert "verdict: grt" in out
        assert "params: c=1 d=1 d1=0 d2=0" in out
        assert "addition: constant 1" in out
        assert "multiplication: constant 1" in out
        assert "major r=0" in out and "minor k=0" in out
        assert "mismatch" not in out

    def test_stdin_json(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"rows": [[1], [1, 1], [1, 2, 1]]}'))
        code, out, _ = run(capsys, "classify")
        assert code == 0
        assert "verdict: grt" in out

    def test_addition_only_exit_one_with_witnesses(self, capsys, tmp_path):
        path = write(tmp_path, "u.txt", render_text(u_style_grid(6)))
        code, out, _ = run(capsys, "classify", "--input", path)
        assert code == 1
        assert "verdict: addition-only" in out
        assert "multiplication: no constant" in out
        assert "implies" in out

    def test_json_report(self, capsys, tmp_path):
        path = write(tmp_path, "t.txt", "1\n1 1\n1 2 1\n1 3 3 1\n")
        code, out, _ = run(capsys, "classify", "--input", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "grt"
        assert doc["params"] == {"c": 1, "d": 1, "d1": 0, "d2": 0}
        assert doc["addition"]["constant"] == 1
        assert doc["mismatch"] is None
        assert len(doc["diagonals"]) == 8

    def test_mismatch_names_the_planted_cell(self, capsys, tmp_path):
        params = GrtParams(1, 5, 2, 3)
        rows = [list(row) for row in generate_closed_form(params, 6).rows]
        rows[4][1] += 7  # T(1, 3)
        path = write(tmp_path, "planted.txt", render_text(TriangleGrid(rows)))
        expected = closed_form_entry(params, 1, 3)
        code, out, _ = run(capsys, "classify", "--input", path)
        assert code == 1
        assert out.splitlines()[:2] == [
            "verdict: neither",
            f"mismatch: entry (r=1, k=3) is {expected + 7}, but the parameters fitted from rows 0-2 predict {expected}",
        ]
        code, out, _ = run(capsys, "classify", "--input", path, "--format", "json")
        assert code == 1
        assert json.loads(out)["mismatch"] == {"r": 1, "k": 3, "expected": expected, "actual": expected + 7}

    def test_top_level_json_array_exit_65(self, capsys, tmp_path):
        path = write(tmp_path, "array.json", "[[1],[1,1],[1,2,1]]")
        assert run_on_input(capsys, path) == (65, "", 'rascal: expected a JSON object with a "rows" array\n')

    def test_ragged_file_exit_65(self, capsys, tmp_path):
        path = write(tmp_path, "bad.txt", "1\n1 1 1\n")
        assert run_on_input(capsys, path) == (65, "", "rascal: line 2: row 1 has 3 entries, expected 2\n")

    def test_two_row_file_exit_65(self, capsys, tmp_path):
        path = write(tmp_path, "small.txt", "1\n1 1\n")
        assert run_on_input(capsys, path) == (65, "", "rascal: rule detection needs at least 3 rows, got 2\n")

    def test_missing_file_exit_65(self, capsys, tmp_path):
        path = str(tmp_path / "absent.txt")
        assert run_on_input(capsys, path) == (65, "", f"rascal: cannot read {path}: No such file or directory\n")

    def test_invalid_utf8_exit_65(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe1\n")
        expected = f"rascal: cannot read {path}: not valid UTF-8 (invalid start byte at byte 0)\n"
        assert run_on_input(capsys, str(path)) == (65, "", expected)

    def test_invalid_utf8_on_stdin_matches_file_message(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe1")
        _, _, from_file = run(capsys, "classify", "--input", str(path))
        # a text stdin that would otherwise hand the bytes over as lone surrogates
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe1"), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "classify")
        assert (code, out) == (65, "")
        assert err == from_file.replace(str(path), "-")
        assert err == "rascal: cannot read -: not valid UTF-8 (invalid start byte at byte 0)\n"

    def test_stdin_bytes_decoded_as_utf8(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"1\r\n1 1\r\n1 2 1\r\n"), encoding="latin-1")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, _ = run(capsys, "classify")
        assert code == 0
        assert "params: c=1 d=1 d1=0 d2=0" in out

    @pytest.mark.parametrize("argv", [["classify"], ["props", "--input", "-"]])
    def test_closed_stdin_exit_65(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("sys.stdin", None)  # what the interpreter sets when fd 0 is closed
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (65, "", "rascal: cannot read -: stdin is closed\n")

    def test_integer_past_digit_limit_exit_65(self, capsys, tmp_path):
        path = write(tmp_path, "long.txt", "1\n1 {}\n".format("9" * 5000))
        code, _, err = run(capsys, "classify", "--input", path)
        assert code == 65
        assert "line 2" in err

    def test_non_ascii_digit_exit_65(self, capsys, tmp_path):
        path = write(tmp_path, "wide.txt", "1\n1 1\n1 \uff12 1\n")
        code, _, err = run(capsys, "classify", "--input", path)
        assert code == 65
        assert "line 3" in err

    @given(data=st.one_of(st.binary(), triangle_like_text.map(str.encode)))
    def test_any_stdin_bytes_exit_0_1_or_65(self, data):
        # capsys and monkeypatch are per test, not per example, so swap the streams here
        streams = sys.stdin, sys.stdout, sys.stderr
        sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
        sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
        try:
            code = main(["classify"])
        finally:
            sys.stdin, sys.stdout, sys.stderr = streams
        assert code in (0, 1, 65)

    def test_unexpected_exception_exit_70(self, capsys, tmp_path, monkeypatch):
        import rascal.cli as cli

        def crash(rows):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "classify_checked_rows", crash)
        path = write(tmp_path, "t.txt", "1\n1 1\n1 2 1\n")
        code, out, err = run(capsys, "classify", "--input", path)
        assert code == 70
        assert out == ""
        assert err == "rascal: internal error: RuntimeError: boom\n"


def main_on_stdin(data, *argv):
    """(exit code, stdout, stderr) of ``rascal *argv`` run in process, reading ``data`` from stdin."""
    streams = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        try:
            code = main(list(argv))
        except SystemExit as exit:  # argparse's own exit, after --help
            code = exit.code
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = streams


def classify_bytes(data, *argv):
    """(exit code, stdout, stderr) of ``classify`` reading ``data`` from stdin."""
    return main_on_stdin(data, "classify", *argv)


class TestClassifyStream:
    """classify reads its input in blocks and folds over the rows; the report is the whole grid's."""

    @given(grid=any_grid, fmt=st.sampled_from(["text", "json"]), json_input=st.booleans())
    def test_report_matches_reference(self, grid, fmt, json_input):
        data = (render_json if json_input else render_text)(grid).encode()
        code, out, err = classify_bytes(data, "--format", fmt)
        expected = oracle_classify(grid)
        assert (out, err) == ("".join(_classification_report(expected, fmt)), "")
        assert code == (0 if expected.verdict == "grt" else 1)

    @pytest.mark.parametrize(
        "grids", [any_grid, mixed_grids(), i64_edge_grids()], ids=["any", "mixed", "i64-edges"]
    )
    @given(data=st.data(), json_input=st.booleans())
    def test_json_report_is_json_dumps_of_the_reference(self, grids, data, json_input):
        # the diagonals are written without json.dumps: the report must read as json.dumps
        # writes the reference classification's dict, integers past 64 bits as strings
        grid = data.draw(grids)
        text = (render_json if json_input else render_text)(grid)
        code, out, err = classify_bytes(text.encode(), "--format", "json")
        assert (out, err) == (oracle_classification_json(grid), "")
        assert code == (0 if json.loads(out)["verdict"] == "grt" else 1)

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        import rascal.cli as cli

        def use(size):
            monkeypatch.setattr(cli, "_BLOCK", size)

        return use

    @pytest.mark.parametrize("render", [render_text, render_json])
    def test_rows_longer_than_a_block(self, small_blocks, render):
        grid = generate_closed_form(GrtParams(10**30, 7, -3, 11), 12)
        expected = classify_bytes(render(grid).encode())
        assert expected[0] == 0
        for size in (1, 5, 64):
            small_blocks(size)
            assert classify_bytes(render(grid).encode()) == expected

    def test_character_split_between_blocks(self, small_blocks):
        data = "# \u00e9t\u00e9 \u2028\n1\n1 1\n1\u30002 1\n".encode()
        expected = classify_bytes(data)
        assert expected[0] == 0
        for size in range(1, 8):
            small_blocks(size)
            assert classify_bytes(data) == expected

    def test_invalid_byte_reported_at_its_offset_in_the_input(self, small_blocks, tmp_path):
        data = b"# caf\xc3\xa9\n1\n1 1\n1 2 1\n\xe2\x82\x28\n"
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        for size in (2, 3, 5, 1 << 16):
            small_blocks(size)
            message = "not valid UTF-8 (invalid continuation byte at byte 20)\n"
            assert classify_bytes(data) == (65, "", "rascal: cannot read -: " + message)
            assert run_main("classify", "--input", str(path)) == (65, "", f"rascal: cannot read {path}: {message}")

    def test_truncated_character_at_the_end(self, small_blocks):
        small_blocks(4)
        code, out, err = classify_bytes(b"1\n1 1\n1 2 1\n\xe2\x82")
        assert (code, out) == (65, "")
        assert err.endswith("(unexpected end of data at byte 12)\n")

    @pytest.mark.parametrize("indent", [None, 2])
    @pytest.mark.parametrize("first", [True, False])
    def test_other_json_layouts(self, small_blocks, indent, first):
        grid = generate_closed_form(GrtParams(3, 1, 4, 1), 9)
        rows = [list(row) for row in grid.rows]
        doc = {"rows": rows, "note": "x"} if first else {"note": "x", "rows": rows}
        small_blocks(7)
        expected = classify_bytes(render_json(grid).encode())
        assert classify_bytes(json.dumps(doc, indent=indent).encode()) == expected

    @pytest.mark.parametrize("last", ["1 2 x 4 5 6 7 8 9 10 11 12 13", "1 2 3"])
    def test_malformed_last_line_prints_nothing(self, small_blocks, tmp_path, last):
        text = render_text(generate_closed_form(GrtParams(1, 1, 0, 0), 12)) + last + "\n"
        path = write(tmp_path, "t.txt", text)
        small_blocks(16)
        code, out, err = run_main("classify", "--input", path)
        assert (code, out) == (65, "")
        assert err.startswith("rascal: line 13: ")
        code, out, err = run_main("props", "--input", path)
        assert (code, out) == (65, "")
        assert err.startswith("rascal: line 13: ")

    @pytest.mark.parametrize("render", [render_text, render_json])
    @pytest.mark.parametrize("planted", [False, True])
    def test_memory_grows_with_rows_not_cells(self, tmp_path, render, planted):
        rows = [list(row) for row in generate_closed_form(GrtParams(1, 5, 2, 3), 500).rows]
        if planted:  # a non-grt input is scanned row by row from row 3 on
            rows[3][1] += 1
        path = tmp_path / "t.txt"
        path.write_text(render(TriangleGrid(rows)))
        del rows
        tracemalloc.start()
        try:
            code, _, _ = run_main("classify", "--input", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == (1 if planted else 0)
        assert peak < 2**20  # the file is over 1.5 MB and its 125k cells would take several MiB


def run_main(*argv):
    streams = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        code = main(list(argv))
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdout, sys.stderr = streams


class TestProps:
    def test_tmeg_sweep(self, capsys):
        code, out, _ = run(
            capsys,
            "props",
            "--c", "3", "--d", "1", "--d1", "0", "--d2", "0",
            "--checks", "tmeg", "--depth", "6",
        )
        assert code == 0
        assert "tmeg: holds" in out

    def test_rowsums_reports_values(self, capsys):
        code, out, _ = run(capsys, "props", *RASCAL_FLAGS, "--checks", "rowsums", "--depth", "10")
        assert code == 0
        assert "rowsums: holds" in out
        assert " 15 " in out  # the n = 4 row sum

    def test_depth_sets_only_the_rowsums_listing(self, capsys, monkeypatch):
        # rowsums is proved on a fixed grid: the entries it reads do not grow with --depth,
        # and the listing is the formula at n = 0..depth
        import rascal.identities as identities

        params = GrtParams(5, 3, -2, 7)
        read = []
        monkeypatch.setattr(identities, "closed_form_entry", lambda p, r, k: read.append((r, k)) or closed_form_entry(p, r, k))
        records = {}
        for depth in (10, 100000):
            read.clear()
            code, out, err = run(capsys, "props", *_flags(params), "--checks", "rowsums", "--depth", str(depth), "--format", "json")
            assert (code, err) == (0, "")
            records[depth] = (len(read), json.loads(out)["checks"][0])
        (short_reads, short), (long_reads, long) = records[10], records[100000]
        assert short_reads == long_reads == 1 + 2 + 3 + 4  # rows 0-3 of the proof grid
        assert (short["proved"], short["points"]) == (long["proved"], long["points"]) == (True, 4)
        assert short["sums"] == oracle_row_sums(params, 10)[2]
        assert len(long["sums"]) == 100001 and long["sums"][:11] == short["sums"]
        assert long["sums"][-1] == sum(closed_form_entry(params, r, 100000 - r) for r in range(100001))

    def test_embed_absent_still_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "props", "--c", "2", "--d", "1", "--d1", "2", "--d2", "3", "--checks", "embed"
        )
        assert code == 0
        assert "no embedding" in out

    def test_embed_found(self, capsys):
        code, out, _ = run(
            capsys, "props", "--c", "7", "--d", "1", "--d1", "2", "--d2", "3", "--checks", "embed"
        )
        assert code == 0
        assert "(r0=2, k0=3)" in out

    def test_explicit_tmeg_on_wrong_params_exit_three(self, capsys):
        code, out, _ = run(
            capsys, "props", "--c", "1", "--d", "5", "--d1", "2", "--d2", "3", "--checks", "tmeg"
        )
        assert code == 3
        assert "inapplicable" in out

    def test_default_all_skips_tmeg(self, capsys):
        code, out, _ = run(
            capsys, "props", "--c", "1", "--d", "5", "--d1", "2", "--d2", "3", "--depth", "5"
        )
        assert code == 0
        assert "tmeg: skipped" in out
        for name in ("rowsums", "odd-diamond", "even-diamond", "ashley", "column-diff"):
            assert f"{name}: holds" in out

    def test_input_triangle_uses_fitted_params(self, capsys, tmp_path):
        path = write(tmp_path, "t.txt", "1\n1 1\n1 2 1\n1 3 3 1\n1 4 5 4 1\n1 5 7 7 5 1\n")
        code, out, _ = run(capsys, "props", "--input", path, "--depth", "4")
        assert code == 0
        assert "params: c=1 d=1 d1=0 d2=0" in out

    def test_non_grt_input_exit_three(self, capsys, tmp_path):
        path = write(tmp_path, "u.txt", render_text(u_style_grid(6)))
        code, out, err = run(capsys, "props", "--input", path)
        assert (code, out) == (3, "")
        assert err == "rascal: identity checks are inapplicable: input classifies as addition-only, not grt\n"

    def test_params_and_input_conflict(self, capsys, tmp_path):
        path = write(tmp_path, "t.txt", "1\n")
        code, _, _ = run(capsys, "props", "--input", path, *RASCAL_FLAGS)
        assert code == 64

    def test_partial_params_usage_error(self, capsys):
        code, _, err = run(capsys, "props", "--c", "1", "--d", "1")
        assert code == 64
        assert "--d1" in err

    def test_unknown_check_usage_error(self, capsys):
        code, _, err = run(capsys, "props", *RASCAL_FLAGS, "--checks", "bogus")
        assert code == 64
        assert "bogus" in err

    def test_depth_zero_usage_error(self, capsys):
        code, _, _ = run(capsys, "props", *RASCAL_FLAGS, "--depth", "0")
        assert code == 64

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys,
            "props",
            "--c", "5", "--d", "5", "--d1", "0", "--d2", "0",
            "--format", "json", "--depth", "4",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["params"] == {"c": 5, "d": 5, "d1": 0, "d2": 0}
        assert doc["depth"] == 4
        multiple = next(rec for rec in doc["checks"] if rec["check"] == "multiple")
        assert multiple["multiplier"] == 5
        rowsums = next(rec for rec in doc["checks"] if rec["check"] == "rowsums")
        assert rowsums["status"] == "holds"


class TestIntegerFlags:
    """Integer flags read the grammar of triangle files (ASCII ``-?[0-9]+``): a token a file refuses, a flag refuses."""

    GENERATE = {"--c": "1", "--d": "1", "--d1": "0", "--d2": "0", "--rows": "3"}
    PROPS = {"--c": "1", "--d": "1", "--d1": "0", "--d2": "0", "--depth": "3"}

    # int() reads each of these
    @pytest.mark.parametrize("token", ["\u0661", "\uff11", "1_0", " 1", "1 ", "+1"])
    def test_token_outside_the_grammar(self, capsys, tmp_path, token):
        for command, flags in (("generate", self.GENERATE), ("props", self.PROPS)):
            for flag in flags:
                argv = [command]
                for name, value in {**flags, flag: token}.items():
                    argv += [name, value]
                expected = f"rascal: error: argument {flag}: invalid int value: {token!r}\n"
                assert run(capsys, *argv) == (64, "", expected), argv
        path = write(tmp_path, "t.json", json.dumps({"rows": [[token], [1, 1], [1, 2, 1]]}))
        code, out, err = run(capsys, "classify", "--input", path)
        assert (code, out) == (65, "")
        assert err == f"rascal: row 0: {token!r} is not an integer or integer string\n"

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_token_past_the_digit_limit_is_named_by_its_length(self, capsys, sign):
        digits = sys.get_int_max_str_digits() + 1
        token = sign + "9" * digits
        for command, flags in (("generate", self.GENERATE), ("props", self.PROPS)):
            for flag in flags:
                argv = [command]
                for name, value in {**flags, flag: token}.items():
                    argv += [name, value]
                message = f"invalid int value: {digits}-digit integer is too long to convert"
                assert run(capsys, *argv) == (64, "", f"rascal: error: argument {flag}: {message}\n"), flag

    def test_tokens_of_the_grammar(self, capsys):
        argv = ["--c", "007", "--d", "-0", "--d1", "-2", "--d2", "0"]
        plain = run(capsys, "generate", *_flags(GrtParams(7, 0, -2, 0)), "--rows", "3")
        assert run(capsys, "generate", *argv, "--rows", "03") == plain
        assert run(capsys, "props", *argv, "--depth", "02")[0] == 0


def _flags(params):
    return ["--c", str(params.c), "--d", str(params.d), "--d1", str(params.d1), "--d2", str(params.d2)]


PROPS_FAMILIES = {
    "generic": [GrtParams(5, 3, 2, 7), GrtParams(-4, -2, 6, -3)],
    "tmeg": [GrtParams(300, 350, 0, 0), GrtParams(-2, 5, 0, 0)],
    "embeddable": [GrtParams(1 + 4 * 9, 1, 4, 9), GrtParams(1, 1, 0, 0)],
    "multiple": [GrtParams(-77, -77, 0, 0), GrtParams(6, 6, 0, 0)],
    "d-zero": [GrtParams(4, 0, -3, 9), GrtParams(0, 0, 0, 0)],
}


class TestPropsOutputIdentity:
    """`props` output equals the report built from the per-instance checks, byte for byte.

    The proved checks read from the reference grids of ``helpers.ORACLE_GRIDS``.
    """

    @pytest.mark.parametrize("family", list(PROPS_FAMILIES))
    def test_all_checks(self, capsys, family):
        for params in PROPS_FAMILIES[family]:
            for depth in range(1, 13):
                for fmt in ("text", "json"):
                    argv = ["props", *_flags(params), "--depth", str(depth), "--format", fmt]
                    code, out, err = run(capsys, *argv)
                    assert (out, code) == oracle_props(params, depth, CHECK_NAMES, False, fmt), argv
                    assert err == ""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_repeated_check_reported_once(self, capsys, fmt):
        for params in PROPS_FAMILIES["tmeg"]:
            argv = ["props", *_flags(params), "--depth", "4", "--format", fmt]
            once = run(capsys, *argv, "--checks", "tmeg,rowsums")
            assert run(capsys, *argv, "--checks", "tmeg,rowsums, tmeg,tmeg,rowsums") == once
            assert (once[1], once[0]) == oracle_props(params, 4, ["tmeg", "rowsums"], True, fmt)
            assert once[1].count("tmeg") == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_explicit_tmeg_where_it_does_not_apply(self, capsys, fmt):
        for params in PROPS_FAMILIES["generic"] + PROPS_FAMILIES["d-zero"][:1]:
            argv = ["props", *_flags(params), "--checks", "tmeg", "--depth", "5", "--format", fmt]
            code, out, _ = run(capsys, *argv)
            assert code == 3
            assert (out, code) == oracle_props(params, 5, ["tmeg"], True, fmt)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_failed_checks(self, capsys, monkeypatch, fmt):
        # entries off the bilinear closed form by r²k²: every proof fails, and its failure must
        # read as the per-instance check reports it, Fraction means included; the reference
        # runs under the same patch, which the checks read when called
        import rascal.identities as identities

        params = GrtParams(5, 3, 2, 7)

        def entry(r, k):
            return closed_form_entry(params, r, k) + r * r * k * k

        monkeypatch.setattr(identities, "closed_form_entry", lambda p, r, k: entry(r, k))
        names = [name for name in CHECK_NAMES if name != "tmeg"]
        argv = ["props", *_flags(params), "--checks", ",".join(names), "--depth", "6", "--format", fmt]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert (out, code) == oracle_props(params, 6, names, True, fmt)
        assert out.count("failed at") == 8


class TestFailureReporting:
    # a failed record cannot arise from valid parameters (the identities are
    # theorems), but the exit-code contract still has to hold

    def test_proof_failure_record(self, monkeypatch):
        import rascal.cli as cli
        import rascal.identities as identities

        monkeypatch.setattr(identities, "closed_form_entry", lambda p, r, k: closed_form_entry(p, r, k) + (r == k == 2))
        # the first point of ashley's grid, (2, 1), reads T(2, 1), T(1, 1), T(2, 0) and T(0, 0): it holds
        record = cli._CHECK_RUNNERS["ashley"](GrtParams(1, 1, 0, 0), 8)
        assert record == {
            "check": "ashley",
            "status": "failed",
            "summary": "failed at (2, 2): 6 != 5",
            "first_failure": {"location": [2, 2], "lhs": 6, "rhs": 5},
        }

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        import rascal.cli as cli

        def broken(params, depth):
            return {"check": "ashley", "status": "failed", "summary": "failed at (2, 1): 5 != 6"}

        monkeypatch.setitem(cli._CHECK_RUNNERS, "ashley", broken)
        code, out, _ = run(capsys, "props", *RASCAL_FLAGS, "--checks", "ashley,rowsums")
        assert code == 1
        assert "ashley: failed" in out
        assert "rowsums: holds" in out


class TestRoundTrip:
    def test_generate_json_into_classify_recovers_params(self, capsys, monkeypatch):
        rng = random.Random(20260810)
        seen = set()
        for _ in range(40):
            c, d, d1, d2 = (rng.randint(-3, 3) for _ in range(4))
            seen.add((c, d, d1, d2))
            code, out, _ = run(
                capsys,
                "generate",
                "--c", str(c), "--d", str(d), "--d1", str(d1), "--d2", str(d2),
                "--rows", "12", "--format", "json",
            )
            assert code == 0
            monkeypatch.setattr("sys.stdin", io.StringIO(out))
            code, out, _ = run(capsys, "classify", "--format", "json")
            assert code == 0
            doc = json.loads(out)
            assert doc["params"] == {"c": c, "d": d, "d1": d1, "d2": d2}
        assert len(seen) > 20  # the sample actually varied


# --- the argv contract under fuzzing -------------------------------------------

# junk for a flag value or a stray argument: outside the integer grammar or the choices, a line break, past the digit limit
_junk = st.one_of(
    st.sampled_from(["", "x", "\u0661", "\uff11", "1_0", " 1", "+1", "-", "a\nb", "\x85", "--", "-h", "csv", "div"]),
    st.just("9" * (sys.get_int_max_str_digits() + 1)),
)
# --rows and --depth stay cheap; zeros are frequent, so that --rule mul meets a zero north entry
_small = st.one_of(st.sampled_from(["0", "-0", "007"]), st.integers(-1, 12).map(str))
_param = st.one_of(_small, st.integers(-(10**30), 10**30).map(str))
_FLAG_VALUES = {
    "--c": _param,
    "--d": _param,
    "--d1": _param,
    "--d2": _param,
    "--rows": _small,
    "--depth": _small,
    "--rule": st.sampled_from(["closed", "add", "mul"]),
    "--format": st.sampled_from(["text", "json"]),  # and "csv" now and then, which only generate takes
    "--checks": st.one_of(
        st.just("all"),
        st.lists(st.sampled_from([*CHECK_NAMES, "", "nope", " tmeg "]), min_size=1, max_size=3).map(",".join),
    ),
    "--input": st.sampled_from(["-", "-", "-", "missing.txt", ".", "a\nb"]),
}
_COMMAND_FLAGS = {
    "generate": ["--c", "--d", "--d1", "--d2", "--rows", "--rule", "--format"],
    "classify": ["--input", "--format"],
    "props": ["--c", "--d", "--d1", "--d2", "--input", "--checks", "--depth", "--format"],
}


def _now_and_then(draw) -> bool:
    return draw(st.integers(0, 15)) == 0


@st.composite
def argvs(draw):
    """A command, most of its own flags with drawn values, and now and then a junk value, another flag or a stray token.

    ``props`` takes either the parameter flags or ``--input``, mostly one of them.
    """
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    own = _COMMAND_FLAGS[command]
    if command == "props" and not _now_and_then(draw):
        dropped = ("--c", "--d", "--d1", "--d2") if draw(st.booleans()) else ("--input",)
        own = [flag for flag in own if flag not in dropped]
    flags = [flag for flag in own if not _now_and_then(draw)]
    if _now_and_then(draw):
        flags.append(draw(st.sampled_from(sorted(_FLAG_VALUES))))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv += [flag, draw(_junk if _now_and_then(draw) else _FLAG_VALUES[flag])]
    if _now_and_then(draw):
        argv.insert(draw(st.integers(0, len(argv))), draw(_junk))
    return argv


_grids = st.one_of(any_grid, small_grids(min_rows=1, max_rows=2))
_stdin = st.one_of(
    st.binary(max_size=40),
    triangle_like_text.map(str.encode),
    _grids.map(render_text).map(str.encode),
    _grids.map(render_json).map(str.encode),
)


# flag values the reader takes only in part: negative integers, "-", empty text, other scripts' digits
_odd_values = st.sampled_from(["-7", "-0", "-007", "-", "", "-x", "--", "a=b", "\u0661", "-\u0661", "\uff11", "1 2"])


@st.composite
def reader_argvs(draw):
    """``argvs``, a flag now and then given as ``--flag=value``, abbreviated, given an odd value, or repeated."""
    argv = draw(argvs())
    tokens = iter(argv[1:])
    argv = argv[:1]
    for token in tokens:
        value = next(tokens, None) if token in _FLAG_VALUES else None
        if value is None:
            argv.append(token)
            continue
        if _now_and_then(draw):
            value = draw(_odd_values)
        if _now_and_then(draw) and len(token) > 3:
            token = token[: draw(st.integers(3, len(token) - 1))]
        argv += [f"{token}={value}"] if draw(st.booleans()) else [token, value]
        if draw(st.integers(0, 7)) == 0:
            argv += [token, draw(_FLAG_VALUES.get(token, _junk))]
    return argv


class TestArgvReader:
    """A well-formed call is read from the command table; any other argv goes whole to argparse."""

    @staticmethod
    def argparse_args(argv):
        """``vars()`` of argparse's namespace for ``argv``; None when argparse refuses it or prints help."""
        try:
            return vars(_build_parser().parse_args(argv))
        except (Refusal, SystemExit):
            return None

    @settings(deadline=None, max_examples=500)
    @given(argv=reader_argvs())
    def test_reader_hands_over_or_agrees_with_argparse(self, argv):
        read = _read_argv(argv)
        assert read is None or read == self.argparse_args(argv), argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", *RASCAL_FLAGS, "--rows", "3"],
            ["generate", "--c=-5", "--d", "-0", "--d1=007", "--d2", "2", "--rows=3", "--rule", "mul", "--format=csv"],
            ["generate", *RASCAL_FLAGS, "--rows", "3", "--rows", "4", "--rule=add", "--rule", "closed"],
            ["classify"],
            ["classify", "--input", "-", "--format", "json"],
            ["classify", "--input=-", "--input", "a=b"],
            ["props", "--checks", "", "--checks=tmeg,rowsums", "--depth", "-1", "--input", "x"],
            ["props", *RASCAL_FLAGS, "--d=-4", "--format", "json"],
        ],
    )
    def test_well_formed_calls_are_read(self, argv):
        assert _read_argv(argv) == self.argparse_args(argv) is not None

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["generate", "--help"],
            ["generate", "--form", "json", *RASCAL_FLAGS, "--rows", "3"],
            ["generate", *RASCAL_FLAGS],
            ["generate", *RASCAL_FLAGS, "--rows"],
            ["generate", *RASCAL_FLAGS, "--rows", "\u0663"],
            ["classify", "--format", "csv"],
            ["classify", "--input", "-x"],
            ["classify", "--", "--input", "x"],
            ["props", "--checks", "-1"],
            ["props", "--depth", "3", "stray"],
        ],
    )
    def test_other_argvs_are_handed_over(self, argv):
        assert _read_argv(argv) is None


class TestArgvContract:
    """Any argv, run in process: a documented exit code, never 70, and a refusal is one stderr line and no stdout."""

    @settings(deadline=None, max_examples=200)
    @given(argv=argvs(), data=_stdin)
    def test_any_argv(self, argv, data):
        code, out, err = main_on_stdin(data, *argv)
        assert code in (0, 1, 2, 3, 64, 65), err
        if err:
            assert err.startswith("rascal: ") and len(err.splitlines()) == 1 and err.endswith("\n"), err
            assert out == ""

    @pytest.mark.parametrize(
        "argv, code, expected",
        [
            (["classify", "a\nb"], 64, "rascal: error: unrecognized arguments: a\\nb\n"),
            (["classify", "--input", "no\r\nfile"], 65, "rascal: cannot read no\\r\\nfile: No such file or directory\n"),
        ],
    )
    def test_line_break_in_a_refusal_is_escaped(self, argv, code, expected):
        assert main_on_stdin(b"", *argv) == (code, "", expected)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["generate", "--c", "1", "--d=--", "--d1", "0", "--d2", "0", "--rows", "3"], "argument --d: invalid int value: '--'"),
            (["props", *RASCAL_FLAGS, "--depth=--"], "argument --depth: invalid int value: '--'"),
            (
                ["generate", *RASCAL_FLAGS, "--rows", "3", "--rule=--"],
                "argument --rule: invalid choice: '--' (choose from 'closed', 'add', 'mul')",
            ),
            (["classify", "--format=--"], "argument --format: invalid choice: '--' (choose from 'text', 'json')"),
            (["props", *RASCAL_FLAGS, "--checks=--"], "unknown check '--'; valid: " + ", ".join(CHECK_NAMES)),
        ],
    )
    def test_double_dash_value_is_read_as_argparse_3_13_reads_it(self, argv, expected):
        # argparse before 3.13 stores [] for "--flag=--" and checks no type or choice
        assert main_on_stdin(b"", *argv) == (64, "", f"rascal: error: {expected}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            *(["generate", *RASCAL_FLAGS, "--rule", rule, "--rows"] for rule in ("closed", "add", "mul")),
            ["props", *RASCAL_FLAGS, "--checks", "rowsums", "--depth"],
        ],
    )
    def test_count_past_maxsize_is_a_usage_error(self, argv):
        for value in (sys.maxsize + 1, 10**40):
            message = f"rascal: error: {argv[-1]} must be at most {sys.maxsize}\n"
            assert main_on_stdin(b"", *argv, str(value)) == (64, "", message)
