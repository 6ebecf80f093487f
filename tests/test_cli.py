"""End-to-end command behavior and the exit-code contract."""

import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import rascal
from helpers import (
    oracle_closed_form,
    oracle_generate,
    oracle_props,
    oracle_render_csv,
    oracle_render_json,
    oracle_render_text,
    u_style_grid,
)
from rascal import GrtParams, boundary_from_params, closed_form_entry, mult_constant, render_text
from rascal.cli import CHECK_NAMES, main

RASCAL_FLAGS = ["--c", "1", "--d", "1", "--d1", "0", "--d2", "0"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert code == 2
        assert out == ""
        assert "(r=1, k=1)" in err

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

    @pytest.mark.parametrize("rule", ["closed", "add"])
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
        assert len(doc["diagonals"]) == 8

    def test_ragged_file_exit_65(self, capsys, tmp_path):
        path = write(tmp_path, "bad.txt", "1\n1 1 1\n")
        code, _, err = run(capsys, "classify", "--input", path)
        assert code == 65
        assert "line 2" in err

    def test_two_row_file_exit_65(self, capsys, tmp_path):
        path = write(tmp_path, "small.txt", "1\n1 1\n")
        code, _, err = run(capsys, "classify", "--input", path)
        assert code == 65
        assert "3 rows" in err

    def test_missing_file_exit_65(self, capsys, tmp_path):
        code, _, err = run(capsys, "classify", "--input", str(tmp_path / "absent.txt"))
        assert code == 65

    def test_invalid_utf8_exit_65(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe1\n")
        code, _, err = run(capsys, "classify", "--input", str(path))
        assert code == 65
        assert "UTF-8" in err and len(err.splitlines()) == 1

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

    def test_unexpected_exception_exit_70(self, capsys, tmp_path, monkeypatch):
        import rascal.cli as cli

        def crash(grid):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "classify", crash)
        path = write(tmp_path, "t.txt", "1\n1 1\n1 2 1\n")
        code, out, err = run(capsys, "classify", "--input", path)
        assert code == 70
        assert out == ""
        assert err == "rascal: internal error: RuntimeError: boom\n"


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
        code, _, err = run(capsys, "props", "--input", path)
        assert code == 3
        assert "addition-only" in err

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
    """`props` output equals the report built from the per-instance checks, byte for byte."""

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
    def test_explicit_tmeg_where_it_does_not_apply(self, capsys, fmt):
        for params in PROPS_FAMILIES["generic"] + PROPS_FAMILIES["d-zero"][:1]:
            argv = ["props", *_flags(params), "--checks", "tmeg", "--depth", "5", "--format", fmt]
            code, out, _ = run(capsys, *argv)
            assert code == 3
            assert (out, code) == oracle_props(params, 5, ["tmeg"], True, fmt)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_failed_checks(self, capsys, monkeypatch, fmt):
        # one bumped entry in the swept diagonals: the failures must read as
        # the per-instance checks report them, Fraction means included
        import rascal.identities as identities

        params, cell = GrtParams(5, 3, 2, 7), (3, 4)

        def entry(r, k):
            return closed_form_entry(params, r, k) + ((r, k) == cell)

        monkeypatch.setattr(
            identities, "major_diagonal", lambda p, r, count: [entry(r, k) for k in range(count)]
        )
        names = [name for name in CHECK_NAMES if name != "tmeg"]
        argv = ["props", *_flags(params), "--checks", ",".join(names), "--depth", "6", "--format", fmt]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert (out, code) == oracle_props(params, 6, names, True, fmt, entry)
        assert out.count("failed at") == 7


class TestFailureReporting:
    # a failed record cannot arise from valid parameters (the identities are
    # theorems), but the exit-code contract still has to hold

    def test_sweep_identity_failure_record(self):
        from rascal import IdentityCheck, IdentitySweep
        from rascal.cli import _sweep_identity

        record = _sweep_identity(
            IdentitySweep("ashley", 1, IdentityCheck("ashley", False, ((2, 1), 5, 6)))
        )
        assert record["status"] == "failed"
        assert record["first_failure"] == {"location": [2, 1], "lhs": 5, "rhs": 6}

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
