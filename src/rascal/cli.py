"""Command-line interface: generate triangles, classify files, sweep identity checks.

Exit codes are a stable contract: 0 success (or verdict "grt"), 1 negative
classification or failed check, 2 multiplication-rule arithmetic failure,
3 inapplicable check, 64 usage error, 65 malformed input, 70 internal error
(an unexpected exception, reported in one line, so that a crash never reads
as the negative verdict 1), 141 the reader of stdout went away, as in
``rascal generate ... | head`` (128 + SIGPIPE, what a shell reports for a
command killed by that signal; nothing is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analyze import VERDICT_GRT, Classification, DiagonalReport, RuleReport, TooSmallError, classify
from .core import GrtParams
from .generate import (
    MultiplicationRuleError,
    addition_rows,
    boundary_from_params,
    closed_form_rows,
    mult_constant,
    multiplication_rows,
)
from .identities import (
    IDENTITY_SWEEPS,
    InapplicableCheckError,
    embed_in_rascal,
    multiple_of_rascal,
    row_sum_sweep,
)
from .triangle_io import TriangleParseError, csv_chunks, json_chunks, parse_triangle, text_chunks

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ARITHMETIC = 2
EXIT_INAPPLICABLE = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_SOFTWARE = 70
EXIT_BROKEN_PIPE = 141

CHECK_NAMES = [
    "rowsums",
    "odd-diamond",
    "even-diamond",
    "ashley",
    "ashley-mod1",
    "ashley-mod2",
    "ashley-mod3",
    "column-diff",
    "tmeg",
    "embed",
    "multiple",
]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # report usage problems via exit code 64, not argparse's 2
        raise UsageError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()  # a closed reader shows here, not in the interpreter's final flush
        return code
    except UsageError as err:
        print(f"rascal: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # Output still buffered would fail again at exit; send it nowhere instead.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except Exception as err:  # last resort: any other failure is a bug, not a verdict
        print(f"rascal: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_SOFTWARE


def _build_parser() -> _Parser:
    parser = _Parser(prog="rascal", description="Exact tools for generalized Rascal triangles.")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    gen = sub.add_parser("generate", help="generate a triangle from (c, d, d1, d2)")
    _add_param_flags(gen, required=True)
    gen.add_argument("--rows", type=int, required=True, help="number of rows (>= 1)")
    gen.add_argument(
        "--rule",
        choices=["closed", "add", "mul"],
        default="closed",
        help="generation rule (default: closed)",
    )
    gen.add_argument(
        "--format",
        choices=["text", "json", "csv"],
        default="text",
        help="output format (default: text)",
    )
    gen.set_defaults(handler=_cmd_generate)

    cls = sub.add_parser("classify", help="classify a triangle file")
    cls.add_argument("--input", default="-", help="triangle file, - for stdin (default: -)")
    cls.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    cls.set_defaults(handler=_cmd_classify)

    props = sub.add_parser("props", help="verify identities for parameters or a triangle file")
    _add_param_flags(props, required=False)
    props.add_argument("--input", help="triangle file, - for stdin (alternative to parameter flags)")
    props.add_argument(
        "--checks",
        default="all",
        help="comma-separated subset of: %s (default: all)" % ", ".join(CHECK_NAMES),
    )
    props.add_argument("--depth", type=int, default=8, help="index sweep bound (default: 8)")
    props.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    props.set_defaults(handler=_cmd_props)
    return parser


def _add_param_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument("--c", type=int, required=required, help="apex entry")
    parser.add_argument(
        "--d", type=int, required=required, help="change of diagonal differences (addition constant)"
    )
    parser.add_argument(
        "--d1", type=int, required=required, help="difference of the outside major diagonal (left edge)"
    )
    parser.add_argument(
        "--d2", type=int, required=required, help="difference of the outside minor diagonal (right edge)"
    )


def _cmd_generate(args) -> int:
    if args.rows < 1:
        raise UsageError("--rows must be at least 1")
    params = GrtParams(args.c, args.d, args.d1, args.d2)
    if args.rule == "closed":
        rows = closed_form_rows(params, args.rows)
    elif args.rule == "add":
        rows = addition_rows(boundary_from_params(params, args.rows), params.d)
    else:
        # the rule can fail part way, and a failure must print no rows: finish it first
        try:
            rows = list(multiplication_rows(boundary_from_params(params, args.rows), mult_constant(params)))
        except MultiplicationRuleError as err:
            print(f"rascal: {err}", file=sys.stderr)
            return EXIT_ARITHMETIC
    sys.stdout.writelines(_CHUNKS[args.format](rows))
    return EXIT_OK


# output format -> one chunk of text per row, written as the rows come
_CHUNKS = {"text": text_chunks, "json": json_chunks, "csv": csv_chunks}


def _read_input(source: str) -> str:
    if source == "-":
        if sys.stdin is None:  # started with stdin closed
            raise OSError("stdin is closed")
        # decode strictly, as for files, whatever error handler the interpreter gave stdin
        stream = getattr(sys.stdin, "buffer", None)
        return sys.stdin.read() if stream is None else stream.read().decode("utf-8")
    with open(source, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_grid(source: str):
    try:
        return parse_triangle(_read_input(source)), None
    except OSError as err:
        return None, f"cannot read {source}: {err.strerror or err}"
    except UnicodeDecodeError as err:
        return None, f"cannot read {source}: not valid UTF-8 ({err.reason} at byte {err.start})"
    except TriangleParseError as err:
        return None, str(err)


def _cmd_classify(args) -> int:
    grid, problem = _load_grid(args.input)
    if grid is None:
        print(f"rascal: {problem}", file=sys.stderr)
        return EXIT_DATA
    try:
        result = classify(grid)
    except TooSmallError as err:
        print(f"rascal: {err}", file=sys.stderr)
        return EXIT_DATA
    sys.stdout.write(_classification_report(result, args.format))
    return EXIT_OK if result.verdict == VERDICT_GRT else EXIT_NEGATIVE


def _cmd_props(args) -> int:
    if args.depth < 1:
        raise UsageError("--depth must be at least 1")
    flag_names = ("c", "d", "d1", "d2")
    given = [name for name in flag_names if getattr(args, name) is not None]
    if args.input is not None and given:
        raise UsageError("give either --input or the parameter flags, not both")
    if args.input is None:
        if len(given) < 4:
            missing = ", ".join(f"--{n}" for n in flag_names if getattr(args, n) is None)
            raise UsageError(f"missing {missing} (or use --input)")
        params = GrtParams(args.c, args.d, args.d1, args.d2)
    else:
        grid, problem = _load_grid(args.input)
        if grid is None:
            print(f"rascal: {problem}", file=sys.stderr)
            return EXIT_DATA
        try:
            result = classify(grid)
        except TooSmallError as err:
            print(f"rascal: {err}", file=sys.stderr)
            return EXIT_DATA
        if result.verdict != VERDICT_GRT:
            print(
                "rascal: identity checks are inapplicable: input classifies as "
                f"{result.verdict}, not grt",
                file=sys.stderr,
            )
            return EXIT_INAPPLICABLE
        params = result.params

    explicit = args.checks.strip() != "all"
    # run-everything mode skips a restricted rule instead of erroring
    inapplicable = "inapplicable" if explicit else "skipped"
    records = []
    for name in _parse_check_names(args.checks):
        try:
            records.append(_CHECK_RUNNERS[name](params, args.depth))
        except InapplicableCheckError as err:
            records.append({"check": name, "status": inapplicable, "summary": f"{inapplicable}: {err}"})
    sys.stdout.write(_props_report(params, args.depth, records, args.format))
    if any(record["status"] == "inapplicable" for record in records):
        return EXIT_INAPPLICABLE
    if any(record["status"] == "failed" for record in records):
        return EXIT_NEGATIVE
    return EXIT_OK


def _parse_check_names(requested: str) -> list[str]:
    if requested.strip() == "all":
        return list(CHECK_NAMES)
    names = []
    for piece in requested.split(","):
        name = piece.strip()
        if not name:
            raise UsageError("empty entry in --checks")
        if name not in CHECK_NAMES:
            raise UsageError(f"unknown check {name!r}; valid: {', '.join(CHECK_NAMES)}")
        names.append(name)
    return names


# --- check runners -------------------------------------------------------


def _jsonable(value):
    return value if isinstance(value, int) else str(value)


def _sweep_identity(sweep):
    if sweep.failure is None:
        count = sweep.instances
        return {"check": sweep.name, "status": "holds", "summary": f"holds ({count} instances)", "instances": count}
    location, lhs, rhs = sweep.failure.first_failure
    return {
        "check": sweep.name,
        "status": "failed",
        "summary": f"failed at {location}: {lhs} != {rhs}",
        "first_failure": {"location": list(location), "lhs": _jsonable(lhs), "rhs": _jsonable(rhs)},
    }


def _run_rowsums(params, depth):
    sweep = row_sum_sweep(params, depth)
    if sweep.failure is not None:
        (n,), formula, direct = sweep.failure.first_failure
        return {
            "check": "rowsums",
            "status": "failed",
            "summary": f"failed at n={n}: formula {formula} != row sum {direct}",
            "first_failure": {"location": [n], "lhs": formula, "rhs": direct},
        }
    sums = list(sweep.values)
    return {
        "check": "rowsums",
        "status": "holds",
        "summary": "holds for n <= {} (sums {})".format(depth, " ".join(map(str, sums))),
        "instances": sweep.instances,
        "sums": sums,
    }


def _run_embed(params, depth):
    offset = embed_in_rascal(params, window=depth + 1)
    if offset is None:
        return {"check": "embed", "status": "none", "summary": "no embedding", "offset": None}
    return {
        "check": "embed",
        "status": "found",
        "summary": f"embeds at offset (r0={offset[0]}, k0={offset[1]})",
        "offset": list(offset),
    }


def _run_multiple(params, depth):
    m = multiple_of_rascal(params)
    if m is None:
        return {"check": "multiple", "status": "none", "summary": "not a multiple", "multiplier": None}
    return {
        "check": "multiple",
        "status": "found",
        "summary": f"multiple with m = {m}",
        "multiplier": m,
    }


# check name -> runner(params, depth) -> report record; a runner raises
# InapplicableCheckError when the check's domain rules the parameters out
_CHECK_RUNNERS = {
    "rowsums": _run_rowsums,
    **{
        name: lambda params, depth, sweep=sweep: _sweep_identity(sweep(params, depth))
        for name, sweep in IDENTITY_SWEEPS.items()
    },
    "embed": _run_embed,
    "multiple": _run_multiple,
}


# --- report rendering ----------------------------------------------------


def _params_dict(params: GrtParams | None):
    if params is None:
        return None
    return {"c": params.c, "d": params.d, "d1": params.d1, "d2": params.d2}


def _rule_dict(report: RuleReport):
    data = {"rule": report.rule, "constant": report.constant, "witnesses": None}
    if report.witnesses is not None:
        data["witnesses"] = [
            {"r": w.r, "k": w.k, "implied_constant": w.implied_constant} for w in report.witnesses
        ]
    return data


def _diagonal_dict(report: DiagonalReport):
    data = {
        "kind": report.kind,
        "index": report.index,
        "first_term": report.first_term,
        "common_difference": report.common_difference,
        "first_violation": None,
        "under_determined": report.under_determined,
    }
    if report.first_violation is not None:
        position, expected, actual = report.first_violation
        data["first_violation"] = {"position": position, "expected": expected, "actual": actual}
    return data


def _rule_line(report: RuleReport) -> str:
    if report.constant is not None:
        return f"{report.rule}: constant {report.constant}"
    a, b = report.witnesses
    return (
        f"{report.rule}: no constant; (r={a.r}, k={a.k}) implies {a.implied_constant} "
        f"but (r={b.r}, k={b.k}) implies {b.implied_constant}"
    )


def _diagonal_line(report: DiagonalReport) -> str:
    label = f"{report.kind} {'r' if report.kind == 'major' else 'k'}={report.index}"
    if report.common_difference is not None:
        line = f"{label}: first {report.first_term}, difference {report.common_difference}"
        if report.under_determined:
            line += " (under-determined)"
        return line
    position, expected, actual = report.first_violation
    return (
        f"{label}: first {report.first_term}, not arithmetic "
        f"(position {position}: expected {expected}, got {actual})"
    )


def _classification_report(result: Classification, fmt: str) -> str:
    if fmt == "json":
        doc = {
            "verdict": result.verdict,
            "params": _params_dict(result.params),
            "addition": _rule_dict(result.addition),
            "multiplication": _rule_dict(result.multiplication),
            "diagonals": [_diagonal_dict(rep) for rep in result.diagonals],
        }
        return json.dumps(doc) + "\n"
    lines = [f"verdict: {result.verdict}"]
    if result.params is not None:
        p = result.params
        lines.append(f"params: c={p.c} d={p.d} d1={p.d1} d2={p.d2}")
    lines.append(_rule_line(result.addition))
    lines.append(_rule_line(result.multiplication))
    lines.extend(_diagonal_line(rep) for rep in result.diagonals)
    return "\n".join(lines) + "\n"


def _props_report(params: GrtParams, depth: int, records, fmt: str) -> str:
    if fmt == "json":
        doc = {"params": _params_dict(params), "depth": depth, "checks": records}
        return json.dumps(doc) + "\n"
    lines = [
        f"params: c={params.c} d={params.d} d1={params.d1} d2={params.d2}",
        f"depth: {depth}",
    ]
    lines.extend(f"{record['check']}: {record['summary']}" for record in records)
    return "\n".join(lines) + "\n"
