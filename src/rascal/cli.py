"""Command-line interface: generate triangles, classify files, verify identities.

``props`` proves each identity of ``identities.PROOF_GRIDS`` for every index,
the row-sum formula among them, and reports embedding and scalar multiples;
``--depth`` only sets how many row sums its ``rowsums`` record lists.

The grammar of the commands is one table, ``_COMMANDS``: per command its
handler, its help, and per flag its kind (an integer by the grammar of
triangle files, one of fixed choices, or free text), default, whether it is
required, and help.  ``_read_argv`` takes exactly the well-formed calls from
the table: the command, then ``--flag value`` or ``--flag=value`` pairs, the
last of a repeated flag winning, as in ``argparse``.  Any other argv (no
command, ``-h``/``--help``, an abbreviated or unknown flag, a missing value,
a value starting with ``-`` other than ``-`` or a negative integer, a bad
integer or choice, a missing required flag) goes whole to the ``argparse``
parser ``_build_parser`` makes from the same table, so help and usage errors
are argparse's own.  ``argparse`` is imported only then: a well-formed call
starts without it.

Exit codes are a stable contract: 0 success (or verdict "grt"), 1 negative
classification or failed check, 2 multiplication-rule arithmetic failure,
3 inapplicable check, 64 usage error, 65 malformed input, 70 internal error
(an unexpected exception, reported in one line, so that a crash never reads
as the negative verdict 1), 141 the reader of stdout went away, as in
``rascal generate ... | head`` (128 + SIGPIPE, what a shell reports for a
command killed by that signal; nothing is printed).
"""

from __future__ import annotations

import codecs
import os
import sys
from functools import partial

from .analyze import (
    VERDICT_GRT,
    Classification,
    DiagonalReport,
    NotGrtError,
    RuleReport,
    TooSmallError,
    classify_checked_rows,
)
from .core import GrtParams
from .generate import (
    addition_rows,
    closed_form_rows,
    edges_from_params,
    mult_constant,
    multiplication_rows,
    predict_multiplication_failure,
)
from .identities import (
    PROOF_GRIDS,
    InapplicableCheckError,
    embed_in_rascal,
    multiple_of_rascal,
    prove_identity,
    row_sum_formula,
)
from .triangle_io import (
    TriangleParseError,
    _is_grammar_int,
    _too_long,
    csv_chunks,
    int_for_json,
    json_chunks,
    json_int,
    text_chunks,
    triangle_rows,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ARITHMETIC = 2
EXIT_INAPPLICABLE = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_SOFTWARE = 70
EXIT_BROKEN_PIPE = 141


class Refusal(Exception):
    """A command declines to run or to finish; ``main`` prints ``rascal: <message>`` and exits ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _usage(message: str) -> Refusal:
    return Refusal(EXIT_USAGE, f"error: {message}")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read_argv(argv)
        if args is None:  # help, or a call to refuse in argparse's words
            args = _argparse_args(argv)
        code = _COMMANDS[args["command"]][0](args)
        sys.stdout.flush()  # a closed reader shows here, not in the interpreter's final flush
        return code
    except Refusal as err:
        _print_error(str(err))
        return err.code
    except BrokenPipeError:
        # Output still buffered would fail again at exit; send it nowhere instead.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except Exception as err:  # last resort: any other failure is a bug, not a verdict
        _print_error(f"internal error: {type(err).__name__}: {err}")
        return EXIT_SOFTWARE


def _print_error(message: str) -> None:
    """Write ``rascal: <message>`` to stderr as one line.

    A line break that a path or an argument brings into the message is
    escaped as repr() writes it.
    """
    print(f"rascal: {message.translate(_LINE_BREAKS)}", file=sys.stderr)


# the characters str.splitlines ends a line at, each to its repr() escape
_LINE_BREAKS = {ord(ch): repr(ch)[1:-1] for ch in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}


def _read_argv(argv: list[str]) -> dict | None:
    """The arguments of a well-formed call, as ``vars()`` of argparse's namespace for it; None for any other argv."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = _COMMANDS[argv[0]][2]
    args = {"command": argv[0]}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, equals, value = token.partition("=")
        if flag not in flags:
            return None
        if not equals:
            value = next(tokens, None)
            if value is None:
                return None
        kind = flags[flag][0]
        if kind is int:
            try:
                value = _integer(value)
            except ValueError:
                return None
        elif kind is str:
            if value.startswith("-") and value != "-":  # argparse may take it for a flag
                return None
        elif value not in kind:
            return None
        args[flag[2:]] = value
    for flag, (_, default, required, _) in flags.items():
        if flag[2:] not in args:
            if required:
                return None
            args[flag[2:]] = default
    return args


def _integer(text: str) -> int:
    """An integer flag's value, read by the grammar of triangle files: ASCII ``-?[0-9]+``.

    Else ValueError; a token past the interpreter's int-to-str digit limit is named by its length, not echoed.
    """
    if not _is_grammar_int(text):
        raise ValueError(f"invalid int value: {text!r}")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {_too_long(text)}") from None


def _argparse_args(argv: list[str]) -> dict:
    """``vars()`` of the namespace ``_build_parser`` reads from ``argv``, a ``--flag=--`` read as argparse 3.13 reads it.

    ``argparse`` before 3.13 drops the ``--`` and stores ``[]``, with no type
    or choice checked; here the flag holds ``--`` as free text, and an
    integer or a choice is refused in 3.13's words.
    """
    args = vars(_build_parser().parse_args(argv))
    for flag, (kind, *_) in _COMMANDS[args["command"]][2].items():
        if args[flag[2:]] == []:
            if kind is int:
                raise _usage(f"argument {flag}: invalid int value: '--'")
            if kind is not str:
                raise _usage(f"argument {flag}: invalid choice: '--' (choose from {', '.join(map(repr, kind))})")
            args[flag[2:]] = "--"
    return args


def _build_parser():
    """The argparse parser of ``_COMMANDS``, whose usage errors are refusals with exit code 64."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # report usage problems via exit code 64, not argparse's 2
            raise _usage(message)

    def integer(text: str) -> int:
        try:
            return _integer(text)
        except ValueError as err:  # argparse words a ValueError its own way, but keeps this one's message
            raise argparse.ArgumentTypeError(str(err)) from None

    parser = Parser(prog="rascal", description="Exact tools for generalized Rascal triangles.")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)
    for command, (_, command_help, flags) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=command_help)
        for flag, (kind, default, required, flag_help) in flags.items():
            command_parser.add_argument(
                flag,
                type=integer if kind is int else None,
                choices=kind if isinstance(kind, tuple) else None,
                default=default,
                required=required,
                help=flag_help,
            )
    return parser


def _cmd_generate(args: dict) -> int:
    _check_count("--rows", args["rows"])
    params = GrtParams(args["c"], args["d"], args["d1"], args["d2"])
    _check_printable(params, args["rows"])
    if args["rule"] == "closed":
        rows = closed_form_rows(params, args["rows"])
    elif args["rule"] == "add":
        rows = addition_rows(edges_from_params(params, args["rows"]), params.d)
    else:
        # a failure must print no rows, so it is found from the closed form before any is built
        failure = predict_multiplication_failure(params, args["rows"])
        if failure is not None:
            raise Refusal(EXIT_ARITHMETIC, str(failure))
        rows = multiplication_rows(edges_from_params(params, args["rows"]), mult_constant(params))
    sys.stdout.writelines(_CHUNKS[args["format"]](rows))
    return EXIT_OK


def _check_count(flag: str, value: int) -> None:
    """A usage refusal for a count below 1, or past ``sys.maxsize``, which the row iterators cannot count to."""
    if value < 1:
        raise _usage(f"{flag} must be at least 1")
    if value > sys.maxsize:
        raise _usage(f"{flag} must be at most {sys.maxsize}")


def _check_printable(params: GrtParams, n_rows: int) -> None:
    """A usage refusal unless every entry can be written under the interpreter's int-to-str digit limit.

    Every rule makes the closed form's entries, so none exceeds
    |c| + n*(|d1| + |d2|) + n²*|d| with n = n_rows - 1; checked before any output.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() == 0: no limit before 3.10.7
    n = n_rows - 1
    bound = abs(params.c) + n * (abs(params.d1) + abs(params.d2)) + n * n * abs(params.d)
    # 10**limit has at least 3.32*limit bits: build it only for a bound about that long
    if limit and bound.bit_length() > 3.32 * limit and bound >= 10**limit:
        raise _usage(
            f"entries of {n_rows} rows may exceed {limit} digits, the interpreter's limit "
            "for writing an integer (sys.set_int_max_str_digits)"
        )


# output format -> one chunk of text per row, written as the rows come
_CHUNKS = {"text": text_chunks, "json": json_chunks, "csv": csv_chunks}


_BLOCK = 1 << 16  # bytes read at a time


def _read_input(source: str):
    """The text of ``source`` (a path, or - for stdin) in pieces of about ``_BLOCK``, decoded as UTF-8."""
    if source == "-":
        if sys.stdin is None:  # started with stdin closed
            raise OSError("stdin is closed")
        # decode strictly, as for files, whatever error handler the interpreter gave stdin
        stream = getattr(sys.stdin, "buffer", None)
        if stream is None:  # a text stream with no bytes beneath
            yield from iter(lambda: sys.stdin.read(_BLOCK), "")
        else:
            yield from _decoded(stream)
        return
    with open(source, "rb") as handle:
        yield from _decoded(handle)


def _decoded(stream):
    """Blocks of ``stream`` decoded strictly as UTF-8; an error's ``start`` counts from the stream's first byte."""
    decoder = codecs.getincrementaldecoder("utf-8")("strict")
    offset = 0  # bytes read before this block
    while True:
        block = stream.read(_BLOCK)
        held = len(decoder.getstate()[0])  # undecoded bytes of earlier blocks, decoded with this one
        try:
            yield decoder.decode(block, final=not block)
        except UnicodeDecodeError as err:
            err.start += offset - held
            raise
        if not block:
            return
        offset += len(block)


def _classified(source: str) -> Classification:
    """The classification of the triangle in ``source``; a malformed-input refusal naming why there is none."""
    try:
        return classify_checked_rows(triangle_rows(_read_input(source)))  # the parser checks each row
    except OSError as err:
        raise Refusal(EXIT_DATA, f"cannot read {source}: {err.strerror or err}")
    except UnicodeDecodeError as err:
        raise Refusal(EXIT_DATA, f"cannot read {source}: not valid UTF-8 ({err.reason} at byte {err.start})")
    except (TriangleParseError, TooSmallError) as err:
        raise Refusal(EXIT_DATA, str(err))


def _cmd_classify(args: dict) -> int:
    # the whole input is read and checked before anything is written
    result = _classified(args["input"])
    # built whole before writing: a report that fails part way must print nothing;
    # a rule constant is a difference of products of two entries, so at most 2L + 1 digits,
    # and the mismatch's expected entry c + k*d1 + r*d2 + r*k*d, whose parameters are sums of at
    # most four entries and r, k < rows, at most L + 3 + 2*digits(rows), below 2L + 1 since
    # L >= 640 (the interpreter's least limit) and no input has 10**300 rows
    sys.stdout.write(_with_digit_limit(1, lambda: _classification_report(result, args["format"])))
    return EXIT_OK if result.verdict == VERDICT_GRT else EXIT_NEGATIVE


def _cmd_props(args: dict) -> int:
    _check_count("--depth", args["depth"])
    flag_names = ("c", "d", "d1", "d2")
    given = [name for name in flag_names if args[name] is not None]
    if args["input"] is not None and given:
        raise _usage("give either --input or the parameter flags, not both")
    if args["input"] is None:
        if len(given) < 4:
            missing = ", ".join(f"--{n}" for n in flag_names if args[n] is None)
            raise _usage(f"missing {missing} (or use --input)")
        params = GrtParams(args["c"], args["d"], args["d1"], args["d2"])
    else:
        result = _classified(args["input"])
        if result.verdict != VERDICT_GRT:
            raise Refusal(
                EXIT_INAPPLICABLE,
                f"identity checks are inapplicable: input classifies as {result.verdict}, not grt",
            )
        params = result.params

    # parameters have at most L + 1 digits (fitted ones are sums of four entries), a row sum
    # up to n = depth is at most (depth + 1)^3 times the largest, and (depth + 1)^3 has at
    # most (depth + 1).bit_length() + 1 digits, since 8 < 10
    return _with_digit_limit((args["depth"] + 1).bit_length() + 2, lambda: _props(params, args))


def _props(params: GrtParams, args: dict) -> int:
    """Run the requested checks on ``params``, write their report and return the exit code."""
    explicit = args["checks"].strip() != "all"
    # run-everything mode skips a restricted rule instead of erroring
    inapplicable = "inapplicable" if explicit else "skipped"
    records = []
    for name in _parse_check_names(args["checks"]):
        try:
            records.append(_CHECK_RUNNERS[name](params, args["depth"]))
        except InapplicableCheckError as err:
            records.append({"check": name, "status": inapplicable, "summary": f"{inapplicable}: {err}"})
    sys.stdout.write(_props_report(params, args["depth"], records, args["format"]))
    if any(record["status"] == "inapplicable" for record in records):
        return EXIT_INAPPLICABLE
    if any(record["status"] == "failed" for record in records):
        return EXIT_NEGATIVE
    return EXIT_OK


def _with_digit_limit(extra_digits: int, build):
    """``build()`` with the int-to-str digit limit L raised to 2L + ``extra_digits``, then restored.

    Input is parsed under the limit, so no input integer has more than L
    digits; a report writes values derived from them, which can have more.
    Callers bound those values' digits from L: the limit guards against
    quadratic conversion of huge integers, so it is raised only that far.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() == 0: no limit before 3.10.7
    if not limit:
        return build()
    sys.set_int_max_str_digits(2 * limit + extra_digits)
    try:
        return build()
    finally:
        sys.set_int_max_str_digits(limit)


def _parse_check_names(requested: str) -> list[str]:
    if requested.strip() == "all":
        return list(CHECK_NAMES)
    names = []
    for piece in requested.split(","):
        name = piece.strip()
        if not name:
            raise _usage("empty entry in --checks")
        if name not in CHECK_NAMES:
            raise _usage(f"unknown check {name!r}; valid: {', '.join(CHECK_NAMES)}")
        names.append(name)
    return list(dict.fromkeys(names))  # a repeated name is reported once, where it is first named


# --- check runners -------------------------------------------------------


def _jsonable(value):
    """A report value as JSON writes it: None, an integer by ``int_for_json``, anything else as text."""
    if value is None:
        return None
    return int_for_json(value) if isinstance(value, int) else str(value)


def _proved_identity(name, params, depth):
    """The record of check ``name`` of ``PROOF_GRIDS``; a proved ``rowsums`` also lists s_n for n = 0..depth."""
    points, failure = prove_identity(name, params)
    if failure is not None:
        location, lhs, rhs = failure.first_failure
        return {
            "check": name,
            "status": "failed",
            "summary": f"failed at {location}: {lhs} != {rhs}",
            "first_failure": {"location": list(location), "lhs": _jsonable(lhs), "rhs": _jsonable(rhs)},
        }
    record = {
        "check": name,
        "status": "holds",
        "summary": f"holds for all indices (proved by {points} exact evaluations)",
        "proved": True,
        "points": points,
    }
    if name == "rowsums":
        sums = [row_sum_formula(params, n) for n in range(depth + 1)]
        record["summary"] += "; sums for n <= {}: {}".format(depth, " ".join(map(str, sums)))
        record["sums"] = list(map(int_for_json, sums))
    return record


# check name -> (finder of the parameters, JSON key, summary of a found value, summary of none,
# the found value as JSON)
_FINDERS = {
    "embed": (embed_in_rascal, "offset", "embeds at offset (r0={0[0]}, k0={0[1]})", "no embedding", list),
    "multiple": (multiple_of_rascal, "multiplier", "multiple with m = {0}", "not a multiple", int_for_json),
}


def _found_record(name, params, depth):
    """The record of check ``name`` of ``_FINDERS``: what its finder found in ``params``, or none."""
    find, key, found, none, jsonable = _FINDERS[name]
    value = find(params)
    if value is None:
        return {"check": name, "status": "none", "summary": none, key: None}
    return {"check": name, "status": "found", "summary": found.format(value), key: jsonable(value)}


# check name -> runner(params, depth) -> report record; a runner raises
# InapplicableCheckError when the check's domain rules the parameters out
_CHECK_RUNNERS = {
    **{name: partial(_proved_identity, name) for name in PROOF_GRIDS},
    **{name: partial(_found_record, name) for name in _FINDERS},
}
CHECK_NAMES = list(_CHECK_RUNNERS)  # in report order


def _param_flags(required: bool) -> dict:
    return {
        "--c": (int, None, required, "apex entry"),
        "--d": (int, None, required, "change of diagonal differences (addition constant)"),
        "--d1": (int, None, required, "difference of the outside major diagonal (left edge)"),
        "--d2": (int, None, required, "difference of the outside minor diagonal (right edge)"),
    }


# the commands' grammar: command -> (handler, help, {flag: (kind, default, required, help)}), where a
# kind is int (read by the grammar of triangle files), str (free text) or a tuple of the choices;
# the handler takes the arguments as _read_argv returns them
_COMMANDS = {
    "generate": (
        _cmd_generate,
        "generate a triangle from (c, d, d1, d2)",
        {
            **_param_flags(required=True),
            "--rows": (int, None, True, "number of rows (>= 1)"),
            "--rule": (("closed", "add", "mul"), "closed", False, "generation rule (default: closed)"),
            "--format": (("text", "json", "csv"), "text", False, "output format (default: text)"),
        },
    ),
    "classify": (
        _cmd_classify,
        "classify a triangle file",
        {
            "--input": (str, "-", False, "triangle file, - for stdin (default: -)"),
            "--format": (("text", "json"), "text", False, "report format (default: text)"),
        },
    ),
    "props": (
        _cmd_props,
        "verify identities for parameters or a triangle file",
        {
            **_param_flags(required=False),
            "--input": (str, None, False, "triangle file, - for stdin (alternative to parameter flags)"),
            "--checks": (str, "all", False, "comma-separated subset of: %s (default: all)" % ", ".join(CHECK_NAMES)),
            "--depth": (int, 8, False, "last row of the rowsums listing (default: 8)"),
            "--format": (("text", "json"), "text", False, "report format (default: text)"),
        },
    ),
}


# --- report rendering ----------------------------------------------------


def _params_dict(params: GrtParams):
    return {name: int_for_json(getattr(params, name)) for name in ("c", "d", "d1", "d2")}


def _json_ints(keys, values) -> str:
    """The integers ``values`` as a JSON object with ``keys``, each written by ``json_int``; ``null`` for None."""
    if values is None:
        return "null"
    return "{%s}" % ", ".join(f'"{key}": {json_int(value)}' for key, value in zip(keys, values))


def _rule_json(report: RuleReport) -> str:
    constant = "null" if report.constant is None else json_int(report.constant)
    witnesses = "null"
    if report.witnesses is not None:
        keys = ("r", "k", "implied_constant")
        witnesses = "[%s]" % ", ".join(_json_ints(keys, (w.r, w.k, w.implied_constant)) for w in report.witnesses)
    return f'{{"rule": "{report.rule}", "constant": {constant}, "witnesses": {witnesses}}}'


def _diagonal_json(report: DiagonalReport) -> str:
    """The report's JSON object, as ``json.dumps`` writes it with its integers by ``int_for_json``."""
    difference = "null" if report.common_difference is None else json_int(report.common_difference)
    violation = _json_ints(("position", "expected", "actual"), report.first_violation)
    return (
        f'{{"kind": "{report.kind}", "index": {report.index}, "first_term": {json_int(report.first_term)}, '
        f'"common_difference": {difference}, "first_violation": {violation}, '
        f'"under_determined": {"true" if report.under_determined else "false"}}}'
    )


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
        # the text json.dumps writes for the report's dict, integers by int_for_json, written without json:
        # the report holds only integers, null, booleans and fixed words, none of which needs escaping
        p = result.params
        mismatch = _json_ints(("r", "k", "expected", "actual"), result.mismatch)
        params = _json_ints(("c", "d", "d1", "d2"), p and (p.c, p.d, p.d1, p.d2))
        diagonals = ", ".join(map(_diagonal_json, result.diagonals))
        return (
            f'{{"verdict": "{result.verdict}", "mismatch": {mismatch}, "params": {params}, '
            f'"addition": {_rule_json(result.addition)}, "multiplication": {_rule_json(result.multiplication)}, '
            f'"diagonals": [{diagonals}]}}\n'
        )
    lines = [f"verdict: {result.verdict}"]
    if result.mismatch is not None:
        lines.append(f"mismatch: {NotGrtError(*result.mismatch)}")
    if result.params is not None:
        p = result.params
        lines.append(f"params: c={p.c} d={p.d} d1={p.d1} d2={p.d2}")
    lines += [_rule_line(result.addition), _rule_line(result.multiplication)]
    lines += map(_diagonal_line, result.diagonals)
    return "\n".join(lines) + "\n"


def _props_report(params: GrtParams, depth: int, records, fmt: str) -> str:
    if fmt == "json":
        return _json_line({"params": _params_dict(params), "depth": depth, "checks": records})
    lines = [
        f"params: c={params.c} d={params.d} d1={params.d1} d2={params.d2}",
        f"depth: {depth}",
    ]
    lines.extend(f"{record['check']}: {record['summary']}" for record in records)
    return "\n".join(lines) + "\n"


def _json_line(doc) -> str:
    """``doc`` as one line of JSON; its integers past 64 bits are already strings (``int_for_json``)."""
    import json

    return json.dumps(doc) + "\n"
