"""Command-line interface: generate triangles, classify files, verify identities.

``props`` proves each identity of ``identities.PROOF_GRIDS`` for every index,
the row-sum formula among them, and reports embedding and scalar multiples;
``--depth`` only sets how many row sums its ``rowsums`` record lists.
``generate`` writes the closed form for every ``--rule``: it is the triangle
either rule grows from the parameters' own edges, ``mul`` up to its first
zero north entry, which is found before anything is written (exit 2).

The grammar of the commands is one table, ``_COMMANDS``: per command its
handler, its help, and per flag its kind (an integer by the grammar of
triangle files, one of fixed choices, or free text), default, whether it is
required, and help.  ``_read_argv`` reads every argv from it: a flag whole
or by a unique prefix, its value after ``=`` or as the next token, the last
of a repeated flag winning, and a refusal worded as Python's own argument
parser words it.  Help is laid out from the table too, and written as any
output is.

Exit codes are a stable contract: 0 success (or verdict "grt"), 1 negative
classification or failed check, 2 multiplication-rule arithmetic failure,
3 inapplicable check, 64 usage error, 65 malformed input, 70 internal error
(an unexpected exception, reported in one line, so that a crash never reads
as the negative verdict 1), 74 output cannot be written (stdout closed, a
full disk; one line), 141 the reader of stdout went away, as in
``rascal generate ... | head`` (128 + SIGPIPE, what a shell reports for a
command killed by that signal; nothing is printed).  A closed stderr drops
the message, never the code.

``run()`` is the process entry point (``python -m rascal``, the ``rascal``
script).  It runs ``main()``, then the ``atexit`` handlers, flushes stdout
and stderr, and ends the process with ``os._exit``, so the interpreter does
not tear down the modules and heap that ``site`` and rascal built.  Under a
profiler, a tracer or ``python -i``, whose work comes after the program's,
it exits through ``SystemExit`` as the interpreter does.  Ctrl-C prints
nothing: the process ends by SIGINT, so a calling shell sees 130 and stops.
"""

from __future__ import annotations

import atexit
import codecs
import os
import sys
from itertools import islice, repeat

from .analyze import (
    VERDICT_GRT,
    Classification,
    NotGrtError,
    RuleReport,
    TooSmallError,
    classify_checked_rows,
)
from .core import GrtParams
from .generate import closed_form_rows, predict_multiplication_failure
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
    csv_chunks,
    digit_limit,
    grammar_int,
    json_chunks,
    json_text,
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
EXIT_IOERR = 74
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
    return _ending(_command, argv)


def _command(argv: list[str]) -> int:
    args = _read_argv(argv)
    if "help" in args:
        _write(_help(args["help"]))
        return EXIT_OK
    return _COMMANDS[args["command"]][0](args)


def _ending(step, *args) -> int:
    """The exit code of ``step(*args)``, or of the refusal or failure it ends in, whose message is one stderr line."""
    try:
        return step(*args)
    except Refusal as err:
        _print_error(str(err))
        return err.code
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_BROKEN_PIPE
    except Exception as err:  # last resort: any other failure is a bug, not a verdict
        _print_error(f"internal error: {type(err).__name__}: {err}")
        return EXIT_SOFTWARE


def run() -> None:
    """End the process with ``main()``'s code, after the ``atexit`` handlers and a flush, skipping the teardown."""
    try:
        code = main()
        if _observed():
            raise SystemExit(code)
        atexit._run_exitfuncs()
        code = _ending(_flushed, code)
    except KeyboardInterrupt:
        code = _interrupted()
    os._exit(code)


def _observed() -> bool:
    """Whether a profiler's report, a tracer's or ``python -i``'s prompt is to come after the program.

    From 3.12 on, cProfile and other tools hook in through ``sys.monitoring``
    (six tool ids), not ``sys.setprofile`` or ``sys.settrace``.
    """
    monitoring = getattr(sys, "monitoring", None)
    return (
        sys.getprofile() is not None
        or sys.gettrace() is not None
        or bool(sys.flags.inspect)
        or (monitoring is not None and any(map(monitoring.get_tool, range(6))))
    )


def _flushed(code: int) -> int:
    """``code``, once stdout is flushed as ``_write`` writes it and stderr as far as it can be."""
    if sys.stdout is not None:  # a closed one holds nothing, and was reported if written to
        _write(())
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:  # stderr is closed: what it holds is dropped
            pass
    return code


def _interrupted() -> int:
    """End the process by SIGINT, as the interpreter does after its traceback, so that a calling shell stops.

    If the signal does not end it (SIGINT blocked), the code a shell reports for it, 128 + SIGINT.
    """
    import signal  # here only: a run that is not interrupted never loads it

    signal.signal(signal.SIGINT, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGINT)
    return 128 + signal.SIGINT


def _write(chunks) -> None:
    """Write ``chunks`` to stdout and flush it; a stdout closed or failing, for any reason but EPIPE, is refusal 74.

    Output already written stays written; what is still buffered goes to
    the null device, so that no later flush fails again.
    """
    try:
        if sys.stdout is None:  # started with stdout closed
            raise OSError("stdout is closed")
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        raise
    except OSError as err:
        _discard_stdout()
        raise Refusal(EXIT_IOERR, f"cannot write output: {err.strerror or err}")


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device, where output it still buffers then goes."""
    if sys.stdout is not None:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _print_error(message: str) -> None:
    """Write ``rascal: <message>`` to stderr as one line; with stderr closed or failing, the message is dropped.

    A line break that a path or an argument brings into the message is
    escaped as repr() writes it.
    """
    if sys.stderr is None:  # started with stderr closed
        return
    try:
        sys.stderr.write(f"rascal: {message.translate(_LINE_BREAKS)}\n")
        sys.stderr.flush()
    except OSError:  # its file descriptor is closed or failing
        pass


# the characters str.splitlines ends a line at, each to its repr() escape
_LINE_BREAKS = {ord(ch): repr(ch)[1:-1] for ch in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}


def _read_argv(argv: list[str]) -> dict:
    """The arguments of ``argv`` by ``_COMMANDS``, defaults filled in; ``{"help": command or None}`` for help.

    A value after a flag that starts with ``-`` must be ``-``, a negative
    number or hold a space.  A refusal names the first fault from the left,
    but a missing flag and a stray argument last.
    """
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    flags = _COMMANDS[command][2] if command else {}
    args, extras = {}, []
    tokens = iter(argv[1:] if command else argv)
    for token in tokens:
        flag, value = _named(token, flags)
        if flag in ("-h", "--help"):
            if value is not None:
                raise _usage(f"argument -h/--help: ignored explicit argument {value!r}")
            return {"help": command}
        if flag is None and command is None:  # the first token that names no flag is the command
            raise _usage(f"argument command: invalid choice: {token!r} (choose from {', '.join(map(repr, _COMMANDS))})")
        if flag is None:  # a stray argument; after "--" every token is one
            extras += [token, *tokens] if token == "--" else [token]
            continue
        if value is None:
            value = next(tokens, "--")  # "--" is never a value
            digits = value[1:].removesuffix("\n")  # a negative number: -\d+ or -\d*\.\d+, maybe with a line break
            number = digits.replace(".", "", 1).isdecimal() and digits[-1:] != "."
            if _named(value, flags)[0] or (value[:1] == "-" and not (value == "-" or " " in value or number)):
                raise _usage(f"argument {flag}: expected one argument")
        kind = flags[flag][0]
        if kind is int:
            try:
                value = grammar_int(value)
            except ValueError as err:
                raise _usage(f"argument {flag}: invalid int value: {err}") from None
        elif kind is not str and value not in kind:
            raise _usage(f"argument {flag}: invalid choice: {value!r} (choose from {', '.join(map(repr, kind))})")
        args[flag[2:]] = value
    missing = [flag for flag, (_, _, required, _) in flags.items() if required and flag[2:] not in args]
    if command is None or missing:
        raise _usage(f"the following arguments are required: {', '.join(missing or ['command'])}")
    if extras:
        raise _usage(f"unrecognized arguments: {' '.join(extras)}")
    return {"command": command, **{flag[2:]: default for flag, (_, default, _, _) in flags.items()}, **args}


def _named(token: str, flags: dict) -> tuple:
    """(the flag of ``flags`` or help that ``token`` names, its value after ``=`` or None), or (None, None).

    A prefix of two flags is a usage refusal.
    """
    names = ("-h", "--help", *flags)
    head, equals, value = token.partition("=")
    if head in names:
        found = [head]
    elif token[:2] == "--" and token != "--":
        found = [name for name in names if name.startswith(head)]
    else:
        return None, None
    if len(found) > 1:
        raise _usage(f"ambiguous option: {token} could match {', '.join(found)}")
    return (found[0], value if equals else None) if found else (None, None)


def _help(command: str | None) -> str:
    """The help of ``command``, or of the program for None, in one layout built from ``_COMMANDS``."""
    if command is None:
        head, title = "usage: rascal [-h] command ...\n\nExact tools for generalized Rascal triangles.", "commands"
        rows = [(name, text) for name, (_, text, _) in _COMMANDS.items()]
    else:
        head, title = f"usage: rascal {command} [-h]", "options"
        rows = [("-h, --help", "show this help message and exit")]
        for flag, (kind, _, required, text) in _COMMANDS[command][2].items():
            shown = f"{flag} " + ("{%s}" % ",".join(kind) if isinstance(kind, tuple) else flag[2:].upper())
            head += f" {shown}" if required else f" [{shown}]"
            rows.append((shown, text))
    width = max(len(name) for name, _ in rows)
    return f"{head}\n\n{title}:\n" + "".join(f"  {name:<{width}}  {text}\n" for name, text in rows)


def _cmd_generate(args: dict) -> int:
    _check_range("--rows", args["rows"], 1)
    params = GrtParams(args["c"], args["d"], args["d1"], args["d2"])
    _check_printable(params, args["rows"])
    failure = predict_multiplication_failure(params, args["rows"]) if args["rule"] == "mul" else None
    if failure is not None:
        raise Refusal(EXIT_ARITHMETIC, str(failure))
    _write(_CHUNKS[args["format"]](closed_form_rows(params, args["rows"])))
    return EXIT_OK


def _check_range(flag: str, value: int, least: int) -> None:
    """A usage refusal for a value below ``least``, or past ``sys.maxsize``, which the row iterators cannot count to."""
    if value < least:
        raise _usage(f"{flag} must be at least {least}")
    if value > sys.maxsize:
        raise _usage(f"{flag} must be at most {sys.maxsize}")


def _check_printable(params: GrtParams, n_rows: int) -> None:
    """A usage refusal unless every entry can be written under the interpreter's int-to-str digit limit.

    Every rule makes the closed form's entries, so none exceeds
    |c| + n*(|d1| + |d2|) + n²*|d| with n = n_rows - 1; checked before any output.
    """
    limit = digit_limit()
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
    # written as it is produced, under a limit no value of the report passes, so nothing fails
    # part way: a rule constant is a difference of products of two entries, so at most 2L + 1
    # digits, and the mismatch's expected entry c + k*d1 + r*d2 + r*k*d, whose parameters are sums
    # of at most four entries and r, k < rows, at most L + 3 + 2*digits(rows), below 2L + 1 since
    # L >= 640 (the interpreter's least limit) and no input has 10**300 rows
    report = _classification_report(result, args["format"])
    _with_digit_limit(1, lambda: _write(report))
    return EXIT_OK if result.verdict == VERDICT_GRT else EXIT_NEGATIVE


def _cmd_props(args: dict) -> int:
    _check_range("--depth", args["depth"], 0)
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
            record = _found_record(name, params) if name in _FINDERS else _proved_identity(name, params, args["depth"])
            records.append(record)
        except InapplicableCheckError as err:
            records.append({"check": name, "status": inapplicable, "summary": f"{inapplicable}: {err}"})
    _write(_props_report(params, args["depth"], records, args["format"]))
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
    limit = digit_limit()
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
    """A failure's side as its report holds it: an integer as it is, a ``Fraction`` as text."""
    return value if isinstance(value, int) else str(value)


def _proved_identity(name, params, depth):
    """The record of check ``name`` of ``PROOF_GRIDS``; a proved ``rowsums`` also lists s_n for n = 0..depth.

    The listing is not held: the record's ``"sums"`` is an iterator that
    evaluates each sum as ``_sum_chunks`` writes it, after the summary in
    text and as the JSON ``"sums"`` array.
    """
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
        record["summary"] += f"; sums for n <= {depth}"
        record["sums"] = map(row_sum_formula, repeat(params), range(depth + 1))
    return record


# check name -> (finder of the parameters, JSON key, summary of a found value, summary of none)
_FINDERS = {
    "embed": (embed_in_rascal, "offset", "embeds at offset (r0={0[0]}, k0={0[1]})", "no embedding"),
    "multiple": (multiple_of_rascal, "multiplier", "multiple with m = {0}", "not a multiple"),
}


def _found_record(name, params):
    """The record of check ``name`` of ``_FINDERS``: what its finder found in ``params``, or none."""
    find, key, found, none = _FINDERS[name]
    value = find(params)
    if value is None:
        return {"check": name, "status": "none", "summary": none, key: None}
    return {"check": name, "status": "found", "summary": found.format(value), key: value}


CHECK_NAMES = [*PROOF_GRIDS, *_FINDERS]  # in report order


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


def _json_head(head: dict, key: str) -> str:
    """``json_text(head)`` with one more member, ``key``, whose array is left open for the items that follow."""
    return json_text(head)[:-1] + f', "{key}": ['


def _rule_line(report: RuleReport) -> str:
    if report.constant is not None:
        return f"{report.rule}: constant {report.constant}"
    a, b = report.witnesses
    return (
        f"{report.rule}: no constant; (r={a.r}, k={a.k}) implies {a.implied_constant} "
        f"but (r={b.r}, k={b.k}) implies {b.implied_constant}"
    )


# one diagonal of the classify report, arithmetic or not, by one % call on its fields (see
# _classification_report): "%s=%d" is the diagonal's label, "major r=3" or "minor k=3"
_DIAGONAL_TEXT = "%s=%d: first %s, difference %s%s\n"
_VIOLATED_TEXT = "%s=%d: first %s, not arithmetic (position %d: expected %s, got %s)\n"
_DIAGONAL_JSON = (
    '%s{"kind": "%s", "index": %d, "first_term": %s, "common_difference": %s, "first_violation": null, '
    '"under_determined": %s}'
)
_VIOLATED_JSON = (
    '%s{"kind": "%s", "index": %d, "first_term": %s, "common_difference": null, '
    '"first_violation": {"position": %d, "expected": %s, "actual": %s}, "under_determined": false}'
)
_LABELS = {"major": "major r", "minor": "minor k"}


def _classification_report(result: Classification, fmt: str):
    """The report's text in chunks: everything before the diagonals, then a chunk per diagonal (and JSON's end)."""
    if fmt == "json":
        head = {
            "verdict": result.verdict,
            "mismatch": result.mismatch and dict(zip(("r", "k", "expected", "actual"), result.mismatch)),
            "params": result.params and vars(result.params),
        }
        for rule in (result.addition, result.multiplication):
            witnesses = rule.witnesses and [vars(witness) for witness in rule.witnesses]
            head[rule.rule] = {"rule": rule.rule, "constant": rule.constant, "witnesses": witnesses}
        yield _json_head(head, "diagonals")
        # each diagonal as json_text writes its report's dict, by a template: a diagonal holds only
        # integers, null, booleans and fixed words, none of which needs escaping
        separator = ""
        for kind, index, first, difference, violation, under_determined in result.diagonals.fields():
            if violation is None:
                under = "true" if under_determined else "false"
                yield _DIAGONAL_JSON % (separator, kind, index, json_text(first), json_text(difference), under)
            else:
                position, expected, actual = violation
                yield _VIOLATED_JSON % (
                    separator, kind, index, json_text(first), position, json_text(expected), json_text(actual)
                )
            separator = ", "
        yield "]}\n"
        return
    lines = [f"verdict: {result.verdict}"]
    if result.mismatch is not None:
        lines.append(f"mismatch: {NotGrtError(*result.mismatch)}")
    if result.params is not None:
        p = result.params
        lines.append(f"params: c={p.c} d={p.d} d1={p.d1} d2={p.d2}")
    lines += [_rule_line(result.addition), _rule_line(result.multiplication)]
    yield "\n".join(lines) + "\n"
    for kind, index, first, difference, violation, under_determined in result.diagonals.fields():
        if violation is None:
            yield _DIAGONAL_TEXT % (
                _LABELS[kind], index, first, difference, " (under-determined)" if under_determined else ""
            )
        else:
            yield _VIOLATED_TEXT % (_LABELS[kind], index, first, *violation)


def _props_report(params: GrtParams, depth: int, records, fmt: str):
    """The report's text in chunks, a chunk per record, but a ``rowsums`` listing a block of sums at a time."""
    if fmt == "json":
        yield _json_head({"params": vars(params), "depth": depth}, "checks")
        for i, record in enumerate(records):
            if i:
                yield ", "
            yield from _record_json(record)
        yield "]}\n"
        return
    yield f"params: c={params.c} d={params.d} d1={params.d1} d2={params.d2}\ndepth: {depth}\n"
    for record in records:
        yield f"{record['check']}: {record['summary']}"
        if "sums" in record:
            yield ": "
            yield from _sum_chunks(record["sums"], json=False)
        yield "\n"


def _record_json(record: dict):
    """``json_text(record)`` in chunks; a ``rowsums`` listing, the record's last field, is the ``"sums"`` array."""
    if "sums" not in record:
        yield json_text(record)
        return
    yield _json_head({key: value for key, value in record.items() if key != "sums"}, "sums")
    yield from _sum_chunks(record["sums"], json=True)
    yield "]}"


def _sum_chunks(sums, json: bool):
    """The iterator ``sums``, 1024 per chunk: as ``json_text`` writes a JSON array's items, else joined by spaces."""
    separator = ""
    while block := tuple(islice(sums, 1024)):
        yield separator + (json_text(block)[1:-1] if json else " ".join(map(str, block)))
        separator = ", " if json else " "
