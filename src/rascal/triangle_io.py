"""Read and write triangle files.

Two input formats:

* plain rows -- one row per line, integers separated by whitespace (as
  ``str.split`` splits, so a no-break space separates too); blank lines and
  lines starting with ``#`` are skipped.
* JSON -- an object ``{"rows": [[...], ...]}``, other members allowed around
  "rows" but not a second "rows"; entries are JSON integers or integer
  strings, so values beyond 64-bit range survive lossy JSON readers.

In both, an integer is ASCII ``-?[0-9]+`` (leading zeros and ``-0`` allowed)
of at most the interpreter's int-to-str digit limit, and row n holds n + 1
of them.  int() does the scan: it takes exactly that grammar once the text
holds nothing else it reads (other scripts' digits, ``_``, ``+`` or
whitespace inside a JSON string), and ``_is_grammar_int`` only names the
first bad token when there is one.  ``grammar_int`` is the one reader of a
single token by this grammar, for files and for flags: a JSON integer
string that the whole-row check refuses, and each of the CLI's integer
flags.  A plain line is split a window of about
64K characters at a time, so an over-long row is refused without a list of
all its tokens.  Nothing here imports ``re`` but the JSON reader, which
``json`` loads it for anyway.

Each format has a row parser (``plain_rows`` and ``json_rows``, and
``triangle_rows`` for either) that takes the text in pieces of any size and
yields one row at a time, holding about one row of text, also of a text it
refuses.  Three kinds of text are still held whole: blank text before row 0
or the opening ``{``; blank text inside a JSON document or inside a plain
line; and a token far past the digit limit.  Each row comes out checked as ``TriangleGrid`` checks it, a tuple
of n + 1 ints, so ``analyze.classify_checked_rows`` takes the rows as they
are.  The ``parse_*`` functions collect those rows into a ``TriangleGrid``.

A row parser may be sent the row its caller expects next: classify's fold
sends the closed form's row n, fitted from rows 0-2, before the parser reads
row n >= 3.  Where the text there is the writer's text of that row, the
``text_chunks`` line with its "\n" or the ``json_chunks`` array, the parser
gives back the sent tuple itself, with no split, no int() and no comparison;
the closed form has exactly one such text.  Any other text is read as
usual, with the same rows and errors: a comment or blank line is skipped,
and a row is parsed where it has other spacing, tabs, "\r\n", leading
zeros, another JSON layout, a JSON entry past 64 bits (written quoted), or
an expected entry past the int-to-str digit limit, which the writer cannot
write.

Output adds a flattened CSV (``n,r,k,value``) since positional CSV is
ambiguous for jagged rows.  Each writer (``text_chunks``, ``json_chunks``,
``csv_chunks``) yields one chunk per row, made by one ``%`` call on a
template of the row's length, with no per-cell ``str`` and join: ``%s`` for
text and CSV (the CSV row's ``n,r,k,`` labels are built into its template);
``json_text`` writes each JSON row, by a ``%d`` template when it holds
plain ints inside 64 bits.

``json_text`` is the one JSON value writer, of the rows and of the CLI's
reports alike, and the one owner of the integer policy: an int outside the
signed 64-bit range is written as its decimal string, so it survives JSON
readers that hold numbers in 64 bits.  It writes without ``json``, which it
imports only for a string that needs an escape or a value of another type,
such as a float; so writing integer rows never imports ``json``.
"""

from __future__ import annotations

import sys
from collections.abc import Generator, Iterable, Iterator, Sequence
from itertools import chain
from operator import add

from .core import _INT_ONLY, TriangleGrid

# json_rows's states: the text it reads up to the next value, group 1 a bracket that opens or
# closes, and the text that leaves json.loads in the same state
_JSON_STATES = (
    (r"[ \t\n\r]*(\{?)", ""),  # the document: an object, else refused
    (r'[ \t\n\r]*(?:(\})|(?="))', "{"),  # after "{": a key, or "}"
    (r"[ \t\n\r]*:[ \t\n\r]*", '{""'),  # after a key: ":" and its value
    (r'[ \t\n\r]*(?:,[ \t\n\r]*(?=")|(\}))', '{"": null'),  # after a member: "," and a key, or "}"
    (r"[ \t\n\r]*(\]?)", '{"": ['),  # after the "[" of "rows": a row, or "]"
    (r"[ \t\n\r]*(?:,[ \t\n\r]*|(\]))", '{"": [null'),  # after a row: "," and a row, or "]"
    (r"[ \t\n\r]*\Z", "{}"),  # after the object: nothing
)
_INT_OR_STR = frozenset({int, str})
_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


class TriangleParseError(ValueError):
    """Input does not follow the triangle-file grammar; ``line`` is set when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def parse_plain_rows(text: str) -> TriangleGrid:
    return TriangleGrid(list(plain_rows([text])))


def parse_json(text: str) -> TriangleGrid:
    return TriangleGrid(list(json_rows([text])))


def parse_triangle(text: str) -> TriangleGrid:
    """Parse either format, deciding by the first non-blank character."""
    return TriangleGrid(list(triangle_rows([text])))


def triangle_rows(chunks: Iterable[str]) -> Iterator[tuple[int, ...]]:
    """The rows of either format, deciding by the first non-blank character of the text.

    ``{`` or ``[`` starts JSON, so a top-level array is refused as JSON; anything else, plain rows.
    """
    chunks = iter(chunks)
    blank = []
    for chunk in chunks:
        blank.append(chunk)
        stripped = chunk.lstrip()
        if stripped:
            rows = json_rows if stripped[0] in "{[" else plain_rows
            yield from rows(chain(blank, chunks))
            return
    yield from plain_rows(blank)


def plain_rows(chunks: Iterable[str]) -> Generator[tuple[int, ...], tuple[int, ...] | None, None]:
    """The rows of plain-rows text, given in consecutive pieces by ``chunks``, one at a time.

    A row sent in is given back, unparsed, when the next row's line is its
    ``text_chunks`` line, line end included.
    """
    n = 0
    expected = expected_text = None
    for lineno, raw in enumerate(_lines(chunks), start=1):
        if raw == expected_text:
            row = expected
        else:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            row = _plain_row(line, n, lineno)
        expected = yield row
        expected_text = _expected_text(_text_template, expected)
        n += 1
    if not n:
        raise TriangleParseError("no rows found")


def _expected_text(template, row: tuple[int, ...] | None) -> str | None:
    """``template(len(row)) % row``, the writer's text of a row sent in; None, which no text equals, for no row.

    None too for an entry past the int-to-str digit limit, which ``%``
    refuses with ValueError: that row is parsed.
    """
    if row is None:
        return None
    try:
        return template(len(row)) % row
    except ValueError:
        return None


def _grammar_ints(values: Sequence, text: str) -> tuple[int, ...] | None:
    """``tuple(map(int, values))`` if each string of ``values`` is a grammar integer; else None.

    ``text`` is the strings, each free of whitespace, joined by whitespace or
    commas.  Beyond ``-?[0-9]+``, int() reads other scripts' digits, "_", "+"
    and whitespace around the number; with none of the first three in
    ``text``, it reads exactly the grammar, and refuses a token past the digit limit.
    """
    if text.isascii() and "_" not in text and "+" not in text:
        try:
            return tuple(map(int, values))
        except ValueError:
            pass
    return None


def _is_grammar_int(token: str) -> bool:
    """Whether ``token`` is ASCII ``-?[0-9]+``: ``isdigit`` alone also admits other scripts' digits."""
    digits = token[1:] if token.startswith("-") else token
    return digits.isascii() and digits.isdigit()


def grammar_int(token: str) -> int:
    """``token`` read as a grammar integer, ASCII ``-?[0-9]+``, as a flag's value or a JSON integer string.

    Else ValueError: its message is ``repr(token)``, or the token's length
    when it is past the int-to-str digit limit, so that it is not echoed.
    """
    if not _is_grammar_int(token):
        raise ValueError(repr(token))
    try:
        return int(token)
    except ValueError:
        raise ValueError(_too_long(token)) from None


def _plain_row(line: str, n: int, lineno: int) -> tuple[int, ...]:
    """Row ``n`` from its stripped ``line``, the one reader of a plain line not matched on its text.

    Each window's tokens go to int() at once, and token by token only where
    int() alone cannot tell.  Else the TriangleParseError of the line's first
    token outside the grammar, else of its longest token past the digit limit,
    else of its count of entries.  The line is read a window at a time, so an
    over-long row builds no list of all its tokens.
    """
    parts: list[tuple[int, ...]] = []  # each window's ints while the row is not too long; one window's are the row
    count, longest = 0, ""
    for tokens, text in _windows(line):
        count += len(tokens)
        ints = _grammar_ints(tokens, text)
        if ints is None:
            for token in tokens:
                if not _is_grammar_int(token):
                    raise TriangleParseError(f"{token!r} is not a base-10 integer", lineno)
            try:
                ints = tuple(map(int, tokens))
            except ValueError:  # keep the longest token past the digit limit, the first of equals
                limit = digit_limit()
                longest = max([longest, *(token for token in tokens if len(token.lstrip("-")) > limit)], key=len)
                continue
        if count <= n + 1:
            parts.append(ints)
    if longest:
        raise TriangleParseError(_too_long(longest), lineno)
    if count != n + 1:
        raise TriangleParseError(f"row {n} has {count} entries, expected {n + 1}", lineno)
    return parts[0] if len(parts) == 1 else tuple(chain.from_iterable(parts))


_WINDOW = 1 << 16  # characters of a line split at a time by _windows


def _windows(text: str) -> Iterator[tuple[list[str], str]]:
    """The tokens of ``text.split()`` in lists of about ``_WINDOW`` characters, each with the text they come from.

    A window ends before a token that goes on past it; a window of one such
    token doubles until the token ends.
    """
    start, size = 0, _WINDOW
    while start < len(text):
        piece = text[start : start + size]
        tokens = piece.split()
        end = start + len(piece)
        if end < len(text) and not piece[-1].isspace() and not text[end].isspace():
            if len(tokens) == 1:
                size *= 2
                continue
            end -= len(tokens.pop())
            piece = piece[: end - start]
        yield tokens, piece
        start, size = end, _WINDOW


def _lines(chunks: Iterable[str]) -> Iterator[str]:
    """The lines of the text ``chunks`` joins to, ends kept, as ``str.splitlines(True)`` splits it."""
    held: list[str] = []  # text after the last line given out: it may grow, or gain the "\n" of "\r\n"
    for chunk in chunks:
        held.append(chunk)
        # a line ends in the chunk: at a "\n", else at another of splitlines's line breaks
        if "\n" in chunk or chunk.splitlines() != [chunk]:
            lines = "".join(held).splitlines(True)  # none for an empty chunk after none held
            held = lines[-1:]
            yield from lines[:-1]
    yield from "".join(held).splitlines(True)


def json_rows(chunks: Iterable[str]) -> Generator[tuple[int, ...], tuple[int, ...] | None, None]:
    """The rows of a JSON triangle, given in consecutive pieces by ``chunks``, one at a time.

    The top-level object is decoded one member at a time with ``raw_decode``,
    and a "rows" array one row at a time, so the reader holds about one row of
    text (or one other member).  The rows and the TriangleParseError of a bad
    document are those of ``json.loads`` on the whole text, except that a
    second "rows" member (which would replace the first) is an error, and a
    top-level value that is not an object is refused at its first character.
    A syntax error is raised from the text held once it shows the fault.  A
    row sent in is given back, undecoded, when the next row's array is its
    ``json_chunks`` text.
    """
    import json
    import re  # json.decoder has loaded it already

    states = [(re.compile(pattern), prefix) for pattern, prefix in _JSON_STATES]  # re caches them after one call
    top, first_key, colon, next_key, first_row, next_row, end = states
    chunks = iter(chunks)
    text = ""
    lines = 0  # line breaks in the text dropped from the front of ``text``
    ended = False

    def more(start: int) -> int:
        """Drop the text before ``start`` and read until the rest has doubled; ``start``'s new index."""
        nonlocal text, lines, ended
        lines += text.count("\n", 0, start)
        pieces = [text[start:]]
        held = len(pieces[0])
        wanted = 2 * held
        while held <= wanted and not ended:
            chunk = next(chunks, None)
            ended = chunk is None
            if chunk:
                pieces.append(chunk)
                held += len(chunk)
        text = "".join(pieces)
        return 0

    def invalid(start: int, prefix: str) -> TriangleParseError:
        """Raise the document's error, read from the text held with ``prefix`` in place of its text up to ``start``.

        The text up to ``start`` was valid and leaves the decoder in the
        state ``prefix`` does, and the text held shows the fault, so
        ``json.loads`` stops at the same fault with the same message.
        """
        try:
            json.loads(prefix + text[start:])
        except json.JSONDecodeError as err:
            line = err.lineno + lines + text.count("\n", 0, start)
            raise TriangleParseError(f"invalid JSON: {err.msg}", line) from err
        except RecursionError as err:
            raise TriangleParseError("invalid JSON: arrays nested too deeply") from err
        except ValueError as err:
            raise TriangleParseError("invalid JSON: a number has too many digits to convert") from err
        return TriangleParseError("invalid JSON")

    raw_decode = json.JSONDecoder().raw_decode
    state, start, n = top, 0, 0  # start: where the text not yet read begins; n: the rows read
    expected = expected_text = None  # the row sent in for the next row, and its json_chunks text
    # problem: the first error past the syntax, raised once the syntax is known good
    missing = problem = TriangleParseError('expected a JSON object with a "rows" array')
    while True:
        after, prefix = state
        follows = after.match(text, start)
        if follows is None and (ended or text[start:].strip(" \t\n\r") not in ("", ",")):
            raise invalid(start, prefix)  # no more text can make up what a state needs
        if (follows is None or follows.end() == len(text)) and not ended:
            start = more(start)
            continue
        at = follows.end()
        if state is colon:
            if key == "rows" and text.startswith("[", at):
                state, start = first_row, at + 1
                continue
        elif state is end:
            break
        elif state is top:
            if not follows.group(1):
                raise missing
            state, start = first_key, at
            continue
        elif follows.group(1):  # the "}" closing the object, or the "]" closing the rows
            state, start = (end if state is first_key or state is next_key else next_key), at
            continue
        elif expected_text is not None and problem is None and (state is next_row or state is first_row):
            if text.startswith(expected_text, at):
                state, start, n = next_row, at + len(expected_text), n + 1
                expected = yield expected
                expected_text = _expected_text(_json_template, expected)
                continue
            if len(text) - at < len(expected_text) and not ended:  # the row may go on in the next piece
                start = more(start)
                continue
        try:
            value, stop = raw_decode(text, at)
        except json.JSONDecodeError as err:  # near the end, a cut "\uXXXX", literal or number fails too
            if ended or (err.pos < len(text) - 8 and not err.msg.startswith("Unterminated string")):
                raise invalid(start, prefix) from None
            stop = len(text)
        except (ValueError, RecursionError):  # a number past the digit limit, or nesting past the recursion limit
            # unless the text ends in that number's digits, which a fraction or exponent may follow
            if ended or text[-digit_limit() - 1 :].strip("0123456789.eE+-"):
                raise invalid(start, prefix) from None
            stop = len(text)
        if stop > len(text) - 3 and not ended:  # the value may go on in the next piece: "1", "1." or "1e-"
            start = more(start)
            continue
        if state is next_row or state is first_row:
            if problem is None:
                try:
                    row = _json_row(value, n)
                except TriangleParseError as err:
                    problem = err
                else:
                    expected = yield row
                    expected_text = _expected_text(_json_template, expected)
            n += 1
            state = next_row
        elif state is colon:
            if key == "rows" and problem is None:
                problem = TriangleParseError('"rows" must be an array of arrays')
            state = next_key
        else:
            key = value
            if key == "rows":
                problem = None if problem is missing else TriangleParseError('more than one "rows" member')
            state = colon
        start = stop
    if problem is not None:
        raise problem
    if not n:
        raise TriangleParseError("no rows found")


def _json_row(raw, n: int) -> tuple[int, ...]:
    """Row ``n`` from its decoded JSON value."""
    if not isinstance(raw, list):
        raise TriangleParseError(f"row {n} is not an array")
    types = set(map(type, raw))
    row = None
    if types <= _INT_ONLY:  # json gives plain ints for integer numbers
        row = tuple(raw)
    elif types <= _INT_OR_STR:
        # integer strings, as json_chunks writes values past 64 bits, are checked all at once
        strings = ",".join([value for value in raw if type(value) is str])
        if strings.split() == [strings]:  # no string holds whitespace
            row = _grammar_ints(raw, strings)
    if row is None:  # name the first bad value
        row = tuple([_json_entry(value, n) for value in raw])
    if len(row) != n + 1:
        raise TriangleParseError(f"row {n} has {len(row)} entries, expected {n + 1}")
    return row


def _json_entry(value, n: int) -> int:
    if isinstance(value, bool):
        raise TriangleParseError(f"row {n}: {value!r} is not an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return grammar_int(value)
        except ValueError as err:
            if _is_grammar_int(value):  # past the digit limit
                raise TriangleParseError(f"row {n}: {err}") from None
    raise TriangleParseError(f"row {n}: {value!r} is not an integer or integer string")


def digit_limit() -> int:
    """The interpreter's int-to-str digit limit: 0 where it is switched off, or where there is none (before 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _too_long(token: str) -> str:
    """Why int() refused a well-formed token: Python's digit limit (sys.get_int_max_str_digits)."""
    return f"{len(token.lstrip('-'))}-digit integer is too long to convert"


def render_text(grid: TriangleGrid) -> str:
    return "".join(text_chunks(grid.rows))


def render_json(grid: TriangleGrid) -> str:
    return "".join(json_chunks(grid.rows))


def render_csv(grid: TriangleGrid) -> str:
    return "".join(csv_chunks(grid.rows))


# One chunk per row, so a writer can emit rows as they are produced.  Each chunk is one ``%``
# call on a template of the row's length: ``%s`` writes what ``str()`` writes, and refuses an
# entry past the int-to-str digit limit with the same ValueError.


def _text_template(length: int) -> str:
    """``"%s %s ... %s\\n"`` for ``length`` entries; ``"\\n"`` for none."""
    return ("%s " * length)[:-1] + "\n"


def _json_template(length: int) -> str:
    """``"[%d, %d, ..., %d]"`` for ``length`` entries, at least one."""
    return "[" + "%d, " * (length - 1) + "%d]"


def text_chunks(rows: Iterable[Sequence[int]]) -> Iterator[str]:
    for row in rows:
        row = tuple(row)
        yield _text_template(len(row)) % row


def json_chunks(rows: Iterable[Sequence[int]]) -> Iterator[str]:
    r"""The text of ``json_text({"rows": list(rows)}) + "\n"``, one chunk per row, each row written by ``json_text``."""
    yield '{"rows": ['
    separator = ""
    for row in rows:
        yield separator + json_text(tuple(row))
        separator = ", "
    yield "]}\n"


def json_text(value) -> str:
    """``json.dumps(value)``, with each int (not bool) outside the signed 64-bit range written as its decimal string.

    Takes None, bools, ints, strs, lists, tuples and str-keyed dicts, nested,
    and writes them without ``json``, which is imported only for a string
    that needs an escape (non-ASCII, a control character, ``"`` or ``\\``)
    and for a value of any other type, such as a float.  A list or tuple of
    plain ints inside 64 bits is written by one ``%d`` template; ``%d`` would
    write any other entry differently (``True`` as ``1``, ``1.5`` as ``1``).
    """
    if type(value) is int:  # first: nearly every value written is a plain int
        return str(value) if _I64_MIN <= value <= _I64_MAX else f'"{value}"'
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):  # a subclass: its digits, by int.__repr__ as json.dumps writes them
        digits = int.__repr__(value)
        return digits if _I64_MIN <= value <= _I64_MAX else f'"{digits}"'
    if isinstance(value, str):
        # ASCII and printable: " " to "~", which json.dumps writes as they are, all but " and \
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
    elif isinstance(value, (list, tuple)):
        if value and _INT_ONLY.issuperset(map(type, value)) and _I64_MIN <= min(value) and max(value) <= _I64_MAX:
            return _json_template(len(value)) % tuple(value)
        return "[%s]" % ", ".join(map(json_text, value))
    elif isinstance(value, dict):
        return "{%s}" % ", ".join(f"{json_text(key)}: {json_text(item)}" for key, item in value.items())
    import json

    return json.dumps(value)


def csv_chunks(rows: Iterable[Sequence[int]]) -> Iterator[str]:
    """Flattened ``n,r,k,value`` lines; every field is an integer, so nothing needs quoting.

    Row n must hold n + 1 entries, else ValueError.
    """
    yield "n,r,k,value\n"
    labels: list[str] = []  # labels[i] == f"{i},", shared by the n, r and k fields
    for n, row in enumerate(rows):
        row = tuple(row)
        if len(row) != n + 1:
            raise ValueError(f"row {n} has {len(row)} entries, expected {n + 1}")
        labels.append(f"{n},")
        head = labels[n]  # the template: "n,r,k,%s\n" for r = 0..n
        yield (head + ("%s\n" + head).join(map(add, labels, reversed(labels))) + "%s\n") % row
