"""Read and write triangle files.

Two input formats:

* plain rows -- one row per line, base-10 integers separated by runs of
  spaces/tabs; blank lines and lines starting with ``#`` are skipped.
* JSON -- an object ``{"rows": [[...], ...]}``; entries may be JSON strings
  so values beyond 64-bit range survive lossy JSON readers.

Output adds a flattened CSV (``n,r,k,value``) since positional CSV is
ambiguous for jagged rows.
"""

from __future__ import annotations

import json
import re

from .core import TriangleGrid

# ASCII digits only: ``\d`` would also admit other scripts' digits, which int() reads.
_INT_RE = re.compile(r"-?[0-9]+")
_ROW_RE = re.compile(r"-?[0-9]+(?:[ \t]+-?[0-9]+)*")
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
    rows: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not _ROW_RE.fullmatch(line):
            # name the bad token; other whitespace between good ones is still a separator
            for token in line.split():
                if not _INT_RE.fullmatch(token):
                    raise TriangleParseError(f"{token!r} is not a base-10 integer", lineno)
        try:
            row = tuple(map(int, line.split()))
        except ValueError:
            raise TriangleParseError(_too_long(max(line.split(), key=len)), lineno) from None
        n = len(rows)
        if len(row) != n + 1:
            raise TriangleParseError(
                f"row {n} has {len(row)} entries, expected {n + 1}", lineno
            )
        rows.append(row)
    if not rows:
        raise TriangleParseError("no rows found")
    return TriangleGrid(rows)


def parse_json(text: str) -> TriangleGrid:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise TriangleParseError(f"invalid JSON: {err.msg}", err.lineno) from err
    except ValueError as err:  # a number past int()'s digit limit
        raise TriangleParseError("invalid JSON: a number has too many digits to convert") from err
    except RecursionError as err:
        raise TriangleParseError("invalid JSON: arrays nested too deeply") from err
    if not isinstance(doc, dict) or "rows" not in doc:
        raise TriangleParseError('expected a JSON object with a "rows" array')
    raw_rows = doc["rows"]
    if not isinstance(raw_rows, list):
        raise TriangleParseError('"rows" must be an array of arrays')
    rows: list[list[int]] = []
    for n, raw in enumerate(raw_rows):
        if not isinstance(raw, list):
            raise TriangleParseError(f"row {n} is not an array")
        row = []
        for value in raw:
            row.append(_json_int(value, n))
        if len(row) != n + 1:
            raise TriangleParseError(f"row {n} has {len(row)} entries, expected {n + 1}")
        rows.append(row)
    if not rows:
        raise TriangleParseError("no rows found")
    return TriangleGrid(rows)


def _json_int(value, n: int) -> int:
    if isinstance(value, bool):
        raise TriangleParseError(f"row {n}: {value!r} is not an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str) and _INT_RE.fullmatch(value):
        try:
            return int(value)
        except ValueError:
            raise TriangleParseError(f"row {n}: {_too_long(value)}") from None
    raise TriangleParseError(f"row {n}: {value!r} is not an integer or integer string")


def _too_long(token: str) -> str:
    """Why int() refused a well-formed token: Python's digit limit (sys.get_int_max_str_digits)."""
    return f"{len(token.lstrip('-'))}-digit integer is too long to convert"


def parse_triangle(text: str) -> TriangleGrid:
    """Parse either format, deciding by the first non-blank character."""
    if text.lstrip().startswith("{"):
        return parse_json(text)
    return parse_plain_rows(text)


def render_text(grid: TriangleGrid) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in grid.rows) + "\n"


def render_json(grid: TriangleGrid) -> str:
    rows = [
        [v if _I64_MIN <= v <= _I64_MAX else str(v) for v in row] for row in grid.rows
    ]
    return json.dumps({"rows": rows}) + "\n"


def render_csv(grid: TriangleGrid) -> str:
    # Every field is an integer, so nothing needs quoting.  Joining each row
    # first keeps only one row's line strings alive at a time.
    rows = [
        "".join([f"{n},{r},{n - r},{value}\n" for r, value in enumerate(row)])
        for n, row in enumerate(grid.rows)
    ]
    return "n,r,k,value\n" + "".join(rows)
