"""Triangle containers, indexing conventions, and the bilinear closed form.

Triangles are stored as jagged arrays: row ``n`` holds ``n + 1`` integers,
left to right.  The entry at row ``n``, position ``j`` (0-based from the
left) is ``T(r, k)`` with ``r = j`` and ``k = n - j``, so the left edge is
the outside major diagonal (``r = 0``) and the right edge is the outside
minor diagonal (``k = 0``).  Major diagonals run down-left from the right
edge, minor diagonals run down-right from the left edge, and every entry of
row ``n`` satisfies ``r + k = n``.

All entries are plain Python integers, so arithmetic is exact at any size.

``closed_form_entry`` is the closed form's per-cell reference, for the
identities and the tests; ``generate.closed_form_rows`` grows its rows.

The package's value types (parameters, grids, diamonds, reports) are
``Record`` subclasses: immutable, compared and hashed by value, with fields
declared as class annotations.  ``Record`` replaces frozen dataclasses, which
cost a fresh interpreter (each CLI call is one) the import of ``dataclasses``
and its dependencies plus a compiled ``__init__`` per class.
"""

from __future__ import annotations

from itertools import accumulate, count, repeat


class Record:
    """Immutable record whose fields are the subclass's annotations, in order.

    Construction takes every field, positionally or by keyword.  Then
    ``__post_init__`` runs, to validate or normalize (normalizing with
    ``object.__setattr__``).
    Records are equal when their classes and field values are, hash like the
    tuple of their field values, and refuse assignment and deletion.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Field values in order from positional and keyword arguments."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            values[name] = value
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() missing {', '.join(map(repr, missing))}")
        return [values[name] for name in fields]

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class GrtParams(Record):
    """The four constants defining the triangle T(r, k) = c + k*d1 + r*d2 + r*k*d.

    ``c`` is the apex entry, ``d1`` the common difference of the outside
    major diagonal, ``d2`` the common difference of the outside minor
    diagonal, and ``d`` the change in common difference from each diagonal
    to the next (also the constant of the addition rule).  Any four integers
    are valid.
    """

    c: int
    d: int
    d1: int
    d2: int


_INT_ONLY = frozenset({int})


def checked_row(n: int, row) -> tuple[int, ...]:
    """Row ``n`` of a triangle as a tuple: ValueError unless it holds n + 1 entries, TypeError unless integers."""
    row = tuple(row)
    if len(row) != n + 1:
        raise ValueError(f"row {n} has {len(row)} entries, expected {n + 1}")
    if set(map(type, row)) != _INT_ONLY:
        for value in row:  # int subclasses pass; name the first bad entry
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"row {n} holds {value!r}; entries must be integers")
    return row


class TriangleGrid(Record):
    """Immutable jagged triangle of arbitrary-precision integers."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(map(checked_row, count(), self.rows))
        if not rows:
            raise ValueError("a triangle needs at least one row")
        object.__setattr__(self, "rows", rows)

    @property
    def n_rows(self) -> int:
        return len(self.rows)


class Diamond(Record):
    """Square block of cells {(top_r + i, top_k + j) : 0 <= i, j < side}."""

    top_r: int
    top_k: int
    side: int

    def __post_init__(self) -> None:
        if self.top_r < 0 or self.top_k < 0:
            raise ValueError(
                f"diamond top must have nonnegative indices, got ({self.top_r}, {self.top_k})"
            )
        if self.side < 2:
            raise ValueError(f"diamond side must be at least 2, got {self.side}")

    def boundary_cells(self) -> list[tuple[int, int]]:
        """The 4*(side - 1) cells with i or j on the rim, each listed once."""
        s = self.side
        return [
            (self.top_r + i, self.top_k + j)
            for i in range(s)
            for j in range(s)
            if i in (0, s - 1) or j in (0, s - 1)
        ]


def closed_form_entry(params: GrtParams, r: int, k: int) -> int:
    """Evaluate the closed form c + k*d1 + r*d2 + r*k*d at (r, k)."""
    if r < 0 or k < 0:
        raise ValueError(f"diagonal indices must be nonnegative, got (r={r}, k={k})")
    return params.c + k * params.d1 + r * params.d2 + r * k * params.d


def major_diagonal(params: GrtParams, r: int, count: int) -> list[int]:
    """First ``count`` terms of the r-th major diagonal.

    An arithmetic sequence: first term ``c + r*d2``, common difference
    ``d1 + r*d``.
    """
    if r < 0:
        raise ValueError(f"diagonal index must be nonnegative, got {r}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    first = params.c + r * params.d2
    step = params.d1 + r * params.d
    return list(accumulate(repeat(step, count - 1), initial=first))


def minor_diagonal(params: GrtParams, k: int, count: int) -> list[int]:
    """First ``count`` terms of the k-th minor diagonal.

    First term ``c + k*d1``, common difference ``d2 + k*d``: the k-th major
    diagonal of the transposed triangle, ``GrtParams(c, d, d2, d1)``.
    """
    return major_diagonal(GrtParams(params.c, params.d, params.d2, params.d1), k, count)
