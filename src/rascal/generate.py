"""Build triangles three ways: closed form, addition rule, multiplication rule.

The recurrences grow row ``n`` from row ``n - 1``: interior cells obey
``south = east + west + d - north`` (addition) or
``south = (east*west + D) / north`` (multiplication), where the diamond
around the cell being filled is north = T(r-1, k-1), west = T(r-1, k),
east = T(r, k-1), south = T(r, k).  For a parameterized triangle the two
constants are tied together by D = c*d - d1*d2.

Each way is a row iterator (``closed_form_rows``, ``addition_rows``,
``multiplication_rows``) that holds at most the two rows the next one is
built from, so a caller that consumes rows as they come needs O(rows)
memory.  A recurrence row is computed with whole-row ``map``s of the
``operator`` functions, with no Python call per cell; ``generate_*`` collect
the rows into a ``TriangleGrid``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add, floordiv, mod, mul, sub
from typing import Callable, Iterable, Iterator

from .core import GrtParams, TriangleGrid, closed_form_row


class MultiplicationRuleError(ArithmeticError):
    """Multiplication-rule generation failed at the cell (r, k) being filled."""

    def __init__(self, r: int, k: int, message: str):
        super().__init__(message)
        self.r = r
        self.k = k


class ZeroNorthError(MultiplicationRuleError):
    """The divisor entry north of the cell is zero."""

    def __init__(self, r: int, k: int):
        super().__init__(
            r, k, f"cannot fill (r={r}, k={k}): north entry (r={r - 1}, k={k - 1}) is zero"
        )


class InexactDivisionError(MultiplicationRuleError):
    """east*west + D is not divisible by the north entry."""

    def __init__(self, r: int, k: int, numerator: int, divisor: int):
        super().__init__(
            r, k, f"cannot fill (r={r}, k={k}): {numerator} is not divisible by {divisor}"
        )
        self.numerator = numerator
        self.divisor = divisor


@dataclass(frozen=True)
class Boundary:
    """Apex plus both outside edges; the data the recurrences grow from.

    ``major_edge[k]`` is T(0, k) (the left edge) and ``minor_edge[r]`` is
    T(r, 0) (the right edge); both start at the apex and their common length
    is the number of rows to generate.  Edges need not be arithmetic, which
    is what lets the recurrences build non-parameterized triangles.
    """

    apex: int
    major_edge: tuple[int, ...]
    minor_edge: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "major_edge", tuple(self.major_edge))
        object.__setattr__(self, "minor_edge", tuple(self.minor_edge))
        if not self.major_edge:
            raise ValueError("edges must hold at least the apex")
        if len(self.major_edge) != len(self.minor_edge):
            raise ValueError(
                f"edges differ in length: {len(self.major_edge)} vs {len(self.minor_edge)}"
            )
        if self.major_edge[0] != self.apex or self.minor_edge[0] != self.apex:
            raise ValueError("both edges must start at the apex")

    @property
    def n_rows(self) -> int:
        return len(self.major_edge)


def mult_constant(params: GrtParams) -> int:
    """The multiplication-rule constant D = c*d - d1*d2."""
    return params.c * params.d - params.d1 * params.d2


def boundary_from_params(params: GrtParams, n_rows: int) -> Boundary:
    """Edges of the parameterized triangle: major_edge[k] = c + k*d1, minor_edge[r] = c + r*d2."""
    if n_rows < 1:
        raise ValueError(f"n_rows must be at least 1, got {n_rows}")
    major = tuple(params.c + k * params.d1 for k in range(n_rows))
    minor = tuple(params.c + r * params.d2 for r in range(n_rows))
    return Boundary(params.c, major, minor)


def closed_form_rows(params: GrtParams, n_rows: int) -> Iterator[tuple[int, ...]]:
    """Rows 0..n_rows-1 of the closed form, one at a time."""
    if n_rows < 1:
        raise ValueError(f"n_rows must be at least 1, got {n_rows}")
    return map(closed_form_row, repeat(params, n_rows), range(n_rows))


def addition_rows(boundary: Boundary, d: int) -> Iterator[tuple[int, ...]]:
    """Rows of the addition-rule triangle, south = east + west + d - north, one at a time.

    Total: succeeds for every integer boundary and constant, zeros included.
    """

    def interior(n: int, prev: tuple[int, ...], above: tuple[int, ...]) -> Iterable[int]:
        cells = map(sub, map(add, prev[1:], prev[:-1]), above)
        return map(add, cells, repeat(d)) if d else cells

    return _grow_rows(boundary, interior)


def multiplication_rows(boundary: Boundary, mult: int) -> Iterator[tuple[int, ...]]:
    """Rows of the multiplication-rule triangle, south = (east*west + mult) / north, one at a time.

    Raises ZeroNorthError or InexactDivisionError naming the first cell, in
    row-major order, where the rule fails to produce an integer; every row
    before that one has been yielded.
    """

    def interior(n: int, prev: tuple[int, ...], above: tuple[int, ...]) -> Iterable[int]:
        products = map(mul, prev[1:], prev[:-1])
        numerators = list(map(add, products, repeat(mult)) if mult else products)
        if 0 not in above and not any(map(mod, numerators, above)):
            return map(floordiv, numerators, above)
        return _divide_cells(n, numerators, above)  # names the first failing cell

    return _grow_rows(boundary, interior)


def generate_closed_form(params: GrtParams, n_rows: int) -> TriangleGrid:
    """Fill ``n_rows`` rows straight from the closed form."""
    return TriangleGrid(list(closed_form_rows(params, n_rows)))


def generate_by_addition(boundary: Boundary, d: int) -> TriangleGrid:
    """Grow the interior with south = east + west + d - north.

    Total: succeeds for every integer boundary and constant, zeros included.
    """
    return TriangleGrid(list(addition_rows(boundary, d)))


def generate_by_multiplication(boundary: Boundary, mult: int) -> TriangleGrid:
    """Grow the interior with south = (east*west + mult) / north, every division exact.

    Raises ZeroNorthError or InexactDivisionError naming the first cell, in
    row-major order, where the rule fails to produce an integer.
    """
    return TriangleGrid(list(multiplication_rows(boundary, mult)))


def _grow_rows(
    boundary: Boundary,
    interior: Callable[[int, tuple[int, ...], tuple[int, ...]], Iterable[int]],
) -> Iterator[tuple[int, ...]]:
    """Yield row 0, then each row n as its two edge entries around ``interior(n, row n-1, row n-2)``.

    Only the last two rows are kept.  Position r of row n is T(r, n - r), so
    the interior cell at position r has east = prev[r], west = prev[r - 1]
    and north = above[r - 1]; row 1 has no interior, and ``above`` is empty.
    """
    major, minor = boundary.major_edge, boundary.minor_edge
    above: tuple[int, ...] = ()
    prev = (boundary.apex,)
    yield prev
    for n in range(1, boundary.n_rows):
        above, prev = prev, (major[n], *interior(n, prev, above), minor[n])
        yield prev


def _divide_cells(n: int, numerators: list[int], above: tuple[int, ...]) -> list[int]:
    """Row n's interior cell by cell, raising at the first cell, left to right, whose division fails."""
    quotients = []
    for r, (numerator, north) in enumerate(zip(numerators, above), start=1):
        if north == 0:
            raise ZeroNorthError(r, n - r)
        quotient, remainder = divmod(numerator, north)
        if remainder:
            raise InexactDivisionError(r, n - r, numerator, north)
        quotients.append(quotient)
    return quotients
