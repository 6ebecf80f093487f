"""Build triangles three ways: closed form, addition rule, multiplication rule.

The recurrences grow row ``n`` from row ``n - 1``: interior cells obey
``south = east + west + d - north`` (addition) or
``south = (east*west + D) / north`` (multiplication), where the diamond
around the cell being filled is north = T(r-1, k-1), west = T(r-1, k),
east = T(r, k-1), south = T(r, k).  For a parameterized triangle the two
constants are tied together by D = c*d - d1*d2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


def generate_closed_form(params: GrtParams, n_rows: int) -> TriangleGrid:
    """Fill ``n_rows`` rows straight from the closed form."""
    if n_rows < 1:
        raise ValueError(f"n_rows must be at least 1, got {n_rows}")
    return TriangleGrid([closed_form_row(params, n) for n in range(n_rows)])


def generate_by_addition(boundary: Boundary, d: int) -> TriangleGrid:
    """Grow the interior with south = east + west + d - north.

    Total: succeeds for every integer boundary and constant, zeros included.
    """

    def fill(r: int, k: int, east: int, west: int, north: int) -> int:
        return east + west + d - north

    return _generate_rows(boundary, fill)


def generate_by_multiplication(boundary: Boundary, mult: int) -> TriangleGrid:
    """Grow the interior with south = (east*west + mult) / north, every division exact.

    Raises ZeroNorthError or InexactDivisionError naming the first cell, in
    row-major order, where the rule fails to produce an integer.
    """

    def fill(r: int, k: int, east: int, west: int, north: int) -> int:
        if north == 0:
            raise ZeroNorthError(r, k)
        numerator = east * west + mult
        quotient, remainder = divmod(numerator, north)
        if remainder:
            raise InexactDivisionError(r, k, numerator, north)
        return quotient

    return _generate_rows(boundary, fill)


def _generate_rows(
    boundary: Boundary, fill: Callable[[int, int, int, int, int], int]
) -> TriangleGrid:
    rows: list[list[int]] = [[boundary.apex]]
    for n in range(1, boundary.n_rows):
        row = [0] * (n + 1)
        row[0] = boundary.major_edge[n]
        row[n] = boundary.minor_edge[n]
        prev = rows[n - 1]
        above = rows[n - 2] if n >= 2 else None
        for r in range(1, n):
            # row n, position r is T(r, k) with k = n - r
            row[r] = fill(r, n - r, east=prev[r], west=prev[r - 1], north=above[r - 1])
        rows.append(row)
    return TriangleGrid(rows)
