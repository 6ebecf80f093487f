"""Build triangles three ways: closed form, addition rule, multiplication rule.

The recurrences grow row ``n`` from row ``n - 1``: interior cells obey
``south = east + west + d - north`` (addition) or
``south = (east*west + D) / north`` (multiplication), where the diamond
around the cell being filled is north = T(r-1, k-1), west = T(r-1, k),
east = T(r, k-1), south = T(r, k).  For a parameterized triangle the two
constants are tied together by D = c*d - d1*d2.

Each way is a row iterator (``closed_form_rows``, ``addition_rows``,
``multiplication_rows``), and all three grow in one loop that holds only the
two rows the next is built from, so a caller that consumes rows as they come
needs O(rows) memory.  Its interior is whole-row ``map``s of the ``operator``
functions, with no Python call per cell: the closed form steps each major
diagonal r by d1 + r*d, the recurrences apply their rule.  The edges come as
(major, minor) pairs, row by row: a ``Boundary`` yields its own, and
``edges_from_params`` computes the parameterized ones, so the first row comes
at once however many rows follow.  ``generate_*`` collect the rows into a
``TriangleGrid``.

The multiplication rule can fail part way, at a zero or inexact north
entry.  Grown from the parameters' own edges it can only fail at a zero of
the closed form, and ``predict_multiplication_failure`` finds the first such
zero before any row is built, in O(log) time when d = 0, O(1) when
D = c*d - d1*d2 = 0 and O(min(rows, |D| / |d|)) otherwise.  So the CLI
streams ``mul`` like the other rules and still prints nothing on failure.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from itertools import count, islice, repeat
from operator import add, floordiv, mod, mul, sub

from .core import GrtParams, Record, TriangleGrid


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


class Boundary(Record):
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

    def __iter__(self) -> Iterator[tuple[int, int]]:
        """The (major, minor) edge entries row by row, as ``edges_from_params`` gives them."""
        return zip(self.major_edge, self.minor_edge)


def mult_constant(params: GrtParams) -> int:
    """The multiplication-rule constant D = c*d - d1*d2."""
    return params.c * params.d - params.d1 * params.d2


def boundary_from_params(params: GrtParams, n_rows: int) -> Boundary:
    """Edges of the parameterized triangle: major_edge[k] = c + k*d1, minor_edge[r] = c + r*d2."""
    return Boundary(params.c, *zip(*edges_from_params(params, n_rows)))


def edges_from_params(params: GrtParams, n_rows: int) -> Iterator[tuple[int, int]]:
    """The edges of ``boundary_from_params`` one row at a time: (c + n*d1, c + n*d2) for n < n_rows.

    The row iterators take these pairs as they take a ``Boundary``, so their
    first row comes at once, however many rows follow.
    """
    if n_rows < 1:
        raise ValueError(f"n_rows must be at least 1, got {n_rows}")
    return islice(zip(count(params.c, params.d1), count(params.c, params.d2)), n_rows)


def closed_form_rows(params: GrtParams, n_rows: int) -> Iterator[tuple[int, ...]]:
    """Rows 0..n_rows-1 of the closed form, one at a time, each grown from the one before.

    Major diagonal r steps by d1 + r*d, so interior cell r of row n is
    prev[r] + (d1 + r*d); the steps list grows one entry per row.
    """
    d1, d = params.d1, params.d
    steps: list[int] = []  # at row n: d1 + r*d for r = 1..n

    def interior(n: int, prev: tuple[int, ...], above: tuple[int, ...]) -> Iterable[int]:
        steps.append(d1 + n * d)
        return map(add, prev[1:], steps)

    return _grow_rows(edges_from_params(params, n_rows), interior)


def addition_rows(boundary: Iterable[tuple[int, int]], d: int) -> Iterator[tuple[int, ...]]:
    """Rows of the addition-rule triangle, south = east + west + d - north, one at a time.

    ``boundary`` is (major, minor) edge pairs, as a ``Boundary`` or
    ``edges_from_params`` yields them.  Total, zeros included, once the first
    pair is the apex twice (ValueError otherwise).
    """

    def interior(n: int, prev: tuple[int, ...], above: tuple[int, ...]) -> Iterable[int]:
        cells = map(sub, map(add, prev[1:], prev[:-1]), above)
        return map(add, cells, repeat(d)) if d else cells

    return _grow_rows(boundary, interior)


def multiplication_rows(boundary: Iterable[tuple[int, int]], mult: int) -> Iterator[tuple[int, ...]]:
    """Rows of the multiplication-rule triangle, south = (east*west + mult) / north, one at a time.

    ``boundary`` is as for ``addition_rows``.  Raises ZeroNorthError or
    InexactDivisionError naming the first cell, in row-major order, where the
    rule fails to produce an integer; every row before that one has been
    yielded.
    """

    def interior(n: int, prev: tuple[int, ...], above: tuple[int, ...]) -> Iterable[int]:
        products = map(mul, prev[1:], prev[:-1])
        numerators = list(map(add, products, repeat(mult)) if mult else products)
        if 0 not in above and not any(map(mod, numerators, above)):
            return map(floordiv, numerators, above)
        return _divide_cells(n, numerators, above)  # names the first failing cell

    return _grow_rows(boundary, interior)


def predict_multiplication_failure(params: GrtParams, n_rows: int) -> ZeroNorthError | None:
    """The error ``multiplication_rows`` raises on ``params``' own boundary and constant, or None.

    The closed form satisfies south*north = east*west + D with
    D = c*d - d1*d2, so while every north entry is nonzero the recurrence
    reproduces it, each division exact.  It fails at the first zero, in
    row-major order (least r + k, then least r), of closed-form rows
    0..n_rows-3 (the rows that are north of some cell): a zero T(r, k) stops
    the cell (r + 1, k + 1).  No row is built:

    * d = 0: T(r, k) = c + k*d1 + r*d2 is zero on a line, solved by the
      extended gcd in O(log) time (``_first_zero_on_line``).
    * d != 0 and D = 0: d*T(r, k) = (d*r + d1)(d*k + d2), so the zeros fill
      major diagonal r = -d1/d and minor diagonal k = -d2/d, where those are
      whole and nonnegative; the first is T(-d1/d, 0) or T(0, -d2/d).
    * d != 0 and D != 0: d*T(r, k) = (d*r + d1)(d*k + d2) + D, so a zero
      needs d*r + d1 to divide D, and none lies at r > (|D| + |d1|) / |d|.
      On major diagonal r, T(r, k) = (c + r*d2) + k*(d1 + r*d) is linear in
      k, so one division finds its first zero; the search takes
      O(min(rows, |D| / |d|)) time.
    """
    if n_rows < 1:
        raise ValueError(f"n_rows must be at least 1, got {n_rows}")
    c, d, d1, d2 = params.c, params.d, params.d1, params.d2
    mult = mult_constant(params)
    if not d:
        zero = _first_zero_on_line(c, d1, d2)
    elif not mult:
        zeros = [(-d1 // d, 0)] if d1 % d == 0 and d1 // d <= 0 else []
        if d2 % d == 0 and d2 // d <= 0:
            zeros.append((0, -d2 // d))
        zero = min(zeros, key=lambda z: (z[0] + z[1], z[0]), default=None)
    else:
        zero = None
        last = n_rows - 3  # the last row to search; shrinks to just above the first zero found
        diagonals = min(n_rows - 2, (abs(mult) + abs(d1)) // abs(d) + 1)  # majors 0..n_rows-3 hold the rows
        for r in range(diagonals):
            if r > last:  # T(r, k) lies in row r + k >= r
                break
            first, step = c + r * d2, d1 + r * d
            if not step:  # d*r + d1 = 0: d*T(r, k) = D on the whole diagonal
                continue
            k, remainder = divmod(-first, step)
            if remainder or k < 0:
                continue
            if r + k <= last:  # strictly above any earlier find, so a tie keeps the smaller r
                zero, last = (r, k), r + k - 1
    if zero is None or zero[0] + zero[1] > n_rows - 3:  # rows n_rows-2 and n_rows-1 are north of no cell
        return None
    return ZeroNorthError(zero[0] + 1, zero[1] + 1)


def _first_zero_on_line(c: int, d1: int, d2: int) -> tuple[int, int] | None:
    """The first (r, k), least r + k and then least r, with r, k >= 0 and c + k*d1 + r*d2 = 0; or None."""
    if not d1 and not d2:
        return (0, 0) if not c else None
    g, x, y = _extended_gcd(d2, d1)
    if c % g:
        return None
    # every solution: (r, k) = (r0 + t*p, k0 - t*q) for an integer t
    r0, k0, p, q = -c // g * x, -c // g * y, d1 // g, d2 // g
    lo = hi = None  # the t with r >= 0 and k >= 0: each of a*t + b >= 0 below bounds t on one side
    for a, b in ((p, r0), (-q, k0)):
        if a > 0:
            lo = -(b // a) if lo is None else max(lo, -(b // a))
        elif a < 0:
            hi = b // -a if hi is None else min(hi, b // -a)
        elif b < 0:
            return None
    if lo is not None and hi is not None and lo > hi:
        return None
    # r + k moves by p - q per step of t, and r by p; p and q are not both 0, and the
    # bound on the side that lowers them exists (p > q means p > 0 or q < 0, and so on)
    t = lo if (p - q or p) > 0 else hi
    return r0 + t * p, k0 - t * q


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        quotient, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - quotient * x1
        y0, y1 = y1, y0 - quotient * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


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
    edges: Iterable[tuple[int, int]],
    interior: Callable[[int, tuple[int, ...], tuple[int, ...]], Iterable[int]],
) -> Iterator[tuple[int, ...]]:
    """Yield row 0, then each row n as its two edge entries around ``interior(n, row n-1, row n-2)``.

    The edge pairs are read one row at a time, the first must be the apex
    twice, and only the last two rows are kept.  Position r of row n is
    T(r, n - r), so the interior cell at position r has east = prev[r],
    west = prev[r - 1] and north = above[r - 1]; row 1 has no interior.
    """
    above: tuple[int, ...] = ()
    prev: tuple[int, ...] = ()
    for n, (major, minor) in enumerate(edges):
        if not n and major != minor:
            raise ValueError("both edges must start at the apex")
        above, prev = prev, ((major, *interior(n, prev, above), minor) if n else (major,))
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
