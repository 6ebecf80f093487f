"""Classify raw triangles: arithmetic diagonals, parameter fitting, rule detection.

All scans run in row-major order (increasing row, then increasing position
from the left), so counterexamples and witnesses are deterministic.

A triangle is generalized Rascal exactly when it equals the closed form of
the parameters fitted from its rows 0-2, and then every diagonal is
arithmetic and every diamond implies the fitted rule constants.  So one
pass over the rows answers every analysis at once: it compares whole rows
with the closed form, and from the first row that differs it checks only the
diagonals still arithmetic, and each rule up to its first conflict.  Each
closed-form row is drawn once from one ``closed_form_rows`` stream, before
its row is read, and sent to the row source when that is a generator: the
row parsers of ``triangle_io`` give the same tuple back when the row's text
is the writer's text of it, so the closed-form prefix of a file is matched
on its text, with no int() and no comparison.
``Classification`` is the one record of that pass; ``fit_grt``,
``diagonal_reports`` and the rule detectors are one-line reads of
``classify`` and run the whole pass.

The pass trusts its rows: each is checked once, by the layer that made it.
``TriangleGrid`` checks the rows of ``classify(grid)``, the row parsers of
``triangle_io`` check the rows the CLI reads, and ``classify_rows`` checks
any other rows with ``checked_row``.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from itertools import count, islice
from operator import invert, itemgetter, mul, sub

from .core import GrtParams, Record, TriangleGrid, checked_row
from .generate import closed_form_rows, mult_constant

VERDICT_GRT = "grt"
VERDICT_ADDITION_ONLY = "addition-only"
VERDICT_MULTIPLICATION_ONLY = "multiplication-only"
VERDICT_NEITHER = "neither"


class TooSmallError(ValueError):
    """Grid has fewer than 3 rows: no interior diamond, and too few rows to fit the parameters."""


class NotGrtError(ValueError):
    """Grid disagrees with the closed form; carries the first mismatching cell."""

    def __init__(self, r: int, k: int, expected: int, actual: int):
        super().__init__(
            f"entry (r={r}, k={k}) is {actual}, but the parameters fitted from "
            f"rows 0-2 predict {expected}"
        )
        self.r = r
        self.k = k
        self.expected = expected
        self.actual = actual


class DiagonalReport(Record):
    """Arithmetic-sequence analysis of one stored diagonal.

    Exactly one of ``common_difference`` / ``first_violation`` is set for
    diagonals with at least 3 entries.  Shorter diagonals are vacuously
    arithmetic: they always carry a common difference (0 for singletons) and
    ``under_determined`` is flagged so callers can weigh the evidence.
    """

    kind: str  # "major" or "minor"
    index: int
    first_term: int
    common_difference: int | None
    first_violation: tuple[int, int, int] | None  # (position, expected, actual)
    under_determined: bool


class RuleWitness(Record):
    """One diamond, named by its south cell, and the rule constant it implies."""

    r: int
    k: int
    implied_constant: int


class RuleReport(Record):
    """Either the single constant every diamond implies, or two diamonds that disagree."""

    rule: str  # "addition" or "multiplication"
    constant: int | None
    witnesses: tuple[RuleWitness, RuleWitness] | None

    def __post_init__(self) -> None:
        if (self.constant is None) == (self.witnesses is None):
            raise ValueError("exactly one of constant / witnesses must be present")


class Classification(Record):
    """Verdict plus the evidence it rests on.

    ``params`` is set exactly when the verdict is "grt", and ``mismatch``
    exactly when it is not: the first entry, row-major, that differs from the
    closed form of the parameters fitted from rows 0-2, as NotGrtError's
    ``(r, k, expected, actual)``.  The rule constants, when detected, live
    in the two rule reports.
    """

    verdict: str
    params: GrtParams | None
    mismatch: tuple[int, int, int, int] | None
    diagonals: tuple[DiagonalReport, ...]
    addition: RuleReport
    multiplication: RuleReport


def diagonal_reports(grid: TriangleGrid) -> list[DiagonalReport]:
    """One report per major diagonal and per minor diagonal, in index order.

    ``classify(grid).diagonals``, except that it also answers below 3 rows.
    """
    return list(_fold(grid.rows).diagonals)


def fit_grt(grid: TriangleGrid) -> GrtParams:
    """``classify(grid).params``, or NotGrtError at ``classify(grid).mismatch`` when there is one.

    The parameters are those rows 0-2 determine: c = T(0,0),
    d1 = T(0,1) - T(0,0), d2 = T(1,0) - T(0,0) and
    d = T(1,1) - T(0,1) - T(1,0) + T(0,0).  Raises TooSmallError below 3 rows.
    """
    result = classify(grid)
    if result.mismatch is not None:
        raise NotGrtError(*result.mismatch)
    return result.params


def detect_addition_rule(grid: TriangleGrid) -> RuleReport:
    """Constant d with south = east + west + d - north over every interior diamond.

    ``classify(grid).addition``.
    """
    return classify(grid).addition


def detect_multiplication_rule(grid: TriangleGrid) -> RuleReport:
    """Constant D with south*north = east*west + D over every interior diamond.

    ``classify(grid).multiplication``.  The multiplicative form needs no
    division, so zero entries cannot crash the scan; on triangles without
    zeros it coincides with the quotient rule.
    """
    return classify(grid).multiplication


def classify(grid: TriangleGrid) -> Classification:
    """Run diagonal analysis, fitting, and both rule detectors; combine verdicts.

    Verdict "grt" exactly when no entry breaks the fit; "addition-only" or
    "multiplication-only" when exactly one detector finds a constant;
    "neither" otherwise: neither rule, or both on a triangle that is not a
    closed form.
    """
    return classify_checked_rows(grid.rows)


def classify_rows(rows: Iterable[Sequence[int]]) -> Classification:
    """``classify`` of the triangle whose rows ``rows`` yields, read once, in order.

    Holds O(rows) integers whatever the triangle's size, so a caller that
    produces rows one at a time (a parser reading a file, a generator) never
    needs the whole triangle.  Each row is checked as ``TriangleGrid`` checks
    it, with the same ValueError or TypeError.
    """
    return classify_checked_rows(map(checked_row, count(), rows))


def classify_checked_rows(rows: Iterable[tuple[int, ...]]) -> Classification:
    """``classify_rows`` of rows already checked: row n a tuple of n + 1 ints, as ``checked_row`` returns it.

    The rows of a ``TriangleGrid`` and of the row parsers (``triangle_rows``,
    ``plain_rows``, ``json_rows``) are; other rows, such as lists, would be
    misread, and go through ``classify_rows``.  A generator of rows is sent,
    by ``send``, the closed form's next row once rows 0-2 have fixed it, and
    may yield that same tuple back to mean that row.
    """
    folded = _fold(rows)
    params = folded.params
    if params is None:
        raise TooSmallError(f"rule detection needs at least 3 rows, got {folded.n_rows}")
    addition = _rule_report("addition", params.d, folded.addition)
    multiplication = _rule_report("multiplication", mult_constant(params), folded.multiplication)
    if folded.mismatch is None:
        return Classification(VERDICT_GRT, params, None, folded.diagonals, addition, multiplication)
    if addition.constant is not None and multiplication.constant is None:
        verdict = VERDICT_ADDITION_ONLY
    elif multiplication.constant is not None and addition.constant is None:
        verdict = VERDICT_MULTIPLICATION_ONLY
    else:
        verdict = VERDICT_NEITHER
    return Classification(verdict, None, folded.mismatch, folded.diagonals, addition, multiplication)


class _Folded(Record):
    """What one pass over the rows found: below 3 rows only the diagonals, so not a Classification."""

    n_rows: int
    params: GrtParams | None
    mismatch: tuple[int, int, int, int] | None
    diagonals: tuple[DiagonalReport, ...]
    addition: RuleWitness | None  # the first diamond that breaks the rule
    multiplication: RuleWitness | None


def _fold(rows: Iterable[tuple[int, ...]]) -> _Folded:
    """Read the checked rows once, in order, keeping only what the reports need.

    Rows 0-2 fix the parameters and start one ``closed_form_rows`` stream;
    each row is compared with the row drawn from it until the first that
    differs (the mismatch).  Row n + 1 is drawn, by ``next()``, after row n
    matches, and sent to a generator of rows before it yields row n + 1; a
    row that is that tuple matches.  Up to the
    mismatch every diagonal is arithmetic and every diamond implies ``d`` and
    ``c*d - d1*d2``, the constants of the first diamond, (1, 1).  From that
    row on, each family's work per row follows its diagonals still
    arithmetic: their steps into the row are gathered (by one slice while
    they are consecutive) and compared with their first steps in one list
    comparison, and the diagonals are walked one by one only in a row where
    that comparison fails.  Each rule is checked by whole-row vectors, the
    addition rule's differences and the multiplication rule's products, only
    until its first conflict: the first diamond that implies another
    constant answers it.

    Held at any time: the last two rows, the first two entries of every
    diagonal (major r: rows[r][r] and rows[r + 1][r]; minor k: rows[k][0]
    and rows[k + 1][1]), each family's diagonals still arithmetic with their
    first steps, and, until the addition rule's first conflict, the last
    row's steps of every minor.
    """
    major_first, major_second, minor_first, minor_second = [], [], [], []
    majors: dict[int, tuple[int, int, int]] = {}  # a diagonal's index -> its first violation
    minors: dict[int, tuple[int, int, int]] = {}
    # each family's diagonals still arithmetic among those with a third entry in a row read so far,
    # in index order, and the first step of each
    live_majors, major_steps, live_minors, minor_steps = [], [], [], []
    params = mismatch = add_conflict = mult_conflict = expected = None
    prev2 = prev = across_prev = ()
    rows = iter(rows)
    send = getattr(rows, "send", None) or (lambda _: next(rows))  # an iterator that is no generator takes nothing
    for n in count():
        try:
            row = send(expected)
        except StopIteration:
            break
        major_first.append(row[n])
        minor_first.append(row[0])
        if n:
            major_second.append(row[n - 1])
            minor_second.append(row[1])
        if n >= 2:
            live_majors.append(n - 2)
            major_steps.append(major_second[n - 2] - major_first[n - 2])
            live_minors.append(n - 2)
            minor_steps.append(minor_second[n - 2] - minor_first[n - 2])
        if n == 2:
            params = _fitted(prev2, prev, row)
            d_mult = mult_constant(params)
            closed = islice(closed_form_rows(params, sys.maxsize), 2, None)  # rows 0-1 match the fit
            expected = next(closed)
        if expected is not None:
            if row is expected or row == expected:
                expected = next(closed)
            else:
                r = next(r for r, value in enumerate(row) if value != expected[r])
                mismatch = (r, n - r, expected[r], row[r])
                across_prev = list(map(sub, prev[1:], prev2))
                expected = None
        if mismatch is not None:
            live_majors, major_steps = _still_arithmetic(
                live_majors, major_steps, n, row, prev, majors, mirrored=False
            )
            live_minors, minor_steps = _still_arithmetic(
                live_minors, minor_steps, n, row, prev, minors, mirrored=True
            )
            if add_conflict is None:
                across = list(map(sub, row[1:], prev))  # across[j]: minor (n - 1 - j)'s step into row n
                add_conflict = _conflict(list(map(sub, across, across_prev)), params.d, n)
                across_prev = across
            if mult_conflict is None:
                implied = map(sub, map(mul, row[1:], prev2), map(mul, prev[1:], prev))
                mult_conflict = _conflict(list(implied), d_mult, n)
        prev2, prev = prev, row
    reports = _diagonal_reports("major", major_first, major_second, majors)
    reports += _diagonal_reports("minor", minor_first, minor_second, minors)
    return _Folded(n, params, mismatch, tuple(reports), add_conflict, mult_conflict)


def _fitted(row0, row1, row2) -> GrtParams:
    """The parameters rows 0-2 determine (see fit_grt)."""
    c = row0[0]
    return GrtParams(c, row2[1] - row1[0] - row1[1] + c, row1[0] - c, row1[1] - c)


def _still_arithmetic(live, steps, n, row, prev, violations, mirrored):
    """The diagonals of ``live`` whose step into row n is their first step, with those steps.

    ``steps[i]`` is the first step of diagonal ``live[i]``; each other
    diagonal's first violation goes into ``violations``.  Major r is at index
    r of every row, and minor k, k places from the right end, at index ~k
    (= -1 - k) when ``mirrored``.
    """
    if not live:
        return live, steps
    first, last = live[0], live[-1]
    if last - first == len(live) - 1:  # one run of consecutive diagonals: a slice, leftwards for minors
        cells = slice(~first, ~last - 1, -1) if mirrored else slice(first, last + 1)
        current = list(map(sub, row[cells], prev[cells]))
    else:
        cells = itemgetter(*map(invert, live)) if mirrored else itemgetter(*live)
        current = list(map(sub, cells(row), cells(prev)))
    if current == steps:
        return live, steps
    kept, kept_steps = [], []
    for i, step, now in zip(live, steps, current):
        if now == step:
            kept.append(i)
            kept_steps.append(step)
        else:
            j = ~i if mirrored else i
            violations[i] = (n - i, prev[j] + step, row[j])
    return kept, kept_steps


def _conflict(implied: list[int], constant: int, n: int) -> RuleWitness | None:
    """The first diamond of row n, left to right, that implies another constant.

    ``implied[j]`` belongs to the diamond whose south cell is (r=j+1, k=n-1-j).
    """
    if implied.count(constant) == len(implied):
        return None
    j = next(j for j, value in enumerate(implied) if value != constant)
    return RuleWitness(j + 1, n - 1 - j, implied[j])


def _rule_report(rule: str, constant: int, conflict: RuleWitness | None) -> RuleReport:
    if conflict is None:
        return RuleReport(rule, constant, None)
    return RuleReport(rule, None, (RuleWitness(1, 1, constant), conflict))


def _diagonal_reports(kind, firsts, seconds, violations) -> list[DiagonalReport]:
    """Reports of one family from each diagonal's first two entries and its violation, if any."""
    last = len(firsts) - 1
    return [
        _diagonal_report(
            kind, i, first, seconds[i] if i < last else None, violations.get(i), last - i
        )
        for i, first in enumerate(firsts)
    ]


def _diagonal_report(kind, index, first, second, violation, steps) -> DiagonalReport:
    """``steps`` is the diagonal's length minus one; ``second`` is None when it is 0."""
    if violation is not None:
        return DiagonalReport(kind, index, first, None, violation, False)
    if second is None:
        return DiagonalReport(kind, index, first, 0, None, True)
    return DiagonalReport(kind, index, first, second - first, None, steps < 2)
