"""Classify raw triangles: arithmetic diagonals, parameter fitting, rule detection.

All scans run in row-major order (increasing row, then increasing position
from the left), so counterexamples and witnesses are deterministic.

A triangle is generalized Rascal exactly when it equals the closed form of
the parameters fitted from its rows 0-2, and then every diagonal is
arithmetic and every diamond implies the fitted rule constants.  So each
analysis first compares whole rows with the closed form, and checks cell by
cell only from the first row that differs.  That check is one pass over the
remaining rows, made of whole-row differences and products.
"""

from __future__ import annotations

from operator import mul, sub

from .core import GrtParams, Record, TriangleGrid, closed_form_row
from .generate import mult_constant

VERDICT_GRT = "grt"
VERDICT_ADDITION_ONLY = "addition-only"
VERDICT_MULTIPLICATION_ONLY = "multiplication-only"
VERDICT_NEITHER = "neither"


class TooSmallError(ValueError):
    """Grid has no interior diamond (fewer than 3 rows)."""


class UnderDeterminedError(ValueError):
    """Grid has too few rows to pin down all four parameters."""


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

    @property
    def is_arithmetic(self) -> bool:
        return self.common_difference is not None


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

    ``params`` is set exactly when the verdict is "grt"; the rule constants,
    when detected, live in the two rule reports.
    """

    verdict: str
    params: GrtParams | None
    diagonals: tuple[DiagonalReport, ...]
    addition: RuleReport
    multiplication: RuleReport


def diagonal_reports(grid: TriangleGrid) -> list[DiagonalReport]:
    """One report per major diagonal and per minor diagonal, in index order."""
    rows = grid.rows
    start = _closed_form_prefix(rows, _fitted(rows)) if len(rows) >= 3 else len(rows)
    majors, minors, _, _ = _scan(rows, start)
    return _diagonal_reports(rows, majors, minors)


def fit_grt(grid: TriangleGrid) -> GrtParams:
    """Fit (c, d, d1, d2) from rows 0-2 and verify every entry against the closed form.

    c = T(0,0), d1 = T(0,1) - T(0,0), d2 = T(1,0) - T(0,0) and
    d = T(1,1) - T(0,1) - T(1,0) + T(0,0); the smallest prefix that
    determines all four.  Raises UnderDeterminedError below 3 rows and
    NotGrtError at the first entry (row-major) that breaks the fit.
    """
    if grid.n_rows < 3:
        raise UnderDeterminedError(
            f"need at least 3 rows to determine the parameters, got {grid.n_rows}"
        )
    rows = grid.rows
    params = _fitted(rows)
    n = _closed_form_prefix(rows, params)
    if n < len(rows):
        expected = closed_form_row(params, n)
        r = next(r for r, value in enumerate(rows[n]) if value != expected[r])
        raise NotGrtError(r, n - r, expected[r], rows[n][r])
    return params


def detect_addition_rule(grid: TriangleGrid) -> RuleReport:
    """Constant d with south = east + west + d - north over every interior diamond."""
    params, start = _fit_prefix(grid)
    _, _, conflict, _ = _scan(grid.rows, start, addition=params.d)
    return _rule_report("addition", params.d, conflict)


def detect_multiplication_rule(grid: TriangleGrid) -> RuleReport:
    """Constant D with south*north = east*west + D over every interior diamond.

    The multiplicative form needs no division, so zero entries cannot crash
    the scan; on triangles without zeros it coincides with the quotient rule.
    """
    params, start = _fit_prefix(grid)
    constant = mult_constant(params)
    _, _, _, conflict = _scan(grid.rows, start, multiplication=constant)
    return _rule_report("multiplication", constant, conflict)


def classify(grid: TriangleGrid) -> Classification:
    """Run diagonal analysis, fitting, and both rule detectors; combine verdicts.

    Verdict "grt" exactly when the fit succeeds; "addition-only" or
    "multiplication-only" when exactly one detector finds a constant;
    "neither" otherwise.
    """
    params, start = _fit_prefix(grid)
    rows = grid.rows
    majors, minors, add_conflict, mult_conflict = _scan(
        rows, start, addition=params.d, multiplication=mult_constant(params)
    )
    diagonals = tuple(_diagonal_reports(rows, majors, minors))
    addition = _rule_report("addition", params.d, add_conflict)
    multiplication = _rule_report("multiplication", mult_constant(params), mult_conflict)
    if start == len(rows):
        return Classification(VERDICT_GRT, params, diagonals, addition, multiplication)
    if addition.constant is not None and multiplication.constant is None:
        verdict = VERDICT_ADDITION_ONLY
    elif multiplication.constant is not None and addition.constant is None:
        verdict = VERDICT_MULTIPLICATION_ONLY
    else:
        verdict = VERDICT_NEITHER
    return Classification(verdict, None, diagonals, addition, multiplication)


def _fitted(rows) -> GrtParams:
    """The parameters rows 0-2 determine (see fit_grt)."""
    c = rows[0][0]
    return GrtParams(c, rows[2][1] - rows[1][0] - rows[1][1] + c, rows[1][0] - c, rows[1][1] - c)


def _closed_form_prefix(rows, params: GrtParams) -> int:
    """The number of leading rows equal to the closed form of ``params``."""
    for n, row in enumerate(rows):
        if row != closed_form_row(params, n):
            return n
    return len(rows)


def _fit_prefix(grid: TriangleGrid) -> tuple[GrtParams, int]:
    """Fitted parameters and the closed-form prefix; the grid must have a diamond."""
    if grid.n_rows < 3:
        raise TooSmallError(f"rule detection needs at least 3 rows, got {grid.n_rows}")
    params = _fitted(grid.rows)
    return params, _closed_form_prefix(grid.rows, params)


def _scan(rows, start: int, addition: int | None = None, multiplication: int | None = None):
    """Check rows ``start``.. in one pass; returns (majors, minors, addition, multiplication).

    Rows before ``start`` must equal the closed form fitted from rows 0-2
    (``start`` >= 2), so up to there every diagonal is arithmetic and every
    diamond implies ``d`` and ``c*d - d1*d2``: the first diamond, (1, 1),
    implies exactly those.  ``majors`` and ``minors`` map a diagonal's index
    to its first violation.  ``addition`` and ``multiplication`` are the
    constants to hold each rule to (None skips the rule); each is answered by
    the first diamond that implies another constant, or None.

    Row n is compared with row n - 1 by two difference vectors: ``down[r]``
    is major r's step into row n and ``across[j]`` minor (n - 1 - j)'s.  A
    diagonal stays arithmetic while its step repeats, so a family is checked
    cell by cell only in a row whose vector differs from the previous one, and
    then only at the diagonals that have not failed yet.
    """
    majors: dict[int, tuple[int, int, int]] = {}
    minors: dict[int, tuple[int, int, int]] = {}
    add_conflict = mult_conflict = None
    if start >= len(rows):
        return majors, minors, add_conflict, mult_conflict
    # diagonals whose third entry lies above row ``start``, all arithmetic so far
    active_majors = list(range(start - 2))
    active_minors = list(range(start - 2))
    prev2, prev = rows[start - 2], rows[start - 1]
    down_prev = list(map(sub, prev, prev2))
    across_prev = list(map(sub, prev[1:], prev2))
    for n in range(start, len(rows)):
        row = rows[n]
        down = list(map(sub, row, prev))
        across = list(map(sub, row[1:], prev))
        active_majors.append(n - 2)
        active_minors.append(n - 2)
        if down[:-1] != down_prev:
            active_majors = _check_steps(
                active_majors, n, row, prev, down, down_prev, majors, mirrored=False
            )
        if across[1:] != across_prev:
            active_minors = _check_steps(
                active_minors, n, row, prev, across, across_prev, minors, mirrored=True
            )
        if addition is not None and add_conflict is None:
            add_conflict = _conflict(list(map(sub, across, across_prev)), addition, n)
        if multiplication is not None and mult_conflict is None:
            implied = map(sub, map(mul, row[1:], prev2), map(mul, prev[1:], prev))
            mult_conflict = _conflict(list(implied), multiplication, n)
        prev2, prev, down_prev, across_prev = prev, row, down, across
    return majors, minors, add_conflict, mult_conflict


def _check_steps(active, n, row, prev, steps, steps_prev, violations, mirrored) -> list[int]:
    """Record in ``violations`` each active diagonal whose step into row n breaks; return the rest.

    Major r is at index r of every row and step vector.  Minor k is k places
    from the right end of each, at index ~k (= -1 - k) when ``mirrored``.
    """
    kept = []
    for i in active:
        j = ~i if mirrored else i
        if steps[j] == steps_prev[j]:
            kept.append(i)
        else:
            violations[i] = (n - i, prev[j] + steps_prev[j], row[j])
    return kept


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


def _diagonal_reports(rows, majors, minors) -> list[DiagonalReport]:
    """Reports from each diagonal's first two entries and its violation, if any."""
    last = len(rows) - 1
    reports = [
        _diagonal_report(
            "major", r, rows[r][r], rows[r + 1][r] if r < last else None, majors.get(r), last - r
        )
        for r in range(last + 1)
    ]
    reports += [
        _diagonal_report(
            "minor", k, rows[k][0], rows[k + 1][1] if k < last else None, minors.get(k), last - k
        )
        for k in range(last + 1)
    ]
    return reports


def _diagonal_report(kind, index, first, second, violation, steps) -> DiagonalReport:
    """``steps`` is the diagonal's length minus one; ``second`` is None when it is 0."""
    if violation is not None:
        return DiagonalReport(kind, index, first, None, violation, False)
    if second is None:
        return DiagonalReport(kind, index, first, 0, None, True)
    return DiagonalReport(kind, index, first, second - first, None, steps < 2)
