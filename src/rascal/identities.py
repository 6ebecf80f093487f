"""Exact checks for the structural identities of parameterized triangles.

Each ``*_check`` evaluates one concrete instance and reports holds / first
failure; means are compared as exact fractions, never floats.  Each
``*_sweep`` walks a check's whole index domain up to a depth, in a fixed
order, and reports how many instances it evaluated and the first that fails.
A sweep reads entries from major diagonals ``T(r, 0..)`` built by additions,
keeps only the few diagonals its current ``r`` needs, and tests every
instance with exact integer arithmetic (means as cross-products), many
instances per list operation; the failing instance, if any, is rebuilt with
the per-instance check so its report reads the same.

The checks accept an ``entry`` override (an ``(r, k) -> int`` source) and the
sweeps a ``diagonal`` override (an ``(r, count) -> [T(r, 0), ...]`` source),
so tests can feed perturbed values and confirm that both bite; by default
entries come from the closed form.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import accumulate, repeat
from operator import add, sub

from .core import Diamond, GrtParams, Record, closed_form_entry, closed_form_row, major_diagonal

EntryFn = Callable[[int, int], int]
DiagonalFn = Callable[[int, int], Sequence[int]]


class InapplicableCheckError(ValueError):
    """The identity's domain restriction rules out these parameters."""


class IdentityCheck(Record):
    """Outcome of one identity instance; ``first_failure`` is (location, lhs, rhs)."""

    name: str
    holds: bool
    first_failure: tuple | None


class IdentitySweep(Record):
    """Outcome of one sweep: instances evaluated (a failing one included) and the first failure.

    ``values`` holds what a report lists per instance (the row sums of
    ``row_sum_sweep``); it is empty for the other sweeps.
    """

    name: str
    instances: int
    failure: IdentityCheck | None
    values: tuple = ()


def _result(name: str, location: tuple, lhs, rhs) -> IdentityCheck:
    if lhs == rhs:
        return IdentityCheck(name, True, None)
    return IdentityCheck(name, False, (location, lhs, rhs))


def _entry_fn(params: GrtParams, entry: EntryFn | None) -> EntryFn:
    if entry is not None:
        return entry
    return lambda r, k: closed_form_entry(params, r, k)


def row_sum_formula(params: GrtParams, n: int) -> int:
    """Row sum s_n = (d/6)n^3 + ((d1+d2)/2)n^2 + (c + (d1+d2)/2 - d/6)n + c.

    Evaluated as one exact integer division by 6.  The result is integral for
    every integer parameter choice; a non-integral value would mean a broken
    invariant, not bad input, and raises ArithmeticError.
    """
    if n < 0:
        raise ValueError(f"row index must be nonnegative, got {n}")
    c, d, d1, d2 = params.c, params.d, params.d1, params.d2
    numerator = d * n**3 + 3 * (d1 + d2) * n**2 + (6 * c + 3 * (d1 + d2) - d) * n + 6 * c
    value, remainder = divmod(numerator, 6)
    if remainder:
        from fractions import Fraction

        raise ArithmeticError(
            f"row sum for n={n} came out non-integral: {Fraction(numerator, 6)}"
        )
    return value


def odd_diamond_check(
    params: GrtParams, top_r: int, top_k: int, half: int, entry: EntryFn | None = None
) -> IdentityCheck:
    """Mean of the 8*half rim entries of a (2*half + 1)-side diamond equals its center entry."""
    from fractions import Fraction

    if half < 1:
        raise ValueError(f"half must be at least 1, got {half}")
    t = _entry_fn(params, entry)
    rim = Diamond(top_r, top_k, 2 * half + 1).boundary_cells()
    mean = Fraction(sum(t(r, k) for r, k in rim), len(rim))
    center = t(top_r + half, top_k + half)
    return _result("odd-diamond", (top_r, top_k, half), mean, Fraction(center))


def even_diamond_check(
    params: GrtParams, top_r: int, top_k: int, n: int, entry: EntryFn | None = None
) -> IdentityCheck:
    """Rim mean of the 2n-side diamond around an inner 2-diamond equals the inner 4-cell mean.

    ``(top_r, top_k)`` names the top of the inner 2-diamond; both indices must
    be at least n - 1 so the outer diamond, whose top sits n - 1 cells up-left,
    stays inside the triangle.  The outer rim has 8n - 4 entries.
    """
    from fractions import Fraction

    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if top_r < n - 1 or top_k < n - 1:
        raise ValueError(
            f"outer diamond needs top_r, top_k >= {n - 1}, got ({top_r}, {top_k})"
        )
    t = _entry_fn(params, entry)
    inner = [(top_r, top_k), (top_r + 1, top_k), (top_r, top_k + 1), (top_r + 1, top_k + 1)]
    inner_mean = Fraction(sum(t(r, k) for r, k in inner), 4)
    outer = Diamond(top_r - (n - 1), top_k - (n - 1), 2 * n).boundary_cells()
    outer_mean = Fraction(sum(t(r, k) for r, k in outer), len(outer))
    return _result("even-diamond", (top_r, top_k, n), outer_mean, inner_mean)


def ashley_check(
    params: GrtParams, r: int, k: int, entry: EntryFn | None = None
) -> IdentityCheck:
    """T(r,k) = T(r-1,k) + T(r,k-1) - T(r-2,k-1) + ((2-k)*d - d2), for r >= 2, k >= 1."""
    if r < 2 or k < 1:
        raise ValueError(f"needs r >= 2 and k >= 1, got (r={r}, k={k})")
    t = _entry_fn(params, entry)
    rhs = t(r - 1, k) + t(r, k - 1) - t(r - 2, k - 1) + ((2 - k) * params.d - params.d2)
    return _result("ashley", (r, k), t(r, k), rhs)


def ashley_mod_check(
    params: GrtParams, variant: int, r: int, k: int, entry: EntryFn | None = None
) -> IdentityCheck:
    """Three 5-term rewrites that drop the (2-k)*d - d2 correction term.

    variant 1 (r >= 3, k >= 2):
        T(r,k) = T(r-1,k) + T(r,k-1) - T(r-2,k-1) - T(r-2,k-2) + T(r-3,k-2)
    variant 2 (r, k >= 3):
        T(r,k) = T(r,k-1) + T(r-1,k-1) - T(r-2,k-2) - T(r-2,k-3) + T(r-3,k-3)
    variant 3 (r, k >= 3):
        T(r,k) = T(r-1,k) + T(r-1,k-1) - T(r-2,k-2) - T(r-3,k-2) + T(r-3,k-3)
    """
    t = _entry_fn(params, entry)
    if variant == 1:
        if r < 3 or k < 2:
            raise ValueError(f"variant 1 needs r >= 3 and k >= 2, got (r={r}, k={k})")
        rhs = t(r - 1, k) + t(r, k - 1) - t(r - 2, k - 1) - t(r - 2, k - 2) + t(r - 3, k - 2)
    elif variant == 2:
        if r < 3 or k < 3:
            raise ValueError(f"variant 2 needs r >= 3 and k >= 3, got (r={r}, k={k})")
        rhs = t(r, k - 1) + t(r - 1, k - 1) - t(r - 2, k - 2) - t(r - 2, k - 3) + t(r - 3, k - 3)
    elif variant == 3:
        if r < 3 or k < 3:
            raise ValueError(f"variant 3 needs r >= 3 and k >= 3, got (r={r}, k={k})")
        rhs = t(r - 1, k) + t(r - 1, k - 1) - t(r - 2, k - 2) - t(r - 3, k - 2) + t(r - 3, k - 3)
    else:
        raise ValueError(f"variant must be 1, 2 or 3, got {variant}")
    return _result(f"ashley-mod{variant}", (r, k), t(r, k), rhs)


def column_diff_check(
    params: GrtParams, r: int, k: int, entry: EntryFn | None = None
) -> IdentityCheck:
    """T(r,k) - T(r-1,k+1) and T(r-1,k-1) - T(r-2,k) both equal d2 - d1 + (k-r+1)*d."""
    if r < 2 or k < 1:
        raise ValueError(f"needs r >= 2 and k >= 1, got (r={r}, k={k})")
    t = _entry_fn(params, entry)
    expected = params.d2 - params.d1 + (k - r + 1) * params.d
    for lhs in (t(r, k) - t(r - 1, k + 1), t(r - 1, k - 1) - t(r - 2, k)):
        if lhs != expected:
            return IdentityCheck("column-diff", False, ((r, k), lhs, expected))
    return IdentityCheck("column-diff", True, None)


def t_meg_check(
    params: GrtParams, r: int, k: int, entry: EntryFn | None = None
) -> IdentityCheck:
    """T(r,k) = T(r-1,k-1) + T(0,r+k-2) + T(1,r+k-3) + 2*(d - c), for r >= 1, k >= 2.

    Only defined on triangles with d1 = d2 = 0 (entries c + r*k*d); calling it
    with other parameters raises InapplicableCheckError.
    """
    _require_tmeg_params(params)
    if r < 1 or k < 2:
        raise ValueError(f"needs r >= 1 and k >= 2, got (r={r}, k={k})")
    t = _entry_fn(params, entry)
    rhs = t(r - 1, k - 1) + t(0, r + k - 2) + t(1, r + k - 3) + 2 * (params.d - params.c)
    return _result("tmeg", (r, k), t(r, k), rhs)


def _require_tmeg_params(params: GrtParams) -> None:
    if params.d1 != 0 or params.d2 != 0:
        raise InapplicableCheckError(
            f"needs d1 = d2 = 0, got d1={params.d1}, d2={params.d2}"
        )


def embed_in_rascal(params: GrtParams, window: int = 10) -> tuple[int, int] | None:
    """Offset (r0, k0) at which this triangle sits inside R(r, k) = 1 + r*k, or None.

    An embedding exists exactly when d = 1, c - d1*d2 = 1, and the offsets
    (d1, d2) are valid indices; the window equality T(r, k) = 1 + (d1+r)(d2+k)
    is verified over ``window`` x ``window`` cells before the offset is
    returned, one major diagonal r at a time against the arithmetic sequence
    with first term 1 + (d1+r)*d2 and step d1 + r.  Algebraic matches at
    negative offsets are not embeddings.
    """
    if params.d != 1 or params.c - params.d1 * params.d2 != 1:
        return None
    if params.d1 < 0 or params.d2 < 0:
        return None
    r0, k0 = params.d1, params.d2
    for r in range(window):
        step = r0 + r
        rascal = list(accumulate(repeat(step, window - 1), initial=1 + step * k0))
        if major_diagonal(params, r, window) != rascal:
            return None
    return (r0, k0)


def multiple_of_rascal(params: GrtParams) -> int | None:
    """Scalar m with T(r,k) = m*(1 + r*k); exists exactly when d = c and d1 = d2 = 0."""
    if params.d == params.c and params.d1 == 0 and params.d2 == 0:
        return params.c
    return None


# --- sweeps --------------------------------------------------------------


def _diagonal_source(params: GrtParams, depth: int, diagonal: DiagonalFn | None) -> DiagonalFn:
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if diagonal is not None:
        return diagonal
    return lambda r, count: major_diagonal(params, r, count)


def _first_mismatch(values: list, expected: list) -> int:
    return next(i for i, (a, b) in enumerate(zip(values, expected)) if a != b)


def _rim_sums(lines: list[Sequence[int]], side: int, width: int):
    """Rim sums of the diamonds with corners lines[0][k] and lines[side][k + side], k < width.

    Top and bottom edges are windows of prefix sums; the diagonals between
    contribute their entries at k and k + side.
    """
    edges = list(accumulate(map(add, lines[0], lines[side]), initial=0))
    middle = list(map(sum, zip(*lines[1:side]))) if side > 1 else [0] * len(lines[0])
    return map(add, map(sub, edges[side + 1 :], edges[:width]), map(add, middle, middle[side:]))


def row_sum_sweep(params: GrtParams, depth: int) -> IdentitySweep:
    """row_sum_formula against the summed closed-form row, for n = 0..depth.

    ``values`` holds the row sums up to the first failure.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    sums = []
    for n in range(depth + 1):
        direct = sum(closed_form_row(params, n))
        formula = row_sum_formula(params, n)
        if formula != direct:
            failure = IdentityCheck("rowsums", False, ((n,), formula, direct))
            return IdentitySweep("rowsums", n + 1, failure, tuple(sums))
        sums.append(direct)
    return IdentitySweep("rowsums", depth + 1, None, tuple(sums))


def odd_diamond_sweep(
    params: GrtParams, depth: int, diagonal: DiagonalFn | None = None
) -> IdentitySweep:
    """odd_diamond_check for half = 1, 2, 3 (outermost), then top_r and top_k in 0..depth.

    A rim mean equals the centre exactly when rim_sum == 8*half * centre,
    tested for every top_k of one top_r at once.
    """
    diagonal = _diagonal_source(params, depth, diagonal)
    width = depth + 1  # top_k = 0..depth
    count = 0
    lines: list[Sequence[int]] = []  # diagonals top_r..top_r + side
    for half in (1, 2, 3):
        side = 2 * half  # a rim edge spans side + 1 cells
        length = width + side
        lines.clear()
        for top_r in range(width):
            while len(lines) <= side:
                lines.append(diagonal(top_r + len(lines), length))
            rims = list(_rim_sums(lines, side, width))
            centres = [8 * half * v for v in lines[half][half : half + width]]
            if rims != centres:
                top_k = _first_mismatch(rims, centres)
                failure = odd_diamond_check(
                    params, top_r, top_k, half, lambda r, k: lines[r - top_r][k]
                )
                return IdentitySweep("odd-diamond", count + top_k + 1, failure)
            count += width
            del lines[0]
    return IdentitySweep("odd-diamond", count, None)


def even_diamond_sweep(
    params: GrtParams, depth: int, diagonal: DiagonalFn | None = None
) -> IdentitySweep:
    """even_diamond_check for n = 1, 2, 3 (outermost), then top_r and top_k in n-1..depth.

    The outer rim mean equals the inner mean exactly when
    4 * outer_sum == (8n - 4) * inner_sum.
    """
    diagonal = _diagonal_source(params, depth, diagonal)
    count = 0
    lines: list[Sequence[int]] = []  # diagonals outer_r..outer_r + side
    for n in (1, 2, 3):
        side = 2 * n - 1  # an outer rim edge spans side + 1 cells
        width = depth + 2 - n  # top_k = n-1..depth
        length = width + side
        lines.clear()
        for outer_r in range(width):  # outer_r = top_r - (n - 1), likewise for k
            while len(lines) <= side:
                lines.append(diagonal(outer_r + len(lines), length))
            pairs = list(map(add, lines[n - 1], lines[n]))
            inner = map(add, pairs[n - 1 : n - 1 + width], pairs[n : n + width])
            lhs = [4 * v for v in _rim_sums(lines, side, width)]
            rhs = [(8 * n - 4) * v for v in inner]
            if lhs != rhs:
                top_r, top_k = outer_r + n - 1, _first_mismatch(lhs, rhs) + n - 1
                failure = even_diamond_check(
                    params, top_r, top_k, n, lambda r, k: lines[r - outer_r][k]
                )
                return IdentitySweep("even-diamond", count + top_k - n + 2, failure)
            count += width
            del lines[0]
    return IdentitySweep("even-diamond", count, None)


# The local relations moved to one side: sum(sign * T(r - dr, k - dk)) over
# each equation's (dr, dk, sign) terms, the first being T(r, k) itself.
_ASHLEY = ((0, 0, 1), (1, 0, -1), (0, 1, -1), (2, 1, 1))
_ASHLEY_MOD = {
    1: ((0, 0, 1), (1, 0, -1), (0, 1, -1), (2, 1, 1), (2, 2, 1), (3, 2, -1)),
    2: ((0, 0, 1), (0, 1, -1), (1, 1, -1), (2, 2, 1), (2, 3, 1), (3, 3, -1)),
    3: ((0, 0, 1), (1, 0, -1), (1, 1, -1), (2, 2, 1), (3, 2, 1), (3, 3, -1)),
}
_COLUMN_DIFF = (((0, 0, 1), (1, -1, -1)), ((1, 1, 1), (2, 0, -1)))


def _local(*equations) -> Callable[[int], tuple]:
    return lambda r: tuple(tuple((r - dr, dk, sign) for dr, dk, sign in eq) for eq in equations)


def _relation_sweep(
    name: str,
    rs: range,
    ks: range,
    length: int,
    diagonal: DiagonalFn,
    equations: Callable[[int], tuple],
    expected: Callable[[int], list],
    check: Callable[[int, int, EntryFn], IdentityCheck],
) -> IdentitySweep:
    """Sweep r over ``rs`` (outer) and k over ``ks`` (inner) for a linear relation.

    ``equations(r)`` lists, for one r, equations of terms ``(line, dk, sign)``,
    each ``sign * T(line, k - dk)``, the first with sign 1; an instance holds
    when every equation sums to ``expected(r)[k - ks.start]``.  Diagonals of
    ``length`` entries are kept only while an r needs them.
    """
    width = len(ks)
    window: dict[int, Sequence[int]] = {}
    count = 0
    for r in rs:
        eqs = equations(r)
        needed = {line for eq in eqs for line, _, _ in eq}
        for line in window.keys() - needed:
            del window[line]
        for line in needed - window.keys():
            window[line] = diagonal(line, length)
        target = expected(r)
        bad = width
        for (line, dk, _), *rest in eqs:
            total = window[line][ks.start - dk : ks.stop - dk]
            for line, dk, sign in rest:
                part = window[line][ks.start - dk : ks.stop - dk]
                total = map(add if sign > 0 else sub, total, part)
            total = list(total)
            if total != target:
                bad = min(bad, _first_mismatch(total, target))
        if bad < width:
            failure = check(r, ks[bad], lambda r, k: window[r][k])
            return IdentitySweep(name, count + bad + 1, failure)
        count += width
    return IdentitySweep(name, count, None)


def ashley_sweep(
    params: GrtParams, depth: int, diagonal: DiagonalFn | None = None
) -> IdentitySweep:
    """ashley_check for r = 2..depth (outer) and k = 1..depth."""
    diagonal = _diagonal_source(params, depth, diagonal)
    ks = range(1, depth + 1)
    correction = [(2 - k) * params.d - params.d2 for k in ks]
    return _relation_sweep(
        "ashley", range(2, depth + 1), ks, depth + 1, diagonal, _local(_ASHLEY),
        lambda r: correction,
        lambda r, k, entry: ashley_check(params, r, k, entry),
    )


def ashley_mod_sweep(
    params: GrtParams, variant: int, depth: int, diagonal: DiagonalFn | None = None
) -> IdentitySweep:
    """ashley_mod_check for r = 3..depth (outer) and k = 2..depth (variant 1) or 3..depth."""
    if variant not in _ASHLEY_MOD:
        raise ValueError(f"variant must be 1, 2 or 3, got {variant}")
    diagonal = _diagonal_source(params, depth, diagonal)
    ks = range(2 if variant == 1 else 3, depth + 1)
    zeros = [0] * len(ks)
    return _relation_sweep(
        f"ashley-mod{variant}", range(3, depth + 1), ks, depth + 1, diagonal,
        _local(_ASHLEY_MOD[variant]),
        lambda r: zeros,
        lambda r, k, entry: ashley_mod_check(params, variant, r, k, entry),
    )


def column_diff_sweep(
    params: GrtParams, depth: int, diagonal: DiagonalFn | None = None
) -> IdentitySweep:
    """column_diff_check for r = 2..depth (outer) and k = 1..depth."""
    diagonal = _diagonal_source(params, depth, diagonal)
    ks = range(1, depth + 1)
    base, d = params.d2 - params.d1, params.d
    return _relation_sweep(
        "column-diff", range(2, depth + 1), ks, depth + 2, diagonal, _local(*_COLUMN_DIFF),
        lambda r: [base + (k - r + 1) * d for k in ks],
        lambda r, k, entry: column_diff_check(params, r, k, entry),
    )


def t_meg_sweep(
    params: GrtParams, depth: int, diagonal: DiagonalFn | None = None
) -> IdentitySweep:
    """t_meg_check for r = 1..depth (outer) and k = 2..depth; InapplicableCheckError as there.

    Diagonals 0 and 1 are read up to index 2*depth - 2 and kept throughout.
    """
    _require_tmeg_params(params)
    diagonal = _diagonal_source(params, depth, diagonal)
    ks = range(2, depth + 1)
    constant = [2 * (params.d - params.c)] * len(ks)
    return _relation_sweep(
        "tmeg", range(1, depth + 1), ks, max(depth + 1, 2 * depth - 1), diagonal,
        lambda r: (((r, 0, 1), (r - 1, 1, -1), (0, 2 - r, -1), (1, 3 - r, -1)),),
        lambda r: constant,
        lambda r, k, entry: t_meg_check(params, r, k, entry),
    )


# Every instance sweep by check name, each called as sweep(params, depth, diagonal=None).
IDENTITY_SWEEPS: dict[str, Callable[..., IdentitySweep]] = {
    "odd-diamond": odd_diamond_sweep,
    "even-diamond": even_diamond_sweep,
    "ashley": ashley_sweep,
    **{
        f"ashley-mod{v}": lambda params, depth, diagonal=None, v=v: ashley_mod_sweep(
            params, v, depth, diagonal
        )
        for v in (1, 2, 3)
    },
    "column-diff": column_diff_sweep,
    "tmeg": t_meg_sweep,
}
