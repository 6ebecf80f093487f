"""Exact checks for the structural identities of parameterized triangles.

Each ``*_check`` evaluates one concrete instance and reports holds / first
failure; means are compared exactly, as cross-multiplied integer sums, never
as floats, and a failure reports them as exact fractions.  The checks
read their entries from the closed form, through this module's
``closed_form_entry`` as it is when they run, never a copy bound at import:
replacing it plants a wrong entry in every check, which is how the tests
confirm that the checks bite.

``prove_identity`` proves a check for every index at once.  For fixed
parameters the closed form is bilinear in ``(r, k)``, so each check compares
two polynomials in its index variables, of small degree in each: the row
sum too, as a sum of n + 1 bilinear entries is cubic in n.  A
polynomial whose degree in each variable x is at most D(x), and which
vanishes on a product grid of D(x) + 1 points per variable, is zero
everywhere (Alon, *Combinatorial Nullstellensatz*, 1999, Lemma 2.1; Schwartz
1980, Zippel 1979).  ``PROOF_GRIDS`` gives each check's grid, inside its
domain, and the prover evaluates the per-instance check at every point.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from itertools import product

from .core import Diamond, GrtParams, Record, closed_form_entry


class InapplicableCheckError(ValueError):
    """The identity's domain restriction rules out these parameters."""


class IdentityCheck(Record):
    """Outcome of one identity instance; ``first_failure`` is (location, lhs, rhs)."""

    name: str
    holds: bool
    first_failure: tuple | None


def _result(name: str, location: tuple, lhs, rhs) -> IdentityCheck:
    if lhs == rhs:
        return IdentityCheck(name, True, None)
    return IdentityCheck(name, False, (location, lhs, rhs))


def _means(name: str, location: tuple, lhs_sum, lhs_count, rhs_sum, rhs_count) -> IdentityCheck:
    """Whether lhs_sum / lhs_count equals rhs_sum / rhs_count; a failure carries both means as fractions."""
    if lhs_sum * rhs_count == rhs_sum * lhs_count:
        return IdentityCheck(name, True, None)
    from fractions import Fraction

    lhs, rhs = Fraction(lhs_sum, lhs_count), Fraction(rhs_sum, rhs_count)
    return IdentityCheck(name, False, (location, lhs, rhs))


def row_sum_formula(params: GrtParams, n: int) -> int:
    """Row sum s_n = (d/6)n^3 + ((d1+d2)/2)n^2 + (c + (d1+d2)/2 - d/6)n + c.

    Evaluated as one exact integer division by 6 of the numerator
    d(n-1)n(n+1) + 3(d1+d2)n(n+1) + 6c(n+1), whose every term is a multiple
    of 6: (n-1)n(n+1) is a product of three consecutive integers, and n(n+1)
    of two, so it is even.
    """
    if n < 0:
        raise ValueError(f"row index must be nonnegative, got {n}")
    c, d, d1, d2 = params.c, params.d, params.d1, params.d2
    return (d * (n - 1) * n * (n + 1) + 3 * (d1 + d2) * n * (n + 1) + 6 * c * (n + 1)) // 6


def row_sum_check(params: GrtParams, n: int) -> IdentityCheck:
    """``row_sum_formula`` at n equals the sum of row n's entries T(r, n - r), r = 0..n."""
    t = partial(closed_form_entry, params)
    return _result("rowsums", (n,), row_sum_formula(params, n), sum(t(r, n - r) for r in range(n + 1)))


def odd_diamond_check(params: GrtParams, top_r: int, top_k: int, half: int) -> IdentityCheck:
    """Mean of the 8*half rim entries of a (2*half + 1)-side diamond equals its center entry.

    Compared as the rim sum against ``len(rim) * center``; a failure reports the two means.
    """
    if half < 1:
        raise ValueError(f"half must be at least 1, got {half}")
    t = partial(closed_form_entry, params)
    rim = Diamond(top_r, top_k, 2 * half + 1).boundary_cells()
    rim_sum = sum(t(r, k) for r, k in rim)
    center = t(top_r + half, top_k + half)
    return _means("odd-diamond", (top_r, top_k, half), rim_sum, len(rim), center, 1)


def even_diamond_check(params: GrtParams, top_r: int, top_k: int, n: int) -> IdentityCheck:
    """Rim mean of the 2n-side diamond around an inner 2-diamond equals the inner 4-cell mean.

    ``(top_r, top_k)`` names the top of the inner 2-diamond; both indices must
    be at least n - 1 so the outer diamond, whose top sits n - 1 cells up-left,
    stays inside the triangle.  The outer rim has 8n - 4 entries.  Compared as
    ``4 * outer_sum`` against ``len(outer) * inner_sum``; a failure reports the two means.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if top_r < n - 1 or top_k < n - 1:
        raise ValueError(
            f"outer diamond needs top_r, top_k >= {n - 1}, got ({top_r}, {top_k})"
        )
    t = partial(closed_form_entry, params)
    inner = [(top_r, top_k), (top_r + 1, top_k), (top_r, top_k + 1), (top_r + 1, top_k + 1)]
    inner_sum = sum(t(r, k) for r, k in inner)
    outer = Diamond(top_r - (n - 1), top_k - (n - 1), 2 * n).boundary_cells()
    outer_sum = sum(t(r, k) for r, k in outer)
    return _means("even-diamond", (top_r, top_k, n), outer_sum, len(outer), inner_sum, len(inner))


def ashley_check(params: GrtParams, r: int, k: int) -> IdentityCheck:
    """T(r,k) = T(r-1,k) + T(r,k-1) - T(r-2,k-1) + ((2-k)*d - d2), for r >= 2, k >= 1."""
    if r < 2 or k < 1:
        raise ValueError(f"needs r >= 2 and k >= 1, got (r={r}, k={k})")
    t = partial(closed_form_entry, params)
    rhs = t(r - 1, k) + t(r, k - 1) - t(r - 2, k - 1) + ((2 - k) * params.d - params.d2)
    return _result("ashley", (r, k), t(r, k), rhs)


def ashley_mod_check(params: GrtParams, variant: int, r: int, k: int) -> IdentityCheck:
    """Three 5-term rewrites that drop the (2-k)*d - d2 correction term.

    variant 1 (r >= 3, k >= 2):
        T(r,k) = T(r-1,k) + T(r,k-1) - T(r-2,k-1) - T(r-2,k-2) + T(r-3,k-2)
    variant 2 (r, k >= 3):
        T(r,k) = T(r,k-1) + T(r-1,k-1) - T(r-2,k-2) - T(r-2,k-3) + T(r-3,k-3)
    variant 3 (r, k >= 3):
        T(r,k) = T(r-1,k) + T(r-1,k-1) - T(r-2,k-2) - T(r-3,k-2) + T(r-3,k-3)
    """
    t = partial(closed_form_entry, params)
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


def column_diff_check(params: GrtParams, r: int, k: int) -> IdentityCheck:
    """T(r,k) - T(r-1,k+1) and T(r-1,k-1) - T(r-2,k) both equal d2 - d1 + (k-r+1)*d."""
    if r < 2 or k < 1:
        raise ValueError(f"needs r >= 2 and k >= 1, got (r={r}, k={k})")
    t = partial(closed_form_entry, params)
    expected = params.d2 - params.d1 + (k - r + 1) * params.d
    for lhs in (t(r, k) - t(r - 1, k + 1), t(r - 1, k - 1) - t(r - 2, k)):
        if lhs != expected:
            return IdentityCheck("column-diff", False, ((r, k), lhs, expected))
    return IdentityCheck("column-diff", True, None)


def t_meg_check(params: GrtParams, r: int, k: int) -> IdentityCheck:
    """T(r,k) = T(r-1,k-1) + T(0,r+k-2) + T(1,r+k-3) + 2*(d - c), for r >= 1, k >= 2.

    Only defined on triangles with d1 = d2 = 0 (entries c + r*k*d); calling it
    with other parameters raises InapplicableCheckError.
    """
    if params.d1 != 0 or params.d2 != 0:
        raise InapplicableCheckError(
            f"needs d1 = d2 = 0, got d1={params.d1}, d2={params.d2}"
        )
    if r < 1 or k < 2:
        raise ValueError(f"needs r >= 1 and k >= 2, got (r={r}, k={k})")
    t = partial(closed_form_entry, params)
    rhs = t(r - 1, k - 1) + t(0, r + k - 2) + t(1, r + k - 3) + 2 * (params.d - params.c)
    return _result("tmeg", (r, k), t(r, k), rhs)


def embed_in_rascal(params: GrtParams) -> tuple[int, int] | None:
    """Offset (r0, k0) at which this triangle sits inside R(r, k) = 1 + r*k, or None.

    Shifted to offset (d1, d2), the Rascal triangle reads
    1 + (d1 + r)(d2 + k) = (1 + d1*d2) + k*d1 + r*d2 + r*k, the closed form
    with d = 1 and c = 1 + d1*d2.  Two bilinear forms agree at every cell
    exactly when their coefficients agree, so an embedding exists exactly
    when d = 1, c - d1*d2 = 1, and the offsets (d1, d2) are valid indices.
    Algebraic matches at negative offsets are not embeddings.
    """
    if params.d == 1 and params.c - params.d1 * params.d2 == 1 and params.d1 >= 0 and params.d2 >= 0:
        return (params.d1, params.d2)
    return None


def multiple_of_rascal(params: GrtParams) -> int | None:
    """Scalar m with T(r,k) = m*(1 + r*k); exists exactly when d = c and d1 = d2 = 0."""
    if params.d == params.c and params.d1 == 0 and params.d2 == 0:
        return params.c
    return None


# --- proofs ----------------------------------------------------------------

# check name -> (per-instance check, (first value, degree bound) per index
# variable, in the order the check takes them).  Each check's two sides, with
# the means' denominators cleared, have at most these degrees, and each grid
# of degree + 1 values per variable lies inside the check's domain.
PROOF_GRIDS: dict[str, tuple[Callable[..., IdentityCheck], tuple[tuple[int, int], ...]]] = {
    # n: the formula against the summed row, both cubic in n
    "rowsums": (row_sum_check, ((0, 3),)),
    # top_r, top_k, half: rim sum against 8*half * centre
    "odd-diamond": (odd_diamond_check, ((0, 1), (0, 1), (1, 3))),
    # top_r, top_k, n: 4 * outer rim sum against (8n - 4) * inner sum; the grid keeps tops >= n - 1
    "even-diamond": (even_diamond_check, ((1, 1), (1, 1), (1, 1))),
    "ashley": (ashley_check, ((2, 1), (1, 1))),
    "ashley-mod1": (lambda params, r, k: ashley_mod_check(params, 1, r, k), ((3, 1), (2, 1))),
    "ashley-mod2": (lambda params, r, k: ashley_mod_check(params, 2, r, k), ((3, 1), (3, 1))),
    "ashley-mod3": (lambda params, r, k: ashley_mod_check(params, 3, r, k), ((3, 1), (3, 1))),
    "column-diff": (column_diff_check, ((2, 1), (1, 1))),
    "tmeg": (t_meg_check, ((1, 1), (2, 1))),
}


def prove_identity(name: str, params: GrtParams) -> tuple[int, IdentityCheck | None]:
    """Check ``name`` of ``PROOF_GRIDS`` for every index, by exact evaluation on its grid.

    Walks the grid in lexicographic order and returns the number of points
    evaluated (the failing one included) and the first failing
    IdentityCheck, or None: then the identity holds for every index of the
    check's domain.  Raises InapplicableCheckError as the check does.
    """
    check, axes = PROOF_GRIDS[name]
    count = 0
    for point in product(*(range(first, first + degree + 1) for first, degree in axes)):
        count += 1
        result = check(params, *point)
        if not result.holds:
            return count, result
    return count, None
