"""Shared builders for test triangles and parameter sweeps, and reference implementations."""

import json
from itertools import product

from hypothesis import strategies as st

from rascal import (
    VERDICT_ADDITION_ONLY,
    VERDICT_GRT,
    VERDICT_MULTIPLICATION_ONLY,
    VERDICT_NEITHER,
    Boundary,
    ZeroNorthError,
    Classification,
    DiagonalReport,
    GrtParams,
    InexactDivisionError,
    NotGrtError,
    RuleReport,
    RuleWitness,
    ashley_check,
    ashley_mod_check,
    closed_form_entry,
    column_diff_check,
    embed_in_rascal,
    even_diamond_check,
    generate_by_addition,
    generate_by_multiplication,
    generate_closed_form,
    multiple_of_rascal,
    odd_diamond_check,
    row_sum_formula,
    t_meg_check,
)


def sweep_params(lo=-3, hi=3):
    """Every (c, d, d1, d2) with all four components in [lo, hi]."""
    values = range(lo, hi + 1)
    return [GrtParams(c, d, d1, d2) for c, d, d1, d2 in product(values, repeat=4)]


def u_style_grid(n_rows=6):
    """Addition rule, constant 1, over an all-ones major edge and a doubling minor edge.

    Satisfies the addition rule everywhere, but no single multiplication
    constant fits all diamonds, so it classifies as addition-only.
    """
    doubling = tuple(2**i for i in range(n_rows))
    boundary = Boundary(1, (1,) * n_rows, doubling)
    return generate_by_addition(boundary, 1)


def v_style_grid(n_rows=6):
    """Multiplication rule, constant 0, over doubling edges; entries are 2**(r+k).

    Satisfies the multiplication rule everywhere, but no single addition
    constant fits all diamonds, so it classifies as multiplication-only.
    """
    doubling = tuple(2**i for i in range(n_rows))
    boundary = Boundary(1, doubling, doubling)
    return generate_by_multiplication(boundary, 0)


@st.composite
def boundaries(draw, lo=-6, hi=6, min_rows=2, max_rows=7):
    """Arbitrary (not necessarily arithmetic) boundaries, zeros included."""
    apex = draw(st.integers(lo, hi))
    tail = draw(st.integers(min_rows - 1, max_rows - 1))
    major = [apex] + draw(st.lists(st.integers(lo, hi), min_size=tail, max_size=tail))
    minor = [apex] + draw(st.lists(st.integers(lo, hi), min_size=tail, max_size=tail))
    return Boundary(apex, major, minor)


def walk_rim(top_r, top_k, side):
    """Rim of a diamond by walking its four sides, one corner per side.

    Independent of the set-filter enumeration the library uses; each side
    contributes side - 1 cells, 4*(side - 1) in total.
    """
    s = side - 1
    cells = [(top_r + i, top_k) for i in range(s)]
    cells += [(top_r + s, top_k + j) for j in range(s)]
    cells += [(top_r + s - i, top_k + s) for i in range(s)]
    cells += [(top_r, top_k + s - j) for j in range(s)]
    return cells


# --- reference generators and renderers -----------------------------------
# Every interior cell filled on its own from its diamond, and each format
# rendered from the whole grid at once; the row iterators and the per-row
# chunk writers must agree with these exactly.


def oracle_generate(boundary, rule, constant):
    """Rows of the ``"add"`` or ``"mul"`` triangle; raises at the first failing cell, row-major."""

    def add(r, k, east, west, north):
        return east + west + constant - north

    def mul(r, k, east, west, north):
        if north == 0:
            raise ZeroNorthError(r, k)
        numerator = east * west + constant
        quotient, remainder = divmod(numerator, north)
        if remainder:
            raise InexactDivisionError(r, k, numerator, north)
        return quotient

    fill = {"add": add, "mul": mul}[rule]
    rows = [[boundary.apex]]
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
    return [tuple(row) for row in rows]


def oracle_closed_form(params, n_rows):
    return [tuple(closed_form_entry(params, r, n - r) for r in range(n + 1)) for n in range(n_rows)]


def oracle_render_text(rows):
    return "\n".join(" ".join(str(v) for v in row) for row in rows) + "\n"


def oracle_render_json(rows):
    i64_min, i64_max = -(2**63), 2**63 - 1
    rows = [[v if i64_min <= v <= i64_max else str(v) for v in row] for row in rows]
    return json.dumps({"rows": rows}) + "\n"


def oracle_render_csv(rows):
    lines = [f"{n},{r},{n - r},{value}\n" for n, row in enumerate(rows) for r, value in enumerate(row)]
    return "n,r,k,value\n" + "".join(lines)


# --- reference classifier ------------------------------------------------
# The straightforward cell-by-cell scans: each diagonal walked on its own,
# each rule over every interior diamond, the fit over every entry.  The
# library's row-wise classifier must agree with them exactly.


def oracle_diagonal_reports(grid):
    reports = [oracle_sequence("major", r, grid.major_diagonal(r)) for r in range(grid.n_rows)]
    reports += [oracle_sequence("minor", k, grid.minor_diagonal(k)) for k in range(grid.n_rows)]
    return reports


def oracle_sequence(kind, index, seq):
    if len(seq) == 1:
        return DiagonalReport(kind, index, seq[0], 0, None, True)
    diff = seq[1] - seq[0]
    for pos in range(2, len(seq)):
        expected = seq[pos - 1] + diff
        if seq[pos] != expected:
            return DiagonalReport(kind, index, seq[0], None, (pos, expected, seq[pos]), False)
    return DiagonalReport(kind, index, seq[0], diff, None, len(seq) < 3)


def oracle_fit(grid):
    """Fitted parameters; NotGrtError at the first entry that breaks the fit; needs 3 rows."""
    rows = grid.rows
    c = rows[0][0]
    d1 = rows[1][0] - c
    d2 = rows[1][1] - c
    d = rows[2][1] - rows[1][0] - rows[1][1] + c
    for n, row in enumerate(rows):
        for r, actual in enumerate(row):
            k = n - r
            expected = c + k * d1 + r * d2 + r * k * d
            if actual != expected:
                raise NotGrtError(r, k, expected, actual)
    return GrtParams(c, d, d1, d2)


def oracle_interior_diamonds(grid):
    """Yield (r, k, south, east, west, north) for interior cells, row-major."""
    rows = grid.rows
    for n in range(2, len(rows)):
        for r in range(1, n):
            yield r, n - r, rows[n][r], rows[n - 1][r], rows[n - 1][r - 1], rows[n - 2][r - 1]


def oracle_rule(grid, rule):
    implied = {
        "addition": lambda s, e, w, n: s - e - w + n,
        "multiplication": lambda s, e, w, n: s * n - e * w,
    }[rule]
    first = None
    for r, k, south, east, west, north in oracle_interior_diamonds(grid):
        constant = implied(south, east, west, north)
        if first is None:
            first = RuleWitness(r, k, constant)
        elif constant != first.implied_constant:
            return RuleReport(rule, None, (first, RuleWitness(r, k, constant)))
    return RuleReport(rule, first.implied_constant, None)


def oracle_classify(grid):
    """The classification composed from the reference scans; needs 3 rows."""
    addition = oracle_rule(grid, "addition")
    multiplication = oracle_rule(grid, "multiplication")
    try:
        params = oracle_fit(grid)
    except NotGrtError:
        params = None
    if params is not None:
        verdict = VERDICT_GRT
    elif addition.constant is not None and multiplication.constant is None:
        verdict = VERDICT_ADDITION_ONLY
    elif multiplication.constant is not None and addition.constant is None:
        verdict = VERDICT_MULTIPLICATION_ONLY
    else:
        verdict = VERDICT_NEITHER
    return Classification(
        verdict, params, tuple(oracle_diagonal_reports(grid)), addition, multiplication
    )


# --- reference identity sweeps and props report ---------------------------
# Every instance evaluated on its own by the public per-instance checks, in
# the order the library's sweeps walk them; the sweeps and the `props`
# report must agree with these exactly.


def oracle_instances(name, depth):
    """(check function, index arguments) of every instance of ``name`` up to ``depth``, in order."""
    if name == "odd-diamond":
        return [
            (odd_diamond_check, (top_r, top_k, half))
            for half in (1, 2, 3)
            for top_r in range(depth + 1)
            for top_k in range(depth + 1)
        ]
    if name == "even-diamond":
        return [
            (even_diamond_check, (top_r, top_k, n))
            for n in (1, 2, 3)
            for top_r in range(n - 1, depth + 1)
            for top_k in range(n - 1, depth + 1)
        ]
    if name.startswith("ashley-mod"):
        variant = int(name[-1])
        k_min = 2 if variant == 1 else 3
        return [
            (ashley_mod_check, (variant, r, k))
            for r in range(3, depth + 1)
            for k in range(k_min, depth + 1)
        ]
    check, r_min, k_min = {
        "ashley": (ashley_check, 2, 1),
        "column-diff": (column_diff_check, 2, 1),
        "tmeg": (t_meg_check, 1, 2),
    }[name]
    return [(check, (r, k)) for r in range(r_min, depth + 1) for k in range(k_min, depth + 1)]


def oracle_sweep(name, params, depth, entry=None):
    """(instances evaluated, first failing IdentityCheck or None), one check call per instance."""
    count = 0
    for check, args in oracle_instances(name, depth):
        count += 1
        result = check(params, *args, entry=entry)
        if not result.holds:
            return count, result
    return count, None


def oracle_row_sums(params, depth):
    """(instances, (n, formula, direct) of the first failure or None, sums before it)."""
    grid = generate_closed_form(params, depth + 1)
    sums = []
    for n in range(depth + 1):
        formula, direct = row_sum_formula(params, n), sum(grid.rows[n])
        if formula != direct:
            return n + 1, (n, formula, direct), sums
        sums.append(direct)
    return depth + 1, None, sums


def _oracle_record(name, params, depth, explicit, entry):
    if name == "rowsums":
        count, failure, sums = oracle_row_sums(params, depth)
        if failure is not None:
            n, formula, direct = failure
            return {
                "check": name,
                "status": "failed",
                "summary": f"failed at n={n}: formula {formula} != row sum {direct}",
                "first_failure": {"location": [n], "lhs": formula, "rhs": direct},
            }
        summary = "holds for n <= {} (sums {})".format(depth, " ".join(map(str, sums)))
        return {"check": name, "status": "holds", "summary": summary, "instances": count, "sums": sums}
    if name == "embed":
        offset = embed_in_rascal(params, window=depth + 1)
        if offset is None:
            return {"check": name, "status": "none", "summary": "no embedding", "offset": None}
        summary = f"embeds at offset (r0={offset[0]}, k0={offset[1]})"
        return {"check": name, "status": "found", "summary": summary, "offset": list(offset)}
    if name == "multiple":
        m = multiple_of_rascal(params)
        if m is None:
            return {"check": name, "status": "none", "summary": "not a multiple", "multiplier": None}
        return {"check": name, "status": "found", "summary": f"multiple with m = {m}", "multiplier": m}
    if name == "tmeg" and (params.d1 != 0 or params.d2 != 0):
        status = "inapplicable" if explicit else "skipped"
        summary = f"{status}: needs d1 = d2 = 0, got d1={params.d1}, d2={params.d2}"
        return {"check": name, "status": status, "summary": summary}
    count, failure = oracle_sweep(name, params, depth, entry)
    if failure is None:
        return {"check": name, "status": "holds", "summary": f"holds ({count} instances)", "instances": count}
    location, lhs, rhs = failure.first_failure
    jsonable = lambda v: v if isinstance(v, int) else str(v)
    return {
        "check": name,
        "status": "failed",
        "summary": f"failed at {location}: {lhs} != {rhs}",
        "first_failure": {"location": list(location), "lhs": jsonable(lhs), "rhs": jsonable(rhs)},
    }


def oracle_props(params, depth, names, explicit, fmt, entry=None):
    """(stdout, exit code) of `rascal props`, built from the per-instance checks."""
    records = [_oracle_record(name, params, depth, explicit, entry) for name in names]
    p = {"c": params.c, "d": params.d, "d1": params.d1, "d2": params.d2}
    if fmt == "json":
        out = json.dumps({"params": p, "depth": depth, "checks": records}) + "\n"
    else:
        lines = [f"params: c={params.c} d={params.d} d1={params.d1} d2={params.d2}", f"depth: {depth}"]
        lines += [f"{record['check']}: {record['summary']}" for record in records]
        out = "\n".join(lines) + "\n"
    statuses = {record["status"] for record in records}
    code = 3 if "inapplicable" in statuses else 1 if "failed" in statuses else 0
    return out, code
