"""Shared builders for test triangles and parameter sweeps, and reference implementations."""

import json
import sys
from itertools import product
from operator import add

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
    even_diamond_check,
    TriangleGrid,
    addition_rows,
    edges_from_params,
    generate_by_addition,
    generate_by_multiplication,
    generate_closed_form,
    multiple_of_rascal,
    odd_diamond_check,
    row_sum_check,
    row_sum_formula,
    t_meg_check,
)


def param_flags(params):
    """The CLI's parameter flags for ``params``."""
    return ["--c", str(params.c), "--d", str(params.d), "--d1", str(params.d1), "--d2", str(params.d2)]


def sweep_params(lo=-3, hi=3):
    """Every (c, d, d1, d2) with all four components in [lo, hi]."""
    values = range(lo, hi + 1)
    return [GrtParams(c, d, d1, d2) for c, d, d1, d2 in product(values, repeat=4)]


# Fragments of both grammars, plus near misses: other scripts' digits and whitespace,
# floats, booleans, nesting and a line separator str.splitlines() knows.
_TRIANGLE_PIECES = [
    "0", "1", "7", "-", "12", " ", "\t", "\n", "\r\n", "#", "{", "}", "[", "]", ",", ":",
    '"', '"rows"', '"5"', "1.5", "1e3", "true", "null", "\u3000", "\u0663", "\x85", "\u2028",
]
_plain_line = st.lists(st.one_of(st.integers(-99, 99).map(str), st.sampled_from(_TRIANGLE_PIECES)), max_size=6)
_json_value = st.one_of(
    st.integers(-99, 99), st.integers(-99, 99).map(str), st.sampled_from([1.5, True, None, "x", [], {}])
)
# Arbitrary piece strings, near-plain rows (often ragged) and well-formed JSON with
# ragged rows and bad values, so that parsing reaches whole grids and the late checks.
triangle_like_text = st.one_of(
    st.lists(st.sampled_from(_TRIANGLE_PIECES), max_size=40).map("".join),
    st.lists(_plain_line.map(" ".join), max_size=6).map("\n".join),
    st.lists(st.one_of(st.lists(_json_value, max_size=4), _json_value), max_size=5).map(
        lambda rows: json.dumps({"rows": rows})
    ),
)


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


@st.composite
def addition_fills(draw):
    """Rows filled by the addition rule from arithmetic edges (a closed form) or from arbitrary ones."""
    d = draw(st.integers(-4, 4))
    if draw(st.booleans()):
        c, d1, d2 = draw(st.tuples(*[st.integers(-6, 6)] * 3))
        edges = edges_from_params(GrtParams(c, d, d1, d2), draw(st.integers(3, 7)))
    else:
        edges = draw(boundaries(min_rows=3))
    return TriangleGrid(addition_rows(edges, d))


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


def oracle_zero_north_by_divisors(params, n_rows):
    """``predict_multiplication_failure`` for d != 0 and D != 0, one division per major diagonal.

    d*T(r, k) = (d*r + d1)(d*k + d2) + D, so a zero needs d*r + d1 to divide
    D, and none lies at r > (|D| + |d1|) / |d|; each major diagonal up to
    there is solved for its zero, linear in k.  The first zero in row-major
    order (least r + k, then least r) of rows 0..n_rows-3 stops the cell
    south of it.
    """
    c, d, d1, d2 = params.c, params.d, params.d1, params.d2
    mult = c * d - d1 * d2
    assert d and mult
    zero = None
    last = n_rows - 3  # the last row to search; shrinks to just above the first zero found
    for r in range(min(n_rows - 2, (abs(mult) + abs(d1)) // abs(d) + 1)):
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
    return None if zero is None else ZeroNorthError(zero[0] + 1, zero[1] + 1)


def oracle_render_text(rows):
    return "\n".join(" ".join(str(v) for v in row) for row in rows) + "\n"


I64_MIN, I64_MAX = -(2**63), 2**63 - 1


class LabelledInt(int):
    """An int subclass whose str() and repr() are not its digits."""

    def __str__(self):
        return f"int:{int(self)}"

    __repr__ = __str__


def oracle_json_value(value):
    """``value`` under the JSON integer policy: each int (not bool) outside the signed 64-bit range as a string.

    The string is the int's digits by ``int.__repr__``, as ``json.dumps``
    writes an int subclass; ``json.dumps`` of the result is what a writer of
    the policy must write.
    """
    if isinstance(value, (list, tuple)):
        return [oracle_json_value(item) for item in value]
    if isinstance(value, dict):
        return {key: oracle_json_value(item) for key, item in value.items()}
    if isinstance(value, bool) or not isinstance(value, int):
        return value
    return value if -(2**63) <= value < 2**63 else str(int.__repr__(value))


def oracle_json_dumps(value):
    """``json.dumps`` of ``value`` under the JSON integer policy."""
    return json.dumps(oracle_json_value(value))


def oracle_render_json(rows):
    return oracle_json_dumps({"rows": rows}) + "\n"


def oracle_render_csv(rows):
    lines = [f"{n},{r},{n - r},{value}\n" for n, row in enumerate(rows) for r, value in enumerate(row)]
    return "n,r,k,value\n" + "".join(lines)


# The row writers as they were before each row became one %-format call: one
# str() per cell, json.dumps per row, and each CSV line joined from its labels
# and value.  triangle_io's text_chunks, json_chunks and csv_chunks must write
# the same chunks.  An empty row is written as json.dumps and str() write it:
# "[]" in JSON and an empty line in text.


def oracle_text_chunks(rows):
    for row in rows:
        yield " ".join(map(str, row)) + "\n"


def oracle_json_chunks(rows):
    yield '{"rows": ['
    separator = ""
    for row in rows:
        if row and not (I64_MIN <= min(row) and max(row) <= I64_MAX):
            row = oracle_json_value(row)
        yield separator + json.dumps(row)
        separator = ", "
    yield "]}\n"


def oracle_csv_chunks(rows):
    yield "n,r,k,value\n"
    labels = []
    for n, row in enumerate(rows):
        labels.append(f"{n},")
        head = labels[n]
        cells = map(add, map(add, labels, reversed(labels)), map(str, row))
        yield head + ("\n" + head).join(cells) + "\n"


# --- reference classifier ------------------------------------------------
# The straightforward cell-by-cell scans: each diagonal walked on its own,
# each rule over every interior diamond, the fit over every entry.  The
# library's row-wise classifier must agree with them exactly.


def oracle_diagonal_reports(grid):
    rows, n_rows = grid.rows, grid.n_rows
    reports = [
        oracle_sequence("major", r, [rows[r + k][r] for k in range(n_rows - r)]) for r in range(n_rows)
    ]
    reports += [
        oracle_sequence("minor", k, [rows[r + k][r] for r in range(n_rows - k)]) for k in range(n_rows)
    ]
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


def oracle_fitted(grid):
    """The parameters rows 0-2 determine; needs 3 rows."""
    rows = grid.rows
    c = rows[0][0]
    d1 = rows[1][0] - c
    d2 = rows[1][1] - c
    d = rows[2][1] - rows[1][0] - rows[1][1] + c
    return GrtParams(c, d, d1, d2)


def oracle_mismatch(grid):
    """(r, k, expected, actual) of the first entry, row-major, off the fitted closed form; None if none is."""
    params = oracle_fitted(grid)
    for n, row in enumerate(grid.rows):
        for r, actual in enumerate(row):
            expected = closed_form_entry(params, r, n - r)
            if actual != expected:
                return (r, n - r, expected, actual)
    return None


def oracle_fit(grid):
    """Fitted parameters; NotGrtError at the first entry that breaks the fit; needs 3 rows."""
    mismatch = oracle_mismatch(grid)
    if mismatch is not None:
        raise NotGrtError(*mismatch)
    return oracle_fitted(grid)


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
    mismatch = oracle_mismatch(grid)
    if mismatch is None:
        verdict = VERDICT_GRT
    elif addition.constant is not None and multiplication.constant is None:
        verdict = VERDICT_ADDITION_ONLY
    elif multiplication.constant is not None and addition.constant is None:
        verdict = VERDICT_MULTIPLICATION_ONLY
    else:
        verdict = VERDICT_NEITHER
    params = oracle_fitted(grid) if mismatch is None else None
    return Classification(
        verdict, params, mismatch, tuple(oracle_diagonal_reports(grid)), addition, multiplication
    )


def oracle_classification_text(grid):
    """``classify`` of ``grid`` as text: ``oracle_classify`` written line by line in the README's formats."""
    result = oracle_classify(grid)
    lines = [f"verdict: {result.verdict}"]
    if result.mismatch is not None:
        r, k, expected, actual = result.mismatch
        lines.append(
            f"mismatch: entry (r={r}, k={k}) is {actual}, but the parameters fitted from rows 0-2 predict {expected}"
        )
    if result.params is not None:
        p = result.params
        lines.append(f"params: c={p.c} d={p.d} d1={p.d1} d2={p.d2}")
    for report in (result.addition, result.multiplication):
        if report.witnesses is None:
            lines.append(f"{report.rule}: constant {report.constant}")
        else:
            a, b = report.witnesses
            lines.append(
                f"{report.rule}: no constant; (r={a.r}, k={a.k}) implies {a.implied_constant} "
                f"but (r={b.r}, k={b.k}) implies {b.implied_constant}"
            )
    for rep in result.diagonals:
        label = f"major r={rep.index}" if rep.kind == "major" else f"minor k={rep.index}"
        if rep.first_violation is None:
            under = " (under-determined)" if rep.under_determined else ""
            lines.append(f"{label}: first {rep.first_term}, difference {rep.common_difference}{under}")
        else:
            position, expected, actual = rep.first_violation
            violation = f"position {position}: expected {expected}, got {actual}"
            lines.append(f"{label}: first {rep.first_term}, not arithmetic ({violation})")
    return "\n".join(lines) + "\n"


def oracle_classification_json(grid):
    """``classify --format json`` of ``grid``: ``oracle_classify`` as one dict, written by ``json.dumps``."""
    result = oracle_classify(grid)

    def number(value):
        return value if -(2**63) <= value < 2**63 else str(value)

    def fields(keys, values):
        return None if values is None else dict(zip(keys, map(number, values)))

    def rule(report):
        witnesses = report.witnesses and [
            {"r": w.r, "k": w.k, "implied_constant": number(w.implied_constant)} for w in report.witnesses
        ]
        constant = None if report.constant is None else number(report.constant)
        return {"rule": report.rule, "constant": constant, "witnesses": witnesses}

    diagonals = [
        {
            "kind": rep.kind,
            "index": rep.index,
            "first_term": number(rep.first_term),
            "common_difference": None if rep.common_difference is None else number(rep.common_difference),
            "first_violation": fields(("position", "expected", "actual"), rep.first_violation),
            "under_determined": rep.under_determined,
        }
        for rep in result.diagonals
    ]
    p = result.params
    doc = {
        "verdict": result.verdict,
        "mismatch": fields(("r", "k", "expected", "actual"), result.mismatch),
        "params": None if p is None else fields(("c", "d", "d1", "d2"), (p.c, p.d, p.d1, p.d2)),
        "addition": rule(result.addition),
        "multiplication": rule(result.multiplication),
        "diagonals": diagonals,
    }
    return json.dumps(doc) + "\n"


# --- reference identity sweeps, proofs and props report --------------------
# Every instance evaluated on its own by the public per-instance checks: up
# to a depth (a plain sweep, which confirms the proofs on more points), or
# on each proved check's grid, written out here from its degree bounds; the
# library's proofs and the `props` report must agree with these exactly.


def oracle_instances(name, depth):
    """(check function, index arguments) of every instance of ``name`` up to ``depth``, in order."""
    if name == "rowsums":
        return [(row_sum_check, (n,)) for n in range(depth + 1)]
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


def oracle_sweep(name, params, depth):
    """(instances evaluated, first failing IdentityCheck or None), one check call per instance."""
    count = 0
    for check, args in oracle_instances(name, depth):
        count += 1
        result = check(params, *args)
        if not result.holds:
            return count, result
    return count, None


# check name -> (per-instance check, its leading arguments, one range per index variable)
ORACLE_GRIDS = {
    "rowsums": (row_sum_check, (), (range(0, 4),)),
    "odd-diamond": (odd_diamond_check, (), (range(0, 2), range(0, 2), range(1, 5))),
    "even-diamond": (even_diamond_check, (), (range(1, 3), range(1, 3), range(1, 3))),
    "ashley": (ashley_check, (), (range(2, 4), range(1, 3))),
    "ashley-mod1": (ashley_mod_check, (1,), (range(3, 5), range(2, 4))),
    "ashley-mod2": (ashley_mod_check, (2,), (range(3, 5), range(3, 5))),
    "ashley-mod3": (ashley_mod_check, (3,), (range(3, 5), range(3, 5))),
    "column-diff": (column_diff_check, (), (range(2, 4), range(1, 3))),
    "tmeg": (t_meg_check, (), (range(1, 3), range(2, 4))),
}


def oracle_proof(name, params):
    """(grid points evaluated, first failing IdentityCheck or None), walking the grid lexicographically."""
    check, leading, ranges = ORACLE_GRIDS[name]
    count = 0
    for point in product(*ranges):
        count += 1
        result = check(params, *leading, *point)
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


def oracle_listed_sums(params, depth):
    """s_n for n = 0..depth: summed from the generated rows up to n = 100, then extended as a cubic.

    s_n is cubic in n, so its fourth differences vanish: s_(n+1) = 4s_n - 6s_(n-1) + 4s_(n-2) - s_(n-3).
    So a listing of any length is checked in O(depth), from sums that no formula wrote.
    """
    sums = oracle_row_sums(params, min(depth, 100))[2]
    while len(sums) <= depth:
        a, b, c, d = sums[-4:]
        sums.append(4 * d - 6 * c + 4 * b - a)
    return sums


def oracle_embed(params, window):
    """Offset (d1, d2) of ``params`` inside 1 + r*k, or None; the window x window block checked cell by cell."""
    if params.d != 1 or params.c - params.d1 * params.d2 != 1:
        return None
    if params.d1 < 0 or params.d2 < 0:
        return None
    r0, k0 = params.d1, params.d2
    for r in range(window):
        for k in range(window):
            if closed_form_entry(params, r, k) != 1 + (r0 + r) * (k0 + k):
                return None
    return (r0, k0)


def _oracle_record(name, params, depth, explicit):
    if name == "embed":
        offset = oracle_embed(params, 101)  # a fixed window, so a long listing checks no more cells
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
    points, failure = oracle_proof(name, params)
    if failure is None:
        summary = f"holds for all indices (proved by {points} exact evaluations)"
        record = {"check": name, "status": "holds", "summary": summary, "proved": True, "points": points}
        if name == "rowsums":  # the proved formula lists the sums, found here from the generated rows
            sums = oracle_listed_sums(params, depth)
            record["summary"] += f"; sums for n <= {depth}"  # the text report lists them after it
            record["sums"] = sums
        return record
    location, lhs, rhs = failure.first_failure
    jsonable = lambda v: v if isinstance(v, int) else str(v)
    return {
        "check": name,
        "status": "failed",
        "summary": f"failed at {location}: {lhs} != {rhs}",
        "first_failure": {"location": list(location), "lhs": jsonable(lhs), "rhs": jsonable(rhs)},
    }


def oracle_props(params, depth, names, explicit, fmt):
    """(stdout, exit code) of `rascal props`, built from the per-instance checks; a name given twice is reported once."""
    records = [_oracle_record(name, params, depth, explicit) for name in dict.fromkeys(names)]
    p = {"c": params.c, "d": params.d, "d1": params.d1, "d2": params.d2}
    if fmt == "json":
        out = oracle_json_dumps({"params": p, "depth": depth, "checks": records}) + "\n"
    else:
        lines = [f"params: c={params.c} d={params.d} d1={params.d1} d2={params.d2}", f"depth: {depth}"]
        for record in records:
            listing = ": " + " ".join(map(str, record["sums"])) if "sums" in record else ""
            lines.append(f"{record['check']}: {record['summary']}{listing}")
        out = "\n".join(lines) + "\n"
    statuses = {record["status"] for record in records}
    code = 3 if "inapplicable" in statuses else 1 if "failed" in statuses else 0
    return out, code


# --- arbitrary grids for the classifier -------------------------------------


@st.composite
def small_grids(draw, values=st.integers(-4, 4), min_rows=3, max_rows=8):
    n_rows = draw(st.integers(min_rows, max_rows))
    return TriangleGrid(
        [draw(st.lists(values, min_size=n + 1, max_size=n + 1)) for n in range(n_rows)]
    )


@st.composite
def planted_grids(draw):
    """A closed form with one cell changed; the change may land anywhere, edges included."""
    params = draw(st.builds(GrtParams, *[st.integers(-5, 5)] * 4))
    rows = [list(row) for row in generate_closed_form(params, draw(st.integers(3, 9))).rows]
    n = draw(st.integers(0, len(rows) - 1))
    r = draw(st.integers(0, n))
    rows[n][r] += draw(st.integers(-3, 3).filter(bool))
    return TriangleGrid(rows)


@st.composite
def mixed_grids(draw):
    """A closed form of 10-40 rows with some diagonals broken from chosen rows on, the others arithmetic.

    Three cases.  Bumps growing as squares along chosen diagonals from
    chosen cells on: each breaks its own diagonal, and each diagonal of the
    other family where it crosses, so the diagonals still arithmetic form
    runs with holes.  ``e*r*r*k`` (or ``e*r*k*k``) added everywhere: every
    minor (or major) breaks but the edge, which survives alone, as in the
    benchmark's "neither" construction.  Or a few single cells changed.
    """
    params = draw(st.builds(GrtParams, *[st.integers(-5, 5)] * 4))
    n_rows = draw(st.integers(10, 40))
    rows = [list(row) for row in generate_closed_form(params, n_rows).rows]
    nonzero = st.integers(-3, 3).filter(bool)
    case = draw(st.sampled_from(["diagonals", "lone edge", "cells"]))
    if case == "diagonals":
        for _ in range(draw(st.integers(1, 4))):
            major = draw(st.booleans())
            index = draw(st.integers(0, n_rows - 1))
            start = draw(st.integers(0, n_rows - 1 - index))  # a position along the diagonal
            bump = draw(nonzero)
            for position in range(start, n_rows - index):
                r, k = (index, position) if major else (position, index)
                rows[r + k][r] += bump * (position - start + 1) ** 2
    elif case == "lone edge":
        e, minors_break = draw(nonzero), draw(st.booleans())
        for n, row in enumerate(rows):
            for r in range(n + 1):
                row[r] += e * r * (n - r) * (r if minors_break else n - r)
    else:
        for _ in range(draw(st.integers(1, 3))):
            n = draw(st.integers(0, n_rows - 1))
            rows[n][draw(st.integers(0, n))] += draw(nonzero)
    return TriangleGrid(rows)


_I64_EDGES = [-(2**63) - 1, -(2**63), 2**63 - 1, 2**63]


@st.composite
def i64_edge_grids(draw):
    """Grids whose first terms, differences and violations sit at the edges of the signed 64-bit range.

    A closed form with c, d1 and d2 drawn from the four values around the
    signed 64-bit range (or small), and perhaps one cell set to such a value.
    """
    value = st.one_of(st.sampled_from(_I64_EDGES), st.integers(-2, 2))
    params = GrtParams(draw(value), draw(st.integers(-2, 2)), draw(value), draw(value))
    rows = [list(row) for row in generate_closed_form(params, draw(st.integers(3, 7))).rows]
    if draw(st.booleans()):
        n = draw(st.integers(0, len(rows) - 1))
        rows[n][draw(st.integers(0, n))] = draw(st.sampled_from(_I64_EDGES))
    return TriangleGrid(rows)


zero_heavy = st.sampled_from([0, 0, 0, 0, 1, -1, 2])
any_grid = st.one_of(
    small_grids(),
    small_grids(values=zero_heavy),
    planted_grids(),
    st.builds(generate_by_addition, boundaries(min_rows=3), st.integers(-4, 4)),
    st.builds(v_style_grid, st.integers(3, 8)),
)


# --- reference parsers -------------------------------------------------------
# The triangle-file grammar read token by token, each token judged character
# by character rather than by int(): the row parsers must give the same rows,
# or a TriangleParseError with the same message and line.


def oracle_is_int(token):
    """Whether ``token`` is ASCII ``-?[0-9]+``."""
    digits = token[1:] if token.startswith("-") else token
    return digits != "" and all(ch in "0123456789" for ch in digits)


def oracle_too_long(token):
    """The refusal of a grammar token past the interpreter's int-to-str digit limit; None within it."""
    digits = len(token.lstrip("-"))
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() == 0: no limit before 3.10.7
    return f"{digits}-digit integer is too long to convert" if limit and digits > limit else None


def oracle_plain_rows(text):
    """The rows of plain-rows ``text``, or the (message, line) of the error reading it must raise."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()  # any whitespace separates, a no-break space too
        bad = [token for token in tokens if not oracle_is_int(token)]
        if bad:
            return f"line {lineno}: {bad[0]!r} is not a base-10 integer", lineno
        too_long = [token for token in tokens if oracle_too_long(token)]
        if too_long:
            return f"line {lineno}: {oracle_too_long(max(too_long, key=len))}", lineno
        n = len(rows)
        if len(tokens) != n + 1:
            return f"line {lineno}: row {n} has {len(tokens)} entries, expected {n + 1}", lineno
        rows.append(tuple(int(token) for token in tokens))
    return rows if rows else ("no rows found", None)


def oracle_json_rows(raw_rows):
    """The rows of a decoded JSON ``"rows"`` array, or the (message, line) of the error reading it must raise."""
    rows = []
    for n, raw in enumerate(raw_rows):
        if not isinstance(raw, list):
            return f"row {n} is not an array", None
        row = []
        for value in raw:
            if isinstance(value, bool):
                return f"row {n}: {value!r} is not an integer", None
            if isinstance(value, int):
                row.append(value)
            elif isinstance(value, str) and oracle_is_int(value):
                if oracle_too_long(value):
                    return f"row {n}: {oracle_too_long(value)}", None
                row.append(int(value))
            else:
                return f"row {n}: {value!r} is not an integer or integer string", None
        if len(row) != n + 1:
            return f"row {n} has {len(row)} entries, expected {n + 1}", None
        rows.append(tuple(row))
    return rows if rows else ("no rows found", None)


class _Object(dict):
    """A JSON object as ``json.loads`` reads it, the last value of a key kept, with every key read in ``read``."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.read = [key for key, _ in pairs]


def oracle_json_document(text):
    """The rows of the JSON triangle ``text``, or the (message, line) of the error reading it must raise.

    A text whose first character after JSON whitespace is not ``{`` is no
    object, whatever follows.  Else the whole document is parsed by
    ``json.loads``: its error, if any, is the answer, then a second "rows"
    member of the top-level object, then the checks of the "rows" array and
    its rows.
    """
    if not text.lstrip(" \t\n\r").startswith("{"):
        return 'expected a JSON object with a "rows" array', None
    try:
        doc = json.loads(text, object_pairs_hook=_Object)
    except json.JSONDecodeError as err:
        return f"line {err.lineno}: invalid JSON: {err.msg}", err.lineno
    except RecursionError:
        return "invalid JSON: arrays nested too deeply", None
    except ValueError:
        return "invalid JSON: a number has too many digits to convert", None
    if not isinstance(doc, dict) or "rows" not in doc:
        return 'expected a JSON object with a "rows" array', None
    if doc.read.count("rows") > 1:
        return 'more than one "rows" member', None
    if not isinstance(doc["rows"], list):
        return '"rows" must be an array of arrays', None
    return oracle_json_rows(doc["rows"])


# --- reference argv parser ---------------------------------------------------
# The argparse parser of the command table that the CLI used before it read
# every argv itself: cli._read_argv must take the argvs it takes, with the
# same arguments, give help where it gives help, and refuse the rest.


def oracle_build_parser():
    """The argparse parser of ``cli._COMMANDS``, whose usage errors are refusals with exit code 64.

    A ``--flag=--`` holds the text ``--``, as argparse 3.13 reads it: before
    3.13, argparse drops the ``--`` and stores ``[]``, with no type or choice
    checked.
    """
    import argparse

    from rascal.cli import _COMMANDS, _usage
    from rascal.triangle_io import grammar_int

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # report usage problems via exit code 64, not argparse's 2
            raise _usage(message)

        def _get_values(self, action, arg_strings):
            if action.option_strings and arg_strings == ["--"]:  # no flag's value is "--" but after "="
                value = self._get_value(action, "--")
                self._check_value(action, value)
                return value
            return super()._get_values(action, arg_strings)

    def integer(text):
        try:
            return grammar_int(text)
        except ValueError as err:  # argparse words a ValueError its own way, but keeps this one's message
            raise argparse.ArgumentTypeError(f"invalid int value: {err}") from None

    parser = Parser(prog="rascal", description="Exact tools for generalized Rascal triangles.")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)
    for command, (_, command_help, flags) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=command_help)
        for flag, (kind, default, required, flag_help) in flags.items():
            command_parser.add_argument(
                flag,
                type=integer if kind is int else None,
                choices=kind if isinstance(kind, tuple) else None,
                default=default,
                required=required,
                help=flag_help,
            )
    return parser


def oracle_argparse_args(argv):
    """``vars()`` of the namespace ``oracle_build_parser`` reads from ``argv``, read the same on every Python.

    A leading ``--`` is refused as the command ``--``, as before 3.13; 3.13
    drops it and reads the command after it.
    """
    if argv[:1] == ["--"]:
        from rascal.cli import _COMMANDS, _usage

        raise _usage(f"argument command: invalid choice: '--' (choose from {', '.join(map(repr, _COMMANDS))})")
    return vars(oracle_build_parser().parse_args(argv))
