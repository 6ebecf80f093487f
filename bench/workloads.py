"""Seeded inputs for the benchmark workloads, each with the facts its output must match.

Everything here is the benchmark's own code.  Triangles come from the closed
form ``T(r, k) = c + k*d1 + r*d2 + r*k*d`` and from the two local rules as
written out below, never from ``rascal.generate``.  A change to the program
therefore cannot change what it is fed or how it is judged.  The program
sees only the files written here and its argv.

Storage convention (the program's): row ``n``, position ``j`` holds
``T(r=j, k=n-j)``.  The interior cell at row ``n``, position ``r`` has
east = row n-1 pos r, west = row n-1 pos r-1 and north = row n-2 pos r-1.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("grt-roundtrip", "nongrt-classify", "props-sweep")

# Sizes used by the benchmark proper; the smoke test passes tiny ones.
DEFAULT_SIZES = {
    "grt-roundtrip": {"rows": 600, "probe_depth": 25},
    "nongrt-classify": {"rows": 700, "big_rows": 350, "probe_depth": 25},
    "props-sweep": {"depth": 100},
}

# The eleven checks of `rascal props`, in report order.  The benchmark keeps
# its own copy so that its metric names and expectations cannot drift with
# the program.
CHECKS = (
    "rowsums",
    "odd-diamond",
    "even-diamond",
    "ashley",
    "ashley-mod1",
    "ashley-mod2",
    "ashley-mod3",
    "column-diff",
    "tmeg",
    "embed",
    "multiple",
)

_I64 = 2**63

Params = tuple  # (c, d, d1, d2)


@dataclass
class Op:
    """One CLI invocation and what its output must be."""

    kind: str  # "generate", "classify" or "props"
    label: str
    argv: list[str]  # arguments after `python -m rascal`
    output: Path  # where its stdout goes
    expected_exit: int
    facts: dict
    cells: int  # cells the program generates or parses (props: cells of the swept triangle)


@dataclass
class Item:
    """One distinct input triangle, for the traced run."""

    label: str
    shape: str  # how the triangle is built: "closed-form" or a non-grt construction
    params: Params  # the op's parameters, or those fitted from rows 0-2
    depth: int  # props depth used on this item
    n_rows: int
    text_path: Path  # the triangle written as plain rows
    classify_facts: dict
    make_rows: Callable[[], list[list[int]]] = field(repr=False)


@dataclass
class Workload:
    ops: list[Op]  # the timed op list, in order
    items: list[Item]  # its distinct input triangles


# --- triangle construction --------------------------------------------------


def closed_form_row(p: Params, n: int) -> list[int]:
    c, d, d1, d2 = p
    return [c + (n - r) * d1 + r * d2 + r * (n - r) * d for r in range(n + 1)]


def closed_form_rows(p: Params, n_rows: int) -> list[list[int]]:
    return [closed_form_row(p, n) for n in range(n_rows)]


def addition_rows(major: list[int], minor: list[int], d: int) -> list[list[int]]:
    """Grow the interior with south = east + west + d - north from two edges."""
    rows = [[major[0]]]
    for n in range(1, len(major)):
        prev, above = rows[n - 1], rows[n - 2] if n >= 2 else None
        inner = [prev[r] + prev[r - 1] + d - above[r - 1] for r in range(1, n)]
        rows.append([major[n], *inner, minor[n]])
    return rows


def geometric_rows(a: int, p: int, q: int, n_rows: int) -> list[list[int]]:
    """T(r, k) = a * p**r * q**k: south*north = east*west everywhere (constant 0)."""
    return [[a * p**r * q ** (n - r) for r in range(n + 1)] for n in range(n_rows)]


def cubic_rows(c: int, d: int, e: int, n_rows: int) -> list[list[int]]:
    """T(r, k) = c + r*k*d + e*r*r*k: minor diagonals are quadratic, so neither rule holds."""
    return [[c + r * (n - r) * d + e * r * r * (n - r) for r in range(n + 1)] for n in range(n_rows)]


def fitted_params(rows: list[list[int]]) -> Params:
    """(c, d, d1, d2) from rows 0-2, the way any closed-form fit must read them."""
    c = rows[0][0]
    d1 = rows[1][0] - c
    d2 = rows[1][1] - c
    d = rows[2][1] - rows[1][0] - rows[1][1] + c
    return (c, d, d1, d2)


def mult_constant(p: Params) -> int:
    c, d, d1, d2 = p
    return c * d - d1 * d2


def _draw_grt_params(rng: random.Random) -> Params:
    """Parameters of one sign, so no entry is ever zero and every rule applies."""
    sign = rng.choice((1, -1))
    c = rng.randint(100, 999)
    d1, d2 = rng.randint(10, 99), rng.randint(10, 99)
    d = rng.randint(5, 9)
    return (sign * c, sign * d, sign * d1, sign * d2)


# --- facts a classify report must match --------------------------------------


def _addition_implied(s, e, w, n):
    return s - e - w + n


def _multiplication_implied(s, e, w, n):
    return s * n - e * w


def rule_facts(rows: list[list[int]], rule: str) -> dict:
    """Reference scan: the common constant, or the first two disagreeing diamonds (row-major)."""
    implied = _addition_implied if rule == "addition" else _multiplication_implied
    first = None
    for n in range(2, len(rows)):
        row, prev, above = rows[n], rows[n - 1], rows[n - 2]
        for r in range(1, n):
            value = implied(row[r], prev[r], prev[r - 1], above[r - 1])
            if first is None:
                first = (r, n - r, value)
            elif value != first[2]:
                witnesses = [
                    {"r": w[0], "k": w[1], "implied_constant": w[2]} for w in (first, (r, n - r, value))
                ]
                return {"rule": rule, "constant": None, "witnesses": witnesses}
    return {"rule": rule, "constant": first[2], "witnesses": None}


def _sequence_facts(kind: str, index: int, seq: list[int]) -> dict:
    fact = {
        "kind": kind,
        "index": index,
        "first_term": seq[0],
        "common_difference": None,
        "first_violation": None,
        "under_determined": len(seq) < 3,
    }
    diff = seq[1] - seq[0] if len(seq) > 1 else 0
    for pos in range(2, len(seq)):
        if seq[pos] != seq[pos - 1] + diff:
            fact["first_violation"] = {
                "position": pos,
                "expected": seq[pos - 1] + diff,
                "actual": seq[pos],
            }
            return fact
    fact["common_difference"] = diff
    return fact


def diagonal_facts(rows: list[list[int]]) -> list[dict]:
    """Reference scan of every major diagonal, then every minor one."""
    size = len(rows)
    majors = [_sequence_facts("major", r, [rows[r + k][r] for k in range(size - r)]) for r in range(size)]
    minors = [_sequence_facts("minor", k, [rows[r + k][r] for r in range(size - k)]) for k in range(size)]
    return majors + minors


def grt_classify_facts(p: Params, n_rows: int) -> dict:
    """The whole report of a parameterized triangle, straight from the closed form."""
    c, d, d1, d2 = p

    def diagonal(kind, index, first, step):
        length = n_rows - index
        return {
            "kind": kind,
            "index": index,
            "first_term": first,
            "common_difference": step if length > 1 else 0,
            "first_violation": None,
            "under_determined": length < 3,
        }

    diagonals = [diagonal("major", r, c + r * d2, d1 + r * d) for r in range(n_rows)]
    diagonals += [diagonal("minor", k, c + k * d1, d2 + k * d) for k in range(n_rows)]
    return {
        "verdict": "grt",
        "params": {"c": c, "d": d, "d1": d1, "d2": d2},
        "addition": {"rule": "addition", "constant": d, "witnesses": None},
        "multiplication": {"rule": "multiplication", "constant": mult_constant(p), "witnesses": None},
        "diagonals": diagonals,
    }


def scanned_classify_facts(rows: list[list[int]], verdict: str) -> dict:
    return {
        "verdict": verdict,
        "params": None,
        "addition": rule_facts(rows, "addition"),
        "multiplication": rule_facts(rows, "multiplication"),
        "diagonals": diagonal_facts(rows),
    }


def props_statuses(p: Params) -> dict:
    """Expected status per check: every identity holds for every integer parameter set."""
    c, d, d1, d2 = p
    statuses = {name: "holds" for name in CHECKS}
    statuses["tmeg"] = "holds" if d1 == 0 and d2 == 0 else "skipped"
    embeds = d == 1 and c - d1 * d2 == 1 and d1 >= 0 and d2 >= 0
    statuses["embed"] = "found" if embeds else "none"
    statuses["multiple"] = "found" if d == c and d1 == 0 and d2 == 0 else "none"
    return statuses


# --- files ---------------------------------------------------------------------


def render_text(rows) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def render_json(rows) -> str:
    return json.dumps({"rows": [[v if -_I64 <= v < _I64 else str(v) for v in row] for row in rows]}) + "\n"


def param_flags(p: Params) -> list[str]:
    c, d, d1, d2 = p
    return ["--c", str(c), "--d", str(d), "--d1", str(d1), "--d2", str(d2)]


def _cells(n_rows: int) -> int:
    return n_rows * (n_rows + 1) // 2


# --- workloads ------------------------------------------------------------------


def build(name: str, seed: int, work_dir: Path, sizes: dict | None = None) -> Workload:
    """Build the op list and inputs of workload ``name`` from ``seed``, writing files into ``work_dir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    sizes = {**DEFAULT_SIZES[name], **(sizes or {})}
    rng = random.Random(f"{name}:{seed}")
    work_dir.mkdir(parents=True, exist_ok=True)
    construct = {"grt-roundtrip": _grt_roundtrip, "nongrt-classify": _nongrt_classify, "props-sweep": _props_sweep}
    return Workload(*construct[name](rng, work_dir, sizes))


def _grt_roundtrip(rng, work_dir, sizes):
    """Every rule and format; each text and json output is read back by classify."""
    n_rows = sizes["rows"]
    ops, items = [], []
    for rule in ("closed", "add", "mul"):
        for fmt in ("text", "json", "csv"):
            p = _draw_grt_params(rng)
            tag = f"{rule}-{fmt}"
            out = work_dir / f"gen-{tag}.{fmt}"
            ops.append(
                Op(
                    "generate",
                    f"generate {tag}",
                    ["generate", *param_flags(p), "--rows", str(n_rows), "--rule", rule, "--format", fmt],
                    out,
                    0,
                    {"params": p, "n_rows": n_rows, "format": fmt},
                    _cells(n_rows),
                )
            )
            facts = grt_classify_facts(p, n_rows)
            if fmt != "csv":
                ops.append(
                    Op(
                        "classify",
                        f"classify {tag}",
                        ["classify", "--input", str(out), "--format", "json"],
                        work_dir / f"cls-{tag}.json",
                        0,
                        facts,
                        _cells(n_rows),
                    )
                )
            items.append(
                _item(work_dir, tag, "closed-form", p, sizes["probe_depth"], facts, lambda p=p: closed_form_rows(p, n_rows))
            )
    return ops, items


def _nongrt_classify(rng, work_dir, sizes):
    """Inputs with known structure that are not parameterized triangles."""
    n_rows, big_rows = sizes["rows"], sizes["big_rows"]
    ops, items = [], []
    for kind in ("addition-only", "multiplication-only", "neither", "planted"):
        for fmt in ("text", "json"):
            recipe, verdict, planted = _nongrt_recipe(kind, rng, big_rows if kind == "multiplication-only" else n_rows)
            rows = recipe()
            facts = scanned_classify_facts(rows, verdict)
            if planted is not None:
                _confirm_planted(facts, planted)
            _confirm_verdict(rows, facts)
            tag = f"{kind}-{fmt}"
            path = work_dir / f"in-{tag}.{'json' if fmt == 'json' else 'txt'}"
            path.write_text(render_json(rows) if fmt == "json" else render_text(rows))
            ops.append(
                Op(
                    "classify",
                    f"classify {tag}",
                    ["classify", "--input", str(path), "--format", "json"],
                    work_dir / f"cls-{tag}.json",
                    1,
                    facts,
                    _cells(len(rows)),
                )
            )
            items.append(_item(work_dir, tag, kind, fitted_params(rows), sizes["probe_depth"], facts, recipe, rows))
    return ops, items


def _nongrt_recipe(kind, rng, n_rows):
    """(rows factory, verdict, planted cell or None) for one non-grt construction."""
    if kind == "addition-only":
        # Arbitrary (non-arithmetic) edges grown by the addition rule.
        apex = rng.randint(10**5, 10**6)
        major = [apex] + [rng.randint(-(10**6), 10**6) for _ in range(n_rows - 1)]
        minor = [apex] + [rng.randint(-(10**6), 10**6) for _ in range(n_rows - 1)]
        d = rng.choice((1, -1)) * rng.randint(2, 99)
        return (lambda: addition_rows(major, minor, d)), "addition-only", None
    if kind == "multiplication-only":
        # Geometric edges; entries reach about 560 bits at 350 rows.
        a = rng.choice((1, -1)) * rng.randint(2, 999)
        p, q = rng.choice(((2, 3), (3, 2)))
        p, q = p * rng.choice((1, -1)), q * rng.choice((1, -1))
        return (lambda: geometric_rows(a, p, q, n_rows)), "multiplication-only", None
    if kind == "neither":
        c, d = rng.randint(100, 999), rng.randint(2, 9)
        e = rng.choice((1, -1)) * rng.randint(1, 9)
        return (lambda: cubic_rows(c, d, e, n_rows)), "neither", None
    # A parameterized triangle with one interior cell changed in one of the last two rows.
    params = _draw_grt_params(rng)
    n = n_rows - 1 - rng.randint(0, 1)
    r = rng.randint(1, n - 1)
    delta = rng.choice((1, -1)) * rng.randint(1, 50)

    def planted_rows():
        rows = closed_form_rows(params, n_rows)
        rows[n][r] += delta
        return rows

    return planted_rows, "neither", (n, r, delta, params)


def _confirm_planted(facts, planted):
    """The reference scan must put the second witness of both rules on the planted cell."""
    n, r, delta, params = planted
    north = closed_form_row(params, n - 2)[r - 1]
    expected = {
        "addition": (params[1], params[1] + delta),
        "multiplication": (mult_constant(params), mult_constant(params) + delta * north),
    }
    for rule, (base, changed) in expected.items():
        first, second = facts[rule]["witnesses"]
        if (first["r"], first["k"], first["implied_constant"]) != (1, 1, base) or (
            second["r"],
            second["k"],
            second["implied_constant"],
        ) != (r, n - r, changed):
            raise AssertionError(f"planted cell ({r}, {n - r}) not found by the {rule} scan")


def _confirm_verdict(rows, facts):
    """Constructions must land on their verdict: not a closed form, and the right rules holding."""
    if rows == closed_form_rows(fitted_params(rows), len(rows)):
        raise AssertionError("a non-grt construction came out as a closed form")
    holds = {rule: facts[rule]["constant"] is not None for rule in ("addition", "multiplication")}
    verdict = {
        (True, False): "addition-only",
        (False, True): "multiplication-only",
        (False, False): "neither",
    }.get((holds["addition"], holds["multiplication"]))
    if verdict != facts["verdict"]:
        raise AssertionError(f"construction meant {facts['verdict']} but the rules give {verdict}")


def _props_sweep(rng, work_dir, sizes):
    """props over parameter families that take different branches of the check layer."""
    depth = sizes["depth"]
    ops, items = [], []
    families = ("generic", "generic", "tmeg", "embeddable", "multiple")
    for index, family in enumerate(families):
        if family == "generic":
            p = _draw_grt_params(rng)
        elif family == "tmeg":  # d1 = d2 = 0 but not a multiple: entries c + r*k*d
            c = rng.randint(100, 999)
            p = (c, c + rng.randint(1, 99), 0, 0)
        elif family == "embeddable":  # d = 1 and c = 1 + d1*d2 with d1, d2 >= 0
            d1, d2 = rng.randint(0, 30), rng.randint(0, 30)
            p = (1 + d1 * d2, 1, d1, d2)
        else:  # scalar multiple m * (1 + r*k)
            m = rng.choice((1, -1)) * rng.randint(2, 999)
            p = (m, m, 0, 0)
        tag = f"{family}-{index}"
        ops.append(
            Op(
                "props",
                f"props {tag}",
                ["props", *param_flags(p), "--depth", str(depth), "--format", "json"],
                work_dir / f"props-{tag}.json",
                0,
                {"statuses": props_statuses(p)},
                _cells(depth + 1),
            )
        )
        facts = grt_classify_facts(p, depth + 1)
        items.append(_item(work_dir, tag, "closed-form", p, depth, facts, lambda p=p: closed_form_rows(p, depth + 1)))
    return ops, items


def _item(work_dir, tag, shape, params, depth, facts, make_rows, rows=None) -> Item:
    """Record an input for the traced run and write it as plain rows for in-process classify."""
    rows = rows if rows is not None else make_rows()
    path = work_dir / f"item-{tag}.txt"
    path.write_text(render_text(rows))
    return Item(tag, shape, params, depth, len(rows), path, facts, make_rows)


def trace_ops(workload: Workload, work_dir: Path) -> list[Op]:
    """The three CLI calls the traced run makes on each item, with their facts."""
    ops = []
    for item in workload.items:
        flags = param_flags(item.params)
        ops.append(
            Op(
                "generate",
                f"generate {item.label}",
                ["generate", *flags, "--rows", str(item.n_rows), "--format", "text"],
                work_dir / f"tgen-{item.label}.txt",
                0,
                {"params": item.params, "n_rows": item.n_rows, "format": "text"},
                _cells(item.n_rows),
            )
        )
        ops.append(
            Op(
                "classify",
                f"classify {item.label}",
                ["classify", "--input", str(item.text_path), "--format", "json"],
                work_dir / f"tcls-{item.label}.json",
                0 if item.classify_facts["verdict"] == "grt" else 1,
                item.classify_facts,
                _cells(item.n_rows),
            )
        )
        ops.append(
            Op(
                "props",
                f"props {item.label}",
                ["props", *flags, "--depth", str(item.depth), "--format", "json"],
                work_dir / f"tprops-{item.label}.json",
                0,
                {"statuses": props_statuses(item.params)},
                _cells(item.depth + 1),
            )
        )
    return ops
