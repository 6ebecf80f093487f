"""The traced run: every module's public functions called in process on the workload's inputs.

Spans (name, start, end, parent, op id, seconds covered by traced children)
are kept in memory and written out when the run ends.  The library calls
that ``rascal.cli`` makes are traced by swapping the names it imported for
wrappers, for the length of each in-process ``cli.main`` call only.
Identity instances are too many for one span each, so their wrappers only
count calls and add their time to the enclosing span's covered time.

The separate passes, in order:

A. the items' CLI calls as subprocesses (untraced; also judged for correctness);
B. every layer traced, each call separate, on each item.  Each CLI call runs
   in process twice, untraced and then traced, so the two differ only by
   the tracing and the gap to pass A is the cost of being a process;
C. ``tracemalloc`` alone, for generator and classifier peaks, on the first
   item of each shape (items of one shape and size peak alike, and tracing
   every allocation is slow).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

from workloads import CHECKS, Workload, param_flags, trace_ops

# Library names rascal.cli imports that mark a layer boundary, and the span each gets.
_CLI_SPANS = {
    "generate_closed_form": "generate.closed_form",
    "boundary_from_params": "generate.boundary",
    "generate_by_addition": "generate.addition",
    "generate_by_multiplication": "generate.multiplication",
    "render_text": "triangle_io.render_text",
    "render_json": "triangle_io.render_json",
    "render_csv": "triangle_io.render_csv",
    "parse_triangle": "triangle_io.parse_triangle",
    "classify": "analyze.classify",
}
_IDENTITY_FUNCTIONS = (
    "row_sum_formula",
    "odd_diamond_check",
    "even_diamond_check",
    "ashley_check",
    "ashley_mod_check",
    "column_diff_check",
    "t_meg_check",
    "embed_in_rascal",
    "multiple_of_rascal",
)

# Top-level spans of pass C; each gives a per-layer metric "<name>_s", its total seconds.
SPANS = (
    "triangle_io.parse_plain_rows",
    "triangle_io.parse_json",
    "triangle_io.render_text",
    "triangle_io.render_json",
    "triangle_io.render_csv",
    "core.grid_validate",
    "generate.closed_form",
    "generate.addition",
    "generate.multiplication",
    "analyze.classify",
    "analyze.diagonal_reports",
    "analyze.detect_addition_rule",
    "analyze.detect_multiplication_rule",
    "analyze.fit_grt",
    *(f"identities.{name}" for name in CHECKS),
    "cli.generate",
    "cli.classify",
    "cli.props",
)

PER_LAYER = (
    *((f"{name}_s", "s") for name in SPANS),
    ("triangle_io.bytes_in", "bytes"),
    ("triangle_io.bytes_out", "bytes"),
    ("core.cells", "count"),
    ("generate.peak_mib", "MiB"),
    ("generate.max_entry_bits", "bits"),
    ("analyze.classify_peak_mib", "MiB"),
    ("analyze.interior_diamonds", "count"),
    ("identities.instances", "count"),
    ("cli.self_s", "s"),
    ("cli.process_gap_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """In-memory spans; each is [name, start, end, parent index, op id, covered seconds]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, self.op, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()
            if parent is not None:
                self.spans[parent][5] += record[2] - record[1]

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def tallied(self, counter: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if self._open:
                    self.spans[self._open[-1]][5] += time.perf_counter() - start
                self.counts[counter] += 1

        return wrapper

    def total(self, name: str) -> float:
        """Seconds in top-level spans called ``name``."""
        return sum(end - start for n, start, end, parent, _, _ in self.spans if n == name and parent is None)

    def self_time(self, prefix: str) -> float:
        """Top-level spans under ``prefix``: duration minus what traced children cover."""
        return sum(
            end - start - covered
            for n, start, end, parent, _, covered in self.spans
            if n.startswith(prefix) and parent is None
        )

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op", "covered_s")
        path.write_text(json.dumps({"spans": [dict(zip(keys, s)) for s in self.spans], "counts": self.counts}))


@contextlib.contextmanager
def _cli_traced(cli, tracer: Tracer, counter: str):
    """Swap the layer functions rascal.cli imported for tracing wrappers, then restore them.

    Identity-function calls are counted under ``counter``.
    """
    swapped = {name: getattr(cli, name) for name in (*_CLI_SPANS, *_IDENTITY_FUNCTIONS) if hasattr(cli, name)}
    for name, fn in swapped.items():
        if name in _CLI_SPANS:
            setattr(cli, name, tracer.spanned(_CLI_SPANS[name], fn))
        else:
            setattr(cli, name, tracer.tallied(counter, fn))
    try:
        yield
    finally:
        for name, fn in swapped.items():
            setattr(cli, name, fn)


def _cli_call(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _layer_pass(cli, workload: Workload, ops, tracer: Tracer, totals: Counter) -> float:
    """Pass B: each layer on each item, one separate call per span; returns untraced CLI seconds."""
    from rascal import analyze, generate, triangle_io
    from rascal.core import GrtParams, TriangleGrid

    untraced = 0.0
    for index, item in enumerate(workload.items):
        tracer.op = index
        rows = item.make_rows()
        with tracer.span("core.grid_validate"):
            grid = TriangleGrid(rows)
        totals["core.cells"] += sum(map(len, rows))
        del rows
        rendered = {}
        for fmt in ("text", "json", "csv"):
            with tracer.span(f"triangle_io.render_{fmt}"):
                rendered[fmt] = getattr(triangle_io, f"render_{fmt}")(grid)
            totals["triangle_io.bytes_out"] += len(rendered[fmt])
        with tracer.span("triangle_io.parse_plain_rows"):
            triangle_io.parse_plain_rows(rendered["text"])
        with tracer.span("triangle_io.parse_json"):
            triangle_io.parse_json(rendered["json"])
        totals["triangle_io.bytes_in"] += len(rendered["text"]) + len(rendered["json"])
        del rendered

        params = GrtParams(*item.params)
        with tracer.span("generate.closed_form"):
            made = generate.generate_closed_form(params, item.n_rows)
        totals["generate.max_entry_bits"] = max(
            totals["generate.max_entry_bits"], max(abs(v).bit_length() for row in made.rows for v in row)
        )
        del made
        boundary = generate.boundary_from_params(params, item.n_rows)
        with tracer.span("generate.addition"):
            generate.generate_by_addition(boundary, params.d)
        with tracer.span("generate.multiplication"):
            try:
                generate.generate_by_multiplication(boundary, generate.mult_constant(params))
            except generate.MultiplicationRuleError:
                pass  # fitted parameters of a non-grt input may hit a zero north entry

        with tracer.span("analyze.classify"):
            analyze.classify(grid)
        for name in ("diagonal_reports", "detect_addition_rule", "detect_multiplication_rule"):
            with tracer.span(f"analyze.{name}"):
                getattr(analyze, name)(grid)
        with tracer.span("analyze.fit_grt"):
            try:
                analyze.fit_grt(grid)
            except analyze.NotGrtError:
                pass
        totals["analyze.interior_diamonds"] += (item.n_rows - 1) * (item.n_rows - 2) // 2
        del grid

        flags = param_flags(item.params)
        with _cli_traced(cli, tracer, "identities.instances"):
            for check in CHECKS:
                with tracer.span(f"identities.{check}"):
                    _cli_call(cli, ["props", *flags, "--depth", str(item.depth), "--checks", check, "--format", "json"])
        for op in ops[3 * index : 3 * index + 3]:
            start = time.perf_counter()
            _cli_call(cli, op.argv)
            untraced += time.perf_counter() - start
            with _cli_traced(cli, tracer, "cli.identity_calls"), tracer.span(f"cli.{op.kind}"):
                _cli_call(cli, op.argv)
    return untraced


def _memory_pass(workload: Workload) -> tuple[float, float]:
    """Pass C: peak traced MiB while generating, and while classifying an already built grid."""
    from rascal import analyze, generate
    from rascal.core import GrtParams, TriangleGrid

    gen_peak = classify_peak = 0
    shapes = set()
    for item in workload.items:
        if item.shape in shapes:
            continue
        shapes.add(item.shape)
        params = GrtParams(*item.params)
        tracemalloc.start()
        try:
            for make in (
                lambda: generate.generate_closed_form(params, item.n_rows),
                lambda: generate.generate_by_addition(generate.boundary_from_params(params, item.n_rows), params.d),
            ):
                tracemalloc.reset_peak()
                make()
                gen_peak = max(gen_peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        grid = TriangleGrid(item.make_rows())
        tracemalloc.start()
        try:
            analyze.classify(grid)
            classify_peak = max(classify_peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return gen_peak / 2**20, classify_peak / 2**20


def traced_run(workload: Workload, executor, src: Path, work_dir: Path, trace_path: Path):
    """Passes A-C; writes the spans to ``trace_path`` and returns (per-layer metrics, judged records of pass A)."""
    sys.path.insert(0, str(src))
    from rascal import cli

    ops = trace_ops(workload, work_dir)
    records = [executor.run(op) for op in ops]  # A
    tracer, totals = Tracer(), Counter()
    untraced = _layer_pass(cli, workload, ops, tracer, totals)  # B
    gen_peak, classify_peak = _memory_pass(workload)  # C
    tracer.write(trace_path)

    traced_cli = sum(tracer.total(f"cli.{kind}") for kind in ("generate", "classify", "props"))
    values = {
        **{f"{name}_s": tracer.total(name) for name in SPANS},
        **totals,
        "identities.instances": tracer.counts["identities.instances"],
        "generate.peak_mib": gen_peak,
        "analyze.classify_peak_mib": classify_peak,
        "cli.self_s": tracer.self_time("cli."),
        "cli.process_gap_s": sum(rec.seconds for rec in records) - untraced,
        "trace.overhead_ratio": traced_cli / untraced - 1,
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER}, records

