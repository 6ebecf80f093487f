"""Diagonal reports, parameter fitting, rule detection, classification."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    any_grid,
    boundaries,
    mixed_grids,
    oracle_classify,
    oracle_diagonal_reports,
    oracle_fit,
    oracle_mismatch,
    oracle_rule,
    planted_grids,
    small_grids,
    u_style_grid,
    v_style_grid,
)
from rascal import (
    VERDICT_ADDITION_ONLY,
    VERDICT_GRT,
    VERDICT_MULTIPLICATION_ONLY,
    VERDICT_NEITHER,
    Boundary,
    GrtParams,
    NotGrtError,
    TooSmallError,
    TriangleGrid,
    addition_rows,
    boundary_from_params,
    classify,
    classify_rows,
    detect_addition_rule,
    detect_multiplication_rule,
    diagonal_reports,
    fit_grt,
    generate_by_addition,
    generate_by_multiplication,
    generate_closed_form,
    mult_constant,
)

RASCAL = GrtParams(1, 1, 0, 0)
W = GrtParams(1, 5, 2, 3)

params_st = st.builds(GrtParams, *[st.integers(-10, 10)] * 4)


def report_for(reports, kind, index):
    return next(rep for rep in reports if rep.kind == kind and rep.index == index)


class TestDiagonalReports:
    def test_rascal_all_arithmetic(self):
        reports = diagonal_reports(generate_closed_form(RASCAL, 6))
        assert all(rep.common_difference is not None for rep in reports)
        major2 = report_for(reports, "major", 2)
        assert (major2.first_term, major2.common_difference) == (1, 2)

    def test_w_major_one(self):
        reports = diagonal_reports(generate_closed_form(W, 6))
        major1 = report_for(reports, "major", 1)
        assert (major1.first_term, major1.common_difference) == (4, 7)

    def test_single_row(self):
        reports = diagonal_reports(TriangleGrid(((7,),)))
        assert len(reports) == 2
        assert all(rep.under_determined for rep in reports)
        assert all(rep.common_difference == 0 for rep in reports)
        assert all(rep.first_term == 7 for rep in reports)

    def test_violation_pinpointed(self):
        reports = diagonal_reports(u_style_grid(6))  # minor k=0 runs 1, 2, 4, 8, ...
        minor0 = report_for(reports, "minor", 0)
        assert minor0.common_difference is None
        assert minor0.first_violation == (2, 3, 4)

    def test_count_and_under_determined_flags(self):
        reports = diagonal_reports(generate_closed_form(W, 5))
        assert len(reports) == 10
        for rep in reports:
            # diagonals 3 and 4 of each kind have two entries or fewer
            assert rep.under_determined == (rep.index >= 3)


class TestFitGrt:
    def test_round_trip_w(self):
        assert fit_grt(generate_closed_form(W, 8)) == W

    def test_rascal(self):
        assert fit_grt(generate_closed_form(RASCAL, 6)) == RASCAL

    def test_under_determined_below_three_rows(self):
        # the one too-few-rows error, with classify's message
        with pytest.raises(TooSmallError, match=r"^rule detection needs at least 3 rows, got 2$"):
            fit_grt(generate_closed_form(RASCAL, 2))

    def test_first_violation_in_row_major_scan(self):
        # doubling right edge: the fit from rows 0-2 first breaks at (2, 0)
        grid = generate_by_addition(Boundary(1, (1, 1, 1, 1), (1, 2, 4, 8)), 1)
        with pytest.raises(NotGrtError) as exc_info:
            fit_grt(grid)
        err = exc_info.value
        assert (err.r, err.k) == (2, 0)
        assert (err.expected, err.actual) == (3, 4)

    def test_violation_deeper_in_edge(self):
        # arithmetic for two steps, then broken: first mismatch at (3, 0)
        grid = generate_by_addition(Boundary(1, (1, 1, 1, 1), (1, 2, 3, 8)), 1)
        with pytest.raises(NotGrtError) as exc_info:
            fit_grt(grid)
        assert (exc_info.value.r, exc_info.value.k) == (3, 0)
        assert (exc_info.value.expected, exc_info.value.actual) == (4, 8)

    def test_perturbed_interior_entry_is_caught(self):
        rows = [list(row) for row in generate_closed_form(W, 8).rows]
        rows[4][2] += 1  # T(2, 2)
        bumped = TriangleGrid(rows)
        with pytest.raises(NotGrtError) as exc_info:
            fit_grt(bumped)
        assert (exc_info.value.r, exc_info.value.k) == (2, 2)
        reports = diagonal_reports(bumped)
        assert report_for(reports, "major", 2).common_difference is None
        assert report_for(reports, "minor", 2).common_difference is None

    @given(params=params_st, n_rows=st.integers(3, 9))
    def test_round_trip(self, params, n_rows):
        assert fit_grt(generate_closed_form(params, n_rows)) == params


class TestRuleDetection:
    def test_rascal_constants(self):
        grid = generate_closed_form(RASCAL, 6)
        assert detect_addition_rule(grid).constant == 1
        assert detect_multiplication_rule(grid).constant == 1

    def test_constants_two_and_one(self):
        grid = generate_closed_form(GrtParams(2, 2, 3, 1), 6)
        assert detect_addition_rule(grid).constant == 2
        assert detect_multiplication_rule(grid).constant == 1

    def test_w_constants(self):
        grid = generate_closed_form(W, 6)
        assert detect_addition_rule(grid).constant == 5
        assert detect_multiplication_rule(grid).constant == -1

    def test_v_style_addition_conflict(self):
        report = detect_addition_rule(v_style_grid(6))
        assert report.constant is None
        first, second = report.witnesses
        assert first.implied_constant != second.implied_constant
        assert (first.r, first.k) == (1, 1)

    def test_u_style_multiplication_conflict(self):
        report = detect_multiplication_rule(u_style_grid(6))
        assert report.constant is None
        first, second = report.witnesses
        assert first.implied_constant != second.implied_constant

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            detect_addition_rule(generate_closed_form(RASCAL, 2))
        with pytest.raises(TooSmallError):
            detect_multiplication_rule(generate_closed_form(RASCAL, 2))

    def test_zero_entries_do_not_break_multiplication_detection(self):
        params = GrtParams(0, 1, 1, 1)  # zero apex
        grid = generate_closed_form(params, 6)
        assert detect_multiplication_rule(grid).constant == mult_constant(params)

    @given(boundary=boundaries(min_rows=3), d=st.integers(-6, 6))
    def test_addition_detector_recovers_generator_constant(self, boundary, d):
        report = detect_addition_rule(generate_by_addition(boundary, d))
        assert report.constant == d

    def test_multiplication_detector_on_doubling_grid(self):
        assert detect_multiplication_rule(v_style_grid(7)).constant == 0

    @given(params=params_st, n_rows=st.integers(3, 8))
    def test_multiplication_detector_recovers_generator_constant(self, params, n_rows):
        closed = generate_closed_form(params, n_rows)
        if any(v == 0 for row in closed.rows for v in row):
            return  # the quotient rule is not defined over zero entries
        grid = generate_by_multiplication(
            boundary_from_params(params, n_rows), mult_constant(params)
        )
        assert detect_multiplication_rule(grid).constant == mult_constant(params)


class TestClassify:
    def test_rascal_is_grt(self):
        result = classify(generate_closed_form(RASCAL, 6))
        assert result.verdict == VERDICT_GRT
        assert result.params == RASCAL
        assert result.addition.constant == 1
        assert result.multiplication.constant == 1

    def test_u_style_addition_only(self):
        result = classify(u_style_grid(6))
        assert result.verdict == VERDICT_ADDITION_ONLY
        assert result.params is None
        assert result.addition.constant == 1
        assert result.multiplication.witnesses is not None

    def test_v_style_multiplication_only(self):
        result = classify(v_style_grid(6))
        assert result.verdict == VERDICT_MULTIPLICATION_ONLY
        assert result.multiplication.constant == 0
        assert result.addition.witnesses is not None

    def test_neither(self):
        grid = TriangleGrid(((1,), (1, 1), (1, 5, 1), (1, 1, 1, 1)))
        assert classify(grid).verdict == VERDICT_NEITHER
        # both rules hold, with constants 2 and -2, but no closed form fits the rows
        both = classify(TriangleGrid(((1,), (-1, -1), (3, -1, 0), (1, 5, 2, -1))))
        assert (both.verdict, both.addition.constant, both.multiplication.constant) == (VERDICT_NEITHER, 2, -2)

    def test_grt_constants_are_tied(self):
        for params in (W, GrtParams(2, 2, 3, 1), GrtParams(-2, 3, 0, 5)):
            result = classify(generate_closed_form(params, 7))
            assert result.verdict == VERDICT_GRT
            assert result.addition.constant == params.d
            assert result.multiplication.constant == mult_constant(params)

    def test_too_small_propagates(self):
        with pytest.raises(TooSmallError):
            classify(generate_closed_form(RASCAL, 2))


class TestArithmeticDiagonalStructure:
    @given(params=params_st, n_rows=st.integers(5, 9))
    def test_difference_steps_equal_d(self, params, n_rows):
        result = classify(generate_closed_form(params, n_rows))
        for kind in ("major", "minor"):
            diffs = [
                rep.common_difference
                for rep in result.diagonals
                if rep.kind == kind and not rep.under_determined
            ]
            assert len(diffs) >= 2
            for previous, current in zip(diffs, diffs[1:]):
                assert current - previous == params.d

    @given(
        c=st.integers(-8, 8),
        d=st.integers(-8, 8),
        d1=st.integers(-8, 8),
        d2=st.integers(-8, 8),
        n_rows=st.integers(3, 9),
    )
    def test_arithmetic_edges_plus_addition_rule_fit(self, c, d, d1, d2, n_rows):
        major = tuple(c + k * d1 for k in range(n_rows))
        minor = tuple(c + r * d2 for r in range(n_rows))
        grid = generate_by_addition(Boundary(c, major, minor), d)
        assert all(rep.common_difference is not None for rep in diagonal_reports(grid))
        assert fit_grt(grid) == GrtParams(c, d, d1, d2)


def fit_outcome(fit, grid):
    try:
        return fit(grid)
    except NotGrtError as err:
        return (err.r, err.k, err.expected, err.actual)


class TestAgreesWithReference:
    """The row-wise classifier against the cell-by-cell scans in helpers."""

    @given(grid=any_grid)
    def test_classify(self, grid):
        assert classify(grid) == oracle_classify(grid)

    @given(grid=mixed_grids())
    def test_classify_mixed_grids(self, grid):
        # many diagonals of each family still arithmetic, in runs with holes, a lone edge,
        # or all but a few planted cells: each way the fold gathers and walks them
        assert classify(grid) == oracle_classify(grid)

    @given(grid=any_grid)
    def test_each_public_pass(self, grid):
        assert diagonal_reports(grid) == oracle_diagonal_reports(grid)
        assert detect_addition_rule(grid) == oracle_rule(grid, "addition")
        assert detect_multiplication_rule(grid) == oracle_rule(grid, "multiplication")
        assert fit_outcome(fit_grt, grid) == fit_outcome(oracle_fit, grid)

    @given(grid=st.one_of(any_grid, planted_grids()))
    def test_mismatch_is_the_first_cell_off_the_fit(self, grid):
        # fit_grt raises exactly classify's mismatch, or returns its params when there is none
        result = classify(grid)
        assert result.mismatch == oracle_mismatch(grid)
        assert (result.mismatch is None) == (result.verdict == VERDICT_GRT) == (result.params is not None)
        assert fit_outcome(fit_grt, grid) == (result.params if result.mismatch is None else result.mismatch)

    @given(grid=small_grids(min_rows=1, max_rows=2))
    def test_diagonals_below_three_rows(self, grid):
        assert diagonal_reports(grid) == oracle_diagonal_reports(grid)

    def test_every_minor_violated(self):
        # c + r*k*d + e*r*r*k: majors stay arithmetic, every minor k >= 1 breaks at r = 2
        grid = TriangleGrid(
            [[2 + 3 * r * (n - r) + 5 * r * r * (n - r) for r in range(n + 1)] for n in range(12)]
        )
        result = classify(grid)
        assert result == oracle_classify(grid)
        assert result.verdict == VERDICT_NEITHER
        for rep in result.diagonals:
            if rep.kind == "minor" and 1 <= rep.index <= 9:
                assert rep.first_violation[0] == 2


class TestClassifyRows:
    """classify_rows reads any iterable of rows once, checking each as TriangleGrid does."""

    @given(grid=any_grid)
    def test_matches_classify_on_a_one_pass_iterator(self, grid):
        rows = (list(row) for row in grid.rows)
        assert classify_rows(rows) == classify(grid)

    def test_ragged_row_rejected_as_by_triangle_grid(self):
        with pytest.raises(ValueError, match=r"^row 2 has 2 entries, expected 3$"):
            classify_rows([[1], [1, 1], [1, 1], [1, 1, 1, 1]])

    def test_bad_entry_rejected_as_by_triangle_grid(self):
        with pytest.raises(TypeError, match=r"^row 1 holds True; entries must be integers$"):
            classify_rows([[1], [1, True], [1, 2, 1]])

    def test_each_row_checked_once(self, monkeypatch, tmp_path):
        # TriangleGrid checks the rows of classify(grid) and the parser those of the CLI; the fold checks none
        from rascal import analyze, cli, render_json
        from rascal.core import checked_row

        checked = []

        def counted(n, row):
            checked.append(n)
            return checked_row(n, row)

        monkeypatch.setattr(analyze, "checked_row", counted)
        grid = generate_closed_form(W, 6)
        assert classify_rows(list(row) for row in grid.rows) == classify(grid)
        assert checked == list(range(6))
        path = tmp_path / "t.json"
        path.write_text(render_json(grid))
        assert cli._classified(str(path)) == classify(grid)
        assert checked == list(range(6))

    @pytest.mark.parametrize("n_rows", [0, 1, 2])
    def test_too_small(self, n_rows):
        with pytest.raises(TooSmallError, match=f"got {n_rows}"):
            classify_rows(generate_closed_form(RASCAL, 3).rows[:n_rows])

    @pytest.mark.parametrize("arithmetic", [True, False])
    def test_memory_grows_with_rows_not_cells(self, arithmetic):
        # an arithmetic right edge gives a closed form (no scan); a quadratic one is scanned to the end
        import tracemalloc

        n_rows = 500
        minor = [1 + 3 * r if arithmetic else 1 + r * r for r in range(n_rows)]
        boundary = Boundary(1, [1 + 2 * k for k in range(n_rows)], minor)
        tracemalloc.start()
        try:
            result = classify_rows(addition_rows(boundary, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.verdict == VERDICT_GRT) == arithmetic
        assert peak < 2**20  # the whole triangle's 125k cells would take several MiB
