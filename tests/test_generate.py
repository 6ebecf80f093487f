"""The three generators and the constant bridging addition to multiplication."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import boundaries, oracle_closed_form, oracle_generate
from rascal import (
    Boundary,
    GrtParams,
    InexactDivisionError,
    MultiplicationRuleError,
    ZeroNorthError,
    addition_rows,
    boundary_from_params,
    closed_form_entry,
    closed_form_rows,
    generate_by_addition,
    generate_by_multiplication,
    generate_closed_form,
    mult_constant,
    multiplication_rows,
)

RASCAL = GrtParams(1, 1, 0, 0)
W = GrtParams(1, 5, 2, 3)

params_st = st.builds(GrtParams, *[st.integers(-10, 10)] * 4)


class TestClosedForm:
    def test_rascal_five_rows(self):
        grid = generate_closed_form(RASCAL, 5)
        assert grid.rows == ((1,), (1, 1), (1, 2, 1), (1, 3, 3, 1), (1, 4, 5, 4, 1))

    def test_constant_triangle(self):
        grid = generate_closed_form(GrtParams(9, 0, 0, 0), 3)
        assert grid.rows == ((9,), (9, 9), (9, 9, 9))

    def test_w_three_rows(self):
        grid = generate_closed_form(W, 3)
        assert grid.rows == ((1,), (3, 4), (5, 11, 7))

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            generate_closed_form(RASCAL, 0)


class TestBoundary:
    def test_all_ones(self):
        boundary = boundary_from_params(RASCAL, 4)
        assert boundary.apex == 1
        assert boundary.major_edge == (1, 1, 1, 1)
        assert boundary.minor_edge == (1, 1, 1, 1)

    def test_differences_three_and_one(self):
        boundary = boundary_from_params(GrtParams(2, 2, 3, 1), 3)
        assert boundary.major_edge == (2, 5, 8)
        assert boundary.minor_edge == (2, 3, 4)

    def test_w_edges(self):
        boundary = boundary_from_params(W, 3)
        assert boundary.major_edge == (1, 3, 5)
        assert boundary.minor_edge == (1, 4, 7)

    def test_edges_must_start_at_apex(self):
        with pytest.raises(ValueError):
            Boundary(1, (2, 3), (1, 4))

    def test_edges_must_match_length(self):
        with pytest.raises(ValueError):
            Boundary(1, (1, 2), (1, 2, 3))


class TestAdditionRule:
    def test_rascal_row_four(self):
        grid = generate_by_addition(boundary_from_params(RASCAL, 5), 1)
        assert grid.rows[4] == (1, 4, 5, 4, 1)

    def test_constant_boundary(self):
        grid = generate_by_addition(Boundary(4, (4, 4, 4), (4, 4, 4)), 0)
        assert all(v == 4 for row in grid.rows for v in row)

    def test_matches_closed_form(self):
        assert generate_by_addition(boundary_from_params(W, 3), 5) == generate_closed_form(W, 3)

    @given(boundary=boundaries(), d=st.integers(-6, 6))
    def test_total_and_rule_holds_everywhere(self, boundary, d):
        grid = generate_by_addition(boundary, d)
        assert tuple(grid.rows[n][0] for n in range(grid.n_rows)) == boundary.major_edge
        assert tuple(grid.rows[n][n] for n in range(grid.n_rows)) == boundary.minor_edge
        for n in range(2, grid.n_rows):
            for r in range(1, n):
                south = grid.rows[n][r]
                east = grid.rows[n - 1][r]
                west = grid.rows[n - 1][r - 1]
                north = grid.rows[n - 2][r - 1]
                assert south == east + west + d - north


class TestMultiplicationRule:
    def test_rascal_row_four(self):
        grid = generate_by_multiplication(boundary_from_params(RASCAL, 5), 1)
        assert grid.rows[4] == (1, 4, 5, 4, 1)

    def test_w_matches_closed_form(self):
        grid = generate_by_multiplication(boundary_from_params(W, 4), -1)
        assert grid == generate_closed_form(W, 4)

    def test_zero_apex_fails_at_first_interior_cell(self):
        boundary = Boundary(0, (0, 1, 2), (0, 3, 4))
        with pytest.raises(ZeroNorthError) as exc_info:
            generate_by_multiplication(boundary, 7)
        assert (exc_info.value.r, exc_info.value.k) == (1, 1)

    def test_inexact_division_reports_cell_and_operands(self):
        boundary = Boundary(1, (1, 2, 4, 8), (1, 3, 5, 7))
        with pytest.raises(InexactDivisionError) as exc_info:
            generate_by_multiplication(boundary, 1)
        err = exc_info.value
        assert (err.r, err.k) == (1, 2)
        assert err.numerator == 29
        assert err.divisor == 2


class TestMultConstant:
    @pytest.mark.parametrize(
        "params, expected",
        [
            (RASCAL, 1),
            (W, -1),
            (GrtParams(2, 2, 3, 1), 1),
        ],
    )
    def test_worked_values(self, params, expected):
        assert mult_constant(params) == expected


class TestGeneratorEquivalence:
    @given(params=params_st, n_rows=st.integers(1, 9))
    def test_three_routes_agree(self, params, n_rows):
        closed = generate_closed_form(params, n_rows)
        boundary = boundary_from_params(params, n_rows)
        assert generate_by_addition(boundary, params.d) == closed
        if all(v != 0 for row in closed.rows for v in row):
            assert generate_by_multiplication(boundary, mult_constant(params)) == closed

    @given(
        params=st.builds(GrtParams, *[st.integers(-30, 30)] * 4),
        r=st.integers(1, 10),
        k=st.integers(1, 10),
    )
    def test_product_identity_needs_no_division(self, params, r, k):
        east = closed_form_entry(params, r, k - 1)
        west = closed_form_entry(params, r - 1, k)
        south = closed_form_entry(params, r, k)
        north = closed_form_entry(params, r - 1, k - 1)
        assert east * west + mult_constant(params) == south * north


def _outcome(make):
    """The rows ``make()`` gives, or the class and location of the error it raises."""
    try:
        return [tuple(row) for row in make()]
    except MultiplicationRuleError as err:
        return type(err), err.r, err.k, getattr(err, "numerator", None), getattr(err, "divisor", None)


class TestRowIteratorsAgreeWithReference:
    """The row iterators and the public generators against the cell-by-cell reference."""

    @given(
        boundary=boundaries(lo=-2, hi=2, min_rows=1, max_rows=8),
        constant=st.integers(-3, 3),
    )
    def test_recurrences(self, boundary, constant):
        for rule, rows, grid in (
            ("add", addition_rows, generate_by_addition),
            ("mul", multiplication_rows, generate_by_multiplication),
        ):
            expected = _outcome(lambda: oracle_generate(boundary, rule, constant))
            assert _outcome(lambda: rows(boundary, constant)) == expected
            assert _outcome(lambda: grid(boundary, constant).rows) == expected

    @given(boundary=boundaries(lo=-2, hi=2, min_rows=3, max_rows=8), constant=st.integers(-3, 3))
    def test_rows_before_a_failure_are_yielded(self, boundary, constant):
        produced = []
        try:
            for row in multiplication_rows(boundary, constant):
                produced.append(row)
        except MultiplicationRuleError as err:
            assert len(produced) == err.r + err.k  # every row above the failing cell's
        n = len(produced)
        head = Boundary(boundary.apex, boundary.major_edge[:n], boundary.minor_edge[:n])
        assert produced == oracle_generate(head, "mul", constant)

    @given(params=params_st, n_rows=st.integers(1, 12))
    def test_closed_form(self, params, n_rows):
        expected = oracle_closed_form(params, n_rows)
        assert list(closed_form_rows(params, n_rows)) == expected
        assert list(generate_closed_form(params, n_rows).rows) == expected

    def test_inexact_cell_before_a_zero_north(self):
        # row 3: (r=1, k=2) is 3 / 2, then (r=2, k=1) has north T(1, 0) = 0
        boundary = Boundary(1, (1, 2, 2, 5), (1, 0, 4, 6))
        expected = (InexactDivisionError, 1, 2, 3, 2)
        assert _outcome(lambda: oracle_generate(boundary, "mul", 1)) == expected
        assert _outcome(lambda: multiplication_rows(boundary, 1)) == expected
        assert _outcome(lambda: generate_by_multiplication(boundary, 1).rows) == expected

    def test_zero_north_before_an_inexact_cell(self):
        # row 3: (r=1, k=2) has north T(0, 1) = 0, then (r=2, k=1) is 3 / 2
        boundary = Boundary(1, (1, 0, 5, 5), (1, 2, 2, 6))
        expected = (ZeroNorthError, 1, 2, None, None)
        assert _outcome(lambda: oracle_generate(boundary, "mul", 1)) == expected
        assert _outcome(lambda: multiplication_rows(boundary, 1)) == expected
        assert _outcome(lambda: generate_by_multiplication(boundary, 1).rows) == expected
