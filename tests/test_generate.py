"""The three generators and the constant bridging addition to multiplication."""

import time
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import boundaries, oracle_closed_form, oracle_generate, oracle_zero_north_by_divisors, sweep_params
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
    edges_from_params,
    generate_by_addition,
    generate_by_multiplication,
    generate_closed_form,
    mult_constant,
    multiplication_rows,
    predict_multiplication_failure,
)
from rascal.cli import main

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


class TestEdgesFromParams:
    """The parameterized edges, computed row by row, in place of a Boundary."""

    @given(params=params_st, n_rows=st.integers(1, 10))
    def test_pairs_are_the_boundary_edges(self, params, n_rows):
        boundary = boundary_from_params(params, n_rows)
        assert list(edges_from_params(params, n_rows)) == list(zip(boundary.major_edge, boundary.minor_edge))
        assert list(boundary) == list(edges_from_params(params, n_rows))  # a Boundary yields its pairs

    @given(params=params_st, n_rows=st.integers(1, 10), constant=st.integers(-3, 3))
    def test_rows_match_the_boundary(self, params, n_rows, constant):
        boundary = boundary_from_params(params, n_rows)
        for rows, grid in ((addition_rows, generate_by_addition), (multiplication_rows, generate_by_multiplication)):
            expected = _outcome(lambda: rows(boundary, constant))
            assert _outcome(lambda: rows(edges_from_params(params, n_rows), constant)) == expected
            assert _outcome(lambda: grid(edges_from_params(params, n_rows), constant).rows) == expected

    def test_first_row_comes_at_once(self):
        # boundary_from_params builds both edges whole: 10**7 rows take seconds and about 0.7 GB
        params = GrtParams(123, 7, 45, 67)
        for rows, constant in ((addition_rows, params.d), (multiplication_rows, mult_constant(params))):
            start = time.perf_counter()
            made = rows(edges_from_params(params, 10**7), constant)
            first = [next(made) for _ in range(3)]
            assert time.perf_counter() - start < 0.5
            assert first == oracle_closed_form(params, 3)

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            edges_from_params(RASCAL, 0)

    @pytest.mark.parametrize("rows", [addition_rows, multiplication_rows])
    def test_pairs_must_start_at_the_apex(self, rows):
        # the edges a Boundary refuses are refused as pairs too, before any row, not grown from a lost entry
        with pytest.raises(ValueError, match="^both edges must start at the apex$"):
            Boundary(1, (1, 3, 5), (2, 4, 6))
        made = rows([(1, 2), (3, 4), (5, 6)], 0)
        with pytest.raises(ValueError, match="^both edges must start at the apex$"):
            next(made)


def _recurrence_outcome(params, n_rows):
    """``multiplication_rows`` on the parameters' own boundary and constant: its rows, or its error."""
    try:
        return list(multiplication_rows(boundary_from_params(params, n_rows), mult_constant(params))), None
    except MultiplicationRuleError as err:
        return None, err


def _failure(err):
    return None if err is None else (type(err), err.r, err.k, str(err))


class TestPredictMultiplicationFailure:
    """The closed-form zero search against the recurrence it stands in for."""

    def _assert_agrees(self, params, n_rows):
        rows, err = _recurrence_outcome(params, n_rows)
        predicted = predict_multiplication_failure(params, n_rows)
        assert _failure(predicted) == _failure(err)
        if err is None:  # no zero north: the recurrence reproduces the closed form
            assert rows == oracle_closed_form(params, n_rows)
        return predicted

    def test_agrees_on_the_small_grid(self):
        failures = 0
        for params in sweep_params():
            for n_rows in (1, 2, 3, 5, 9, 14):
                failures += self._assert_agrees(params, n_rows) is not None
        assert failures == 4668  # every one a ZeroNorthError, none inexact

    @given(params=st.builds(GrtParams, *[st.integers(-(10**6), 10**6)] * 4), n_rows=st.integers(1, 60))
    def test_agrees_on_large_parameters(self, params, n_rows):
        self._assert_agrees(params, n_rows)

    @given(
        steps=st.tuples(*[st.integers(-(10**6), 10**6)] * 3),
        r=st.integers(0, 30),
        k=st.integers(0, 30),
        n_rows=st.integers(1, 60),
    )
    def test_agrees_with_a_planted_zero(self, steps, r, k, n_rows):
        d, d1, d2 = steps
        params = GrtParams(-(k * d1 + r * d2 + r * k * d), d, d1, d2)  # T(r, k) = 0
        assert closed_form_entry(params, r, k) == 0
        predicted = self._assert_agrees(params, n_rows)
        if r + k <= n_rows - 3:  # the zero is north of a cell: the rule fails there or earlier
            assert predicted.r + predicted.k - 2 <= r + k

    def test_zero_in_the_last_two_rows_is_no_failure(self):
        params = GrtParams(2, 0, -1, 1)  # T(r, k) = 2 - k + r: first zero T(0, 2), in row 2
        assert closed_form_entry(params, 0, 2) == 0
        for n_rows in (3, 4):  # row 2 is never north of a cell, so the zero is written
            assert self._assert_agrees(params, n_rows) is None
        assert _failure(self._assert_agrees(params, 5)) == _failure(ZeroNorthError(1, 3))

    def test_diagonal_of_zeros(self):
        params = GrtParams(2, -1, 2, -1)  # T(r, k) = (2 - r)(1 + k): major diagonal 2 is all zeros
        assert [closed_form_entry(params, 2, k) for k in range(5)] == [0] * 5
        assert self._assert_agrees(params, 4) is None
        for n_rows in (5, 9):
            assert _failure(self._assert_agrees(params, n_rows)) == _failure(ZeroNorthError(3, 1))

    def test_zero_apex(self):
        params = GrtParams(0, 1, 1, 1)
        for n_rows in (1, 2):
            assert self._assert_agrees(params, n_rows) is None
        assert _failure(self._assert_agrees(params, 3)) == _failure(ZeroNorthError(1, 1))

    def test_tie_on_a_row_takes_the_leftmost_cell(self):
        params = GrtParams(-2, 0, 1, 1)  # T(r, k) = r + k - 2: all of row 2 is zero
        assert _failure(self._assert_agrees(params, 5)) == _failure(ZeroNorthError(1, 3))

    def test_search_stops_past_the_last_possible_zero(self):
        # d*T(r, k) = (d*r + d1)(d*k + d2) + D: with d != 0 and D != 0 no zero lies past
        # r = (|D| + |d1|) // |d|, so 10**18 rows are searched only that far; a search of
        # every major diagonal would not finish
        assert predict_multiplication_failure(GrtParams(123, 7, 45, 67), 10**18) is None
        # first zeros on the last diagonal the bound lets through: T(36, 2) = 0 and T(23, 1) = 0
        for params, zero in ((GrtParams(-30, 5, -3, -9), (36, 2)), (GrtParams(-23, -5, 0, 6), (23, 1))):
            far = predict_multiplication_failure(params, 10**18)
            assert (far.r - 1, far.k - 1) == zero
            assert zero[0] == (abs(mult_constant(params)) + abs(params.d1)) // abs(params.d)
            # the recurrence itself, on just enough rows for the zero to be north of a cell
            assert _failure(far) == _failure(self._assert_agrees(params, sum(zero) + 3))

    @given(
        steps=st.tuples(st.integers(-50, 50).filter(bool), *[st.integers(-(10**4), 10**4)] * 2),
        zero=st.one_of(st.none(), st.tuples(st.integers(0, 60), st.integers(0, 60))),
        c=st.integers(-(10**8), 10**8),
        n_rows=st.integers(1, 80),
    )
    def test_square_root_search_agrees_with_the_divisor_search(self, steps, zero, c, n_rows):
        # d, D != 0: the search over the diagonals within isqrt(|D|), or over those where d*r + d1
        # divides D when they are fewer, finds the divisor search's zero; with a planted zero or none
        d, d1, d2 = steps
        if zero is not None:
            r, k = zero
            c = -(k * d1 + r * d2 + r * k * d)  # T(r, k) = 0
        params = GrtParams(c, d, d1, d2)
        assume(mult_constant(params))
        predicted = predict_multiplication_failure(params, n_rows)
        assert _failure(predicted) == _failure(oracle_zero_north_by_divisors(params, n_rows))

    def test_square_root_search_of_ten_million_rows(self):
        # D = 1 - 10**12: |d*r + d1| and |d*k + d2| are at least 10**6 > isqrt(|D|) on every diagonal,
        # so none is searched, where the divisor search divides on 9,999,998 majors
        params = GrtParams(1, 1, 10**6, 10**6)
        start = time.perf_counter()
        assert predict_multiplication_failure(params, 10**7) is None
        assert time.perf_counter() - start < 0.2
        # isqrt(|D|) past the row count: both families reach the last row, so the majors where
        # d*r + d1 can divide D, no more of them, are searched
        params = GrtParams(10**40 + 7, 3, 5, 11)
        assert _failure(predict_multiplication_failure(params, 3000)) == _failure(
            oracle_zero_north_by_divisors(params, 3000)
        )

    @given(c=st.integers(-60, 60), d1=st.integers(-9, 9), d2=st.integers(-9, 9), n_rows=st.integers(1, 30))
    def test_agrees_with_d_zero(self, c, d1, d2, n_rows):
        # d = 0: the zeros of T(r, k) = c + k*d1 + r*d2 lie on a line
        self._assert_agrees(GrtParams(c, 0, d1, d2), n_rows)

    @given(
        d=st.integers(-6, 6).filter(bool),
        d1=st.integers(-30, 30),
        m=st.integers(-30, 30),
        n_rows=st.integers(1, 30),
    )
    def test_agrees_with_mult_constant_zero(self, d, d1, m, n_rows):
        # D = c*d - d1*d2 = 0: d*T(r, k) = (d*r + d1)(d*k + d2), zero on two diagonals
        d2 = m * d // gcd(d, d1)  # so that d divides d1*d2
        params = GrtParams(d1 * d2 // d, d, d1, d2)
        assert mult_constant(params) == 0
        self._assert_agrees(params, n_rows)

    def test_d_zero_is_solved_on_its_line(self):
        # 10**18 rows: a search of every major diagonal would not finish
        for params in (GrtParams(5, 0, 3, 7), GrtParams(7, 0, 4, -6), GrtParams(0, 0, 0, 0), GrtParams(3, 0, 0, 0)):
            start = time.perf_counter()
            far = predict_multiplication_failure(params, 10**18)
            assert time.perf_counter() - start < 0.5
            # the first zero against the recurrence on just enough rows for it to be north of a cell
            near = (far.r - 1) + (far.k - 1) + 3 if far else 40
            assert _failure(far) == _failure(self._assert_agrees(params, near))
        # T(r, k) = 2 + 5k - 3r: zeros at (4, 2), (9, 5), ...
        assert _failure(predict_multiplication_failure(GrtParams(2, 0, 5, -3), 10**18)) == _failure(ZeroNorthError(5, 3))
        # 7r + 3k = 7*10**15 + 6: least r + k at the largest r, (r, k) = (10**15, 2), in row 10**15 + 2
        params = GrtParams(-(7 * 10**15 + 6), 0, 3, 7)
        zero = predict_multiplication_failure(params, 10**18)
        assert (zero.r - 1, zero.k - 1) == (10**15, 2)
        assert closed_form_entry(params, 10**15, 2) == 0
        assert predict_multiplication_failure(params, 10**15 + 4) is None  # that row is north of no cell
        assert _failure(predict_multiplication_failure(params, 10**15 + 5)) == _failure(zero)

    def test_mult_constant_zero_is_read_off_two_diagonals(self):
        # T(r, k) = d*(r + d1/d)(k + d2/d): major diagonal -d1/d and minor diagonal -d2/d are all zeros,
        # each from its first cell on; with d1 = 0, major 0 steps by 0 and is zero from the apex on
        cases = ((-6, -4, (0, 2)), (-4, -6, (2, 0)), (-6, -6, (0, 3)), (3, 4, None), (-3, 4, None), (0, 5, (0, 0)))
        for d1, d2, zero in cases:
            params = GrtParams(d1 * d2 // 2, 2, d1, d2)
            assert mult_constant(params) == 0
            start = time.perf_counter()
            far = predict_multiplication_failure(params, 10**18)
            assert time.perf_counter() - start < 0.5
            assert (far and (far.r - 1, far.k - 1)) == zero
            near = sum(zero) + 3 if zero else 40
            assert _failure(far) == _failure(self._assert_agrees(params, near))
        params = GrtParams(10**15 * (10**15 + 1), 1, -(10**15), -(10**15 + 1))
        far = predict_multiplication_failure(params, 10**18)
        assert (far.r, far.k) == (10**15 + 1, 1)
        assert closed_form_entry(params, 10**15, 0) == 0

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            predict_multiplication_failure(RASCAL, 0)

    def test_cli_prints_nothing_on_a_predicted_failure(self, capsys):
        for params in sweep_params():
            for n_rows in (3, 5, 9, 14):
                _, err = _recurrence_outcome(params, n_rows)
                if err is None:
                    continue
                flags = [f"--{name}={getattr(params, name)}" for name in ("c", "d", "d1", "d2")]
                code = main(["generate", *flags, "--rows", str(n_rows), "--rule", "mul"])
                captured = capsys.readouterr()
                assert (code, captured.out, captured.err) == (2, "", f"rascal: {err}\n")
