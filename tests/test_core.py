"""Container, indexing, and closed-form behavior."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rascal import (
    Diamond,
    GrtParams,
    TriangleGrid,
    closed_form_entry,
    generate_closed_form,
    major_diagonal,
    minor_diagonal,
)
from rascal.core import closed_form_row

RASCAL = GrtParams(1, 1, 0, 0)
W = GrtParams(1, 5, 2, 3)

params_st = st.builds(GrtParams, *[st.integers(-30, 30)] * 4)


class TestClosedForm:
    def test_rascal_center(self):
        assert closed_form_entry(RASCAL, 2, 2) == 5

    def test_apex_is_c(self):
        for params in (RASCAL, W, GrtParams(-4, 9, 0, 7)):
            assert closed_form_entry(params, 0, 0) == params.c

    def test_w_interior_entry(self):
        assert closed_form_entry(W, 1, 1) == 11

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            closed_form_entry(RASCAL, -1, 0)
        with pytest.raises(ValueError):
            closed_form_entry(RASCAL, 0, -2)

    @given(params=params_st, r=st.integers(0, 20), k=st.integers(0, 20))
    def test_swapping_d1_d2_transposes(self, params, r, k):
        mirrored = GrtParams(params.c, params.d, params.d2, params.d1)
        assert closed_form_entry(params, r, k) == closed_form_entry(mirrored, k, r)


class TestClosedFormRow:
    @given(params=params_st, n=st.integers(0, 20))
    def test_matches_entries(self, params, n):
        assert closed_form_row(params, n) == tuple(
            closed_form_entry(params, r, n - r) for r in range(n + 1)
        )

    @pytest.mark.parametrize(
        "params", [GrtParams(4, 0, -2, 5), GrtParams(0, 0, 0, 0), GrtParams(-3, -7, 2, 1)]
    )
    def test_zero_and_negative_d(self, params):
        for n in range(12):
            assert closed_form_row(params, n) == tuple(
                closed_form_entry(params, r, n - r) for r in range(n + 1)
            )

    def test_row_zero_is_the_apex(self):
        for params in (RASCAL, W, GrtParams(-4, 0, 0, 7), GrtParams(9, -2, 1, 1)):
            assert closed_form_row(params, 0) == (params.c,)

    def test_rejects_negative_row(self):
        with pytest.raises(ValueError):
            closed_form_row(W, -1)


class TestParamDiagonals:
    def test_w_major_diagonals(self):
        assert major_diagonal(W, 1, 4) == [4, 11, 18, 25]
        assert major_diagonal(W, 2, 4) == [7, 19, 31, 43]

    def test_rascal_edge_of_ones(self):
        assert major_diagonal(RASCAL, 0, 3) == [1, 1, 1]

    def test_w_minor_diagonals(self):
        assert minor_diagonal(W, 0, 5) == [1, 4, 7, 10, 13]
        assert minor_diagonal(W, 1, 4) == [3, 11, 19, 27]

    def test_single_term_is_apex(self):
        assert minor_diagonal(W, 0, 1) == [1]

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            major_diagonal(W, 0, 0)
        with pytest.raises(ValueError):
            minor_diagonal(W, 0, -1)

    @given(params=params_st, r=st.integers(0, 12), k=st.integers(0, 12))
    def test_closed_form_sits_on_both_diagonals(self, params, r, k):
        value = closed_form_entry(params, r, k)
        assert major_diagonal(params, r, k + 1)[k] == value
        assert minor_diagonal(params, k, r + 1)[r] == value


class TestTriangleGrid:
    def test_entry_at_rascal(self):
        grid = generate_closed_form(RASCAL, 5)
        assert grid.entry_at(2, 2) == 5
        assert grid.entry_at(0, 0) == 1

    def test_entry_at_out_of_range_names_indices(self):
        grid = generate_closed_form(RASCAL, 5)
        with pytest.raises(IndexError, match=r"r=4.*k=4.*5 rows"):
            grid.entry_at(4, 4)

    def test_entry_at_rejects_negative(self):
        grid = generate_closed_form(RASCAL, 5)
        with pytest.raises(IndexError):
            grid.entry_at(-1, 2)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            TriangleGrid(((1,), (2, 3, 4)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TriangleGrid(())

    def test_float_entries_rejected(self):
        with pytest.raises(TypeError, match=r"^row 0 holds 1\.5; entries must be integers$"):
            TriangleGrid(((1.5,),))

    def test_bool_entry_rejected_by_name(self):
        with pytest.raises(TypeError, match=r"^row 2 holds True; entries must be integers$"):
            TriangleGrid(((1,), (1, 1), (1, True, 1)))

    def test_first_bad_entry_of_a_row_is_named(self):
        with pytest.raises(TypeError, match=r"row 1 holds '3'"):
            TriangleGrid(((1,), ("3", False)))

    def test_int_subclass_entries_accepted(self):
        class Tagged(int):
            pass

        grid = TriangleGrid(((Tagged(1),), (1, Tagged(2))))
        assert grid.rows == ((1,), (1, 2))
        assert type(grid.rows[1][1]) is Tagged

    def test_rows_normalized_to_tuples(self):
        grid = TriangleGrid([[1], [2, 3]])
        assert grid.rows == ((1,), (2, 3))

    def test_stored_diagonals(self):
        grid = generate_closed_form(W, 4)
        assert grid.major_diagonal(1) == [4, 11, 18]
        assert grid.minor_diagonal(0) == [1, 4, 7, 10]
        with pytest.raises(IndexError):
            grid.major_diagonal(4)

    @given(params=params_st, n_rows=st.integers(1, 10), data=st.data())
    def test_entry_reads_row_r_plus_k(self, params, n_rows, data):
        grid = generate_closed_form(params, n_rows)
        n = data.draw(st.integers(0, n_rows - 1))
        r = data.draw(st.integers(0, n))
        assert grid.entry_at(r, n - r) == grid.rows[n][r]
        assert grid.entry_at(r, n - r) == closed_form_entry(params, r, n - r)


class TestDiamond:
    @pytest.mark.parametrize("side", [2, 3, 4, 5, 7])
    def test_rim_size(self, side):
        cells = Diamond(0, 0, side).boundary_cells()
        assert len(cells) == 4 * (side - 1)
        assert len(set(cells)) == len(cells)

    def test_rim_plus_interior_is_block(self):
        diamond = Diamond(2, 3, 4)
        interior = set(diamond.cells()) - set(diamond.boundary_cells())
        assert interior == {(2 + i, 3 + j) for i in (1, 2) for j in (1, 2)}

    def test_fits_within(self):
        assert Diamond(0, 0, 3).fits_within(5)
        assert not Diamond(0, 0, 3).fits_within(4)
        assert Diamond(6, 6, 3).fits_within(17)
        assert not Diamond(6, 6, 3).fits_within(16)

    def test_side_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            Diamond(0, 0, 1)

    def test_top_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Diamond(-1, 0, 2)
