"""Container, indexing, and closed-form behavior."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rascal import (
    Boundary,
    Classification,
    DiagonalReport,
    Diamond,
    GrtParams,
    IdentityCheck,
    RuleReport,
    RuleWitness,
    TriangleGrid,
    closed_form_entry,
    closed_form_rows,
    generate_closed_form,
    major_diagonal,
    minor_diagonal,
)

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


def entry_rows(params, n_rows):
    """Rows 0..n_rows-1 of the closed form, each cell from closed_form_entry."""
    return [tuple(closed_form_entry(params, r, n - r) for r in range(n + 1)) for n in range(n_rows)]


class TestClosedFormRow:
    """closed_form_rows grows each row from the one before; every cell must be closed_form_entry's."""

    @given(params=params_st, n_rows=st.integers(1, 21))
    def test_matches_entries(self, params, n_rows):
        assert list(closed_form_rows(params, n_rows)) == entry_rows(params, n_rows)

    @pytest.mark.parametrize(
        "params", [GrtParams(4, 0, -2, 5), GrtParams(0, 0, 0, 0), GrtParams(-3, -7, 2, 1)]
    )
    def test_zero_and_negative_d(self, params):
        assert list(closed_form_rows(params, 12)) == entry_rows(params, 12)

    def test_row_zero_is_the_apex(self):
        for params in (RASCAL, W, GrtParams(-4, 0, 0, 7), GrtParams(9, -2, 1, 1)):
            assert list(closed_form_rows(params, 1)) == [(params.c,)]


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

    def test_index_must_be_nonnegative(self):
        with pytest.raises(ValueError, match=r"^diagonal index must be nonnegative, got -1$"):
            major_diagonal(W, -1, 3)

    @given(params=params_st, r=st.integers(0, 12), k=st.integers(0, 12))
    def test_closed_form_sits_on_both_diagonals(self, params, r, k):
        value = closed_form_entry(params, r, k)
        assert major_diagonal(params, r, k + 1)[k] == value
        assert minor_diagonal(params, k, r + 1)[r] == value


class TestTriangleGrid:
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

    @given(params=params_st, n_rows=st.integers(1, 10), data=st.data())
    def test_entry_reads_row_r_plus_k(self, params, n_rows, data):
        grid = generate_closed_form(params, n_rows)
        n = data.draw(st.integers(0, n_rows - 1))
        r = data.draw(st.integers(0, n))
        assert grid.rows[n][r] == closed_form_entry(params, r, n - r)


class TestDiamond:
    @pytest.mark.parametrize("side", [2, 3, 4, 5, 7])
    def test_rim_size(self, side):
        cells = Diamond(0, 0, side).boundary_cells()
        assert len(cells) == 4 * (side - 1)
        assert len(set(cells)) == len(cells)

    def test_rim_plus_interior_is_block(self):
        block = {(2 + i, 3 + j) for i in range(4) for j in range(4)}
        interior = block - set(Diamond(2, 3, 4).boundary_cells())
        assert interior == {(2 + i, 3 + j) for i in (1, 2) for j in (1, 2)}

    def test_side_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            Diamond(0, 0, 1)

    def test_top_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Diamond(-1, 0, 2)


_ADDITION = RuleReport("addition", 1, None)
_WITNESSES = (RuleWitness(1, 1, 0), RuleWitness(2, 1, 3))

# (type, fields by keyword in declaration order, one field changed, repr,
#  __post_init__ failures as (arguments, exception, message))
VALUE_TYPES = [
    (GrtParams, dict(c=1, d=5, d1=2, d2=3), dict(d2=4), "GrtParams(c=1, d=5, d1=2, d2=3)", []),
    (
        TriangleGrid,
        dict(rows=((1,), (2, 3))),
        dict(rows=((1,), (2, 4))),
        "TriangleGrid(rows=((1,), (2, 3)))",
        [
            (((),), ValueError, "a triangle needs at least one row"),
            ((((1,), (2,)),), ValueError, "row 1 has 1 entries, expected 2"),
            ((((1.5,),),), TypeError, "row 0 holds 1.5; entries must be integers"),
        ],
    ),
    (
        Diamond,
        dict(top_r=0, top_k=1, side=2),
        dict(side=3),
        "Diamond(top_r=0, top_k=1, side=2)",
        [
            ((-1, 0, 2), ValueError, "diamond top must have nonnegative indices, got (-1, 0)"),
            ((0, 0, 1), ValueError, "diamond side must be at least 2, got 1"),
        ],
    ),
    (
        Boundary,
        dict(apex=1, major_edge=(1, 3), minor_edge=(1, 4)),
        dict(minor_edge=(1, 5)),
        "Boundary(apex=1, major_edge=(1, 3), minor_edge=(1, 4))",
        [
            ((1, (), ()), ValueError, "edges must hold at least the apex"),
            ((1, (1, 3), (1,)), ValueError, "edges differ in length: 2 vs 1"),
            ((1, (2,), (1,)), ValueError, "both edges must start at the apex"),
        ],
    ),
    (
        DiagonalReport,
        dict(
            kind="major", index=2, first_term=5, common_difference=None,
            first_violation=(2, 9, 8), under_determined=False,
        ),
        dict(index=3),
        "DiagonalReport(kind='major', index=2, first_term=5, common_difference=None, "
        "first_violation=(2, 9, 8), under_determined=False)",
        [],
    ),
    (
        RuleWitness,
        dict(r=2, k=1, implied_constant=-4),
        dict(implied_constant=-5),
        "RuleWitness(r=2, k=1, implied_constant=-4)",
        [],
    ),
    (
        RuleReport,
        dict(rule="multiplication", constant=None, witnesses=_WITNESSES),
        dict(witnesses=_WITNESSES[::-1]),
        "RuleReport(rule='multiplication', constant=None, "
        "witnesses=(RuleWitness(r=1, k=1, implied_constant=0), RuleWitness(r=2, k=1, implied_constant=3)))",
        [
            (("addition", None, None), ValueError, "exactly one of constant / witnesses must be present"),
            (("addition", 1, _WITNESSES), ValueError, "exactly one of constant / witnesses must be present"),
        ],
    ),
    (
        Classification,
        dict(
            verdict="grt", params=GrtParams(1, 1, 0, 0), mismatch=None, diagonals=(),
            addition=_ADDITION, multiplication=_ADDITION,
        ),
        dict(verdict="neither"),
        "Classification(verdict='grt', params=GrtParams(c=1, d=1, d1=0, d2=0), mismatch=None, diagonals=(), "
        "addition=RuleReport(rule='addition', constant=1, witnesses=None), "
        "multiplication=RuleReport(rule='addition', constant=1, witnesses=None))",
        [],
    ),
    (
        IdentityCheck,
        dict(name="ashley", holds=False, first_failure=((2, 1), 7, 8)),
        dict(holds=True),
        "IdentityCheck(name='ashley', holds=False, first_failure=((2, 1), 7, 8))",
        [],
    ),
]


@pytest.mark.parametrize(
    "cls, fields, change, expected_repr, invalid", VALUE_TYPES, ids=[case[0].__name__ for case in VALUE_TYPES]
)
def test_value_type_contract(cls, fields, change, expected_repr, invalid):
    values = tuple(fields.values())
    value = cls(*values)
    assert cls(**fields) == value
    first, *rest = fields
    assert cls(values[0], **{name: fields[name] for name in rest}) == value
    assert value == cls(*values) and not value != cls(*values)
    assert value != cls(**{**fields, **change})
    assert value != values and not value == values
    assert hash(value) == hash(cls(**fields)) == hash(values)
    assert repr(value) == expected_repr
    for name in fields:
        assert getattr(value, name) == fields[name]
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(*values)  # unchanged by the refused writes

    with pytest.raises(TypeError, match=repr(first)):
        cls()
    with pytest.raises(TypeError, match="'bogus'"):
        cls(*values, bogus=1)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError, match=repr(first)):
        cls(*values, **{first: values[0]})

    for args, error, message in invalid:
        with pytest.raises(error) as caught:
            cls(*args)
        assert str(caught.value) == message
