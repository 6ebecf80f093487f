"""Triangle file parsing and serialization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import triangle_like_text
from rascal import (
    GrtParams,
    TriangleGrid,
    TriangleParseError,
    generate_closed_form,
    parse_json,
    parse_plain_rows,
    parse_triangle,
    render_csv,
    render_json,
    render_text,
)

RASCAL_TEXT = "# leading comment\n1\n1 1\n\n1 2 1\n1\t3 3\t1\n1 4 5 4 1\n"

params_st = st.builds(
    GrtParams,
    st.integers(-(10**25), 10**25),
    st.integers(-100, 100),
    st.integers(-100, 100),
    st.integers(-100, 100),
)


class TestPlainRows:
    def test_comments_blanks_and_tabs(self):
        grid = parse_plain_rows(RASCAL_TEXT)
        assert grid.n_rows == 5
        assert grid.rows[4] == (1, 4, 5, 4, 1)

    def test_negative_and_huge_entries(self):
        grid = parse_plain_rows("-5\n-5 {}\n".format(10**30))
        assert grid.rows[1] == (-5, 10**30)

    def test_ragged_line_reported_with_number(self):
        with pytest.raises(TriangleParseError, match="line 2") as exc_info:
            parse_plain_rows("1\n2 3 4\n")
        assert exc_info.value.line == 2

    def test_bad_token_named(self):
        with pytest.raises(TriangleParseError, match="'x'"):
            parse_plain_rows("1\nx 2\n")

    def test_plus_sign_rejected(self):
        with pytest.raises(TriangleParseError):
            parse_plain_rows("+1\n")

    def test_empty_input(self):
        with pytest.raises(TriangleParseError, match="no rows"):
            parse_plain_rows("# nothing here\n\n")

    def test_non_ascii_digits_rejected(self):
        # int() reads the full-width "\uff11" as 1
        with pytest.raises(TriangleParseError, match="line 2"):
            parse_plain_rows("1\n1 \uff11\n")

    def test_other_whitespace_still_separates(self):
        assert parse_plain_rows("1\n1\u00a02\n").rows[1] == (1, 2)

    def test_integer_past_digit_limit_is_a_parse_error(self):
        with pytest.raises(TriangleParseError, match="5000-digit") as exc_info:
            parse_plain_rows("1\n1 -{}\n".format("7" * 5000))
        assert exc_info.value.line == 2


class TestJsonFormat:
    def test_plain_integers(self):
        grid = parse_json('{"rows": [[1], [1, 1]]}')
        assert grid.rows == ((1,), (1, 1))

    def test_string_integers_accepted_at_any_size(self):
        big = 2**80
        grid = parse_json('{"rows": [[1], ["%d", -2]]}' % big)
        assert grid.rows[1] == (big, -2)

    def test_rejects_bool(self):
        with pytest.raises(TriangleParseError):
            parse_json('{"rows": [[true]]}')

    def test_rejects_float(self):
        with pytest.raises(TriangleParseError):
            parse_json('{"rows": [[1.5]]}')

    def test_rejects_non_integer_string(self):
        with pytest.raises(TriangleParseError):
            parse_json('{"rows": [["1.5"]]}')

    def test_rejects_non_ascii_digit_string(self):
        with pytest.raises(TriangleParseError, match="row 0"):
            parse_json('{"rows": [["\uff11"]]}')

    def test_string_past_digit_limit_is_a_parse_error(self):
        with pytest.raises(TriangleParseError, match="row 1: 5000-digit"):
            parse_json('{"rows": [[1], [1, "%s"]]}' % ("7" * 5000))

    def test_number_past_digit_limit_is_a_parse_error(self):
        with pytest.raises(TriangleParseError, match="too many digits"):
            parse_json('{"rows": [[%s]]}' % ("7" * 5000))

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(TriangleParseError, match="nested too deeply"):
            parse_json('{"rows": ' + "[" * 100_000 + "]" * 100_000 + "}")

    def test_rejects_ragged(self):
        with pytest.raises(TriangleParseError, match="row 1"):
            parse_json('{"rows": [[1], [2, 3, 4]]}')

    def test_rejects_missing_rows_key(self):
        with pytest.raises(TriangleParseError):
            parse_json('{"cols": []}')

    def test_rejects_empty_rows(self):
        with pytest.raises(TriangleParseError):
            parse_json('{"rows": []}')

    def test_invalid_json_carries_line_number(self):
        with pytest.raises(TriangleParseError) as exc_info:
            parse_json('{"rows": [[1],\n  [1 1]]}')
        assert exc_info.value.line == 2


class TestFormatDetection:
    def test_json_detected(self):
        assert parse_triangle('  {"rows": [[3]]}').rows == ((3,),)

    def test_plain_detected(self):
        assert parse_triangle("3\n").rows == ((3,),)

    def test_plain_with_leading_comment(self):
        assert parse_triangle("# note\n3\n").rows == ((3,),)


class TestParseFuzz:
    """Any input is a grid or a TriangleParseError, never another exception."""

    @staticmethod
    def parse(text):
        try:
            assert isinstance(parse_triangle(text), TriangleGrid)
        except TriangleParseError:
            pass

    @given(text=st.one_of(st.text(), triangle_like_text))
    def test_any_text(self, text):
        self.parse(text)

    @given(data=st.binary())
    def test_any_bytes(self, data):
        self.parse(data.decode("utf-8", errors="surrogateescape"))


class TestRendering:
    def test_text(self):
        assert render_text(TriangleGrid(((7,), (7, 7)))) == "7\n7 7\n"

    def test_json_small_values_stay_numbers(self):
        assert render_json(TriangleGrid(((5,), (5, 6)))) == '{"rows": [[5], [5, 6]]}\n'

    def test_json_values_beyond_64_bit_become_strings(self):
        big = 2**70
        grid = TriangleGrid(((big,),))
        rendered = render_json(grid)
        assert f'"{big}"' in rendered
        assert parse_json(rendered) == grid

    def test_json_boundary_values_stay_numbers(self):
        grid = TriangleGrid(((2**63 - 1,), (-(2**63), 0)))
        rendered = render_json(grid)
        assert '"' not in rendered.replace('"rows"', "")
        assert parse_json(rendered) == grid

    def test_csv_flattens_jagged_rows(self):
        assert render_csv(TriangleGrid(((1,), (2, 3)))) == "n,r,k,value\n0,0,0,1\n1,0,1,2\n1,1,0,3\n"


class TestRoundTrips:
    @given(params=params_st, n_rows=st.integers(1, 8))
    def test_text_and_json_parse_back_identically(self, params, n_rows):
        grid = generate_closed_form(params, n_rows)
        assert parse_plain_rows(render_text(grid)) == grid
        assert parse_json(render_json(grid)) == grid
        assert parse_triangle(render_text(grid)) == parse_triangle(render_json(grid))
