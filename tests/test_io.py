"""Triangle file parsing and serialization."""

import json
import re
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    LabelledInt,
    oracle_csv_chunks,
    oracle_json_chunks,
    oracle_json_document,
    oracle_json_rows,
    oracle_plain_rows,
    oracle_text_chunks,
    triangle_like_text,
)
from rascal import (
    GrtParams,
    TriangleGrid,
    TriangleParseError,
    csv_chunks,
    generate_closed_form,
    json_chunks,
    json_rows,
    parse_json,
    parse_plain_rows,
    parse_triangle,
    plain_rows,
    render_csv,
    render_json,
    render_text,
    text_chunks,
    triangle_rows,
)
from rascal import analyze, generate, triangle_io
from rascal.triangle_io import grammar_int

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
        # the token named is past the limit, not the signed one as long as it but within the limit
        limit = sys.get_int_max_str_digits()
        with pytest.raises(TriangleParseError, match=f"^line 2: {limit + 1}-digit integer is too long"):
            parse_plain_rows(f"1\n-{'9' * limit} {'9' * (limit + 1)}\n")


    def test_over_long_row_refused_without_its_tokens(self):
        # row 2 of 2,000,000 entries: the line is split at most 4 times, and the rest is counted a
        # window at a time. Traced peaks on Python 3.11: 40.1 MiB when all tokens were split out
        # at once, 12.4 MiB now, of which three 4 MB copies of the line's text take 12 MiB.
        text = "1\n1 1\n" + " ".join(["1"] * 2_000_000) + "\n"
        blocks = [text[i : i + 65536] for i in range(0, len(text), 65536)]
        tracemalloc.start()
        try:
            with pytest.raises(TriangleParseError) as exc_info:
                list(plain_rows(blocks))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc_info.value) == "line 3: row 2 has 2000000 entries, expected 3"
        assert peak < 20 * 2**20


class TestGrammarInt:
    """``grammar_int`` reads one token by the grammar of triangle files, for a flag or a JSON integer string."""

    @pytest.mark.parametrize("token, value", [("007", 7), ("-0", 0), ("-12", -12), (str(2**80), 2**80)])
    def test_tokens_of_the_grammar(self, token, value):
        assert grammar_int(token) == value

    # int() reads the first seven
    @pytest.mark.parametrize("token", ["+1", " 1", "1 ", "1_0", "\u0661", "\uff11", "-\uff11", "", "-", "--1", "1.5"])
    def test_other_tokens_are_named(self, token):
        with pytest.raises(ValueError) as exc_info:
            grammar_int(token)
        assert str(exc_info.value) == repr(token)

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_token_past_the_digit_limit_is_named_by_its_length(self, sign):
        digits = sys.get_int_max_str_digits() + 1
        with pytest.raises(ValueError) as exc_info:
            grammar_int(sign + "9" * digits)
        assert str(exc_info.value) == f"{digits}-digit integer is too long to convert"


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[[1], [1, 1], [1, 2, 1]]", 'expected a JSON object with a "rows" array'),
            (" \n[3]", 'expected a JSON object with a "rows" array'),
            ("[[3]", 'expected a JSON object with a "rows" array'),  # refused at "[", before the syntax
        ],
    )
    def test_top_level_array_read_as_json(self, text, message):
        with pytest.raises(TriangleParseError, match=f"^{re.escape(message)}$"):
            parse_triangle(text)


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


I64_EDGES = [-(2**63) - 1, -(2**63), 2**63 - 1, 2**63]  # each end of the signed 64-bit range, and one past
ENTRIES = {
    "small": st.integers(-(10**6), 10**6),
    "64-bit edges": st.sampled_from(I64_EDGES),
    "mixed sizes": st.one_of(st.integers(-99, 99), st.sampled_from(I64_EDGES), st.integers(-(2**200), 2**200)),
    "int subclasses": st.one_of(
        st.integers(-99, 99),
        st.booleans(),
        st.builds(LabelledInt, st.integers(-(2**70), 2**70)),
        st.sampled_from(I64_EDGES),
    ),
}
WRITERS = [(text_chunks, oracle_text_chunks), (json_chunks, oracle_json_chunks), (csv_chunks, oracle_csv_chunks)]


def triangles(entry):
    """1-6 rows, row n of n + 1 entries, each row a tuple or a list."""
    row = lambda n: st.lists(entry, min_size=n + 1, max_size=n + 1).flatmap(
        lambda values: st.sampled_from([tuple(values), values])
    )
    return st.integers(1, 6).flatmap(lambda n_rows: st.tuples(*map(row, range(n_rows))))


def written(chunks):
    """The chunks a writer yields, or the class and message of what it raises."""
    try:
        return list(chunks())
    except (TypeError, ValueError) as err:
        return type(err), str(err)


class TestRowWriters:
    """Each row is one %-format call; the chunks are those of one str() per cell and json.dumps per row."""

    @pytest.mark.parametrize("entries", ENTRIES)
    @given(data=st.data())
    def test_match_the_per_cell_writers(self, entries, data):
        rows = data.draw(triangles(ENTRIES[entries]))
        for chunks, oracle in WRITERS:
            assert written(lambda: chunks(rows)) == written(lambda: oracle(rows))

    @pytest.mark.parametrize("entries", ENTRIES)
    @given(data=st.data())
    def test_one_row_of_any_length(self, entries, data):
        row = data.draw(st.lists(ENTRIES[entries], max_size=12))
        for chunks, oracle in WRITERS[:2]:  # a CSV row 0 holds one entry
            assert written(lambda: chunks([row])) == written(lambda: oracle([row]))

    def test_bool_and_subclass_entries_keep_json_dumps(self):
        rows = [(True,), (LabelledInt(5), False)]
        assert "".join(json_chunks(rows)) == '{"rows": [[true], [5, false]]}\n'
        assert "".join(text_chunks(rows)) == "True\nint:5 False\n"
        assert "".join(csv_chunks(rows)) == "n,r,k,value\n0,0,0,True\n1,0,1,int:5\n1,1,0,False\n"

    def test_subclass_entry_past_64_bits_reads_back(self):
        # quoted as int.__repr__ writes its digits, as json.dumps writes an int subclass, not by its str()
        rows = [(LabelledInt(5),), (LabelledInt(2**64), LabelledInt(7))]
        text = "".join(json_chunks(rows))
        assert text == '{"rows": [[5], ["18446744073709551616", 7]]}\n'
        assert list(json_rows([text])) == [(5,), (2**64, 7)]

    @pytest.mark.parametrize("row", [(), []])
    def test_empty_row(self, row):
        assert "".join(json_chunks([row])) == json.dumps({"rows": [[]]}) + "\n" == '{"rows": [[]]}\n'
        assert "".join(json_chunks([(7,), row, (1, 2)])) == '{"rows": [[7], [], [1, 2]]}\n'
        assert "".join(text_chunks([row])) == "\n"

    def test_floats_are_not_truncated(self):
        rows = [(1.5,), (2, 2.75)]
        assert "".join(text_chunks(rows)) == "1.5\n2 2.75\n"
        assert "".join(json_chunks(rows)) == '{"rows": [[1.5], [2, 2.75]]}\n'

    @pytest.mark.parametrize(
        "rows, n, length", [([(1,), (2, 3, 4), (5,)], 1, 3), ([(1,), (2,)], 1, 1), ([(1, 2)], 0, 2), ([()], 0, 0)]
    )
    def test_csv_refuses_a_row_of_the_wrong_length(self, rows, n, length):
        with pytest.raises(ValueError, match=rf"^row {n} has {length} entries, expected {n + 1}$"):
            list(csv_chunks(rows))

    @pytest.mark.parametrize(
        "render, oracle",
        [(render_text, oracle_text_chunks), (render_json, oracle_json_chunks), (render_csv, oracle_csv_chunks)],
    )
    @pytest.mark.parametrize("sign", [1, -1])
    def test_entry_past_the_digit_limit_raises_as_str_does(self, render, oracle, sign):
        grid = TriangleGrid(((1,), (1, sign * 10 ** sys.get_int_max_str_digits())))
        expected = written(lambda: oracle(grid.rows))
        assert expected[0] is ValueError and "limit" in expected[1]
        assert written(lambda: [render(grid)]) == expected


class TestRoundTrips:
    @given(params=params_st, n_rows=st.integers(1, 8))
    def test_text_and_json_parse_back_identically(self, params, n_rows):
        grid = generate_closed_form(params, n_rows)
        assert parse_plain_rows(render_text(grid)) == grid
        assert parse_json(render_json(grid)) == grid
        assert parse_triangle(render_text(grid)) == parse_triangle(render_json(grid))


def pieces(text, cuts):
    """``text`` cut at the given offsets (taken modulo its length, in order)."""
    points = sorted({cut % (len(text) + 1) for cut in cuts} | {0, len(text)})
    return [text[a:b] for a, b in zip(points, points[1:])]


def outcome(parse):
    try:
        return TriangleGrid(list(parse()))
    except TriangleParseError as err:
        return str(err)


# JSON documents around the grammar's edges: spacing the writer never uses,
# members before and after "rows", ragged rows and bad values, cut short
json_like_text = st.builds(
    lambda rows, extra, first, indent, cut: json.dumps(
        {"rows": rows, **extra} if first else {**extra, "rows": rows}, indent=indent
    )[:cut],
    st.one_of(
        st.integers(0, 5).map(lambda n: [list(range(k + 1)) for k in range(n)]),
        st.lists(st.one_of(st.lists(st.one_of(st.integers(-99, 99), st.just("7"), st.just(1.5))), st.just(1234))),
    ),
    st.sampled_from([{}, {"note": "\u00e9"}, {"x": [1, 2]}]),
    st.booleans(),
    st.sampled_from([None, 2]),
    st.one_of(st.none(), st.integers(0, 60)),
)


class TestRowParsers:
    """The row parsers read text in pieces of any size, with the whole-text parse's rows and errors."""

    @given(text=st.one_of(triangle_like_text, json_like_text), cuts=st.lists(st.integers(0, 200), max_size=8))
    def test_any_cut_matches_the_whole_text(self, text, cuts):
        whole = outcome(lambda: triangle_rows([text]))
        assert outcome(lambda: triangle_rows(pieces(text, cuts))) == whole
        assert outcome(lambda: triangle_rows(text)) == whole  # one character at a time

    def test_whole_text_parsers_wrap_the_row_parsers(self):
        assert parse_plain_rows(RASCAL_TEXT) == TriangleGrid(list(plain_rows([RASCAL_TEXT])))
        text = '{"rows": [[1], [1, 1]]}'
        assert parse_json(text) == TriangleGrid(list(json_rows([text]))) == parse_triangle(text)

    @pytest.mark.parametrize("value", ["1234", "12.5", "true"])
    def test_value_cut_between_pieces_is_read_whole(self, value):
        head = render_json(generate_closed_form(GrtParams(4, 1, 2, 3), 100))[:-3]
        text = head + ", " + value + "]}"
        cut = len(head) + 3
        with pytest.raises(TriangleParseError, match="^row 100 is not an array$"):
            list(json_rows([text[:cut], text[cut:]]))

    def test_crlf_split_between_pieces_is_one_line_break(self):
        with pytest.raises(TriangleParseError, match="^line 3: "):
            list(plain_rows(["1\r", "\n1 1\r", "\nx\n"]))

    def test_rows_come_before_the_text_ends(self):
        head = render_json(generate_closed_form(GrtParams(4, 1, 2, 3), 100))[:-3]

        def text(first):
            yield first
            raise AssertionError("read past the rows asked for")

        assert next(json_rows(text(head))) == (4,)
        assert next(json_rows(text('{"format": "rascal", ' + head[1:]))) == (4,)
        assert next(plain_rows(text("4\n4 4\n"))) == (4,)

    @pytest.mark.parametrize(
        "doc",
        [
            {"meta": {"rows": 1}, "rows": [[1], [1, 1]]},
            {"rows": [[1], [1, 1]], "meta": [2, 3]},
        ],
    )
    @pytest.mark.parametrize("indent", [None, 2])
    def test_other_layouts_parse_as_json_loads_reads_them(self, doc, indent):
        text = json.dumps(doc, indent=indent)
        assert list(json_rows(pieces(text, range(0, 200, 3)))) == list(map(tuple, doc["rows"]))

    @pytest.mark.parametrize("fault", ["[1 2]", "[1, 2],", "[1, 2]] x", '[1, "2\n"]'])
    def test_late_syntax_error_keeps_its_line(self, fault):
        rows = ",\n".join(json.dumps(list(range(n + 1))) for n in range(100))
        text = '{"rows": [\n' + rows + ",\n" + fault + "\n]}\n"
        with pytest.raises(json.JSONDecodeError) as whole:
            json.loads(text)
        message = f"line {whole.value.lineno}: invalid JSON: {whole.value.msg}"
        assert whole.value.lineno > 100
        for cuts in ([], range(0, len(text), 7), range(0, len(text), 5000)):
            with pytest.raises(TriangleParseError) as exc_info:
                list(json_rows(pieces(text, cuts)))
            assert str(exc_info.value) == message

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("[3, 4]", "[3 4]", "line 1: invalid JSON: Expecting ',' delimiter"),
            ("[1], ", "[1] ", "line 1: invalid JSON: Expecting ',' delimiter"),
            ("[3, 4]", "[3, %s]" % ("9" * 5000), "invalid JSON: a number has too many digits to convert"),
            ('{"rows": ', "", 'expected a JSON object with a "rows" array'),
        ],
        ids=["value in row 1", "comma after row 0", "5000 digits in row 1", "bare array"],
    )
    def test_refusal_reads_only_as_far_as_the_fault(self, old, new, message):
        # a fault near the head of 1000 rows (3.7 MiB): traced peaks on Python 3.11 were 7.5 MiB
        # (21.3 MiB for the bare array) when the rest of the document was read to refuse it
        text = "".join(json_chunks(generate.closed_form_rows(GrtParams(1, 5, 2, 3), 1000))).replace(old, new, 1)
        blocks = [text[i : i + 65536] for i in range(0, len(text), 65536)]
        tracemalloc.start()
        try:
            with pytest.raises(TriangleParseError) as exc_info:
                list(json_rows(blocks))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc_info.value) == message
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("tail", [".5", "e3", "E+3", ""])
    def test_number_past_the_digit_limit_cut_between_pieces(self, tail):
        # an integer part past the limit is a float's, not a fault, when a fraction or exponent follows it
        text = '{"rows": [[1], [1, %s%s]]}' % ("9" * (sys.get_int_max_str_digits() + 10), tail)
        message = "row 1: inf is not an integer or integer string" if tail else "too many digits to convert"
        for cut in range(len(text) - len(tail) - 20, len(text)):
            with pytest.raises(TriangleParseError, match=message):
                list(json_rows([text[:cut], text[cut:]]))

    def test_second_rows_member_rejected(self):
        with pytest.raises(TriangleParseError, match='more than one "rows" member'):
            parse_json('{"rows": [[1]], "rows": [[2]]}')
        # in any layout, the key spelled with an escape too
        for text in [
            '{"a": 1, "rows": [[1]], "rows": [[2]]}',
            '{"r\\u006fws": [[1]], "rows": [[2]]}',
            '{"rows": 1, "rows": [[1]]}',
        ]:
            with pytest.raises(TriangleParseError, match='^more than one "rows" member$'):
                list(json_rows(pieces(text, range(0, len(text), 3))))

    def test_syntax_error_after_a_bad_row_wins(self):
        # as json.loads sees it: the document is invalid before any row is looked at
        with pytest.raises(TriangleParseError, match="^line 3: invalid JSON"):
            list(json_rows(['{"rows": [[1], 5,\n', "[1, 2],\n", "[1 2 3]]}"]))


# one more digit than the interpreter converts (sys.set_int_max_str_digits)
OVER_LIMIT = "9" * (sys.get_int_max_str_digits() + 1)

# tokens near the grammar: int() reads "+1", "1_0" and the other scripts' digits
_PLAIN_NEAR = ["+1", "1_0", "\u0661", "\uff11", "-", "--1", "1-", OVER_LIMIT, "-" + OVER_LIMIT]
_PLAIN_PIECES = [*"0123456789", "-", "+", "_", "\u0661", "\uff11", OVER_LIMIT]
_PLAIN_SEPARATORS = [" ", "\t", "\x1f", "\u00a0", " \t"]  # str.split() separates at each, splitlines at none
_plain_good = st.one_of(st.integers(-99, 99).map(str), st.sampled_from(["007", "-0"]))
_plain_near = st.one_of(
    st.sampled_from(_PLAIN_NEAR), st.lists(st.sampled_from(_PLAIN_PIECES), min_size=1, max_size=3).map("".join)
)
_free_line = st.lists(st.sampled_from([*_PLAIN_PIECES, *_PLAIN_SEPARATORS]), max_size=8).map("".join)

# JSON values near the grammar: int() reads every string here but "1,2", "-" and ""
_JSON_NEAR = [
    "1,2", " 1", "1 ", "\x1c1", "1\x1f", "+1", "1_0", "-", "", "\u0661",
    OVER_LIMIT, "-" + OVER_LIMIT, True, False, 1.0, [1], [], None,
]
_json_good = st.one_of(
    st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70).map(str), st.sampled_from(["007", "-0"])
)


@st.composite
def near_rows(draw, good, near):
    """Rows 0, 1, ... of about the right length from ``good`` values, now and then one replaced by a ``near`` one."""
    rows = []
    for n in range(draw(st.integers(0, 5))):
        size = draw(st.sampled_from([n + 1, n + 1, n + 1, n, n + 2]))
        row = draw(st.lists(good, min_size=size, max_size=size))
        if row and draw(st.booleans()):
            row[draw(st.integers(0, size - 1))] = draw(near)
        rows.append(row)
    return rows


@st.composite
def plain_like_text(draw):
    """``near_rows`` of tokens, separated by whitespace near the grammar, and now and then a line of pieces."""
    lines = []
    for tokens in draw(near_rows(_plain_good, _plain_near)):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(_free_line))
            continue
        gaps = len(tokens) + 1
        separators = draw(st.lists(st.sampled_from(_PLAIN_SEPARATORS), min_size=gaps, max_size=gaps))
        line = separators[0] + "".join(token + separator for token, separator in zip(tokens, separators[1:]))
        lines.append(line.rstrip() if draw(st.booleans()) else line)
    return "\n".join(lines)


@st.composite
def json_like_rows(draw):
    """``near_rows`` of JSON values, and now and then a row that is no array."""
    rows = draw(near_rows(_json_good, st.sampled_from(_JSON_NEAR)))
    if rows and draw(st.integers(0, 9)) == 0:
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.sampled_from(_JSON_NEAR))
    return rows


def parsed(rows):
    """The rows an iterator of rows gives, or the (message, line) of the TriangleParseError it raises."""
    try:
        return list(rows)
    except TriangleParseError as err:
        return str(err), err.line


class TestAgainstReferenceGrammar:
    """The row parsers, which let int() scan, agree with a token-by-token reading of the grammar."""

    @settings(max_examples=300)
    @given(text=plain_like_text())
    @example(text="1\n1 1_0\n1 2 1\n")
    @example(text="1\n1 +1\n1 2 1\n")
    @example(text="1\n1 \u0661\n1 2 1\n")
    @example(text="1\n1 %s\n1 2 1\n" % ("9" * 5000))
    @example(text="1\n1\u00a01\n1\u00a02\u00a01\n")
    @example(text="007\n7 -0\n7 7 7\n")
    def test_plain_rows(self, text):
        assert parsed(plain_rows([text])) == oracle_plain_rows(text)

    @settings(max_examples=300)
    @given(text=plain_like_text(), window=st.integers(1, 6))
    def test_plain_rows_a_window_at_a_time(self, text, window):
        # a line int() alone cannot read is split a window at a time; here every such line spans windows
        with mock.patch.object(triangle_io, "_WINDOW", window):
            assert parsed(plain_rows([text])) == oracle_plain_rows(text)

    @settings(max_examples=300)
    @given(rows=json_like_rows())
    def test_json_rows(self, rows):
        assert parsed(json_rows([json.dumps({"rows": rows})])) == oracle_json_rows(rows)


# Top-level objects with their members in any order: "rows" (or its key spelled with an escape)
# once, twice or not at all, now and then with a value that is no array, other members, spacing
# the writer never uses and trailing text; now and then a fault put in anywhere, or the text cut
_JSON_KEYS = ['"rows"', '"r\\u006fws"', '"a"', '"rows "']
_JSON_OTHER_VALUES = ["1", "-2.5e3", '"x"', "null", "[1, 2]", "[]", '{"rows": [[1]]}', "{}"]
_JSON_SPACE = ["", " ", "\n", " \t\r\n"]
_JSON_FAULTS = ["e5", ".5", "x", '"', "[", "]", "{", "}", ",", ":", "1", "-", "\n", '"rows"']
_json_space = st.sampled_from(_JSON_SPACE)


@st.composite
def json_like_documents(draw):
    members = []
    for key in draw(st.lists(st.sampled_from(_JSON_KEYS), max_size=4)):
        values = st.sampled_from(_JSON_OTHER_VALUES)
        value = draw(values if key == '"a"' else st.one_of(json_like_rows().map(json.dumps), values))
        space = [draw(_json_space) for _ in range(4)]
        members.append(f"{space[0]}{key}{space[1]}:{space[2]}{value}{space[3]}")
    text = draw(_json_space) + "{" + ",".join(members) + "}" + draw(st.sampled_from(["", "\n", " x", "{}", ","]))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_JSON_FAULTS)) + text[at:]
    if draw(st.integers(0, 5)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


class TestAgainstJsonLoads:
    """json_rows reads any JSON document, in pieces of any size, as json.loads reads it whole,
    except that a second "rows" member is refused."""

    @settings(max_examples=300)
    @given(text=json_like_documents(), cuts=st.lists(st.integers(0, 400), max_size=8))
    @example(text='{"rows": [[1], [1, "1_0"], [1, 2, 1]]}', cuts=[])
    @example(text='{"rows": [[1], [1, "+1"], [1, 2, 1]]}', cuts=[])
    @example(text='{"rows": [[1], [1, "\\u0661"], [1, 2, 1]]}', cuts=[])
    @example(text='{"rows": [[1], [1, "%s"], [1, 2, 1]]}' % ("9" * 5000), cuts=[])
    @example(text='{"a": 1, "rows": [[1]], "rows": [[2]]}', cuts=[])
    def test_json_documents(self, text, cuts):
        expected = oracle_json_document(text)
        assert parsed(json_rows(pieces(text, cuts))) == expected
        assert parsed(json_rows(text)) == expected  # one character at a time


# One edit of a canonical closed-form file: each text edit is a pattern and what one drawn match of it
# becomes.  Any of them but "none" and "plant" may make a row's text differ from what the writer writes.
_TEXT_EDITS = {
    "double space": (r" ", "  "),
    "crlf": (r"\n", "\r\n"),
    "leading zero": (r"(?<!\d)(?=\d)", "0"),
    "comment": (r"(?m)^", "# note\n"),
    "blank line": (r"(?m)^", " \t\n"),
    "trailing blanks": (r"(?=\n)", " \t"),
}
_JSON_EDITS = {
    "double space": (r" ", "  "),
    "crlf": (r"(?<=,) ", "\r\n"),
    "leading zero": (r"(?<!\d)(?=\d)", "0"),
    "comment": (r"(?<=, )", "# note\n"),
    "blank line": (r"(?<=, )", "\n\n"),
    "trailing blanks": (r"(?=\])", " \t"),
}


@st.composite
def edited_closed_forms(draw):
    """(format, text): the text or JSON file of a closed form of 4 to 12 rows, given one drawn edit."""
    big = st.integers(-(2**70), 2**70)
    params = draw(st.one_of(params_st, st.builds(GrtParams, big, big, big, big)))
    rows = list(generate_closed_form(params, draw(st.integers(4, 12))).rows)
    fmt = draw(st.sampled_from(["text", "json"]))
    edit = draw(st.sampled_from(["none", "plant", "digit", "all crlf", *_TEXT_EDITS]))
    if edit == "plant":
        n = draw(st.integers(3, len(rows) - 1))
        r = draw(st.integers(0, n))
        rows[n] = (*rows[n][:r], rows[n][r] + draw(st.integers(1, 9)) * draw(st.sampled_from([1, -1])), *rows[n][r + 1 :])
    text = "".join((text_chunks if fmt == "text" else json_chunks)(rows))
    if edit == "all crlf":
        return fmt, text.replace("\n", "\r\n")
    if edit == "digit":
        pattern, replacement = r"\d", draw(st.sampled_from("0123456789"))
    elif edit in _TEXT_EDITS:
        pattern, replacement = (_TEXT_EDITS if fmt == "text" else _JSON_EDITS)[edit]
    else:
        return fmt, text
    match = draw(st.sampled_from(list(re.finditer(pattern, text))))
    return fmt, text[: match.start()] + replacement + text[match.end() :]


def classified(rows):
    """The classification of the rows a row parser yields, or the (message, line) of its TriangleParseError."""
    from rascal.analyze import classify_checked_rows

    try:
        return classify_checked_rows(rows)
    except TriangleParseError as err:
        return str(err), err.line


def reference_classified(fmt, text):
    """``classified`` by the reference readers of the grammar and ``classify_rows``."""
    from rascal import classify_rows

    read = oracle_plain_rows(text) if fmt == "text" else oracle_json_document(text)
    return classify_rows(read) if isinstance(read, list) else read


class TestClosedFormPrefixOnText:
    """classify takes a row whose text is the writer's text of the closed form's row unparsed, and parses any other."""

    @settings(max_examples=400)
    @given(case=edited_closed_forms(), cuts=st.lists(st.integers(0, 2000), max_size=8))
    def test_any_edit_in_any_pieces_classifies_as_the_reference(self, case, cuts):
        fmt, text = case
        assert classified(triangle_rows(pieces(text, cuts))) == reference_classified(fmt, text)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_no_row_past_the_fit_is_parsed(self, fmt):
        grid = generate_closed_form(GrtParams(-734, -7, -55, -81), 600)
        text = (render_text if fmt == "text" else render_json)(grid)
        # the ways a row is parsed: a line window by window, its tokens by int() at once; a decoded JSON row checked
        parsers = {name: getattr(triangle_io, name) for name in ("_grammar_ints", "_plain_row", "_json_row")}
        parsed, drawn, streams = [], [], []

        def logged(name):
            return lambda *args: parsed.append(name) or parsers[name](*args)

        def closed_form_rows(params, n_rows):
            streams.append(params)
            for row in generate.closed_form_rows(params, n_rows):
                drawn.append(len(row) - 1)
                yield row

        with mock.patch.multiple(triangle_io, **{name: logged(name) for name in parsers}), mock.patch.object(
            analyze, "closed_form_rows", closed_form_rows
        ):
            result = classified(triangle_rows(pieces(text, range(0, len(text), 1 << 16))))
        assert result == reference_classified(fmt, text) and result.verdict == "grt"
        # rows 0-2, which fit the parameters: each line by _plain_row, whose window goes to int() at once
        assert parsed == (["_plain_row", "_grammar_ints"] if fmt == "text" else ["_json_row"]) * 3
        assert streams == [result.params]  # one stream, started once rows 0-2 fix the parameters
        # rows 0-1, which the fit matches by construction, then each row's closed form once, and the one after the last
        assert drawn == list(range(601))

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_expected_entry_past_the_digit_limit_is_parsed(self, fmt):
        # d1 of L digits: rows 0-2 stay within the limit L, and row 3 of the closed form, (3*d1, 2*d1, d1, 0),
        # starts with an entry past it, so no file holds it; this one holds the rest of it
        d1 = 4 * 10 ** (sys.get_int_max_str_digits() - 1)
        rows = [(0,), (d1, 0), (2 * d1, d1, 0), (0, 2 * d1, d1, 0)]
        text = "".join((text_chunks if fmt == "text" else json_chunks)(rows))
        result = classified(triangle_rows([text]))
        assert result == reference_classified(fmt, text)
        assert result.mismatch[2] == 3 * d1

    def test_no_row_is_given_back_past_a_fault(self):
        # the second "rows" member is refused at the end; no row of it comes first, as with any fault
        rows = generate_closed_form(GrtParams(1, 1, 0, 0), 5).rows
        first, second = ("".join(json_chunks(part))[9:-2] for part in (rows[:4], rows[4:]))
        parser = json_rows([f'{{"rows": {first}, "rows": {second}}}'])
        assert [next(parser) for _ in range(4)] == list(rows[:4])
        with pytest.raises(TriangleParseError, match='^more than one "rows" member$'):
            parser.send(rows[4])

    @pytest.mark.parametrize("render", [text_chunks, json_chunks])
    def test_memory_grows_with_rows_not_cells(self, render):
        from rascal.generate import closed_form_rows

        tracemalloc.start()
        try:
            result = classified(triangle_rows(render(closed_form_rows(GrtParams(3, 2, 5, 7), 500))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.verdict == "grt"
        assert peak < 2**20  # the whole triangle's 125k cells, or its text, would take several MiB
