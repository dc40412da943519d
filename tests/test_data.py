"""Ingestion, deduplication, the columns, and grouping games by spread."""

from __future__ import annotations

import copy
import csv
import datetime as dt
import gc
import io
import pickle
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spreadbias import (
    Dataset,
    DuplicateConflictError,
    FitConfig,
    GameRecord,
    ParseError,
    SchemaError,
    TdConfig,
    deduplicate,
    parse_games,
    run_td,
)
from spreadbias import cli, data
from conftest import (
    GAME_RECORDS, dataset_csv_text, make_record, reference_parse, synthetic_spread_dataset,
)

HEADER = "date,home_team,visitor_team,home_score,visitor_score,spread\n"
GOOD_ROW = "2017-09-10,NE,KC,27,42,-9.0\n"
#: A header whose last column is a team name.
LAST_HOME = "date,visitor_team,home_score,visitor_score,spread,home_team\n"


def parse(text: str) -> Dataset:
    return parse_games(text.encode("utf-8"))


def parse_file(text: str) -> Dataset:
    """``text`` parsed by ``csv.reader`` over its lines without their ends: its
    header's ``date`` is quoted, which moves no line."""
    return parse(re.sub(r"\bdate\b", '"date"', text, count=1))


#: Runs an error case on the text as written and on its quoted-header copy: the
#: line and message must not depend on the tokenizer.
BOTH_READS = pytest.mark.parametrize("read", [parse, parse_file], ids=["plain", "quoted-header"])


class TestParseGames:
    def test_single_row_field_mapping(self):
        ds = parse(HEADER + "2017-09-10,NE,KC,27,42,-9.0\n")
        assert len(ds) == 1
        record = ds.records[0]
        assert record.date == dt.date(2017, 9, 10)
        assert record.home_team == "NE"
        assert record.visitor_team == "KC"
        assert record.outcome == 15
        assert record.spread == -9.0

    @BOTH_READS
    def test_negative_score_reports_line_number(self, read):
        with pytest.raises(ParseError) as exc:
            read(HEADER + "2017-09-10,NE,KC,27,42,-9.0\n2017-09-11,GB,SEA,-3,10,1.5\n")
        assert exc.value.line_num == 3
        assert "line 3" in str(exc.value)

    def test_empty_file_with_header(self):
        assert len(parse(HEADER)) == 0

    @BOTH_READS
    def test_missing_column_is_schema_error(self, read):
        with pytest.raises(SchemaError, match="spread"):
            read("date,home_team,visitor_team,home_score,visitor_score\n")

    def test_fully_empty_input_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse("")

    @BOTH_READS
    def test_bad_date(self, read):
        with pytest.raises(ParseError, match="date"):
            read(HEADER + "10 Sep 2017,NE,KC,27,42,-9.0\n")

    @BOTH_READS
    def test_non_numeric_spread(self, read):
        with pytest.raises(ParseError, match="spread"):
            read(HEADER + "2017-09-10,NE,KC,27,42,pickem\n")

    @BOTH_READS
    def test_non_finite_spread(self, read):
        with pytest.raises(ParseError, match="spread"):
            read(HEADER + "2017-09-10,NE,KC,27,42,nan\n")

    @BOTH_READS
    def test_non_integer_score(self, read):
        with pytest.raises(ParseError, match="score"):
            read(HEADER + "2017-09-10,NE,KC,27.5,42,-9.0\n")

    def test_column_order_free(self):
        ds = parse(
            "spread,visitor_score,home_score,visitor_team,home_team,date\n"
            "-9.0,42,27,KC,NE,2017-09-10\n"
        )
        assert ds.records[0].outcome == 15
        assert ds.records[0].home_team == "NE"

    def test_extra_columns_ignored(self):
        ds = parse(
            "date,home_team,visitor_team,home_score,visitor_score,spread,venue\n"
            "2017-09-10,NE,KC,27,42,-9.0,Foxborough\n"
        )
        assert len(ds) == 1

    def test_comment_and_blank_lines_skipped(self):
        ds = parse("# manifest {}\n" + HEADER + "\n2017-09-10,NE,KC,27,42,-9.0\n")
        assert len(ds) == 1

    def test_ascii_whitespace_around_numbers_read(self):
        [record] = parse(HEADER + "2017-09-10,NE,KC, 27 ,\t42\t, -3.5\x0b\n")
        assert (record.home_score, record.visitor_score, record.spread) == (27, 42, -3.5)

    def test_spread_rounded_to_one_decimal(self):
        ds = parse(HEADER + "2017-09-10,NE,KC,27,42,-2.5000001\n")
        assert ds.records[0].spread == -2.5

    @BOTH_READS
    def test_repeated_required_column_is_schema_error(self, read):
        with pytest.raises(SchemaError, match="repeated.*spread"):
            read(
                "date,home_team,visitor_team,home_score,visitor_score,spread,spread\n"
                "2017-09-10,NE,KC,27,42,-9.0,3.0\n"
            )

    @pytest.mark.parametrize("first,second", [("-0.0", "0"), ("0", "-0.0")])
    def test_pickem_spread_label_is_zero_in_either_row_order(self, first, second):
        ds = parse(
            HEADER
            + f"2017-09-10,NE,KC,27,42,{first}\n"
            + f"2017-09-11,GB,SEA,20,17,{second}\n"
        )
        spreads, _, _, sizes, _ = FitConfig(min_samples=1).groups(ds)
        [spread] = spreads.tolist()
        assert sizes.tolist() == [2]
        assert f"{spread:g}" == "0"
        assert f"{spread:.1f}" == "0.0"

    def test_row_order_preserved(self):
        ds = parse(
            HEADER
            + "2017-09-10,NE,KC,27,42,-9.0\n"
            + "2014-12-07,DAL,PHI,38,27,3.0\n"
        )
        assert [r.home_team for r in ds] == ["NE", "DAL"]

    # Each bad row also breaks every field checked after the one named, so
    # the table pins the check order as well as the message.
    @pytest.mark.parametrize(
        "row,message",
        [
            ("10 Sep 2017,,,x,-1,nan", "invalid date '10 Sep 2017' (expected YYYY-MM-DD)"),
            # Both parse as 2017-09-10 with date.fromisoformat on Python 3.11+.
            ("20170910,,,x,-1,nan", "invalid date '20170910' (expected YYYY-MM-DD)"),
            ("2017-W36-7,,,x,-1,nan", "invalid date '2017-W36-7' (expected YYYY-MM-DD)"),
            ("2017-09-11, ,,x,-1,nan", "empty home_team"),
            ("2017-09-11,NE,,x,-1,nan", "empty visitor_team"),
            ("2017-09-11,NE,KC,27.5,x,nan", "non-integer home_score '27.5'"),
            ("2017-09-11,NE,KC,27,x,nan", "non-integer visitor_score 'x'"),
            ("2017-09-11,NE,KC, -3 ,x,nan", "negative home_score '-3'"),
            ("2017-09-11,NE,KC,27,-1,nan", "negative visitor_score '-1'"),
            ("2017-09-11,NE,KC,9223372036854775808,x,nan",
             "out-of-range home_score '9223372036854775808' (above 2**63 - 1)"),
            ("2017-09-11,NE,KC,27,100000000000000000000,nan",
             "out-of-range visitor_score '100000000000000000000' (above 2**63 - 1)"),
            ("2017-09-11,NE,KC,27,42,pickem", "non-numeric spread 'pickem'"),
            ("2017-09-11,NE,KC,27,42,-inf", "non-finite spread '-inf'"),
            # int() and float() read these as 27, 42, 3, -10.5 and 3.5.
            ("2017-09-11,NE,KC,2_7,x,nan", "non-integer home_score '2_7'"),
            ("2017-09-11,NE,KC,\u0664\u0662,x,nan", "non-integer home_score '\u0664\u0662'"),
            ("2017-09-11,NE,KC,27,\uff13,nan", "non-integer visitor_score '\uff13'"),
            ("2017-09-11,NE,KC,27,42,-1_0.5", "non-numeric spread '-1_0.5'"),
            ("2017-09-11,NE,KC,27,42,\u0663.\u0665", "non-numeric spread '\u0663.\u0665'"),
            # str.strip() takes these ideographic, no-break and em spaces; only ASCII
            # whitespace pads a number, and repr() shows the rest escaped.
            ("2017-09-11,NE,KC,27,42, -3.5\u3000", "non-numeric spread '-3.5\\u3000'"),
            ("2017-09-11,NE,KC,\xa027,x,nan", "non-integer home_score '\\xa027'"),
            ("2017-09-11,NE,KC,27,42\u2003,nan", "non-integer visitor_score '42\\u2003'"),
            # Only ASCII whitespace pads a date or a team name either. Kept, a padded
            # team would be a different game key from the plain one.
            ("\u30002017-09-11\xa0,,,x,-1,nan",
             "invalid date '\\u30002017-09-11\\xa0' (expected YYYY-MM-DD)"),
            ("2017-09-11,NE\u3000,,x,-1,nan", "home_team 'NE\\u3000' begins or ends with whitespace"),
            ("2017-09-11,NE, \xa0KC,x,-1,nan", "visitor_team '\\xa0KC' begins or ends with whitespace"),
            ("10 Sep 2017,,,x,-1", "expected 6 fields, found 5"),
            # csv reads a NUL on Python 3.11+ but refuses its line on 3.10; the parser
            # refuses it on both.
            ("2017-09-11,N\x00E,KC,27,42,-3", "unreadable CSV: line contains NUL"),
            # A long field is repeated as its first 40 characters and its length. int()
            # refuses over 4,300 digits on Python 3.11+, so a score is judged by its
            # digits after any leading zeros: Python 3.10 and 3.11+ agree.
            pytest.param("2017-09-11,NE,KC," + "9" * 5000 + ",x,nan",
                         f"out-of-range home_score '{'9' * 40}'... (5000 characters) "
                         "(above 2**63 - 1)", id="long-score"),
            pytest.param("2017-09-11,NE,KC,27,+" + "0" * 4990 + "9" * 20 + ",nan",
                         f"out-of-range visitor_score '+{'0' * 39}'... (5011 characters) "
                         "(above 2**63 - 1)", id="long-signed-score"),
            pytest.param("2017-09-11,NE,KC,27,-" + "9" * 5000 + ",nan",
                         f"negative visitor_score '-{'9' * 39}'... (5001 characters)",
                         id="long-negative-score"),
            pytest.param("2017-09-11,NE,KC," + "0" * 4998 + "27,x,nan",
                         "non-integer visitor_score 'x'", id="long-zero-padded-score"),
            pytest.param("2017-09-11,NE,KC," + "9" * 4999 + "x,x,nan",
                         f"non-integer home_score '{'9' * 40}'... (5000 characters)",
                         id="long-non-integer"),
            pytest.param("2017-09-11,NE,KC,27,42," + "1" * 400,
                         f"non-finite spread '{'1' * 40}'... (400 characters)", id="long-spread"),
            pytest.param("2017-09-11,NE,KC,27,42," + "1" * 100 + "x",
                         f"non-numeric spread '{'1' * 40}'... (101 characters)",
                         id="long-non-numeric"),
            pytest.param("2017-09-11" * 10 + ",,,x,-1,nan",
                         f"invalid date '{'2017-09-11' * 4}'... (100 characters) "
                         "(expected YYYY-MM-DD)", id="long-date"),
            pytest.param("2017-09-11," + "N" * 100 + "\u3000,,x,-1,nan",
                         f"home_team '{'N' * 40}'... (101 characters) begins or ends with "
                         "whitespace", id="long-team"),
        ],
    )
    @BOTH_READS
    def test_bad_row_line_number_and_message(self, row, message, read):
        # Physical line 5: a comment, the header, a good row and a blank line
        # come first, all with CRLF endings.
        text = "\r\n".join(
            ["# manifest {}", HEADER.strip(), GOOD_ROW.strip(), "", row, ""]
        )
        with pytest.raises(ParseError) as exc:
            read(text)
        assert exc.value.line_num == 5
        assert str(exc.value) == f"line 5: {message}"

    @BOTH_READS
    def test_nul_fails_only_when_the_reader_reaches_its_line(self, read):
        nul_row = "2017-09-12,N\x00E,KC,27,42,-3\n"
        assert read(HEADER + "# a \x00 in a comment\n" + GOOD_ROW) == parse(HEADER + GOOD_ROW)
        with pytest.raises(ParseError, match=r"^line 2: negative home_score '-3'$"):
            read(HEADER + "2017-09-11,GB,SEA,-3,10,1.5\n" + nul_row)
        # A quoted field left open reads on into the NUL's line, which fails first.
        with pytest.raises(ParseError, match=r"^line 3: unreadable CSV: line contains NUL$"):
            read(HEADER + '2017-09-11,"GB\n' + nul_row)
        with pytest.raises(ParseError, match=r"^line 2: unreadable CSV: line contains NUL$"):
            read("# manifest\n" + HEADER.replace("spread", "spr\x00ead"))

    @BOTH_READS
    def test_header_names_padded_with_ascii_whitespace_only(self, read):
        padded = HEADER.replace("home_team", " home_team\t")
        assert read(padded + GOOD_ROW).records == parse(HEADER + GOOD_ROW).records
        with pytest.raises(SchemaError, match=r"missing required column\(s\): home_team$"):
            read(HEADER.replace("home_team", "home_team\xa0") + GOOD_ROW)

    @BOTH_READS
    def test_field_over_csv_size_limit_reports_line_number(self, read):
        with pytest.raises(ParseError) as exc:
            read(HEADER + GOOD_ROW + f"2017-09-11,{'N' * 200_000},KC,27,42,-9.0\n")
        assert exc.value.line_num == 3
        assert "field larger than field limit" in str(exc.value)

    @pytest.mark.parametrize(
        "text,line_num",
        [
            (HEADER + GOOD_ROW + '2017-09-11,"N\nE",KC,27,42,-9.0\n', 3),
            (HEADER + GOOD_ROW + '2017-09-11,"NE,KC,27,42,-9.0\n' + GOOD_ROW, 3),
            ('# manifest {}\ndate,"home_team\n",visitor_team,home_score,visitor_score,spread\n', 2),
            # A quote left open on the last line, in the last column or another one.
            (LAST_HOME + '2017-09-15,KC,27,42,1.0,"NE', 2),
            (LAST_HOME + '2017-09-15,KC,27,42,1.0,"NE\r\n\n# end\n', 2),
            (LAST_HOME + "2017-09-10,KC,27,42,-9.0,NE\n" + '2017-09-15,KC,"27,42,1.0,NE\n', 3),
            ('date,"home_team', 1),
            # Closed on the next line past csv's field limit: named at the row's first line.
            (HEADER + GOOD_ROW + '2017-09-11,"N\n' + "N" * 200_000 + '",KC,27,42,-9.0\n', 3),
            ('date,"home_team\n' + "h" * 200_000 + '",visitor_team,home_score,visitor_score,spread\n', 1),
        ],
        ids=["closed-on-next-line", "never-closed", "header", "open-at-end", "open-at-end-then-skipped",
             "open-at-end-not-last-column", "header-open-at-end", "closed-past-the-field-limit",
             "header-closed-past-the-field-limit"],
    )
    @BOTH_READS
    def test_quoted_field_spanning_lines_is_rejected(self, text, line_num, read):
        with pytest.raises(ParseError) as exc:
            read(text)
        assert exc.value.line_num == line_num
        assert str(exc.value) == f"line {line_num}: quoted field spans lines"

    @given(st.integers(-40, 40).map(lambda halves: halves / 2))
    def test_equivalent_spread_spellings_give_one_record(self, spread):
        spellings = [f"{spread:g}", f"{spread:.1f}", f"{spread:.2f}", f" {spread:g} "]
        if spread >= 0:
            spellings.append(f"+{spread:g}")
        if spread == 0:
            spellings += ["-0", "-0.0"]
        records = [
            parse(HEADER + f"2017-09-10,NE,KC,27,42,{spelling}\n").records[0]
            for spelling in spellings
        ]
        assert len(set(records)) == 1
        assert len({(f"{r.spread:g}", f"{r.spread:.1f}") for r in records}) == 1

    @given(st.lists(GAME_RECORDS, max_size=20))
    def test_written_records_parse_back_equal_in_order(self, records):
        dataset = Dataset(tuple(records))
        assert parse(dataset_csv_text(dataset)) == dataset


#: Raw field spellings drawn from small pools, so that rows repeat a field
#: string within a kind and across kinds: a bare "7" is a score and a spread.
PADS = st.sampled_from(["", " "])
SCORE_TEXT = st.builds(
    lambda n, spelling: spelling.format(n),
    st.integers(0, 9), st.sampled_from(["{}", " {} ", "+{}", "0{}"]),
)
SPREAD_TEXT = st.one_of(
    SCORE_TEXT,
    st.sampled_from(["-0", "-0.0", "-1", "-7"]),
    st.builds(
        lambda halves, spelling: spelling.format(halves / 2),
        st.integers(-14, 14), st.sampled_from(["{}", "{:.1f}", "{:.2f}", " {:g} ", "{:+g}"]),
    ),
)
DATE_TEXT = st.builds(
    lambda date, pad: pad + date.isoformat() + pad,
    st.dates(dt.date(2016, 12, 25), dt.date(2017, 1, 5)), PADS,
)
#: Names may hold characters that str.splitlines() breaks at but a line read does not.
TEAM_TEXT = st.builds(
    lambda name, pad: pad + name + pad,
    st.sampled_from(["NE", "KC", "7", "-1", "N\x85E", "N\u2028E", "K\x1cC", "K\vC"]), PADS,
)
SPELLED_ROWS = st.lists(
    st.tuples(DATE_TEXT, TEAM_TEXT, TEAM_TEXT, SCORE_TEXT, SCORE_TEXT, SPREAD_TEXT), max_size=30
)


def typed(records) -> list[list[tuple[type, str]]]:
    """Each field as (type, repr), so 7 and 7.0, or 0.0 and -0.0, differ."""
    return [[(type(value), repr(value)) for value in record] for record in records]


class TestPerValueParse:
    """Each distinct raw field is checked once per kind and shared by the rows
    that repeat it; none of that may show in the records or the errors."""

    def test_raw_seven_is_an_int_score_and_a_float_spread(self):
        ds = parse(
            HEADER
            + "2017-09-10,NE,KC,27,42,7\n"
            + "2017-09-11,GB,SEA,7,7,-3.0\n"
            + "2017-09-12,DAL,PHI,20,17,7\n"
        )
        first, second, third = ds.records
        assert type(first.spread) is float and first.spread == 7.0
        assert type(second.home_score) is int and type(second.visitor_score) is int
        assert second.home_score == second.visitor_score == 7
        assert type(third.spread) is float and third.spread == 7.0

    def test_valid_spread_does_not_make_the_same_score_valid(self):
        with pytest.raises(ParseError) as exc:
            parse(HEADER + "2017-09-10,NE,KC,27,42,-1\n" + "2017-09-11,GB,SEA,20,-1,-1\n")
        assert str(exc.value) == "line 3: negative visitor_score '-1'"

    def test_repeated_bad_value_fails_at_its_first_line(self):
        bad = "2017-09-11,GB,SEA,20,17,pickem\n"
        with pytest.raises(ParseError) as exc:
            parse(HEADER + GOOD_ROW + bad + GOOD_ROW + GOOD_ROW + bad)
        assert exc.value.line_num == 3
        assert str(exc.value) == "line 3: non-numeric spread 'pickem'"

    def test_rows_share_the_converted_values(self):
        first, second = parse(HEADER + GOOD_ROW + GOOD_ROW).records
        assert all(a is b for a, b in zip(first, second))

    @given(SPELLED_ROWS)
    def test_parse_equals_field_by_field_reference_with_exact_types(self, rows):
        text = HEADER + "".join(",".join(row) + "\n" for row in rows)
        assert typed(parse(text)) == typed(reference_parse(text))


#: Every character str.isspace() accepts, all of which lstrip() strips, less the
#: two that end a line: a whitespace-only line of \x1c, \x85 or \u2028 is one line.
WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c not in "\r\n")
#: What follows the first character of a skipped line.
SKIP_TAILS = st.sampled_from(["", " \u3000", '# manifest, a "comment"'])
KEPT_ROWS = st.sampled_from([GOOD_ROW.strip(), " 2017-09-11,GB,SEA,20,17,3.5", "2017-09-12,KC,NE,0,0,-0"])
BAD_ROWS = st.sampled_from([
    "2017-09-13,NE,KC,-3,42,1.0",
    "2017-09-13,NE,KC,27,42",
    '2017-09-13,"N\nE",KC,27,42,1.0',
    '2017-09-13,"N\n# E",KC,27,42,1.0',
    "2017-09-13," + "N" * 200_000 + ",KC,27,42,1.0",
])


@st.composite
def files_with_skipped_lines(draw) -> str:
    """A games file in which each whitespace character begins a skipped line,
    beside an empty line and a comment line; skipped lines come before the
    header and among good rows and at most one bad row, each line ends in
    CR, LF or CRLF, and a BOM may open the file."""
    skipped = [char + draw(SKIP_TAILS) for char in draw(st.permutations(WHITESPACE))]
    skipped += ["", "# manifest"]
    n_before = draw(st.integers(0, len(skipped)))
    body = draw(st.permutations(skipped[n_before:] + draw(st.lists(KEPT_ROWS, max_size=8))))
    if bad := draw(st.none() | BAD_ROWS):
        body.insert(draw(st.integers(0, len(body))), bad)
    lines = skipped[:n_before] + [HEADER.strip()] + body
    endings = draw(st.lists(st.sampled_from(["\n", "\r", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    return draw(st.sampled_from(["", "\ufeff"])) + "".join(map(str.__add__, lines, endings))


def skip_reference(text: str):
    """Reference for ``parse_file``: its records, or its ParseError's line and
    message, from the skip rule applied line by line and the kept lines
    parsed alone, renumbered to their physical lines."""
    lines = list(io.StringIO(text.removeprefix("\ufeff"), newline=""))
    kept = [(n, line) for n, line in enumerate(lines, 1)
            if (stripped := line.lstrip()) and not stripped.startswith("#")]
    try:
        return parse_file("".join(line for _, line in kept)).records
    except ParseError as exc:
        return kept[exc.line_num - 1][0], str(exc).partition(": ")[2]


class TestSkippedLines:
    @settings(deadline=None)
    @given(files_with_skipped_lines())
    def test_records_and_line_numbers_equal_the_line_by_line_skip(self, text):
        try:
            result = parse_file(text).records
        except ParseError as exc:
            result = exc.line_num, str(exc).partition(": ")[2]
        assert result == skip_reference(text)

    @pytest.mark.parametrize("char", list(WHITESPACE + "\r\n"))
    def test_every_whitespace_character_starts_a_skipped_line(self, char):
        assert parse_file(f"{char}# manifest\n{char}\n" + HEADER + GOOD_ROW) == parse(HEADER + GOOD_ROW)

    def test_line_number_after_many_skipped_lines(self):
        with pytest.raises(ParseError, match=r"^line 200002: negative home_score '-3'$"):
            parse(HEADER + "\n# comment\n" * 100_000 + "2017-09-11,GB,SEA,-3,10,1.5\n")


class TestByteOrderMark:
    def test_leading_mark_is_dropped(self):
        assert parse("\ufeff" + HEADER + GOOD_ROW) == parse(HEADER + GOOD_ROW)

    def test_mark_before_a_comment_line_is_dropped(self):
        assert parse("\ufeff# manifest {}\n" + HEADER + GOOD_ROW) == parse(HEADER + GOOD_ROW)

    def test_line_numbers_count_the_marked_line(self):
        with pytest.raises(ParseError) as exc:
            parse("\ufeff" + HEADER + GOOD_ROW + "2017-09-11,GB,SEA,-3,10,1.5\n")
        assert exc.value.line_num == 3

    def test_only_one_mark_opening_the_stream_is_dropped(self):
        with pytest.raises(SchemaError, match="missing required column.*: date"):
            parse("\ufeff\ufeff" + HEADER + GOOD_ROW)
        [record] = parse(HEADER + "2017-09-10,\ufeffNE,KC,27,42,-9.0\n").records
        assert record.home_team == "\ufeffNE"


#: Rows with no quote that parse, one only while csv.field_size_limit() is not lowered.
PLAIN_ROWS = st.sampled_from([
    GOOD_ROW.strip(), " 2017-09-11,GB,SEA,20,17,3.5 ", "2017-09-12,N\x85E,K\vC,0,0,-0",
    "2017-09-16," + "N" * 70 + ",KC,27,42,1.0",
])
#: Quoted rows that parse, and rows that fail on a field, a field count, a NUL, a
#: line end in quotes or a quote that no later line closes.
OTHER_ROWS = st.sampled_from([
    '2017-09-13,"N, E",KC,27,42,1.0',
    '"2017-09-14",NE,"K""C",27,42,1.0',
    "2017-09-15,NE,KC,-3,42,1.0",
    "2017-9-15,NE,KC,27,42,1.0",
    "2017-09-15,NE,KC,27,42",
    "2017-09-15,N\0E,KC,27,42,1.0",
    '2017-09-15,"N\nE",KC,27,42,1.0',
    '2017-09-15,"' + "N" * 60 + '\n",KC,27,42,1.0',
    '2017-09-15,KC,27,42,1.0,"NE',
])
SKIPPED_LINES = st.sampled_from(["", " \t", "\u3000", "# manifest {}", '  # a "quoted" comment', "# \0"])


@st.composite
def line_sources(draw) -> str:
    """A games file: maybe a BOM, skipped lines around the header and rows that
    parse, maybe one other row, each line ending in LF, CR or CRLF, the last maybe
    in none. About half the files end every line in LF, which the split at LF
    needs no CR replaced to cut."""
    before = draw(st.lists(SKIPPED_LINES, max_size=2))
    body = draw(st.lists(PLAIN_ROWS | SKIPPED_LINES, max_size=8))
    if other := draw(st.none() | OTHER_ROWS):
        body.insert(draw(st.integers(0, len(body))), other)
    lines = before + [HEADER.strip()] + body
    if draw(st.booleans()):
        endings = ["\n"] * len(lines)
    else:
        endings = draw(st.lists(st.sampled_from(["\n", "\r", "\r\n"]),
                                min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        endings[-1] = ""
    return draw(st.sampled_from(["", "\ufeff"])) + "".join(map(str.__add__, lines, endings))


def parse_outcome(parse_source):
    """``parse_source()``'s records, or its error's type, line and message."""
    try:
        return parse_source().records
    except (ParseError, SchemaError) as exc:
        return type(exc), getattr(exc, "line_num", None), str(exc)


def file_reference(text: str):
    """Reference for a games file's ``parse_outcome``, from its lines as ``open(...,
    newline="")`` cuts them, each without its end. The lines that ``str.lstrip()`` leaves
    empty or opening with ``#`` are skipped; ``csv.reader`` reads the rest and then one
    empty line. A row read from more than one line spans lines (a quote left open on the
    last line reads on into the empty one), and a kept line with a NUL fails once it is
    reached. A csv error fails at the line its row starts on, as a row that spans lines if
    the read went past that line. The rows read before any failure are written back one to
    their line, every other line left blank, and parsed, so that a field's own check
    meets it on its line; the failure stands only if they parse."""
    lines = [line.rstrip("\r\n") for line in io.StringIO(text.removeprefix("\ufeff"), newline="")]
    kept = [n for n, line in enumerate(lines, 1) if (head := line.lstrip()) and head[0] != "#"]

    def read():
        for n in kept:
            if "\0" in lines[n - 1]:
                raise ParseError(n, "unreadable CSV: line contains NUL")
            yield lines[n - 1]
        yield ""

    reader, rows, failure = csv.reader(read()), [], None
    try:
        for row in iter(reader.__next__, []):
            if reader.line_num != len(rows) + 1:
                raise ParseError(kept[len(rows)], "quoted field spans lines")
            rows.append(row)
    except csv.Error as exc:
        spans = reader.line_num > len(rows) + 1
        failure = ParseError(kept[len(rows)],
                             "quoted field spans lines" if spans else f"unreadable CSV: {exc}")
    except ParseError as exc:
        failure = exc
    written = [""] * len(lines)
    for n, row in zip(kept, rows):
        line = io.StringIO()
        csv.writer(line, lineterminator="").writerow(row)
        written[n - 1] = line.getvalue()
    outcome = parse_outcome(lambda: parse("\n".join(written)))
    failed = outcome[:1] and not isinstance(outcome[0], GameRecord)
    if failure and not (rows and failed):
        return type(failure), failure.line_num, str(failure)
    return outcome


class TestLineSource:
    """``parse_games`` turns every file into its lines without their ends by one split
    at LF, after CRLF and CR become LF, then reads them by ``csv.reader`` or, in a file
    with no quote, by a split at commas. Neither may change a record or an error from
    ``file_reference``'s, which cuts lines as ``open(..., newline="")`` does."""

    @staticmethod
    def load(text: str) -> Dataset:
        """``text`` parsed from a file by the CLI, without its deduplication."""
        with tempfile.TemporaryDirectory() as scratch, mock.patch.object(cli, "deduplicate"):
            path = Path(scratch, "games.csv")
            path.write_text(text, encoding="utf-8", newline="")
            return cli._load_dataset(str(path))[0]

    @settings(deadline=None)
    @given(line_sources(), st.sampled_from([None, 60]))
    # The limit counts a quoted field's own text, not its line end: this field spans lines.
    @example(HEADER + '2017-09-15,"' + "N" * 60 + '\n",KC,27,42,1.0\n', 60)
    # A row, and a header, whose quoted field runs past the limit only on its second line.
    @example(HEADER + '2017-09-15,"N\n' + "N" * 60 + '",KC,27,42,1.0\n', 60)
    @example('date,"home_team\n' + "h" * 60 + '",visitor_team,home_score,visitor_score,spread\n', 60)
    # Split at LF: an empty file, a lone mark, no final LF, two final LFs, and a NUL in a row.
    @example("", None)
    @example("\ufeff", None)
    @example(HEADER + GOOD_ROW.strip(), None)
    @example(HEADER + GOOD_ROW + "\n", None)
    @example(HEADER + GOOD_ROW + "2017-09-15,N\0E,KC,27,42,1.0\n" + GOOD_ROW, None)
    def test_cli_lines_parse_as_the_file_lines(self, text, limit):
        # 60 characters admit the header and every field but the long team name and
        # the 60 characters quoted with their line end.
        default = csv.field_size_limit()
        csv.field_size_limit(limit or default)
        try:
            expected = file_reference(text)
            assert parse_outcome(lambda: self.load(text)) == expected
            assert parse_outcome(lambda: parse_file(text)) == expected
        finally:
            csv.field_size_limit(default)

    @pytest.mark.parametrize("n, message", [
        (60, "line 2: quoted field spans lines"),
        (61, "line 2: unreadable CSV: field larger than field limit (60)"),
    ])
    def test_field_limit_counts_a_quoted_field_without_its_line_end(self, n, message):
        text = HEADER + '2017-09-15,"' + "N" * n + '\n",KC,27,42,1.0\n'
        default = csv.field_size_limit(60)
        try:
            assert parse_outcome(lambda: self.load(text)) == (ParseError, 2, message)
        finally:
            csv.field_size_limit(default)

    def test_quote_free_file_is_split_without_csv(self):
        text = "\ufeff# manifest {}\r\n" + HEADER.replace("\n", "\r\n") + "\u3000\r\n" + GOOD_ROW * 3
        with mock.patch("spreadbias.data.csv.reader", wraps=csv.reader) as reader:
            expected = parse_file(text)
        assert reader.call_count == 1 and len(expected) == 3
        with mock.patch("spreadbias.data.csv.reader", side_effect=AssertionError("csv.reader")):
            assert self.load(text) == expected
            assert parse(text) == expected

    #: Physical lines 1 to 8: skipped lines around the header and two rows that parse.
    OPENING = ["# manifest {}", "", HEADER.strip(), " \t", GOOD_ROW.strip(), "# a comment", "\u3000",
               "2017-09-11,GB,SEA,20,17,3.5"]

    @pytest.mark.parametrize("row, message", [
        ("2017-09-15,NE,KC,27,42", "expected 6 fields, found 5"),
        ("2017-09-15,NE,KC,27,42,-9.0,x", "expected 6 fields, found 7"),
        # A field no row before has: it is checked on a cache miss.
        ("2017-13-10,NE,KC,27,42,-9.0", "invalid date '2017-13-10' (expected YYYY-MM-DD)"),
        ("2017-09-10,NE,KC,27,x,-9.0", "non-integer visitor_score 'x'"),
    ])
    def test_row_number_after_skipped_lines_on_either_path(self, row, message):
        expected = (ParseError, 9, f"line 9: {message}")
        text = "\n".join(self.OPENING + [row, GOOD_ROW.strip(), ""])
        with mock.patch("spreadbias.data.csv.reader", side_effect=AssertionError("csv.reader")):
            assert parse_outcome(lambda: parse(text)) == expected
            assert parse_outcome(lambda: self.load(text)) == expected
        # One quoted field sends every line through csv.reader.
        text = text.replace(",KC,", ',"KC",', 1)
        with mock.patch("spreadbias.data.csv.reader", wraps=csv.reader) as reader:
            assert parse_outcome(lambda: parse(text)) == expected
            assert parse_outcome(lambda: self.load(text)) == expected
        assert reader.call_count == 2

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_quoted_field_spanning_lines_after_skipped_lines(self, eol):
        text = eol.join(self.OPENING + ['2017-09-15,"N', 'E",KC,27,42,-9.0', GOOD_ROW.strip(), ""])
        expected = (ParseError, 9, "line 9: quoted field spans lines")
        assert parse_outcome(lambda: self.load(text)) == expected
        assert parse_outcome(lambda: parse_file(text)) == expected

    def test_bad_date_on_a_cache_miss_names_its_physical_line(self):
        text = HEADER + "\n# comment\n" + GOOD_ROW + "\r\n \n" + GOOD_ROW.replace("09-10", "13-10")
        message = "line 7: invalid date '2017-13-10' (expected YYYY-MM-DD)"
        assert parse_outcome(lambda: self.load(text)) == (ParseError, 7, message)
        assert parse_outcome(lambda: parse_file(text)) == (ParseError, 7, message)


class TestGameRecord:
    def test_immutable_hashable_and_equal_by_value(self):
        record = make_record()
        assert record == make_record()
        assert len({record, make_record()}) == 1
        with pytest.raises(AttributeError):
            record.spread = 1.0

    def test_key_is_date_and_teams(self):
        record = make_record()
        assert record.key == (dt.date(2016, 10, 2), "AAA", "BBB")


class TestDeduplicate:
    def test_doubled_export_rows_removed(self):
        # 648 unique games, 312 of them exported twice: 960 raw rows.
        unique = [
            make_record(date=f"{2014 + i % 4}-0{1 + i % 9}-{1 + i % 27:02d}",
                        home_team=f"H{i:03d}", visitor_team=f"V{i:03d}")
            for i in range(648)
        ]
        raw = Dataset(tuple(unique + unique[:312]))
        assert len(raw) == 960
        deduped = deduplicate(raw)
        assert len(deduped) == 648
        assert deduped.records == tuple(unique)

    def test_idempotent(self):
        ds = synthetic_spread_dataset([-2.5, 3.0], 10)
        once = deduplicate(ds)
        assert deduplicate(once) == once

    def test_no_duplicates_identity(self):
        ds = synthetic_spread_dataset([-2.5], 5)
        assert deduplicate(ds) == ds

    def test_conflicting_payload_raises(self):
        a = make_record(spread=-3.0)
        b = make_record(spread=-2.5)
        with pytest.raises(DuplicateConflictError) as exc:
            deduplicate(Dataset((a, b)))
        assert exc.value.first == a
        assert exc.value.second == b

    def test_first_occurrence_kept(self):
        a = make_record(home_team="X")
        b = make_record(home_team="Y")
        deduped = deduplicate(Dataset((a, b, a, b, a)))
        assert deduped.records == (a, b)


@pytest.mark.usefixtures("restore_gc")
class TestRecordTable:
    """The table is built without the named tuple's constructor and with the
    cyclic garbage collector paused; neither may show to a caller."""

    TEXT = HEADER + GOOD_ROW + "2017-09-10,GB,SEA,7,7,-3.0\n" + GOOD_ROW + "2017-09-11,NE,GB,7,3,-9\n"

    def test_records_are_exact_game_records(self):
        raw = parse(self.TEXT)
        for built in (raw, deduplicate(raw)):
            for record in built:
                constructed = GameRecord(*record)
                assert type(record) is GameRecord
                assert record._fields == GameRecord._fields
                assert record._asdict() == constructed._asdict()
                assert record.key == constructed.key
                assert repr(record) == repr(constructed)
        assert [tuple(r) for r in raw] == reference_parse(self.TEXT)

    def test_collector_is_paused_while_the_table_is_built(self):
        seen = []
        check_date = data._date

        def date(raw):
            seen.append(gc.isenabled())
            return check_date(raw)

        class Watched(Dataset):
            def __iter__(self):
                seen.append(gc.isenabled())
                return super().__iter__()

        gc.enable()
        with mock.patch.object(data, "_date", date):
            deduplicate(Watched(parse(self.TEXT).records))
        # The date checker runs once per distinct date, then deduplicate reads the table.
        assert len(seen) == 3 and not any(seen)
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: deduplicate(parse(HEADER + GOOD_ROW)), None),
            (lambda: parse("date,home_team\n"), SchemaError),
            (lambda: parse(HEADER + "2017-09-10,NE,KC,-1,42,-9.0\n"), ParseError),
            (lambda: parse(HEADER + f"2017-09-11,{'N' * 200_000},KC,27,42,-9.0\n"), ParseError),
            (lambda: parse_games(HEADER.encode() + b"2017-09-10,N\xffE,KC,27,42,-9.0\n"), ParseError),
            (lambda: deduplicate(parse(HEADER + GOOD_ROW + GOOD_ROW.replace("42", "41"))),
             DuplicateConflictError),
        ],
        ids=["success", "schema", "row", "field-limit", "undecodable", "conflict"],
    )
    def test_caller_collector_state_is_restored(self, build, error, enabled):
        (gc.enable if enabled else gc.disable)()
        if error is None:
            build()
        else:
            with pytest.raises(error):
                build()
        assert gc.isenabled() is enabled


class TestColumns:
    """``Dataset``'s cached, read-only columns."""

    TEXT = HEADER + GOOD_ROW + "2016-12-31,GB,SEA,30,7,-3.5\n2018-01-07,SEA,GB,0,0,0\n"

    def test_columns_equal_the_per_record_values(self):
        ds = parse(self.TEXT)
        assert ds.spread.tolist() == [r.spread for r in ds] == [-9.0, -3.5, 0.0]
        assert ds.outcome.tolist() == [r.outcome for r in ds] == [15, -23, 0]
        assert ds.year.tolist() == [r.date.year for r in ds] == [2017, 2016, 2018]

    @pytest.mark.parametrize(
        "home,visitor,margin", [(0, 2**63 - 1, 2**63 - 1), (2**63, 0, -(2**63))]
    )
    def test_outcome_holds_every_int64_margin(self, home, visitor, margin):
        ds = Dataset((make_record(home_score=home, visitor_score=visitor),))
        assert ds.outcome.tolist() == [ds.records[0].outcome] == [margin]

    # The parser caps scores at 2**63 - 1; a record built in code may pass it.
    @pytest.mark.parametrize("home,visitor", [(0, 2**63), (2**64, 0)])
    def test_outcome_beyond_int64_raises_overflow(self, home, visitor):
        with pytest.raises(OverflowError):
            Dataset((make_record(home_score=home, visitor_score=visitor),)).outcome

    @pytest.mark.parametrize(
        "name,dtype", [("spread", np.float64), ("outcome", np.int64), ("year", np.int64)]
    )
    def test_empty_dataset_gives_empty_columns(self, name, dtype):
        column = getattr(Dataset(()), name)
        assert column.shape == (0,) and column.dtype == dtype

    @pytest.mark.parametrize("name", ["spread", "outcome", "year"])
    def test_column_is_computed_once_and_read_only(self, name):
        ds = parse(self.TEXT)
        column = getattr(ds, name)
        assert getattr(ds, name) is column
        with pytest.raises(ValueError, match="read-only"):
            column[:] = 0
        assert getattr(ds, name).tolist() == getattr(parse(self.TEXT), name).tolist()

    def test_subclass_has_the_columns(self):
        class Tagged(Dataset):
            def __iter__(self):
                return reversed(self.records)

        ds = Tagged(parse(self.TEXT).records)
        assert ds.spread.tolist() == [-9.0, -3.5, 0.0]
        assert FitConfig(min_samples=1).groups(ds)[0].tolist() == [-9.0, -3.5, 0.0]
        assert ds.year.tolist() == [2017, 2016, 2018]

    @pytest.mark.parametrize(
        "copied", [lambda ds: pickle.loads(pickle.dumps(ds)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_copy_has_equal_read_only_columns(self, copied):
        ds = parse(self.TEXT)
        columns = {name: getattr(ds, name) for name in ("spread", "outcome", "year")}
        twin = copied(ds)
        assert twin == ds
        for name, column in columns.items():
            assert getattr(twin, name).tolist() == column.tolist()
            with pytest.raises(ValueError, match="read-only"):
                getattr(twin, name)[:] = 0


class TestGroups:
    """``FitConfig.groups``' grouping pass: the valid spreads, each game's index among
    them, and the counted games' outcomes and sizes at those spreads. ``FitConfig``'s
    own rule refuses a ``min_samples`` below 1 (``test_cli`` checks its message)."""

    @staticmethod
    def groups(ds, min_samples, counted=None):
        """The grouping pass's four arrays, without the count block."""
        return FitConfig(min_samples=min_samples).groups(ds, counted)[:4]

    def test_threshold_filters_spreads(self):
        ds = synthetic_spread_dataset([-2.5, 1.5, 6.5], 30, seed=3)
        small = synthetic_spread_dataset([9.5], 10, seed=4, start="2016-01-01")
        merged = Dataset(ds.records + small.records)
        spreads, index, _, sizes = self.groups(merged, 25)
        assert spreads.tolist() == [-2.5, 1.5, 6.5]
        assert index.tolist() == [i // 30 for i in range(90)] + [-1] * 10
        assert sizes.tolist() == [30, 30, 30]

    def test_sorted_ascending(self):
        ds = synthetic_spread_dataset([6.5, -2.5, 1.5], 5)
        spreads, index, _, _ = self.groups(ds, 1)
        assert spreads.tolist() == [-2.5, 1.5, 6.5]
        assert index.tolist() == [2] * 5 + [0] * 5 + [1] * 5

    @pytest.mark.parametrize("ds, min_samples, largest", [
        (synthetic_spread_dataset([-2.5], 3), 4, 3),
        (Dataset(()), 1, 0),
    ], ids=["below-threshold", "empty"])
    def test_no_valid_spread(self, ds, min_samples, largest):
        message = (rf"^no spread has at least min_samples={min_samples} games "
                   rf"\(the largest group has {largest}\)$")
        with pytest.raises(ValueError, match=message):
            self.groups(ds, min_samples)

    def test_partition_property(self):
        ds = synthetic_spread_dataset([-2.5, 1.5, 6.5], 20, seed=11)
        for min_samples in (1, 10, 20):
            _, _, outcomes, sizes = self.groups(ds, min_samples)
            eligible = sum(
                1
                for r in ds
                if sum(1 for q in ds if q.spread == r.spread) >= min_samples
            )
            assert sizes.sum() == len(outcomes) == eligible

    def test_outcomes_in_input_order(self):
        ds = synthetic_spread_dataset([1.5, -2.5], 8, seed=2)
        _, _, outcomes, sizes = self.groups(ds, 1)
        assert outcomes.tolist() == [r.outcome for r in ds.records[8:]] + [
            r.outcome for r in ds.records[:8]
        ]
        assert sizes.tolist() == [8, 8]

    def test_only_counted_games_are_grouped_but_every_game_is_indexed(self):
        # Games 0-9 are at -2.5 and 10-19 at 1.5. Games 0 and 2 and the even ones
        # from 10 are counted, so with min_samples=3 only 1.5 is valid, with 5 games.
        ds = synthetic_spread_dataset([-2.5, 1.5], 10, seed=5)
        counted = (np.arange(20) % 2 == 0) & (np.arange(20) >= 10)
        counted[[0, 2]] = True
        spreads, index, outcomes, sizes = self.groups(ds, 3, counted)
        assert spreads.tolist() == [1.5]
        assert index.tolist() == [-1] * 10 + [0] * 10
        assert outcomes.tolist() == [r.outcome for r in ds.records[10::2]]
        assert sizes.tolist() == [5]
        with pytest.raises(ValueError, match=r"the largest group has 5\)$"):
            self.groups(ds, 6, counted)


class TestTdSplit:
    """``run_td`` splits the games by year: ``n_train_records`` before the
    cutoff, ``n_test_records`` in it or later, whatever their spreads.
    ``test_harness.TestRunTd`` covers a cutoff past or before every game."""

    def _mixed_years(self):
        old = synthetic_spread_dataset([-2.5], 563, seed=1, start="2014-12-01")
        new = synthetic_spread_dataset([3.0], 85, seed=2, start="2017-01-01")
        assert all(r.date.year < 2017 for r in old)
        assert all(r.date.year == 2017 for r in new)
        return Dataset(old.records + new.records)

    def test_cutoff_counts(self):
        report = run_td(self._mixed_years(), TdConfig(cutoff_year=2017))
        assert (report.n_train_records, report.n_test_records) == (563, 85)
        # No test game is at the one training spread.
        assert report.n_test_samples == 0

    def test_membership_by_year_only(self):
        # Games on the last day before the cutoff year train; the first day of it tests.
        ds = Dataset(
            synthetic_spread_dataset([-2.5], 20, seed=5, start="2016-12-12").records
            + synthetic_spread_dataset([-2.5], 10, seed=6, start="2017-12-22").records
        )
        report = run_td(ds, TdConfig(cutoff_year=2017))
        assert (report.n_train_records, report.n_test_records) == (20, 10)
        assert report.n_test_samples == 10


def test_outcome_is_visitor_minus_home():
    ds = synthetic_spread_dataset([-2.5, 4.5], 15, seed=9)
    for record in ds:
        assert record.outcome == record.visitor_score - record.home_score
