"""Ingestion, deduplication, bucketing, and date-split behavior."""

from __future__ import annotations

import datetime as dt
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spreadbias import (
    Dataset,
    DuplicateConflictError,
    GameRecord,
    ParseError,
    SchemaError,
    bucket_by_spread,
    deduplicate,
    parse_games,
    split_by_date,
)
from conftest import (
    GAME_RECORDS, dataset_csv_text, make_record, reference_parse, synthetic_spread_dataset,
)

HEADER = "date,home_team,visitor_team,home_score,visitor_score,spread\n"
GOOD_ROW = "2017-09-10,NE,KC,27,42,-9.0\n"


def parse(text: str) -> Dataset:
    return parse_games(io.StringIO(text))


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

    def test_negative_score_reports_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse(HEADER + "2017-09-10,NE,KC,27,42,-9.0\n2017-09-11,GB,SEA,-3,10,1.5\n")
        assert exc.value.line_num == 3
        assert "line 3" in str(exc.value)

    def test_empty_file_with_header(self):
        assert len(parse(HEADER)) == 0

    def test_missing_column_is_schema_error(self):
        with pytest.raises(SchemaError, match="spread"):
            parse("date,home_team,visitor_team,home_score,visitor_score\n")

    def test_fully_empty_input_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse("")

    def test_bad_date(self):
        with pytest.raises(ParseError, match="date"):
            parse(HEADER + "10 Sep 2017,NE,KC,27,42,-9.0\n")

    def test_non_numeric_spread(self):
        with pytest.raises(ParseError, match="spread"):
            parse(HEADER + "2017-09-10,NE,KC,27,42,pickem\n")

    def test_non_finite_spread(self):
        with pytest.raises(ParseError, match="spread"):
            parse(HEADER + "2017-09-10,NE,KC,27,42,nan\n")

    def test_non_integer_score(self):
        with pytest.raises(ParseError, match="score"):
            parse(HEADER + "2017-09-10,NE,KC,27.5,42,-9.0\n")

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

    def test_spread_rounded_to_one_decimal(self):
        ds = parse(HEADER + "2017-09-10,NE,KC,27,42,-2.5000001\n")
        assert ds.records[0].spread == -2.5

    def test_repeated_required_column_is_schema_error(self):
        with pytest.raises(SchemaError, match="repeated.*spread"):
            parse(
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
        [bucket] = bucket_by_spread(ds, 1)
        assert len(bucket) == 2
        assert f"{bucket.spread:g}" == "0"
        assert f"{bucket.spread:.1f}" == "0.0"

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
            ("2017-09-11,NE,KC,27,42,pickem", "non-numeric spread 'pickem'"),
            ("2017-09-11,NE,KC,27,42,-inf", "non-finite spread '-inf'"),
            ("10 Sep 2017,,,x,-1", "expected 6 fields, found 5"),
        ],
    )
    def test_bad_row_line_number_and_message(self, row, message):
        # Physical line 5: a comment, the header, a good row and a blank line
        # come first, all with CRLF endings.
        text = "\r\n".join(
            ["# manifest {}", HEADER.strip(), GOOD_ROW.strip(), "", row, ""]
        )
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.line_num == 5
        assert str(exc.value) == f"line 5: {message}"

    def test_field_over_csv_size_limit_reports_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse(HEADER + GOOD_ROW + f"2017-09-11,{'N' * 200_000},KC,27,42,-9.0\n")
        assert exc.value.line_num == 3
        assert "field larger than field limit" in str(exc.value)

    @pytest.mark.parametrize(
        "text,line_num",
        [
            (HEADER + GOOD_ROW + '2017-09-11,"N\nE",KC,27,42,-9.0\n', 3),
            (HEADER + GOOD_ROW + '2017-09-11,"NE,KC,27,42,-9.0\n' + GOOD_ROW, 3),
            ('# manifest {}\ndate,"home_team\n",visitor_team,home_score,visitor_score,spread\n', 2),
        ],
        ids=["closed-on-next-line", "never-closed", "header"],
    )
    def test_quoted_field_spanning_lines_is_rejected(self, text, line_num):
        with pytest.raises(ParseError) as exc:
            parse(text)
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
TEAM_TEXT = st.builds(lambda name, pad: pad + name + pad, st.sampled_from(["NE", "KC", "7", "-1"]), PADS)
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


class TestBucketBySpread:
    def test_threshold_filters_buckets(self):
        ds = synthetic_spread_dataset([-2.5, 1.5, 6.5], 30, seed=3)
        small = synthetic_spread_dataset([9.5], 10, seed=4, start="2016-01-01")
        merged = Dataset(ds.records + small.records)
        buckets = bucket_by_spread(merged, 25)
        assert [b.spread for b in buckets] == [-2.5, 1.5, 6.5]
        assert all(len(b) == 30 for b in buckets)

    def test_sorted_ascending(self):
        ds = synthetic_spread_dataset([6.5, -2.5, 1.5], 5)
        buckets = bucket_by_spread(ds, 1)
        assert [b.spread for b in buckets] == [-2.5, 1.5, 6.5]

    def test_below_threshold_gives_empty_list(self):
        ds = synthetic_spread_dataset([-2.5], 3)
        assert bucket_by_spread(ds, 4) == []

    def test_empty_dataset(self):
        assert bucket_by_spread(Dataset(()), 1) == []

    def test_min_samples_validation(self):
        with pytest.raises(ValueError):
            bucket_by_spread(Dataset(()), 0)

    def test_partition_property(self):
        ds = synthetic_spread_dataset([-2.5, 1.5, 6.5], 20, seed=11)
        for min_samples in (1, 10, 21):
            buckets = bucket_by_spread(ds, min_samples)
            eligible = sum(
                1
                for r in ds
                if sum(1 for q in ds if q.spread == r.spread) >= min_samples
            )
            assert sum(len(b) for b in buckets) == eligible

    def test_outcomes_match_records(self):
        ds = synthetic_spread_dataset([-2.5], 8, seed=2)
        (bucket,) = bucket_by_spread(ds, 1)
        assert sorted(bucket.outcomes) == sorted(r.outcome for r in ds)


class TestSplitByDate:
    def _mixed_years(self):
        old = synthetic_spread_dataset([-2.5], 563, seed=1, start="2014-12-01")
        new = synthetic_spread_dataset([3.0], 85, seed=2, start="2017-01-01")
        assert all(r.date.year < 2017 for r in old)
        assert all(r.date.year == 2017 for r in new)
        return Dataset(old.records + new.records)

    def test_cutoff_counts(self):
        train, test = split_by_date(self._mixed_years(), 2017)
        assert (len(train), len(test)) == (563, 85)

    def test_disjoint_union(self):
        ds = self._mixed_years()
        train, test = split_by_date(ds, 2017)
        assert len(train) + len(test) == len(ds)
        assert set(r.key for r in train).isdisjoint(r.key for r in test)

    def test_cutoff_beyond_all_dates(self):
        ds = self._mixed_years()
        train, test = split_by_date(ds, 3000)
        assert test.records == ()
        assert train == ds

    def test_cutoff_before_all_dates(self):
        ds = self._mixed_years()
        train, test = split_by_date(ds, 1900)
        assert train.records == ()
        assert test == ds

    def test_membership_by_year_only(self):
        ds = self._mixed_years()
        train, test = split_by_date(ds, 2017)
        assert all(r.date.year < 2017 for r in train)
        assert all(r.date.year >= 2017 for r in test)


def test_outcome_is_visitor_minus_home():
    ds = synthetic_spread_dataset([-2.5, 4.5], 15, seed=9)
    for record in ds:
        assert record.outcome == record.visitor_score - record.home_score
