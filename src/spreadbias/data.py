"""Game-record ingestion, validation, deduplication, and spread bucketing."""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

#: Lines starting with this prefix are treated as comments (run manifests
#: embedded in emitted CSVs use it) and skipped by the parser.
COMMENT_PREFIX = "#"


class SchemaError(ValueError):
    """The input table is missing its header or a required column."""


class ParseError(ValueError):
    """A row failed validation. Carries the 1-based file line number."""

    def __init__(self, line_num: int, message: str):
        super().__init__(f"line {line_num}: {message}")
        self.line_num = line_num


class DuplicateConflictError(ValueError):
    """Two rows share a game key but disagree on scores or spread."""

    def __init__(self, first: GameRecord, second: GameRecord):
        super().__init__(
            "conflicting duplicate for game "
            f"({first.date.isoformat()}, {first.home_team}, {first.visitor_team}): "
            f"kept {first} but also saw {second}"
        )
        self.first = first
        self.second = second


class GameRecord(NamedTuple):
    """One completed game with its closing spread, as an immutable named tuple.

    The spread is quoted on the (visitor - home) scale: negative values
    mean the home team is favored.
    """

    date: dt.date
    home_team: str
    visitor_team: str
    home_score: int
    visitor_score: int
    spread: float

    @property
    def outcome(self) -> int:
        """Final margin on the visitor-minus-home scale, in points."""
        return self.visitor_score - self.home_score

    @property
    def key(self) -> tuple[dt.date, str, str]:
        """Identity of the game: (date, home_team, visitor_team)."""
        return self[:3]


#: The input header must name every record field, in any order.
REQUIRED_COLUMNS = GameRecord._fields


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable collection of game records."""

    records: tuple[GameRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[GameRecord]:
        return iter(self.records)


@dataclass(frozen=True)
class SpreadBucket:
    """All observed outcomes for games quoted at one exact spread value."""

    spread: float
    outcomes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.outcomes)


def parse_games(source: Iterable[str]) -> Dataset:
    """Parse a delimited text stream of game rows into a Dataset.

    The stream must begin with a header naming the six required columns
    (``date,home_team,visitor_team,home_score,visitor_score,spread``) in
    any order; extra columns are ignored. Dates are YYYY-MM-DD; scores are
    non-negative integers; spreads are finite numbers, rounded to one
    decimal place on input because they are half-point market quotes
    (``-0`` reads as ``0``). A leading byte-order mark, blank lines and
    ``#`` comment lines are skipped; a quoted field may not span lines.
    Row order is preserved.

    Raises SchemaError when the header is absent, incomplete, or repeats
    a required column, and ParseError (carrying the offending line
    number) for malformed rows.
    """
    lines = iter(source)
    numbered = [
        (n, line)
        for n, line in enumerate(chain([next(lines, "").removeprefix("\ufeff")], lines), start=1)
        if (text := line.lstrip()) and not text.startswith(COMMENT_PREFIX)
    ]
    if not numbered:
        raise SchemaError("empty input: a header row is required")

    # One reader over the kept lines: reader.line_num counts kept lines, so
    # row i (the header is row 0) starts on physical line line_nums[i], and
    # it spans lines if the reader has consumed more than i + 1 of them.
    line_nums = [n for n, _ in numbered]
    reader = csv.reader([line for _, line in numbered])
    try:
        header = [name.strip() for name in next(reader)]
        if reader.line_num != 1:
            raise ParseError(line_nums[0], "quoted field spans lines")
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"missing required column(s): {', '.join(missing)}")
        repeated = [c for c in REQUIRED_COLUMNS if header.count(c) > 1]
        if repeated:
            raise SchemaError(f"repeated required column(s): {', '.join(repeated)}")
        n_fields = len(header)
        i_date, i_home, i_visitor, i_hs, i_vs, i_spread = map(header.index, REQUIRED_COLUMNS)

        # Each distinct raw value is checked once per kind and shared; failures are never stored.
        dates, teams, scores, spreads = {}, {}, {}, {}
        records = []
        for i, fields in enumerate(reader, start=1):
            line_num = line_nums[i]
            if reader.line_num != i + 1:
                raise ParseError(line_num, "quoted field spans lines")
            if len(fields) != n_fields:
                raise ParseError(line_num, f"expected {n_fields} fields, found {len(fields)}")
            if (date := dates.get(raw := fields[i_date])) is None:
                date = dates[raw] = _date(raw.strip(), line_num)
            if (home_team := teams.get(raw := fields[i_home])) is None:
                home_team = teams[raw] = _team(raw.strip(), "home_team", line_num)
            if (visitor_team := teams.get(raw := fields[i_visitor])) is None:
                visitor_team = teams[raw] = _team(raw.strip(), "visitor_team", line_num)
            if (home_score := scores.get(raw := fields[i_hs])) is None:
                home_score = scores[raw] = _score(raw.strip(), "home_score", line_num)
            if (visitor_score := scores.get(raw := fields[i_vs])) is None:
                visitor_score = scores[raw] = _score(raw.strip(), "visitor_score", line_num)
            if (spread := spreads.get(raw := fields[i_spread])) is None:
                spread = spreads[raw] = _spread(raw.strip(), line_num)
            records.append(GameRecord(date, home_team, visitor_team, home_score, visitor_score, spread))
    except csv.Error as exc:
        raise ParseError(line_nums[reader.line_num - 1], f"unreadable CSV: {exc}") from None
    return Dataset(tuple(records))


def _date(raw: str, line_num: int) -> dt.date:
    # fromisoformat also takes 20170910 and 2017-W36-7 on Python 3.11+, so check the shape first.
    try:
        if len(raw) == 10 and raw[4] == raw[7] == "-":
            return dt.date.fromisoformat(raw)
    except ValueError:
        pass
    raise ParseError(line_num, f"invalid date {raw!r} (expected YYYY-MM-DD)")


def _team(raw: str, name: str, line_num: int) -> str:
    if not raw:
        raise ParseError(line_num, f"empty {name}")
    return raw


def _score(raw: str, name: str, line_num: int) -> int:
    try:
        score = int(raw)
    except ValueError:
        raise ParseError(line_num, f"non-integer {name} {raw!r}") from None
    if score < 0:
        raise ParseError(line_num, f"negative {name} {raw!r}")
    return score


def _spread(raw: str, line_num: int) -> float:
    try:
        spread = float(raw)
    except ValueError:
        raise ParseError(line_num, f"non-numeric spread {raw!r}") from None
    if not math.isfinite(spread):
        raise ParseError(line_num, f"non-finite spread {raw!r}")
    # Adding 0.0 turns -0.0 into 0.0, so a pick'em spread gets one label.
    return round(spread, 1) + 0.0


def deduplicate(dataset: Dataset) -> Dataset:
    """Drop repeated games, keeping the first occurrence of each key.

    A repeat with identical payload is removed silently; a repeat whose
    scores or spread disagree with the kept record raises
    DuplicateConflictError rather than silently picking a winner.
    """
    seen: dict[tuple[dt.date, str, str], GameRecord] = {}
    for record in dataset:
        prior = seen.setdefault(record[:3], record)
        if prior is not record and prior != record:
            raise DuplicateConflictError(prior, record)
    # Dicts keep insertion order, so the values are the first occurrences.
    return Dataset(tuple(seen.values()))


def bucket_by_spread(dataset: Dataset, min_samples: int) -> list[SpreadBucket]:
    """Group outcomes by exact spread value and keep well-sampled groups.

    Only spreads with at least ``min_samples`` outcomes are returned (the
    valid spreads); buckets are sorted by spread ascending.
    """
    if min_samples < 1:
        raise ValueError(f"min_samples must be >= 1, got {min_samples}")
    groups: dict[float, list[int]] = {}
    for record in dataset:
        groups.setdefault(record.spread, []).append(record.outcome)
    return [
        SpreadBucket(spread, tuple(outcomes))
        for spread, outcomes in sorted(groups.items())
        if len(outcomes) >= min_samples
    ]


def split_by_date(dataset: Dataset, cutoff_year: int) -> tuple[Dataset, Dataset]:
    """Split into (train, test) by game year: test is year >= cutoff_year."""
    train = []
    test = []
    for record in dataset:
        (test if record.date.year >= cutoff_year else train).append(record)
    return Dataset(tuple(train)), Dataset(tuple(test))
