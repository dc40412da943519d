"""Game-record ingestion, validation and deduplication: the games file's format,
its records, and a dataset's columns."""

from __future__ import annotations

import csv
import datetime as dt
import gc
import math
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, repeat
from operator import attrgetter, itemgetter, sub
from typing import Iterable, Iterator, NamedTuple

import numpy as np

#: Lines starting with this prefix are treated as comments (run manifests
#: embedded in emitted CSVs use it) and skipped by the parser.
COMMENT_PREFIX = "#"

#: How a line the parser skips may begin: empty, or the comment prefix or one
#: of the 29 characters that str.isspace() accepts.
_SKIP_STARTS = frozenset(["", COMMENT_PREFIX, *map(chr, range(0x2000, 0x200B)),
                          *"\t\n\v\f\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2028\u2029\u202f\u205f\u3000"])


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


#: ASCII whitespace: all that may pad a field or a header name, which a no-break space may not.
_ASCII_SPACE = " \t\r\n\v\f"

#: The input header must name every record field, in any order.
REQUIRED_COLUMNS = GameRecord._fields

#: The most characters of a field that an error message repeats.
_SHOWN_CHARS = 40


def _shown(raw: str) -> str:
    """``raw`` as an error message repeats it: its repr, and for a field
    longer than ``_SHOWN_CHARS``, that many leading characters and its length."""
    if len(raw) <= _SHOWN_CHARS:
        return repr(raw)
    return f"{raw[:_SHOWN_CHARS]!r}... ({len(raw)} characters)"


def _column(values: Iterable, dtype: type) -> np.ndarray:
    column = np.fromiter(values, dtype)
    column.flags.writeable = False
    return column


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable collection of game records, and three read-only
    columns of one value per record: ``spread`` (float64), ``outcome``
    (int64) and ``year`` (int64), each computed from ``records`` on first
    use and kept."""

    records: tuple[GameRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[GameRecord]:
        return iter(self.records)

    def __getstate__(self) -> dict:
        # Only the records: numpy does not keep a column's read-only flag
        # through pickling, so a copy builds its own columns on first read.
        return {"records": self.records}

    @cached_property
    def spread(self) -> np.ndarray:
        return _column(map(attrgetter("spread"), self.records), np.float64)

    @cached_property
    def outcome(self) -> np.ndarray:
        records = self.records
        return _column(map(sub, map(itemgetter(4), records), map(itemgetter(3), records)), np.int64)

    @cached_property
    def year(self) -> np.ndarray:
        return _column(map(attrgetter("date.year"), self.records), np.int64)


@contextmanager
def _gc_paused():
    """Hold off the cyclic garbage collector, restoring the caller's state
    on the way out; pauses nest. A record table holds only dates, strings
    and numbers, so it cannot form cycles, yet each of its (tuple-subclass)
    records stays tracked and every collection while it is alive walks it
    again. ``parse_games`` and ``deduplicate`` pause while they build a
    table, and ``cli.main`` for a whole command."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def parse_games(data: bytes) -> Dataset:
    """Parse the bytes of a UTF-8 games file into a Dataset.

    The file must begin with a header naming the six required columns
    (``date,home_team,visitor_team,home_score,visitor_score,spread``) in
    any order; extra columns are ignored. Dates are YYYY-MM-DD; scores are
    non-negative integers; spreads are finite numbers, rounded to one
    decimal place on input because they are half-point market quotes
    (``-0`` reads as ``0``); both are written in ASCII digits without
    ``_`` separators. Only ASCII whitespace pads a field or a header name;
    a team name may not begin or end with other whitespace. A leading
    byte-order mark, blank lines and ``#`` comment lines are skipped (any
    ``str.isspace()`` character may open them); a quoted field may not span
    lines or be left open on the last one, nor a kept line hold a NUL. Row
    order is preserved.

    Lines end at CRLF, CR or LF, as ``open(..., newline="")`` cuts them: the
    file is decoded in one call and, once its CRLF and CR are LF, split at LF
    in one call. A file with a ``"``, or a kept line longer than
    ``csv.field_size_limit()``, is read by ``csv.reader`` over the kept lines
    without their ends, which the limit does not count; any other kept line
    is split at its commas, with the same records and errors as ``csv`` gives.

    Raises SchemaError when the header is absent, incomplete, or repeats
    a required column, and ParseError (carrying the offending line
    number: for a row, the line it starts on) for malformed rows and for
    a byte that is not UTF-8.
    """
    with _gc_paused():
        try:
            lines = (data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
                     .removesuffix("\n").split("\n"))
        except UnicodeDecodeError:
            # The error's position counts bytes, not lines: decode by line.
            for n, line in enumerate(data.splitlines(), 1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ParseError(n, str(exc)) from None
            raise
        lines[0] = lines[0].removeprefix("\ufeff")
        # A C-level pass finds the lines that may be skipped; only those get the exact test.
        maybe = compress(count(), map(_SKIP_STARTS.__contains__, map(itemgetter(slice(1)), lines)))
        skipped = [i for i in maybe if not (text := lines[i].lstrip()) or text.startswith(COMMENT_PREFIX)]
        for i in skipped:
            lines[i] = ""  # then all dropped in one pass
        lines = list(filter(None, lines)) if skipped else lines
        if not lines:
            raise SchemaError("empty input: a header row is required")

        # Kept line r (the header is 0) is physical line r + 1 plus the number
        # of skipped lines before it: those j with before[j] <= r.
        before = [i - j for j, i in enumerate(skipped)]

        def line_of(r: int) -> int:
            return r + 1 + bisect_right(before, r)

        # Without a quote, csv cuts a line without its end at each comma and nowhere
        # else, and a line that fits csv's field limit holds no field over it.
        split = b'"' not in data and max(map(len, lines)) <= csv.field_size_limit()
        if b"\0" in data:  # a NUL in a skipped line went with it
            nul = next((r for r, line in enumerate(lines) if "\0" in line), None)
            if nul is not None:
                lines = chain(lines[:nul], _nul_line(line_of(nul)))

        # A split row cannot span lines. A reader reads all the kept lines and counts them in
        # reader.line_num: the row after len(records) records (row len(records) + 1, as the
        # header is row 0) spans lines if the reader has consumed more than len(records) + 2.
        # It then reads one empty line, which a quote left open on the last line reads on
        # into; otherwise the line reads as [], which no kept line does, and ends the rows.
        reader = None if split else csv.reader(chain(lines, [""]))
        rows = map(str.split, lines, repeat(",")) if split else iter(reader.__next__, [])
        header = None
        try:
            header = [name.strip(_ASCII_SPACE) for name in next(rows)]
            if reader and reader.line_num != 1:
                raise ParseError(line_of(0), "quoted field spans lines")
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
            # The same exact GameRecord, without the named tuple's Python-level __new__ frame.
            new = tuple.__new__
            for fields in rows:
                if reader and reader.line_num != len(records) + 2:
                    raise ParseError(line_of(len(records) + 1), "quoted field spans lines")
                if len(fields) != n_fields:
                    raise ParseError(line_of(len(records) + 1),
                                     f"expected {n_fields} fields, found {len(fields)}")
                if (date := dates.get(raw := fields[i_date])) is None:
                    date = dates[raw] = _date(raw.strip(_ASCII_SPACE))
                if (home_team := teams.get(raw := fields[i_home])) is None:
                    home_team = teams[raw] = _team(raw, "home_team")
                if (visitor_team := teams.get(raw := fields[i_visitor])) is None:
                    visitor_team = teams[raw] = _team(raw, "visitor_team")
                if (home_score := scores.get(raw := fields[i_hs])) is None:
                    home_score = scores[raw] = _score(raw, "home_score")
                if (visitor_score := scores.get(raw := fields[i_vs])) is None:
                    visitor_score = scores[raw] = _score(raw, "visitor_score")
                if (spread := spreads.get(raw := fields[i_spread])) is None:
                    spread = spreads[raw] = _spread(raw)
                records.append(
                    new(GameRecord, (date, home_team, visitor_team, home_score, visitor_score, spread))
                )
        except _FieldError as exc:
            raise ParseError(line_of(len(records) + 1), str(exc)) from None
        except csv.Error as exc:
            # Each row read took one line, so the row the reader failed on starts on kept
            # line ``first``; a read past it spans lines, whatever csv then refused.
            first = 0 if header is None else len(records) + 1
            spans = reader.line_num > first + 1
            raise ParseError(line_of(first), "quoted field spans lines" if spans
                             else f"unreadable CSV: {exc}") from None
        return Dataset(tuple(records))


def _nul_line(line_num: int) -> Iterator[str]:
    """A line holding a NUL: it fails once the reader reaches it, as csv fails it
    on Python 3.10 (3.11+ would read the NUL as text)."""
    raise ParseError(line_num, "unreadable CSV: line contains NUL")
    yield


class _FieldError(ValueError):
    """A field failed validation; ``parse_games`` adds its line number."""


def _date(raw: str) -> dt.date:
    # fromisoformat also takes 20170910 and 2017-W36-7 on Python 3.11+, so check the shape first.
    try:
        if len(raw) == 10 and raw[4] == raw[7] == "-":
            return dt.date.fromisoformat(raw)
    except ValueError:
        pass
    raise _FieldError(f"invalid date {_shown(raw)} (expected YYYY-MM-DD)")


def _team(raw: str, name: str) -> str:
    team = raw.strip(_ASCII_SPACE)
    if not team:
        raise _FieldError(f"empty {name}")
    if team != team.strip():
        raise _FieldError(f"{name} {_shown(team)} begins or ends with whitespace")
    return team


def _number(kind: type, raw: str):
    """``kind(raw)``, refusing spellings only Python's int() and float() read:
    non-ASCII digits (``٤٢``, ``３``) and ``_`` separators (``2_7``)."""
    if not raw.isascii() or "_" in raw:
        raise ValueError(f"not a plain ASCII number: {raw!r}")
    return kind(raw)


def _score(raw: str, name: str) -> int:
    raw = raw.strip(_ASCII_SPACE)
    # int() refuses more than 4,300 digits on Python 3.11+ but not on 3.10. Past
    # 20 digits, the sign and the first 20 after any leading zeros decide the
    # score's sign and, as it is then above 2**63 - 1, its range.
    sign = raw[:1] if raw[:1] in ("+", "-") else ""
    text = digits = raw[len(sign):]
    if len(digits) > 20 and digits.isascii() and digits.isdigit():
        text = digits.lstrip("0")[:20] or "0"
    try:
        score = _number(int, sign + text)
    except ValueError:
        raise _FieldError(f"non-integer {name} {_shown(raw)}") from None
    if score < 0:
        raise _FieldError(f"negative {name} {_shown(raw)}")
    if score > 2**63 - 1:  # then every visitor-minus-home margin fits int64
        raise _FieldError(f"out-of-range {name} {_shown(raw)} (above 2**63 - 1)")
    return score


def _spread(raw: str) -> float:
    raw = raw.strip(_ASCII_SPACE)
    try:
        spread = _number(float, raw)
    except ValueError:
        raise _FieldError(f"non-numeric spread {_shown(raw)}") from None
    if not math.isfinite(spread):
        raise _FieldError(f"non-finite spread {_shown(raw)}")
    # Adding 0.0 turns -0.0 into 0.0, so a pick'em spread gets one label.
    return round(spread, 1) + 0.0


def deduplicate(dataset: Dataset) -> Dataset:
    """Drop repeated games, keeping the first occurrence of each key.

    A repeat with identical payload is removed silently; a repeat whose
    scores or spread disagree with the kept record raises
    DuplicateConflictError rather than silently picking a winner.
    """
    seen: dict[tuple[dt.date, str, str], GameRecord] = {}
    with _gc_paused():
        for record in dataset:
            prior = seen.setdefault(record[:3], record)
            if prior is not record and prior != record:
                raise DuplicateConflictError(prior, record)
        # Dicts keep insertion order, so the values are the first occurrences.
        return Dataset(tuple(seen.values()))

