"""Shared builders for synthetic game datasets."""

from __future__ import annotations

import csv
import datetime as dt
import gc
import io
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from spreadbias import (
    BiasProfile,
    Dataset,
    GameRecord,
    SpreadBias,
    binary_entropy,
    deduplicate,
    estimate_density,
    home_cover_probability,
    parse_games,
)

#: Environment variable pointing at the historical 648-game CSV used by
#: the golden reproduction tests. Absent => those tests skip.
GOLDEN_DATASET_ENV = "SPREADBIAS_DATASET"


def make_record(
    date="2016-10-02",
    home_team="AAA",
    visitor_team="BBB",
    home_score=20,
    visitor_score=17,
    spread=-3.0,
) -> GameRecord:
    return GameRecord(
        date=dt.date.fromisoformat(date),
        home_team=home_team,
        visitor_team=visitor_team,
        home_score=home_score,
        visitor_score=visitor_score,
        spread=spread,
    )


#: Team names as the parser returns them: no surrounding whitespace, no
#: control characters (so no line breaks).
TEAMS = st.text(st.characters(blacklist_categories=("Cc", "Cs")), min_size=1, max_size=12).filter(
    lambda name: name == name.strip()
)
#: Any record the parser can return: spreads are canonical one-decimal floats.
GAME_RECORDS = st.builds(
    GameRecord,
    date=st.dates(),
    home_team=TEAMS,
    visitor_team=TEAMS,
    home_score=st.integers(0, 200),
    visitor_score=st.integers(0, 200),
    spread=st.integers(-300, 300).map(lambda tenths: round(tenths / 10, 1) + 0.0),
)


def synthetic_spread_dataset(
    spreads,
    n_per_spread,
    cover_probs=None,
    seed=7,
    start="2015-09-01",
    max_offset=12,
) -> Dataset:
    """Games whose home side covers each spread with a chosen probability.

    Outcomes are placed a uniform 1..max_offset integer steps on the
    covering or non-covering side of the spread, so half-point spreads
    never push and the outcome distribution is symmetric about the spread
    when the cover probability is 0.5.
    """
    cover_probs = cover_probs or {}
    rng = np.random.default_rng(seed)
    start_date = dt.date.fromisoformat(start)
    records = []
    i = 0
    for spread in spreads:
        p = cover_probs.get(spread, 0.5)
        for _ in range(n_per_spread):
            offset = int(rng.integers(1, max_offset + 1))
            if rng.random() < p:
                outcome = math.ceil(spread) - offset  # home covers: outcome < spread
            else:
                outcome = math.floor(spread) + offset  # visitor covers
            date = start_date + dt.timedelta(days=i)
            records.append(
                GameRecord(
                    date=date,
                    home_team=f"H{i % 32:02d}",
                    visitor_team=f"V{i % 31:02d}",
                    home_score=30,
                    visitor_score=30 + outcome,
                    spread=float(spread),
                )
            )
            i += 1
    return Dataset(tuple(records))


def dataset_csv_text(dataset: Dataset) -> str:
    """The dataset as input CSV, quoting team names where csv needs it."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(GameRecord._fields)
    writer.writerows(
        (r.date.isoformat(), r.home_team, r.visitor_team, r.home_score, r.visitor_score,
         repr(r.spread))
        for r in dataset
    )
    return text.getvalue()


def reference_parse(text: str) -> list[tuple]:
    """Reference for ``parse_games`` on valid input: every field of every
    row converted on its own, with no state shared between fields or rows. Lines
    end only at CR, LF and CRLF, as ``open(..., newline="")`` splits them;
    ``str.splitlines()`` would also split at \\v, \\x1c-\\x1e, \\x85, \\u2028 and \\u2029."""
    lines = [line for line in re.split("\r\n?|\n", text)
             if line.strip() and line.lstrip()[0] != "#"]
    header, *rows = csv.reader(lines)
    columns = [[name.strip() for name in header].index(c) for c in GameRecord._fields]
    records = []
    for row in rows:
        date, home, visitor, home_score, visitor_score, spread = (row[i].strip() for i in columns)
        year, month, day = date.split("-")
        records.append((
            dt.date(int(year), int(month), int(day)), home, visitor, int(home_score),
            int(visitor_score), round(float(spread), 1) + 0.0,
        ))
    return records


def write_dataset_csv(path: Path, dataset: Dataset) -> Path:
    path.write_text(dataset_csv_text(dataset), encoding="utf-8")
    return path


def reference_buckets(records, min_samples: int) -> list[tuple[float, list[int]]]:
    """Reference for ``spread_groups`` and ``by_spread``: each spread with at
    least ``min_samples`` records, ascending, and its outcomes in input
    order, grouped in a dict of lists."""
    groups: dict[float, list[int]] = {}
    for record in records:
        groups.setdefault(record.spread, []).append(record.visitor_score - record.home_score)
    return [(spread, outcomes) for spread, outcomes in sorted(groups.items())
            if len(outcomes) >= min_samples]


def scalar_profile(buckets, bandwidth, grid, threshold, kernel) -> BiasProfile:
    """Reference for the fit that ``profile_arrays`` makes from one count
    block: each ``(spread, outcomes)`` bucket, in the order given, through
    the scalar wrappers, with cover probabilities capped at 1.0."""
    entries = []
    for spread, outcomes in buckets:
        density = estimate_density(outcomes, bandwidth, grid, kernel)
        p_home = min(home_cover_probability(density, spread), 1.0)
        entries.append(
            SpreadBias(spread, p_home, 1.0 - p_home, binary_entropy(p_home), len(outcomes))
        )
    return BiasProfile(tuple(entries), threshold)


def reference_ranking(profile: BiasProfile) -> tuple[list[SpreadBias], int]:
    """Reference for ``rank_spreads``: entries by (entropy, |spread|,
    spread), and how many entropies fall strictly below the threshold."""
    ranked = sorted(profile.entries, key=lambda e: (e.entropy_bits, abs(e.spread), e.spread))
    return ranked, sum(1 for e in ranked if e.entropy_bits < profile.threshold)


@pytest.fixture
def golden_dataset():
    """The original 648-game dataset, when supplied via the environment."""
    path = os.environ.get(GOLDEN_DATASET_ENV)
    if not path or not Path(path).is_file():
        pytest.skip(
            f"golden dataset not available (set {GOLDEN_DATASET_ENV} to the "
            "648-game CSV to enable this reproduction test)"
        )
    with open(path, encoding="utf-8", newline="") as fh:
        return deduplicate(parse_games(fh))


@pytest.fixture
def restore_gc():
    """Leave the cyclic garbage collector on or off as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()
