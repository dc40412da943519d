"""The column passes that group, split and count games, against the
per-record code they replaced, restated here.

The restatement groups outcomes with ``conftest.reference_buckets`` (a
dict of lists keyed by spread, in input order); histograms each group on
its own, clamping off-grid outcomes; splits by testing each record's
year; and orders TD's test games with a stable sort on (spread, date, home
team, visitor team). The datasets are library input that was never
deduplicated, so keys repeat.
"""

from __future__ import annotations

import datetime as dt
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spreadbias import Dataset, FitConfig, GameRecord, TdConfig, TiConfig, run_td, run_ti
from spreadbias import harness
from spreadbias.density import outcome_counts
from conftest import reference_buckets

GRID_LO, GRID_HI = -20, 20
TEAMS = ["NE", "KC", "GB"]
SPREADS = [-14.0, -3.5, -3.0, 0.0, 2.5, 3.0, 7.0, 10.5]
#: Few dates, teams and spreads, so keys repeat and small groups occur.
RECORDS = st.lists(
    st.builds(
        GameRecord,
        date=st.sampled_from([dt.date(y, m, 1) for y in (2015, 2016, 2017, 2018) for m in (1, 9)]),
        home_team=st.sampled_from(TEAMS),
        visitor_team=st.sampled_from(TEAMS),
        home_score=st.integers(0, 60),
        visitor_score=st.integers(0, 60),
        spread=st.sampled_from(SPREADS),
    ),
    max_size=60,
)
#: Hundreds of games per spread with keys tied many times over: an unstable
#: sort, which numpy may use only past a few dozen elements, would show here.
MANY_TIES = [
    GameRecord(dt.date(2015 + i % 4, 1 + i % 12, 1), TEAMS[i % 3], TEAMS[i // 3 % 3],
               i % 50, i * 7 % 60, SPREADS[i * 5 % 3])
    for i in range(900)
]


def old_counts(buckets) -> list[list[int]]:
    return [
        [sum(1 for v in outcomes if min(max(v, GRID_LO), GRID_HI) == point)
         for point in range(GRID_LO, GRID_HI + 1)]
        for _, outcomes in buckets
    ]


def no_valid_spread(min_samples: int, counted) -> str:
    """The whole no-valid-spread message, as a regex, naming the largest
    group of the ``counted`` records."""
    largest = max(Counter(r.spread for r in counted).values(), default=0)
    return (rf"^no spread has at least min_samples={min_samples} games "
            rf"\(the largest group has {largest}\)$")


def splits_of(run, dataset: Dataset, config) -> tuple[np.ndarray, list]:
    """The valid spreads and the splits that ``run`` hands to the backtest core,
    one per row of each block it hands over."""
    seen = []

    def spy(config, spreads, splits):
        seen.append((spreads, list(splits)))
        return backtest(config, spreads, seen[-1][1])

    backtest = harness._backtest
    with mock.patch.object(harness, "_backtest", spy):
        run(dataset, config)
    ((spreads, blocks),) = seen
    return spreads, [
        harness._Split(block.train[i], block.rows, block.outcomes[i], block.flips[i])
        for block in blocks for i in range(len(block.train))
    ]


@settings(max_examples=150, deadline=None)
@given(RECORDS, st.integers(1, 6))
@example(MANY_TIES, 5)
def test_column_passes_equal_the_per_record_code(records, min_samples):
    dataset = Dataset(tuple(records))
    grid = dict(grid_lo=GRID_LO, grid_hi=GRID_HI)

    # The valid-spread index, and each valid spread's outcomes, size and counts.
    expected = reference_buckets(records, min_samples)
    valid = [spread for spread, _ in expected]
    fit = FitConfig(min_samples=min_samples, **grid)
    if not expected:
        with pytest.raises(ValueError, match=no_valid_spread(min_samples, records)):
            fit.groups(dataset)
    else:
        spreads, index, outcomes, sizes, counts = fit.groups(dataset)
        assert spreads.tolist() == valid
        assert index.tolist() == [valid.index(r.spread) if r.spread in valid else -1 for r in records]
        assert outcomes.tolist() == [v for _, group in expected for v in group]
        assert sizes.tolist() == [len(group) for _, group in expected]
        assert counts.tolist() == old_counts(expected)

    # TI: every split's training block plus its holdouts' counts is the full count block.
    ti = TiConfig(min_samples=min_samples + 1, holdout_per_spread=1, n_simulations=2, **grid)
    ti_buckets = reference_buckets(records, ti.min_samples)
    if not ti_buckets:
        with pytest.raises(ValueError, match=no_valid_spread(ti.min_samples, records)):
            run_ti(dataset, ti)
    else:
        spreads, splits = splits_of(run_ti, dataset, ti)
        assert spreads.tolist() == [spread for spread, _ in ti_buckets]
        for split in splits:
            held = [(spread, [v for j, v in zip(split.rows, split.outcomes) if j == i])
                    for i, (spread, _) in enumerate(ti_buckets)]
            assert (split.train + np.array(old_counts(held))).tolist() == old_counts(ti_buckets)

    # TD: the training count block and the test games in coin-flip order.
    td = TdConfig(min_samples=min_samples, **grid)
    train = [r for r in records if r.date.year < td.cutoff_year]
    test = [r for r in records if r.date.year >= td.cutoff_year]
    td_buckets = reference_buckets(train, min_samples)
    if not (train and test):
        with pytest.raises(ValueError, match="^no (training|test) games "):
            run_td(dataset, td)
        return
    if not td_buckets:
        with pytest.raises(ValueError, match=no_valid_spread(min_samples, train)):
            run_td(dataset, td)
        return
    spreads, (split,) = splits_of(run_td, dataset, td)
    valid = [spread for spread, _ in td_buckets]
    assert spreads.tolist() == valid
    assert split.train.tolist() == old_counts(td_buckets)
    ordered = sorted(test, key=lambda r: (r.spread, r.date, r.home_team, r.visitor_team))
    assert list(zip(split.rows.tolist(), split.outcomes.tolist())) == [
        (valid.index(r.spread), r.visitor_score - r.home_score) for r in ordered if r.spread in valid
    ]


@pytest.mark.parametrize("fit", [
    lambda ds: FitConfig().groups(ds),
    lambda ds: run_ti(ds, TiConfig()),
    lambda ds: run_td(ds, TdConfig()),
])
def test_nan_spread_with_enough_games_is_off_the_grid(fit):
    nan = float("nan")  # one object, so a dict of lists would group its games too
    games = [GameRecord(dt.date(2016 + i % 2, 9, 1), f"H{i}", "V", 20, i % 30, spread)
             for i in range(80) for spread in (3.0, nan)]
    with pytest.raises(ValueError, match=r"^spread nan lies outside the outcome grid \[-40, 40\)$"):
        fit(Dataset(tuple(games)))


@settings(max_examples=150, deadline=None)
@given(RECORDS, st.sampled_from(SPREADS), st.integers(1, 6))
@example([GameRecord(dt.date(2016 + i % 2, 9, 1), "NE", "KC", 20, i, spread)
          for i, spread in enumerate([0.0] * 9 + [-14.0] * 3)], 0.0, 6)
def test_td_fits_the_count_block_of_its_grouped_training_games(records, nan_spread, min_samples):
    # One grouping call gives TD its training block, and the no-valid-spread message the
    # largest group that np.unique counts, NaN spreads in one group, for all games or TD's
    # training games. The games at one spread get a NaN spread each, which is off the grid.
    dataset = Dataset(tuple(r._replace(spread=math.nan) if r.spread == nan_spread else r
                            for r in records))
    td = TdConfig(min_samples=min_samples, grid_lo=GRID_LO, grid_hi=GRID_HI)
    train = dataset.year < td.cutoff_year
    for counted in (None, train):
        games = dataset.spread if counted is None else dataset.spread[counted]
        largest = np.unique(games, return_counts=True)[1].max(initial=0)
        try:
            spreads, index, outcomes, sizes, counts = td.groups(dataset, counted)
        except ValueError as exc:
            assert str(exc) == (
                f"spread nan lies outside the outcome grid [{GRID_LO}, {GRID_HI})"
                if largest >= min_samples else
                f"no spread has at least min_samples={min_samples} games (the largest group has {largest})"
            )
            counts = None
            continue
        rows = np.repeat(np.arange(len(sizes)), sizes)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, outcome_counts(outcomes, td.grid(), rows, len(sizes)))
    if counts is None or train.all():
        return
    _, (split,) = splits_of(run_td, dataset, td)
    assert split.train.dtype == counts.dtype
    assert np.array_equal(split.train, counts)
    # The count pass TD made of its own: every training game at a valid spread, by mask.
    trained = train & (index >= 0)
    assert np.array_equal(split.train, outcome_counts(dataset.outcome[trained], td.grid(),
                                                      index[trained], len(spreads)))
