"""Holdout and date-split harness behavior on synthetic datasets."""

from __future__ import annotations

import os
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spreadbias import (
    AtsResult,
    Dataset,
    FitConfig,
    SpreadBias,
    TdConfig,
    TiConfig,
    parse_games,
    predict_max_prob,
    predict_random,
    run_td,
    run_ti,
    score_ats,
    summarize,
)
from spreadbias import harness
from spreadbias.bias import BiasProfile
from spreadbias.density import outcome_counts
from spreadbias.models import (
    MODEL_K_LOWEST,
    MODEL_MAX_PROB,
    MODEL_MIN_ENTROPY,
    MODEL_RANDOM,
)
from conftest import reference_ranking, synthetic_spread_dataset

HALF_SPREADS = [-6.5, -4.5, -2.5, -0.5, 1.5, 3.5]


def by_model(report):
    return {m.model: m for m in report.models}


class TestSummarize:
    def test_constant_values(self):
        assert summarize([50.0, 50.0, 50.0]) == (50.0, 0.0)

    def test_two_values(self):
        mean, sem = summarize([40.0, 60.0])
        assert mean == 50.0
        assert sem == pytest.approx(10.0, abs=1e-12)

    def test_singleton_has_no_sem(self):
        assert summarize([70.0]) == (70.0, None)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestTiConfig:
    def test_holdout_must_leave_training_data(self):
        with pytest.raises(ValueError, match="training"):
            TiConfig(holdout_per_spread=25, min_samples=25)

    def test_defaults(self):
        config = TiConfig()
        assert config.n_simulations == 200
        assert config.holdout_per_spread == 10
        assert config.min_samples == 25
        assert config.entropy_threshold == 0.95
        assert config.bandwidth == 4.0
        assert (config.grid_lo, config.grid_hi) == (-40, 40)

    def test_invalid_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            TiConfig(kernel="cubic")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            TiConfig(seed=-1)


class TestFitConfigs:
    FIT_FIELDS = ["min_samples", "entropy_threshold", "bandwidth", "grid_lo", "grid_hi",
                  "kernel", "seed"]

    def test_protocols_extend_the_fit_fields(self):
        assert [f.name for f in fields(FitConfig)] == self.FIT_FIELDS
        assert [f.name for f in fields(TiConfig)] == self.FIT_FIELDS + [
            "n_simulations", "holdout_per_spread"]
        assert [f.name for f in fields(TdConfig)] == self.FIT_FIELDS + ["cutoff_year"]

    def test_min_samples_defaults(self):
        assert FitConfig().min_samples == 25
        assert TiConfig().min_samples == 25
        assert TdConfig().min_samples == 15
        assert TdConfig().cutoff_year == 2017

    @pytest.mark.parametrize("cls", [FitConfig, TiConfig, TdConfig])
    def test_shared_validation(self, cls):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            cls(bandwidth=0.0)
        with pytest.raises(ValueError, match="grid_lo must be below grid_hi"):
            cls(grid_lo=5, grid_hi=5)

    def test_valid_spreads_reject_spreads_off_the_grid(self):
        ds = synthetic_spread_dataset([-10.0, 9.5, 10.0], 30, seed=4)
        config = FitConfig(grid_lo=-10, grid_hi=11)
        assert config.groups(ds)[0].tolist() == [-10.0, 9.5, 10.0]
        message = r"spread 10 lies outside the outcome grid \[-10, 10\)"
        with pytest.raises(ValueError, match=message):
            FitConfig(grid_lo=-10, grid_hi=10).groups(ds)
        with pytest.raises(ValueError, match=r"spread -10 lies outside"):
            FitConfig(grid_lo=-9, grid_hi=11).groups(ds)
        # Spreads under min_samples are not fitted, so the grid is not checked: with none
        # valid, the error is the no-valid-spread one.
        with pytest.raises(ValueError, match=r"^no spread has at least min_samples=31 games "
                                             r"\(the largest group has 30\)$"):
            FitConfig(grid_lo=-9, grid_hi=10, min_samples=31).groups(ds)


class TestRunTi:
    def test_one_sided_bucket_wins_every_wager(self):
        # All outcomes fall far below the spread: home always covers, the
        # trained profile sees it, and every strategy except the coin flip
        # settles every holdout as a win.
        ds = synthetic_spread_dataset([-2.5], 30, cover_probs={-2.5: 1.0}, seed=5)
        config = TiConfig(n_simulations=1, min_samples=25, holdout_per_spread=10, seed=1)
        report = run_ti(ds, config)
        models = by_model(report)
        assert models[MODEL_MIN_ENTROPY].ats_win_pct == 100.0
        assert models[MODEL_MAX_PROB].ats_win_pct == 100.0
        assert models[MODEL_K_LOWEST].ats_win_pct == 100.0
        assert models[MODEL_MIN_ENTROPY].n_test == 10

    def test_counts_and_structure(self):
        ds = synthetic_spread_dataset(HALF_SPREADS, 30, seed=9)
        config = TiConfig(n_simulations=8, seed=3)
        report = run_ti(ds, config)
        assert report.protocol == "ti"
        assert report.valid_spreads == tuple(HALF_SPREADS)
        assert report.n_test_samples == 8 * 10 * len(HALF_SPREADS)
        models = by_model(report)
        # Half-point spreads cannot push, so every sample settles.
        for name in (MODEL_RANDOM, MODEL_MAX_PROB):
            assert models[name].n_test == report.n_test_samples
            assert models[name].n_push == 0
        assert models[MODEL_MIN_ENTROPY].n_test == 8 * 10
        assert len(report.profile) == len(HALF_SPREADS)
        for row in report.profile:
            assert row["n_train"] == 20

    def test_determinism(self):
        ds = synthetic_spread_dataset(HALF_SPREADS, 28, seed=11)
        config = TiConfig(n_simulations=5, seed=42)
        first = run_ti(ds, config)
        second = run_ti(ds, config)
        assert first == second
        assert first.to_dict() == second.to_dict()

    def test_seed_changes_results(self):
        ds = synthetic_spread_dataset(HALF_SPREADS, 28, seed=11)
        a = run_ti(ds, TiConfig(n_simulations=5, seed=1))
        b = run_ti(ds, TiConfig(n_simulations=5, seed=2))
        assert a.to_dict() != b.to_dict()

    def test_no_valid_spreads(self):
        ds = synthetic_spread_dataset([-2.5], 10, seed=2)
        with pytest.raises(ValueError, match="min_samples"):
            run_ti(ds, TiConfig(min_samples=25, holdout_per_spread=10))

    def test_symmetric_buckets_select_nothing(self):
        # Outcomes mirrored about every spread: entropies sit at ~1 bit,
        # threshold mode selects zero spreads, and the k-lowest strategy
        # reports no wagers instead of a percentage.
        ds = _mirrored_dataset()
        report = run_ti(ds, TiConfig(n_simulations=4, min_samples=25, seed=6))
        ksum = by_model(report)[MODEL_K_LOWEST]
        assert ksum.ats_win_pct is None
        assert ksum.n_test == 0
        assert ksum.k == 0
        assert report.selection_counts == {}
        for row in report.profile:
            assert row["entropy_bits"] > 0.99

    def test_holdout_split_disjoint_and_exhaustive(self):
        # With all-distinct outcomes the train/test multiset split is
        # observable through the profile's n_train and test counts.
        ds = synthetic_spread_dataset([-2.5], 26, seed=21)
        report = run_ti(ds, TiConfig(n_simulations=3, min_samples=26, seed=0))
        assert report.profile[0]["n_train"] == 16
        assert by_model(report)[MODEL_RANDOM].n_test + by_model(report)[
            MODEL_RANDOM
        ].n_push == 3 * 10


def _mirrored_dataset():
    """Every bucket's outcomes mirrored about its (half-point) spread.

    Pairs are repeated so buckets are large enough that a random holdout
    cannot push the smoothed cover probability far from one half.
    """
    import datetime as dt

    from spreadbias import GameRecord

    records = []
    i = 0
    for spread in (-2.5, 1.5):
        for _ in range(3):
            for v_offset in range(1, 16):
                for v in (
                    int(np.ceil(spread)) - v_offset,
                    int(np.floor(spread)) + v_offset,
                ):
                    records.append(
                        GameRecord(
                            date=dt.date(2015, 1, 1) + dt.timedelta(days=i),
                            home_team=f"H{i}",
                            visitor_team=f"V{i}",
                            home_score=30,
                            visitor_score=30 + v,
                            spread=spread,
                        )
                    )
                    i += 1
    return Dataset(tuple(records))


class TestRunTd:
    def _dataset(self):
        train = synthetic_spread_dataset(
            HALF_SPREADS, 30, cover_probs={-2.5: 0.95, 3.5: 0.9}, seed=14,
            start="2015-01-01",
        )
        test = synthetic_spread_dataset(
            HALF_SPREADS + [9.5], 6, cover_probs={-2.5: 0.95, 3.5: 0.9}, seed=15,
            start="2017-01-01",
        )
        assert all(r.date.year < 2017 for r in train)
        assert all(r.date.year == 2017 for r in test)
        return Dataset(train.records + test.records)

    def test_valid_spreads_from_training_only(self):
        report = run_td(self._dataset(), TdConfig(cutoff_year=2017, min_samples=15, seed=2))
        # 9.5 appears only in 2017, so it is not a valid spread.
        assert report.valid_spreads == tuple(HALF_SPREADS)
        assert report.n_train_records == 6 * 30
        assert report.n_test_records == 7 * 6
        # Test games at the invalid spread are dropped.
        assert report.n_test_samples == 6 * 6

    def test_models_wager_on_all_valid_test_samples(self):
        report = run_td(self._dataset(), TdConfig(cutoff_year=2017, min_samples=15, seed=2))
        models = by_model(report)
        for name in (MODEL_RANDOM, MODEL_MAX_PROB):
            assert models[name].n_test + models[name].n_push == report.n_test_samples
        assert models[MODEL_MIN_ENTROPY].n_test < report.n_test_samples

    def test_ksweep_shape_and_monotone_counts(self):
        report = run_td(self._dataset(), TdConfig(cutoff_year=2017, min_samples=15, seed=2))
        assert [row["k"] for row in report.ksweep] == list(range(1, len(HALF_SPREADS) + 1))
        counts = [row["n_test"] + row["n_push"] for row in report.ksweep]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] == report.n_test_samples

    def test_k_one_row_equals_min_entropy_summary(self):
        report = run_td(self._dataset(), TdConfig(cutoff_year=2017, min_samples=15, seed=2))
        first = report.ksweep[0]
        min_ent = by_model(report)[MODEL_MIN_ENTROPY]
        assert first["ats_win_pct"] == min_ent.ats_win_pct
        assert first["n_test"] == min_ent.n_test

    def test_threshold_flag_marks_selected_k(self):
        report = run_td(self._dataset(), TdConfig(cutoff_year=2017, min_samples=15, seed=2))
        k_lowest = by_model(report)[MODEL_K_LOWEST]
        flagged = [row["k"] for row in report.ksweep if row["threshold_selected"]]
        if k_lowest.k >= 1:
            assert flagged == [k_lowest.k]
        else:
            assert flagged == []

    def test_determinism(self):
        config = TdConfig(cutoff_year=2017, min_samples=15, seed=9)
        ds = self._dataset()
        assert run_td(ds, config).to_dict() == run_td(ds, config).to_dict()

    def test_empty_test_side_rejected(self):
        ds = self._dataset()
        with pytest.raises(ValueError, match="test"):
            run_td(ds, TdConfig(cutoff_year=3000))

    def test_empty_train_side_rejected(self):
        ds = self._dataset()
        with pytest.raises(ValueError, match="training"):
            run_td(ds, TdConfig(cutoff_year=1900))

    def test_no_valid_spreads_rejected(self):
        ds = self._dataset()
        with pytest.raises(ValueError, match="min_samples"):
            run_td(ds, TdConfig(cutoff_year=2017, min_samples=1000))

    def test_test_games_only_at_invalid_spreads(self):
        # Every 2017 game sits at 9.5, which has no training games: the
        # test side is not empty, but nothing is wagered.
        train = synthetic_spread_dataset(HALF_SPREADS, 30, seed=14, start="2015-01-01")
        test = synthetic_spread_dataset([9.5], 6, seed=15, start="2017-01-01")
        report = run_td(Dataset(train.records + test.records),
                        TdConfig(cutoff_year=2017, min_samples=15, seed=2))
        assert report.valid_spreads == tuple(HALF_SPREADS)
        assert report.n_test_records == 6
        assert report.n_test_samples == 0
        for summary in report.models:
            assert summary.ats_win_pct is None
            assert (summary.n_test, summary.n_push, summary.n_wins) == (0, 0, 0)
        assert [row["k"] for row in report.ksweep] == list(range(1, len(HALF_SPREADS) + 1))
        for row in report.ksweep:
            assert (row["ats_win_pct"], row["n_test"], row["n_push"], row["n_wins"]) == (
                None, 0, 0, 0)


#: Whole- and half-point spreads, one leaning, trained before 2017 and
#: tested in it.
TD_SPREADS = [-3.0, -2.5, 1.0, 3.5]
TD_DATASET = Dataset(
    synthetic_spread_dataset(TD_SPREADS, 20, {1.0: 0.85}, seed=4, start="2015-01-01").records
    + synthetic_spread_dataset(TD_SPREADS, 5, {1.0: 0.85}, seed=5, start="2017-01-01").records
)


@settings(max_examples=30, deadline=None)
@given(
    st.permutations(range(len(TD_DATASET))),
    st.lists(st.sampled_from(["{:g}", "{:.1f}", "{:.2f}"]),
             min_size=len(TD_DATASET), max_size=len(TD_DATASET)),
)
def test_run_td_invariant_under_row_order_and_spread_spelling(order, spellings):
    lines = ["date,home_team,visitor_team,home_score,visitor_score,spread"]
    for i, spelling in zip(order, spellings):
        r = TD_DATASET.records[i]
        lines.append(f"{r.date},{r.home_team},{r.visitor_team},{r.home_score},"
                     f"{r.visitor_score},{spelling.format(r.spread)}")
    shuffled = parse_games(("\n".join(lines) + "\n").encode())
    config = TdConfig(min_samples=15, seed=3)
    assert run_td(shuffled, config).to_dict() == run_td(TD_DATASET, config).to_dict()


#: Whole-point spreads, where an outcome can push, and half points.
SETTLED_SPREADS = st.one_of(st.integers(-8, 8).map(float), st.integers(-8, 7).map(lambda v: v + 0.5))
#: Outcomes near the spreads, where a cover turns, and past 2**53 either way.
SETTLED_OUTCOMES = st.one_of(st.integers(-10, 10), st.integers(2**53, 2**63 - 1),
                             st.integers(-2**63, -2**53))


@st.composite
def settlement_cases(draw):
    """A block of splits to settle: spreads, each test game's spread index (a spread
    may have none), and per split the games' outcomes and coin flips and each
    spread's fitted p_home and entropy."""
    spreads = sorted(draw(st.lists(SETTLED_SPREADS, min_size=1, max_size=4, unique=True)))
    rows = draw(st.lists(st.integers(0, len(spreads) - 1), max_size=8))
    n_splits = draw(st.integers(1, 3))

    def per_split(elements, size):
        return draw(st.lists(st.lists(elements, min_size=size, max_size=size),
                             min_size=n_splits, max_size=n_splits))

    return (spreads, rows, per_split(SETTLED_OUTCOMES, len(rows)),
            per_split(st.just(0.5) | st.floats(0.0, 1.0, exclude_max=True), len(rows)),
            per_split(st.just(0.5) | st.floats(0.0, 1.0), len(spreads)),
            per_split(st.sampled_from([0.0, 0.5, 0.95, 1.0]) | st.floats(0.0, 1.0), len(spreads)))


class TestBacktestSettlement:
    """``_backtest`` settles every strategy per (split, spread); each split's counts
    and k sweep must be a per-game ``score_ats`` tally of the same wagers."""

    @settings(max_examples=150, deadline=None)
    @given(case=settlement_cases())
    # Integer spreads with pushes under both sides and both coin-flip sides.
    @example(case=([-3.0, 0.0, 2.5], [0, 0, 1, 1, 2, 2], [[-3, -4, 0, 0, 3, 2]],
                   [[0.1, 0.6, 0.2, 0.7, 0.3, 0.9]], [[0.7, 0.2, 0.6]], [[0.5, 0.2, 0.97]]))
    # A flip of exactly 0.5 and p_home of exactly 0.5 both back Home.
    @example(case=([-1.0, 3.5], [0, 0, 1, 1], [[-2, 0, 5, 1], [0, -2, 1, 5]],
                   [[0.5, 0.5, 0.5, 0.5], [0.5, 0.25, 0.75, 0.5]], [[0.5, 0.5], [0.5, 0.75]],
                   [[1.0, 1.0], [0.8, 0.9]]))
    # TD: the most biased valid spread (-1.5) has no test game.
    @example(case=([-3.0, -1.5, 7.0], [0, 2, 2], [[-9, 8, 7]], [[0.2, 0.9, 0.4]],
                   [[0.3, 0.99, 0.6]], [[0.6, 0.1, 0.9]]))
    # Outcomes beyond 2**53 on both sides, up to the int64 bounds.
    @example(case=([-2.0, 1.5], [0, 0, 1, 1], [[2**53 + 1, -2**53 - 1, 2**63 - 1, -2**63]],
                   [[0.1, 0.9, 0.6, 0.3]], [[0.2, 0.8]], [[0.3, 0.7]]))
    def test_counts_equal_a_per_game_score_ats_tally(self, case):
        spreads, rows, outcomes, flips, p_home, entropy = case
        config = TdConfig()
        split = harness._Split(np.zeros((len(outcomes), len(spreads), 1)), np.array(rows, np.intp),
                               np.array(outcomes, np.int64), np.array(flips, np.float64))
        fit = np.array(p_home), np.array(entropy)
        with mock.patch.object(harness, "profile_arrays", lambda *args: fit):
            results = harness._backtest(config, np.array(spreads), [split])

        column = {AtsResult.LOSS: 0, AtsResult.PUSH: 1, AtsResult.WIN: 2}
        counts, ranked = [], []
        for game_outcomes, game_flips, split_p, split_h in zip(outcomes, flips, p_home, entropy):
            entries = [SpreadBias(spread, p, 1.0 - p, h, 0)
                       for spread, p, h in zip(spreads, split_p, split_h)]
            order, k = reference_ranking(BiasProfile(tuple(entries), config.entropy_threshold))
            position = [order.index(entry) for entry in entries]
            split_counts = np.zeros((4, 3), np.int64)  # MODEL_NAMES' loss/push/win counts
            split_ranked = np.zeros((len(spreads) + 1, 3), np.int64)
            for row, outcome, flip in zip(rows, game_outcomes, game_flips):
                spread = spreads[row]
                coin = predict_random(SimpleNamespace(random=lambda: flip))
                split_counts[0, column[score_ats(coin, outcome, spread)]] += 1
                result = column[score_ats(predict_max_prob(entries[row]), outcome, spread)]
                split_counts[1:, result] += [1, position[row] < 1, position[row] < k]
                split_ranked[position[row] + 1:, result] += 1
            counts.append(split_counts.tolist())
            ranked.append(split_ranked.tolist())
        assert results.counts.tolist() == counts
        assert results.ranked.tolist() == ranked


class TestStreams:
    """``harness._seed_words`` hashes many stream keys at once; each key's
    ``_generator`` must be the one ``default_rng(SeedSequence(key))`` gives."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**70 - 1),
        sims=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        n_spreads=st.integers(1, 5),
    )
    # Seeds that coerce to one, two and three 32-bit words, at each boundary.
    @example(seed=2**32 - 1, sims=[0, 2**32 - 1], n_spreads=2)
    @example(seed=2**32, sims=[1], n_spreads=3)
    @example(seed=2**64 - 1, sims=[3], n_spreads=1)
    @example(seed=2**64, sims=[7, 0], n_spreads=2)
    @example(seed=2**64 + 7, sims=[5], n_spreads=4)
    def test_streams_equal_numpy_seed_sequence(self, seed, sims, n_spreads):
        sims = np.array(sims)
        key_shapes = [  # TI holdouts, TI coin flips, one key alone (as TD's)
            ((seed, 0, sims[:, None], np.arange(n_spreads)),
             [(seed, 0, sim, j) for sim in sims.tolist() for j in range(n_spreads)]),
            ((seed, 1, sims), [(seed, 1, sim) for sim in sims.tolist()]),
            ((seed, 1), [(seed, 1)]),
        ]
        for parts, keys in key_shapes:
            streams = list(map(harness._generator, harness._seed_words(*parts)))
            assert len(streams) == len(keys)
            for rng, key in zip(streams, keys):
                expected = np.random.SeedSequence(key)
                words = rng.bit_generator.seed_seq.generate_state(4, np.uint64)
                assert words.tolist() == expected.generate_state(4, np.uint64).tolist()
                assert rng.bit_generator.state == np.random.default_rng(expected).bit_generator.state

    def test_array_part_past_one_word_rejected(self):
        with pytest.raises(ValueError, match="one 32-bit word"):
            harness._seed_words(0, 0, np.array([0, 2**32]))

    @pytest.mark.parametrize("draw_entries,fit_keys", [
        (1, 1), (60, 10**9), (300, 14), (300, 10**9), (10**9, 20), (10**9, 10**9),
    ], ids=["one-simulation-draws-fit-one", "one-simulation-draws-fit-all",
            "partial-draws-fit-two", "partial-draws-fit-all", "one-draw-fit-two", "one-draw-fit-all"])
    def test_run_ti_does_not_depend_on_the_draw_or_fit_block(self, monkeypatch, draw_entries,
                                                             fit_keys):
        # 6 spreads with holdout 10 make 60 draw entries and 7 fit keys a simulation;
        # 13 simulations leave a partial block of 5 draws, cut in fit blocks of 2.
        dataset = synthetic_spread_dataset(HALF_SPREADS, 30, cover_probs={-2.5: 0.9}, seed=8)
        config = TiConfig(n_simulations=13, seed=2**32 + 3)
        report = run_ti(dataset, config)
        expected = report.to_dict()
        monkeypatch.setattr(harness, "_DRAW_ENTRIES", draw_entries)
        monkeypatch.setattr(harness, "_FIT_KEYS", fit_keys)
        blocked = run_ti(dataset, config)
        assert blocked.to_dict() == expected
        # Keyed in ascending spread order, whatever order the splits ran in.
        assert list(blocked.selection_counts) == list(report.selection_counts)
        assert list(blocked.selection_counts) == sorted(blocked.selection_counts)

    @pytest.mark.parametrize("n_spreads,n_simulations,holdout", [
        (1, 3000, 1), (6, 500, 1), (40, 60, 1), (40, 2000, 1), (2, 4, 40_000),
    ])
    def test_no_block_holds_more_splits_than_its_bound(self, monkeypatch, n_spreads,
                                                      n_simulations, holdout):
        # A fit block stacks its splits' (spreads x grid) training counts and a draw
        # block its picks and coin flips, so no run may build every simulation at once.
        # 40 x 2000 crosses draw blocks; a simulation of 2 x 40,000 entries exceeds one.
        dataset = synthetic_spread_dataset([s + 0.5 for s in range(n_spreads)], holdout + 1,
                                           seed=4)
        config = TiConfig(n_simulations=n_simulations, min_samples=holdout + 1,
                          holdout_per_spread=holdout)
        spreads, _, *groups = config.groups(dataset)
        n = len(spreads)
        draw_limit = max(1, harness._DRAW_ENTRIES // (n * holdout))
        fit_limit = max(1, harness._FIT_KEYS // (n + 1))
        drawn = []
        picks = harness._holdout_picks

        def checked_picks(words, sizes, holdout_per_key):
            drawn.append(words[..., 0].size * holdout_per_key)  # keys x holdout entries
            assert drawn[-1] <= max(harness._DRAW_ENTRIES, n * holdout)
            return picks(words, sizes, holdout_per_key)

        monkeypatch.setattr(harness, "_holdout_picks", checked_picks)
        sizes = []
        for split in harness._holdout_splits(*groups, config):
            sizes.append(len(split.train))
            assert len(split.outcomes) == len(split.flips) == sizes[-1] <= min(fit_limit, draw_limit)
        assert sum(sizes) == n_simulations
        assert sum(drawn) == n_simulations * n * holdout
        assert len(drawn) == -(-n_simulations // draw_limit)

    def test_no_earlier_training_block_is_alive_when_the_next_is_counted(self, monkeypatch):
        # Draw blocks of 7 simulations cut in fit blocks of 2 make 7 training blocks, and
        # run_ti must hold only one: the earlier ones are freed before the next is built,
        # which starts from its held games' grid cells.
        monkeypatch.setattr(harness, "_DRAW_ENTRIES", 7 * 60)
        monkeypatch.setattr(harness, "_FIT_KEYS", 14)
        dataset = synthetic_spread_dataset(HALF_SPREADS, 30, seed=8)
        trains, cells = [], []
        split, grid_cells = harness._Split, harness.grid_cells

        def recorded_split(train, *rest):
            assert [ref() for ref in trains] == [None] * len(trains)
            trains.append(weakref.ref(train))
            return split(train, *rest)

        def checked_cells(*args):
            assert [ref() for ref in trains] == [None] * len(trains)
            cells.append(len(trains))
            return grid_cells(*args)

        monkeypatch.setattr(harness, "_Split", recorded_split)
        monkeypatch.setattr(harness, "grid_cells", checked_cells)
        run_ti(dataset, TiConfig(n_simulations=13, seed=5))
        assert len(trains) == 7
        assert cells == list(range(7))  # once before each block

    @pytest.mark.parametrize("fit_keys", [14, 1024])
    def test_training_block_is_the_full_counts_less_its_held_games(self, monkeypatch, fit_keys):
        # Each block is float64, and exactly the full counts minus an outcome_counts block
        # of its held games, on a grid narrow enough that some outcomes are clamped.
        monkeypatch.setattr(harness, "_DRAW_ENTRIES", 7 * 60)
        monkeypatch.setattr(harness, "_FIT_KEYS", fit_keys)
        dataset = synthetic_spread_dataset(HALF_SPREADS, 30, seed=8, max_offset=14)
        config = TiConfig(n_simulations=13, seed=5, grid_lo=-12, grid_hi=12)
        spreads, _, outcomes, sizes, full = config.groups(dataset)
        grid, n = config.grid(), len(spreads)
        assert np.any((outcomes < grid.lo) | (outcomes > grid.hi))
        blocks = list(harness._holdout_splits(outcomes, sizes, full, config))
        for block in blocks:
            splits = len(block.outcomes)
            rows = n * np.arange(splits)[:, None] + block.rows
            held = outcome_counts(block.outcomes, grid, rows, splits * n).reshape(splits, n, -1)
            assert block.train.dtype == np.float64
            assert block.train.shape == held.shape
            assert np.array_equal(block.train, full - held)
        assert sum(len(block.train) for block in blocks) == 13

    def test_backtest_does_not_depend_on_how_splits_are_blocked(self, monkeypatch):
        # Draw blocks of 7 simulations cut in fit blocks of 5 leave partial blocks;
        # the single-split blocks also check each split's sweep, which TI reports drop.
        monkeypatch.setattr(harness, "_DRAW_ENTRIES", 7 * 60)
        monkeypatch.setattr(harness, "_FIT_KEYS", 40)
        dataset = synthetic_spread_dataset(
            HALF_SPREADS, 30, cover_probs={-2.5: 0.9, 1.5: 0.15}, seed=8
        )
        config = TiConfig(n_simulations=13, seed=5)
        spreads, _, *groups = config.groups(dataset)
        n_train = groups[1] - config.holdout_per_spread
        blocks = list(harness._holdout_splits(*groups, config))
        assert [len(block.train) for block in blocks] == [5, 2, 5, 1]
        singles = [
            harness._Split(block.train[i:i + 1], block.rows, block.outcomes[i:i + 1],
                           block.flips[i:i + 1])
            for block in blocks for i in range(len(block.train))
        ]
        results = harness._backtest(config, spreads, blocks)
        single_results = harness._backtest(config, spreads, singles)
        for name, single, whole in zip(results._fields, single_results, results):
            assert np.array_equal(single, whole), name
        assert len(results.k) == 13
        assert results.ranked[:, -1].sum() == 13 * len(blocks[0].rows)
        assert single_results.modal_k == results.modal_k
        assert harness._report("ti", config, spreads, single_results, n_train) == harness._report(
            "ti", config, spreads, results, n_train
        )

    def test_importing_the_cli_leaves_numpy_random_unloaded(self):
        # numpy 2 loads numpy.random on first use; older numpy loads it with
        # numpy itself, and then the package cannot avoid it. No command
        # needs ``statistics`` (nor the decimal and fractions it loads).
        code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
                "import spreadbias.cli; print(before, 'numpy.random' in sys.modules, "
                "'statistics' in sys.modules)")
        src = str(Path(harness.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        before, after, statistics = result.stdout.split()
        assert after == before
        assert statistics == "False"


class TestHoldoutPicks:
    """``harness._holdout_picks`` replays ``Generator.choice(n, h, replace=False)``
    for many keys at once; each key's sorted picks must be the ones numpy's
    ``default_rng(SeedSequence(key))`` draws."""

    @staticmethod
    def picks(keys, sizes, holdout):
        """``_holdout_picks`` for ``keys``, and numpy's sorted picks one key at a time."""
        words = np.concatenate([harness._seed_words(*key) for key in keys])
        expected = [
            np.sort(np.random.default_rng(np.random.SeedSequence(key))
                    .choice(n, holdout, replace=False)).tolist()
            for key, n in zip(keys, sizes)
        ]
        return harness._holdout_picks(words, np.array(sizes), holdout), expected

    @staticmethod
    def block_picks(seed, sims, sizes, holdout):
        """``_holdout_picks`` for TI's (simulations x spreads) block of keys ``(seed, 0, sim,
        j)``, one size per spread, and numpy's sorted picks one key at a time."""
        words = harness._seed_words(seed, 0, np.array(sims)[:, None], np.arange(len(sizes)))
        expected = [
            [np.sort(np.random.default_rng(np.random.SeedSequence((seed, 0, sim, j)))
                     .choice(n, holdout, replace=False)).tolist() for j, n in enumerate(sizes)]
            for sim in sims
        ]
        words = words.reshape(len(sims), len(sizes), 4)
        return harness._holdout_picks(words, np.array(sizes), holdout), expected

    @staticmethod
    def scalar_floyd(key, n, holdout):
        """Floyd's loop over Lemire-bounded draws in Python ints, on numpy's
        own PCG64 outputs (low half first): the sorted picks, how many draws
        were rejected and how many steps found their value picked already."""
        bit_generator = np.random.PCG64(np.random.SeedSequence(key))
        halves = (half for _ in iter(int, 1)
                  for out in [int(bit_generator.random_raw())]
                  for half in (out & 0xFFFFFFFF, out >> 32))
        picks, rejected, collided = set(), 0, 0
        for j in range(n - holdout, n):
            scaled = next(halves) * (j + 1) if j else 0
            while j and scaled & 0xFFFFFFFF < 2**32 % (j + 1):
                scaled, rejected = next(halves) * (j + 1), rejected + 1
            value = scaled >> 32
            collided += value in picks
            picks.add(j if value in picks else value)
        return sorted(picks), rejected, collided

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**70 - 1),
        sims=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
        sizes=st.lists(st.integers(1, 10_000), min_size=1, max_size=5),
        data=st.data(),
    )
    def test_picks_equal_numpy_choice(self, seed, sims, sizes, data):
        holdout = data.draw(st.integers(1, min(min(sizes), 64)))
        # A TI draw block: every spread of every simulation, one size per spread.
        picks, expected = self.block_picks(seed, sims, sizes, holdout)
        assert picks.dtype == np.int64
        assert picks.tolist() == expected

    def test_block_with_collisions_and_a_key_that_leaves(self):
        # 4 simulations x 5 spreads. n = holdout + 1 finds its value picked at most
        # steps; one key mid-block (simulation 2, spread 2) has its ninth draw rejected
        # and leaves the replay for choice, while its neighbours stay.
        sizes = [11, 50, 300_000_000, 1_000, 10_000]
        picks, expected = self.block_picks(0, range(4), sizes, 10)
        assert picks.shape == (4, 5, 10)
        assert picks.tolist() == expected
        scalar = [[self.scalar_floyd((0, 0, sim, j), n, 10) for j, n in enumerate(sizes)]
                  for sim in range(4)]
        assert [[p for p, _, _ in row] for row in scalar] == expected
        assert [(sim, j) for sim, row in enumerate(scalar)
                for j, (_, rejected, _) in enumerate(row) if rejected] == [(2, 2)]
        assert [row[0][2] for row in scalar] == [8, 7, 5, 5]

    def test_populations_near_3e9_reject_draws(self):
        # A bound of about 3e9 leaves 2**32 mod bound near 1.3e9: about 30%
        # of draws are rejected, and a key whose draw is rejected leaves the
        # replay for choice.
        sizes = [3_000_000_001, 2_900_000_000, 3_500_000_000, 4_294_967_295]
        keys = [(2**40 + 9, 0, j) for j in range(len(sizes))]
        picks, expected = self.picks(keys, sizes, 20)
        assert picks.tolist() == expected
        scalar = [self.scalar_floyd(key, n, 20) for key, n in zip(keys, sizes)]
        assert expected == [p for p, _, _ in scalar]
        # 2**32 - 1 games bound the last draw by 2**32 - 1, where 2**32 mod bound is 1.
        assert [rejected > 0 for _, rejected, _ in scalar] == [True, True, True, False]

    @pytest.mark.filterwarnings("error")
    def test_block_mixing_keys_that_leave_the_replay(self):
        # Keys that leave the replay (a rejected draw, or n == holdout, whose
        # first step draws on [0, 0]) sit between keys that stay: every key
        # that stays must still take its own draws, one per step.
        sizes = [50, 3_000_000_001, 1_000, 20, 2_900_000_000, 10_000, 21]
        keys = [(17, 0, 4, j) for j in range(len(sizes))]
        picks, expected = self.picks(keys, sizes, 20)
        assert picks.tolist() == expected
        rejected = [self.scalar_floyd(key, n, 20)[1] for key, n in zip(keys, sizes)]
        assert [r > 0 for r in rejected] == [n > 2**31 for n in sizes]

    @pytest.mark.parametrize("size, holdout", [(30, 10), (10, 10), (300, 100), (300, 101),
                                               (10_000, 201), (10_001, 201)])
    def test_one_key(self, size, holdout):
        # One key makes one-element arrays: any numpy-scalar arithmetic would
        # warn on overflow here, and warnings fail the run. Holdouts past
        # _BATCH_MAX_HOLDOUT = 100 call choice, which tail-shuffles at 10,001.
        picks, expected = self.picks([(5, 0, 3, 7)], [size], holdout)
        assert picks.tolist() == expected

    def test_batched_holdouts_stay_below_numpys_tail_shuffle(self):
        # choice tail-shuffles only where n > 10,000 and holdout > n // 50.
        assert harness._BATCH_MAX_HOLDOUT <= 10_001 // 50

    def test_population_of_2_32_plus_5_drawn_by_choice(self):
        # A key of 2**32 or more games never enters the replay: choice draws it.
        picks, expected = self.picks([(0, 0, 0), (0, 0, 1)], [10, 2**32 + 5], 3)
        assert picks.tolist() == expected

    def test_population_below_the_holdout_raises_as_choice(self):
        words = harness._seed_words(0, 0, np.arange(2))
        with pytest.raises(ValueError, match="larger sample than population"):
            harness._holdout_picks(words, np.array([30, 5]), 10)
