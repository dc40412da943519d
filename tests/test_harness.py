"""Holdout and date-split harness behavior on synthetic datasets."""

from __future__ import annotations

import io
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spreadbias import (
    Dataset,
    FitConfig,
    TdConfig,
    TiConfig,
    parse_games,
    run_td,
    run_ti,
    summarize,
)
from spreadbias import harness
from spreadbias.models import (
    MODEL_K_LOWEST,
    MODEL_MAX_PROB,
    MODEL_MIN_ENTROPY,
    MODEL_RANDOM,
)
from conftest import synthetic_spread_dataset

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
        assert config.valid_spreads(ds)[0].tolist() == [-10.0, 9.5, 10.0]
        message = r"spread 10 lies outside the outcome grid \[-10, 10\)"
        with pytest.raises(ValueError, match=message):
            FitConfig(grid_lo=-10, grid_hi=10).valid_spreads(ds)
        with pytest.raises(ValueError, match=r"spread -10 lies outside"):
            FitConfig(grid_lo=-9, grid_hi=11).valid_spreads(ds)
        # Spreads under min_samples are not fitted, so they are not checked.
        assert FitConfig(grid_lo=-9, grid_hi=10, min_samples=31).valid_spreads(ds)[0].size == 0


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
    shuffled = parse_games(io.StringIO("\n".join(lines) + "\n"))
    config = TdConfig(min_samples=15, seed=3)
    assert run_td(shuffled, config).to_dict() == run_td(TD_DATASET, config).to_dict()


class TestStreams:
    """``harness._streams`` hashes many stream keys at once; each stream must
    be the one ``default_rng(SeedSequence(key))`` gives, for every key."""

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
        key_shapes = [  # TI holdouts, TI coin flips, TD coin flips
            ((seed, 0, sims[:, None], np.arange(n_spreads)),
             [(seed, 0, sim, j) for sim in sims.tolist() for j in range(n_spreads)]),
            ((seed, 1, sims), [(seed, 1, sim) for sim in sims.tolist()]),
            ((seed, 1), [(seed, 1)]),
        ]
        for parts, keys in key_shapes:
            streams = list(harness._streams(*parts))
            assert len(streams) == len(keys)
            for rng, key in zip(streams, keys):
                expected = np.random.SeedSequence(key)
                words = rng.bit_generator.seed_seq.generate_state(4, np.uint64)
                assert words.tolist() == expected.generate_state(4, np.uint64).tolist()
                assert rng.bit_generator.state == np.random.default_rng(expected).bit_generator.state

    def test_array_part_past_one_word_rejected(self):
        with pytest.raises(ValueError, match="one 32-bit word"):
            next(harness._streams(0, 0, np.array([0, 2**32])))

    @pytest.mark.parametrize("block", [1, 20, 10**9], ids=["one-simulation", "two-simulations",
                                                           "every-key"])
    def test_run_ti_does_not_depend_on_the_hash_block(self, monkeypatch, block):
        # 6 spreads make 7 keys a simulation; 13 simulations leave a partial block.
        dataset = synthetic_spread_dataset(HALF_SPREADS, 30, cover_probs={-2.5: 0.9}, seed=8)
        config = TiConfig(n_simulations=13, seed=2**32 + 3)
        report = run_ti(dataset, config)
        expected = report.to_dict()
        monkeypatch.setattr(harness, "_HASH_BLOCK", block)
        blocked = run_ti(dataset, config)
        assert blocked.to_dict() == expected
        # Keyed in ascending spread order, whatever order the splits ran in.
        assert list(blocked.selection_counts) == list(report.selection_counts)
        assert list(blocked.selection_counts) == sorted(blocked.selection_counts)

    @pytest.mark.parametrize("n_spreads,n_simulations", [(1, 3000), (6, 500), (40, 60)])
    def test_no_block_holds_more_splits_than_a_hash_block(self, n_spreads, n_simulations):
        # A block stacks its splits' (spreads x grid) training counts, so
        # no run may build every simulation at once.
        dataset = synthetic_spread_dataset([s + 0.5 for s in range(n_spreads)], 12, seed=4)
        config = TiConfig(n_simulations=n_simulations, min_samples=12, holdout_per_spread=1)
        spreads, index = config.valid_spreads(dataset)
        limit = max(1, harness._HASH_BLOCK // (len(spreads) + 1))
        sizes = []
        for split in harness._holdout_splits(dataset, index, config):
            sizes.append(len(split.train))
            assert len(split.outcomes) == len(split.flips) == sizes[-1] <= limit
        assert sum(sizes) == n_simulations

    def test_backtest_does_not_depend_on_how_splits_are_blocked(self, monkeypatch):
        # Blocks of 5 simulations leave a partial block; the single-split
        # blocks check the sweep TI reports drop, summed across blocks.
        monkeypatch.setattr(harness, "_HASH_BLOCK", 40)
        dataset = synthetic_spread_dataset(
            HALF_SPREADS, 30, cover_probs={-2.5: 0.9, 1.5: 0.15}, seed=8
        )
        config = TiConfig(n_simulations=13, seed=5)
        spreads, index = config.valid_spreads(dataset)
        blocks = list(harness._holdout_splits(dataset, index, config))
        assert [len(block.train) for block in blocks] == [5, 5, 3]
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
        assert results.ranked[-1].sum() == 13 * len(blocks[0].rows)
        assert single_results.modal_k == results.modal_k
        assert harness._report("ti", config, spreads, single_results) == harness._report(
            "ti", config, spreads, results
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
    def scalar_floyd(key, n, holdout):
        """Floyd's loop over Lemire-bounded draws in Python ints, on numpy's
        own PCG64 outputs (low half first): the sorted picks and how many
        draws were rejected."""
        bit_generator = np.random.PCG64(np.random.SeedSequence(key))
        halves = (half for _ in iter(int, 1)
                  for out in [int(bit_generator.random_raw())]
                  for half in (out & 0xFFFFFFFF, out >> 32))
        picks, rejected = set(), 0
        for j in range(n - holdout, n):
            scaled = next(halves) * (j + 1) if j else 0
            while j and scaled & 0xFFFFFFFF < 2**32 % (j + 1):
                scaled, rejected = next(halves) * (j + 1), rejected + 1
            value = scaled >> 32
            picks.add(j if value in picks else value)
        return sorted(picks), rejected

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**70 - 1),
        sims=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
        sizes=st.lists(st.integers(1, 10_000), min_size=1, max_size=5),
        data=st.data(),
    )
    def test_picks_equal_numpy_choice(self, seed, sims, sizes, data):
        holdout = data.draw(st.integers(1, min(min(sizes), 64)))
        # The keys and sizes of a TI hash block: every spread of every simulation.
        keys = [(seed, 0, sim, j) for sim in sims for j in range(len(sizes))]
        picks, expected = self.picks(keys, sizes * len(sims), holdout)
        assert picks.dtype == np.int64
        assert picks.tolist() == expected

    def test_populations_near_3e9_reject_draws(self):
        # A bound of about 3e9 leaves 2**32 mod bound near 1.3e9: about 30%
        # of draws are rejected, and a key whose draw is rejected leaves the
        # replay for choice.
        sizes = [3_000_000_001, 2_900_000_000, 3_500_000_000, 4_294_967_295]
        keys = [(2**40 + 9, 0, j) for j in range(len(sizes))]
        picks, expected = self.picks(keys, sizes, 20)
        assert picks.tolist() == expected
        scalar = [self.scalar_floyd(key, n, 20) for key, n in zip(keys, sizes)]
        assert expected == [p for p, _ in scalar]
        # 2**32 - 1 games bound the last draw by 2**32 - 1, where 2**32 mod bound is 1.
        assert [rejected > 0 for _, rejected in scalar] == [True, True, True, False]

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
