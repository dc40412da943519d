"""Holdout and date-split harness behavior on synthetic datasets."""

from __future__ import annotations

import io
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
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
    sweep_k,
)
from spreadbias.bias import build_profile
from spreadbias.data import bucket_by_spread
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

    def test_valid_buckets_reject_spreads_off_the_grid(self):
        ds = synthetic_spread_dataset([-10.0, 9.5, 10.0], 30, seed=4)
        config = FitConfig(grid_lo=-10, grid_hi=11)
        assert [b.spread for b in config.valid_buckets(ds)] == [-10.0, 9.5, 10.0]
        message = r"spread 10 lies outside the outcome grid \[-10, 10\)"
        with pytest.raises(ValueError, match=message):
            FitConfig(grid_lo=-10, grid_hi=10).valid_buckets(ds)
        with pytest.raises(ValueError, match=r"spread -10 lies outside"):
            FitConfig(grid_lo=-9, grid_hi=11).valid_buckets(ds)
        # Spreads under min_samples are not fitted, so they are not checked.
        assert FitConfig(grid_lo=-9, grid_hi=10, min_samples=31).valid_buckets(ds) == []


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


class TestSweepK:
    def test_counts_accumulate_per_selected_spread(self):
        ds = synthetic_spread_dataset(HALF_SPREADS, 30, seed=20)
        profile = build_profile(bucket_by_spread(ds, 25))
        records = list(ds)[:40]
        rows = sweep_k(profile, records)
        assert [row["k"] for row in rows] == list(range(1, len(HALF_SPREADS) + 1))
        # Each row's sample count equals the records at its k selected spreads.
        from spreadbias import k_lowest_spreads

        for row in rows:
            chosen = {e.spread for e in k_lowest_spreads(profile, row["k"])}
            expected = sum(1 for r in records if r.spread in chosen)
            assert row["n_test"] + row["n_push"] == expected

    def test_full_sweep_pools_everything(self):
        ds = synthetic_spread_dataset(HALF_SPREADS, 30, seed=20)
        profile = build_profile(bucket_by_spread(ds, 25))
        records = list(ds)
        rows = sweep_k(profile, records)
        assert rows[-1]["n_test"] + rows[-1]["n_push"] == len(records)
