"""The array-native TD harness against a scalar reference implementation.

``scalar_run_td`` is the plain per-record loop: split by each record's
year, group the training games with ``conftest.reference_buckets``, fit
the profile bucket by bucket with ``conftest.scalar_profile``, flip one coin per test game with
``predict_random``, and settle every wager one at a time with
``score_ats``. ``scalar_sweep_k`` pools the Max-Prob wagers spread by
spread in the order of its own tuple sort. They share the random stream
key with ``run_td`` and nothing else, so ``run_td`` must reproduce their
report exactly.
"""

from __future__ import annotations

import datetime as dt
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from spreadbias import (
    AtsResult,
    Dataset,
    EvaluationReport,
    GameRecord,
    ModelSummary,
    TdConfig,
    predict_max_prob,
    predict_random,
    run_td,
    score_ats,
)
from spreadbias.models import MODEL_K_LOWEST, MODEL_MAX_PROB, MODEL_MIN_ENTROPY, MODEL_RANDOM
from conftest import reference_buckets, reference_ranking, scalar_profile


def _pct(tally: Counter) -> float | None:
    settled = tally[AtsResult.WIN] + tally[AtsResult.LOSS]
    return 100.0 * tally[AtsResult.WIN] / settled if settled else None


def _summary(name: str, tally: Counter, k: int | None = None) -> ModelSummary:
    return ModelSummary(
        name, _pct(tally), None,
        n_test=tally[AtsResult.WIN] + tally[AtsResult.LOSS],
        n_push=tally[AtsResult.PUSH],
        n_wins=tally[AtsResult.WIN],
        k=k,
    )


def scalar_sweep_k(profile, records) -> tuple[list[dict], list[Counter]]:
    ranked, k_threshold = reference_ranking(profile)
    tally: Counter = Counter()
    rows, tallies = [], []
    for k, entry in enumerate(ranked, start=1):
        decision = predict_max_prob(entry)
        for record in records:
            if record.spread == entry.spread:
                tally[score_ats(decision, record.outcome, record.spread)] += 1
        tallies.append(Counter(tally))
        rows.append({
            "k": k,
            "ats_win_pct": _pct(tally),
            "n_wins": tally[AtsResult.WIN],
            "n_test": tally[AtsResult.WIN] + tally[AtsResult.LOSS],
            "n_push": tally[AtsResult.PUSH],
            "threshold_selected": k == k_threshold,
        })
    return rows, tallies


def scalar_run_td(dataset: Dataset, config: TdConfig) -> EvaluationReport:
    train = [r for r in dataset if r.date.year < config.cutoff_year]
    test = [r for r in dataset if r.date.year >= config.cutoff_year]
    profile = scalar_profile(
        reference_buckets(train, config.min_samples),
        config.bandwidth, config.grid(), config.entropy_threshold, config.kernel,
    )
    entry_by_spread = {e.spread: e for e in profile.entries}
    test_records = sorted(
        (r for r in test if r.spread in entry_by_spread),
        key=lambda r: (r.spread, r.date, r.home_team, r.visitor_team),
    )
    random_tally: Counter = Counter()
    max_prob_tally: Counter = Counter()
    guess_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
    for record in test_records:
        entry = entry_by_spread[record.spread]
        random_tally[score_ats(predict_random(guess_rng), record.outcome, record.spread)] += 1
        max_prob_tally[score_ats(predict_max_prob(entry), record.outcome, record.spread)] += 1

    rows, tallies = scalar_sweep_k(profile, test_records)
    ranked, k = reference_ranking(profile)
    models = (
        _summary(MODEL_RANDOM, random_tally),
        _summary(MODEL_MAX_PROB, max_prob_tally),
        _summary(MODEL_MIN_ENTROPY, tallies[0], k=1),
        _summary(MODEL_K_LOWEST, tallies[k - 1] if k else Counter(), k=k),
    )
    return EvaluationReport(
        protocol="td",
        config=asdict(config),
        valid_spreads=tuple(e.spread for e in profile.entries),
        n_test_samples=len(test_records),
        models=models,
        profile=tuple(
            {"spread": e.spread, "p_home": e.p_home, "entropy_bits": e.entropy_bits,
             "n_train": e.n_train}
            for e in profile.entries
        ),
        ksweep=tuple(rows),
        selection_counts={e.spread: 1 for e in ranked[:k]},
        n_train_records=len(train),
        n_test_records=len(test),
    )


def _game(i: int, year: int, spread: float, margin: int) -> GameRecord:
    date = dt.date(year, 1, 1) + dt.timedelta(days=i % 300)
    return GameRecord(date, f"H{i}", f"V{i}", 40, 40 + margin, spread)


def td_dataset() -> Dataset:
    """Training games before 2017 and test games in it, at whole- and
    half-point spreads with margins that push and run off a narrow grid;
    two spreads lean so the entropy strategies have picks. Test games at
    9.5 have no training spread and are dropped. The 7.5 training margins
    (-12..0) make a boxcar density of bandwidth 3 that lies wholly at or
    below 7.5, a certain cover."""
    rng = np.random.default_rng(2025)
    lean = {-3.0: -5.0, 6.5: 4.0}
    records = []
    for spread in (-7.0, -3.0, -2.5, 0.0, 3.0, 6.5):
        for year, n in ((2015, 36), (2017, 12)):
            for _ in range(n):
                margin = int(round(spread + lean.get(spread, 0.0) + rng.normal(0.0, 9.0)))
                records.append(_game(len(records), year, spread, margin))
    records += [_game(len(records), 2015, 7.5, -12 + i % 13) for i in range(30)]
    records += [_game(len(records), 2017, 7.5, margin) for margin in (-3, 9, 8, -1)]
    records += [_game(len(records), 2017, 9.5, margin) for margin in (2, 15)]
    return Dataset(tuple(records))


CASES = {
    "gaussian": {},
    "boxcar-certain-cover": {"kernel": "boxcar", "bandwidth": 3.0},
    "triangular": {"kernel": "triangular", "bandwidth": 2.5},
    "clamping-grid": {"grid_lo": -10, "grid_hi": 10},
    "threshold-0": {"entropy_threshold": 0.0},
    "threshold-1": {"entropy_threshold": 1.0},
    "seed-9": {"seed": 9},
    # Seeds of 2**32 or more coerce to several 32-bit words.
    "seed-2^32+9": {"seed": 2**32 + 9},
    "seed-2^64+7": {"seed": 2**64 + 7},
}


@pytest.mark.parametrize("overrides", CASES.values(), ids=CASES.keys())
def test_run_td_equals_scalar_reference(overrides):
    dataset = td_dataset()
    config = TdConfig(**{"min_samples": 20, **overrides})
    expected = scalar_run_td(dataset, config).to_dict()
    assert run_td(dataset, config).to_dict() == expected


def test_reference_dataset_exercises_pushes_clamping_and_a_certain_cover():
    dataset = td_dataset()
    assert any(r.outcome == r.spread for r in dataset if r.date.year == 2017)
    outcomes = [r.outcome for r in dataset]
    assert min(outcomes) < -10 and max(outcomes) > 10
    report = scalar_run_td(dataset, TdConfig(min_samples=20, kernel="boxcar", bandwidth=3.0))
    assert {"spread": 7.5, "p_home": 1.0, "entropy_bits": 0.0, "n_train": 30} in report.profile
    assert all(m.n_push > 0 for m in report.models if m.model in (MODEL_RANDOM, MODEL_MAX_PROB))
    assert len(report.selection_counts) >= 2
    assert report.n_test_samples < report.n_test_records


def test_entropy_tie_breaks_toward_smaller_absolute_spread():
    # Every margin is -3, so the -3.0 and -2.5 buckets fit identical
    # densities and entropies. Min-Ent must take -2.5, where -3 wins for
    # home, not -3.0, where it pushes.
    records = [
        _game(i, year, spread, -3)
        for i, (year, spread) in enumerate([(2015, -3.0), (2015, -2.5)] * 20
                                            + [(2017, -3.0), (2017, -2.5)] * 4)
    ]
    dataset = Dataset(tuple(records))
    config = TdConfig(min_samples=15)
    report = run_td(dataset, config)
    assert report.to_dict() == scalar_run_td(dataset, config).to_dict()
    min_ent = next(m for m in report.models if m.model == MODEL_MIN_ENTROPY)
    assert (min_ent.n_wins, min_ent.n_push) == (4, 0)
