"""The array-native TI harness against a scalar reference implementation.

``scalar_run_ti`` is the plain per-(simulation, spread) loop: draw the
holdout, rebuild the training bucket, fit the profile bucket by bucket
with ``conftest.scalar_profile``, rank it with its own tuple sort, and
settle every wager one at a time with ``score_ats``. It shares the
random stream keys with ``run_ti`` and nothing else, so ``run_ti`` must
reproduce its report exactly.
"""

from __future__ import annotations

import datetime as dt
import math
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
    SpreadBucket,
    TiConfig,
    bucket_by_spread,
    predict_max_prob,
    predict_random,
    run_ti,
    score_ats,
    summarize,
)
from spreadbias.models import (
    MODEL_K_LOWEST,
    MODEL_MAX_PROB,
    MODEL_MIN_ENTROPY,
    MODEL_NAMES,
    MODEL_RANDOM,
)
from conftest import reference_ranking, scalar_profile


def _stream(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(key))


def scalar_run_ti(dataset: Dataset, config: TiConfig) -> EvaluationReport:
    buckets = bucket_by_spread(dataset, config.min_samples)
    spreads = [b.spread for b in buckets]
    results = {name: Counter() for name in MODEL_NAMES}
    sim_pcts = {name: [] for name in MODEL_NAMES}
    selections: Counter[float] = Counter()
    ks = []
    profiles = []
    for sim in range(config.n_simulations):
        train, tests = [], []
        for j, bucket in enumerate(buckets):
            rng = _stream(config.seed, 0, sim, j)
            held = set(
                rng.choice(len(bucket), size=config.holdout_per_spread, replace=False).tolist()
            )
            train.append(SpreadBucket(
                bucket.spread,
                tuple(v for i, v in enumerate(bucket.outcomes) if i not in held),
            ))
            tests.append([v for i, v in enumerate(bucket.outcomes) if i in held])
        profile = scalar_profile(
            train, config.bandwidth, config.grid(), config.entropy_threshold, config.kernel
        )
        profiles.append(profile)

        sim_results = {name: Counter() for name in MODEL_NAMES}
        guess_rng = _stream(config.seed, 1, sim)
        for entry, outcomes in zip(profile.entries, tests):
            for outcome in outcomes:
                sim_results[MODEL_RANDOM][
                    score_ats(predict_random(guess_rng), outcome, entry.spread)
                ] += 1
                sim_results[MODEL_MAX_PROB][
                    score_ats(predict_max_prob(entry), outcome, entry.spread)
                ] += 1
        ranked, k = reference_ranking(profile)
        chosen = {MODEL_MIN_ENTROPY: ranked[:1], MODEL_K_LOWEST: ranked[:k]}
        for name, entries in chosen.items():
            for entry in entries:
                decision = predict_max_prob(entry)
                for outcome in tests[spreads.index(entry.spread)]:
                    sim_results[name][score_ats(decision, outcome, entry.spread)] += 1
        ks.append(len(chosen[MODEL_K_LOWEST]))
        selections.update(e.spread for e in chosen[MODEL_K_LOWEST])

        for name, tally in sim_results.items():
            results[name].update(tally)
            settled = tally[AtsResult.WIN] + tally[AtsResult.LOSS]
            if settled:
                sim_pcts[name].append(100.0 * tally[AtsResult.WIN] / settled)

    counts = Counter(ks)
    models = []
    for name in MODEL_NAMES:
        mean, sem = summarize(sim_pcts[name]) if sim_pcts[name] else (None, None)
        k = {MODEL_MIN_ENTROPY: 1, MODEL_K_LOWEST: min(counts, key=lambda k: (-counts[k], k))}
        models.append(ModelSummary(
            name, mean, sem,
            n_test=results[name][AtsResult.WIN] + results[name][AtsResult.LOSS],
            n_push=results[name][AtsResult.PUSH],
            n_wins=results[name][AtsResult.WIN],
            k=k.get(name),
        ))

    profile_rows = []
    for j, bucket in enumerate(buckets):
        entropies = [p.entries[j].entropy_bits for p in profiles]
        profile_rows.append({
            "spread": bucket.spread,
            "p_home": float(np.mean([p.entries[j].p_home for p in profiles])),
            "entropy_bits": float(np.mean(entropies)),
            "entropy_sd": float(np.std(entropies, ddof=1)) if len(entropies) > 1 else None,
            "n_train": len(bucket) - config.holdout_per_spread,
        })
    return EvaluationReport(
        protocol="ti",
        config=asdict(config),
        valid_spreads=tuple(spreads),
        n_test_samples=config.n_simulations * config.holdout_per_spread * len(buckets),
        models=tuple(models),
        profile=tuple(profile_rows),
        selection_counts=dict(selections),
    )


def mixed_dataset() -> Dataset:
    """Whole- and half-point spreads with margins that push and run off a
    narrow grid; two spreads lean so the entropy strategies have picks."""
    rng = np.random.default_rng(2024)
    lean = {-3.0: -5.0, 6.5: 4.0}
    records = []
    for spread in (-7.0, -3.0, -2.5, 0.0, 3.0, 6.5):
        for _ in range(36):
            margin = int(round(spread + lean.get(spread, 0.0) + rng.normal(0.0, 9.0)))
            i = len(records)
            records.append(GameRecord(
                date=dt.date(2010, 1, 1) + dt.timedelta(days=i),
                home_team=f"H{i}",
                visitor_team=f"V{i}",
                home_score=40,
                visitor_score=40 + margin,
                spread=spread,
            ))
    return Dataset(tuple(records))


CASES = {
    "gaussian": {},
    "boxcar": {"kernel": "boxcar"},
    "triangular": {"kernel": "triangular", "bandwidth": 2.5},
    "clamping-grid": {"grid_lo": -10, "grid_hi": 10},
    "one-simulation": {"n_simulations": 1},
    "threshold-0": {"entropy_threshold": 0.0},
    "threshold-1": {"entropy_threshold": 1.0},
    # Seeds of 2**32 or more coerce to several 32-bit words.
    "seed-2^32+5": {"seed": 2**32 + 5},
    "seed-2^64": {"seed": 2**64},
}


@pytest.mark.parametrize("overrides", CASES.values(), ids=CASES.keys())
def test_run_ti_equals_scalar_reference(overrides):
    dataset = mixed_dataset()
    config = TiConfig(**{"n_simulations": 12, "seed": 17, **overrides})
    expected = scalar_run_ti(dataset, config).to_dict()
    assert run_ti(dataset, config).to_dict() == expected


def test_reference_dataset_exercises_pushes_and_clamping():
    dataset = mixed_dataset()
    outcomes = [r.outcome for r in dataset]
    assert any(r.outcome == r.spread for r in dataset)
    assert min(outcomes) < -10 and max(outcomes) > 10
    report = scalar_run_ti(dataset, TiConfig(n_simulations=12, seed=17))
    assert all(m.n_push > 0 for m in report.models if m.model != MODEL_MIN_ENTROPY)
    assert report.selection_counts
    assert not math.isclose(report.models[0].ats_win_pct, report.models[1].ats_win_pct)


def test_entropy_tie_breaks_toward_smaller_absolute_spread():
    # Every margin is -3, so the -3.0 and -2.5 buckets fit identical
    # densities and entropies whatever is held out. Min-Ent must take
    # -2.5, where -3 wins for home, not -3.0, where it pushes.
    records = [
        GameRecord(dt.date(2012, 1, 1) + dt.timedelta(days=i), f"H{i}", f"V{i}", 23, 20, spread)
        for i, spread in enumerate([-3.0, -2.5] * 30)
    ]
    dataset = Dataset(tuple(records))
    config = TiConfig(n_simulations=4, seed=3)
    report = run_ti(dataset, config)
    assert report.to_dict() == scalar_run_ti(dataset, config).to_dict()
    min_ent = report.models[MODEL_NAMES.index(MODEL_MIN_ENTROPY)]
    assert (min_ent.n_wins, min_ent.n_push) == (4 * 10, 0)
