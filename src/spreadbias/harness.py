"""Backtest harnesses: repeated-random-holdout and date-split evaluations.

Two protocols are provided. The temporally-independent (TI) harness
ignores game dates: for each of N simulations it holds out a fixed number
of outcomes per valid spread, fits the bias profile on the rest, and lets
every strategy wager on the held-out games, aggregating mean and SEM of
the per-simulation win percentages. The temporally-dependent (TD) harness
splits once by date, fits on the past, wagers on the future, and sweeps
the k-lowest-entropy strategy over every k.

All randomness derives from named streams spawned off the config seed, so
a run is reproducible bit for bit and TI simulations could be evaluated in
any order (results are reduced in simulation-index order regardless).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .bias import (
    DEFAULT_ENTROPY_THRESHOLD,
    BiasProfile,
    binary_entropy,
    build_profile,
    _bias_rank,
)
from .data import Dataset, GameRecord, bucket_by_spread, split_by_date
from .density import (
    DEFAULT_BANDWIDTH,
    DEFAULT_GRID_HI,
    DEFAULT_GRID_LO,
    KERNELS,
    OutcomeGrid,
    cover_probabilities,
    densities,
    outcome_counts,
)
from .models import (
    MODEL_K_LOWEST,
    MODEL_MAX_PROB,
    MODEL_MIN_ENTROPY,
    MODEL_NAMES,
    MODEL_RANDOM,
    AtsResult,
    predict_max_prob,
    predict_random,
    score_ats,
    settle_ats,
)

# Stream tags keep the holdout sampler and the coin-flip model on
# non-overlapping deterministic substreams of the config seed.
_HOLDOUT_STREAM = 0
_GUESS_STREAM = 1


def _stream(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(key))


@dataclass(frozen=True)
class TiConfig:
    """Settings for the repeated-random-holdout (date-agnostic) protocol."""

    n_simulations: int = 200
    holdout_per_spread: int = 10
    min_samples: int = 25
    entropy_threshold: float = DEFAULT_ENTROPY_THRESHOLD
    bandwidth: float = DEFAULT_BANDWIDTH
    grid_lo: int = DEFAULT_GRID_LO
    grid_hi: int = DEFAULT_GRID_HI
    kernel: str = "gaussian"
    seed: int = 0

    def __post_init__(self):
        if self.n_simulations < 1:
            raise ValueError("n_simulations must be >= 1")
        if self.holdout_per_spread < 1:
            raise ValueError("holdout_per_spread must be >= 1")
        if self.min_samples - self.holdout_per_spread < 1:
            raise ValueError(
                "min_samples must exceed holdout_per_spread so each valid "
                "spread keeps at least one training sample"
            )
        _validate_shared(self)

    def grid(self) -> OutcomeGrid:
        return OutcomeGrid(self.grid_lo, self.grid_hi)


@dataclass(frozen=True)
class TdConfig:
    """Settings for the one-shot date-split protocol."""

    cutoff_year: int = 2017
    min_samples: int = 15
    entropy_threshold: float = DEFAULT_ENTROPY_THRESHOLD
    bandwidth: float = DEFAULT_BANDWIDTH
    grid_lo: int = DEFAULT_GRID_LO
    grid_hi: int = DEFAULT_GRID_HI
    kernel: str = "gaussian"
    seed: int = 0

    def __post_init__(self):
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        _validate_shared(self)

    def grid(self) -> OutcomeGrid:
        return OutcomeGrid(self.grid_lo, self.grid_hi)


def _validate_shared(config) -> None:
    if not config.bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    if not 0.0 <= config.entropy_threshold <= 1.0:
        raise ValueError("entropy_threshold must lie in [0, 1]")
    if config.kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {config.kernel!r}")
    if config.grid_lo >= config.grid_hi:
        raise ValueError("grid_lo must be below grid_hi")
    if config.seed < 0:
        raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class ModelSummary:
    """Aggregate wagering performance for one strategy.

    ``ats_win_pct`` is the mean per-simulation win percentage under TI and
    the pooled win percentage under TD; it is None when the strategy placed
    no settled wagers. ``sem`` is the standard error across simulations
    (TI only). Pushes are excluded from ``n_test`` and from percentages.
    """

    model: str
    ats_win_pct: float | None
    sem: float | None
    n_test: int
    n_push: int
    n_wins: int
    k: int | None = None


@dataclass(frozen=True)
class EvaluationReport:
    """Full result of one harness run; serializable via ``to_dict``."""

    protocol: str
    config: dict
    valid_spreads: tuple[float, ...]
    n_test_samples: int
    models: tuple[ModelSummary, ...]
    profile: tuple[dict, ...]
    ksweep: tuple[dict, ...] | None = None
    selection_counts: dict[float, int] | None = None
    n_train_records: int | None = None
    n_test_records: int | None = None

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "config": dict(self.config),
            "valid_spreads": list(self.valid_spreads),
            "n_test_samples": self.n_test_samples,
            "models": [asdict(m) for m in self.models],
            "profile": [dict(row) for row in self.profile],
            "ksweep": None if self.ksweep is None else [dict(r) for r in self.ksweep],
            "selection_counts": None
            if self.selection_counts is None
            else {_spread_key(s): c for s, c in sorted(self.selection_counts.items())},
            "n_train_records": self.n_train_records,
            "n_test_records": self.n_test_records,
        }


def _spread_key(spread: float) -> str:
    return f"{spread:g}"


class _Tally:
    """Win/loss/push counter with push-excluded percentage."""

    __slots__ = ("wins", "losses", "pushes")

    def __init__(self, wins: int = 0, losses: int = 0, pushes: int = 0):
        self.wins = wins
        self.losses = losses
        self.pushes = pushes

    @classmethod
    def of(cls, results: np.ndarray) -> _Tally:
        """Count an array of ``settle_ats`` results."""
        losses, pushes, wins = np.bincount(results.ravel() + 1, minlength=3).tolist()
        return cls(wins, losses, pushes)

    def add(self, result: AtsResult) -> None:
        if result is AtsResult.WIN:
            self.wins += 1
        elif result is AtsResult.LOSS:
            self.losses += 1
        else:
            self.pushes += 1

    def merge(self, other: _Tally) -> None:
        self.wins += other.wins
        self.losses += other.losses
        self.pushes += other.pushes

    @property
    def settled(self) -> int:
        return self.wins + self.losses

    @property
    def pct(self) -> float | None:
        if self.settled == 0:
            return None
        return 100.0 * self.wins / self.settled


def summarize(per_simulation_win_pcts: Sequence[float]) -> tuple[float, float | None]:
    """Mean and standard error of per-simulation win percentages.

    The SEM uses the n-1 sample standard deviation over sqrt(n); with a
    single value it is undefined and reported as None.
    """
    values = list(per_simulation_win_pcts)
    if not values:
        raise ValueError("no values to summarize")
    mean = float(np.mean(values))
    if len(values) == 1:
        return mean, None
    return mean, float(np.std(values, ddof=1) / math.sqrt(len(values)))


def _threshold_k(profile: BiasProfile) -> int:
    return sum(1 for e in profile.entries if e.entropy_bits < profile.threshold)


def run_ti(dataset: Dataset, config: TiConfig) -> EvaluationReport:
    """Monte Carlo backtest with repeated per-spread random holdouts.

    Valid spreads are found once on the full dataset. Each simulation then
    holds out ``holdout_per_spread`` outcomes per valid spread (sampled
    without replacement from a stream keyed on seed, simulation index, and
    spread index), fits the bias profile on the remainder, and settles
    every strategy's wagers on the held-out outcomes. Win percentages are
    aggregated across simulations as mean and SEM.

    A simulation works on one (spreads x grid) block: each spread's
    training histogram is its full-bucket histogram minus that of its
    holdouts, and all spreads are smoothed and settled together.
    """
    grid = config.grid()
    buckets = bucket_by_spread(dataset, config.min_samples)
    if not buckets:
        raise ValueError(
            f"no spread has at least min_samples={config.min_samples} outcomes"
        )
    for bucket in buckets:
        if len(bucket) < config.holdout_per_spread + 1:
            raise ValueError(
                f"spread {bucket.spread:g} has {len(bucket)} samples, too few "
                f"to hold out {config.holdout_per_spread} and still train"
            )
    spreads = np.array([b.spread for b in buckets])
    n_spreads = len(buckets)
    n_sims = config.n_simulations
    holdout = config.holdout_per_spread
    sizes = [len(b) for b in buckets]
    starts = np.cumsum([0] + sizes[:-1])[:, None]
    all_outcomes = np.concatenate([np.asarray(b.outcomes, dtype=np.int64) for b in buckets])
    full_counts = np.vstack([outcome_counts(b.outcomes, grid) for b in buckets])

    totals = {name: _Tally() for name in MODEL_NAMES}
    sim_pcts: dict[str, list[float]] = {name: [] for name in MODEL_NAMES}
    selection_counter: Counter[float] = Counter()
    ks: list[int] = []
    p_homes = np.empty((n_spreads, n_sims))
    entropies = np.empty((n_spreads, n_sims))

    for sim in range(n_sims):
        picks = np.array([
            _stream(config.seed, _HOLDOUT_STREAM, sim, j).choice(size, holdout, replace=False)
            for j, size in enumerate(sizes)
        ])
        # Holdouts in bucket order, so they pair with the coin flips below
        # exactly as a per-outcome loop would.
        tests = all_outcomes[starts + np.sort(picks, axis=1)]
        mass = densities(
            full_counts - outcome_counts(tests, grid), config.bandwidth, grid, config.kernel
        )
        p_home = cover_probabilities(mass, grid, spreads)
        entropy = np.array([binary_entropy(p) for p in p_home.tolist()])
        p_homes[:, sim] = p_home
        entropies[:, sim] = entropy

        # Coin flips in spread-then-holdout order; Visitor below 0.5, as
        # in predict_random.
        flips = _stream(config.seed, _GUESS_STREAM, sim).random(n_spreads * holdout)
        random_results = settle_ats(
            flips.reshape(n_spreads, holdout) < 0.5, tests, spreads[:, None]
        )
        # Max-prob side as in predict_max_prob: Visitor only on a strict edge.
        results = settle_ats((1.0 - p_home > p_home)[:, None], tests, spreads[:, None])
        # Same order as bias._bias_rank: entropy, then |spread|, then spread.
        order = np.lexsort((spreads, np.abs(spreads), entropy))
        selected = order[: np.count_nonzero(entropy < config.entropy_threshold)]
        ks.append(len(selected))
        selection_counter.update(spreads[selected].tolist())

        sim_results = {
            MODEL_RANDOM: random_results,
            MODEL_MAX_PROB: results,
            MODEL_MIN_ENTROPY: results[order[0]],
            MODEL_K_LOWEST: results[selected],
        }
        for name, model_results in sim_results.items():
            tally = _Tally.of(model_results)
            totals[name].merge(tally)
            if tally.pct is not None:
                sim_pcts[name].append(tally.pct)

    model_k = {MODEL_MIN_ENTROPY: 1, MODEL_K_LOWEST: _modal_k(ks)}
    summaries = tuple(
        ModelSummary(
            name,
            *(summarize(sim_pcts[name]) if sim_pcts[name] else (None, None)),
            n_test=totals[name].settled,
            n_push=totals[name].pushes,
            n_wins=totals[name].wins,
            k=model_k.get(name),
        )
        for name in MODEL_NAMES
    )

    profile_rows = tuple(
        {
            "spread": bucket.spread,
            "p_home": float(np.mean(p_homes[j])),
            "entropy_bits": float(np.mean(entropies[j])),
            "entropy_sd": float(np.std(entropies[j], ddof=1)) if n_sims > 1 else None,
            "n_train": len(bucket) - holdout,
        }
        for j, bucket in enumerate(buckets)
    )

    return EvaluationReport(
        protocol="ti",
        config=asdict(config),
        valid_spreads=tuple(b.spread for b in buckets),
        n_test_samples=n_sims * holdout * n_spreads,
        models=summaries,
        profile=profile_rows,
        selection_counts=dict(selection_counter),
    )


def _modal_k(ks: Iterable[int]) -> int:
    counts = Counter(ks)
    return min(counts, key=lambda k: (-counts[k], k))


def sweep_k(
    profile: BiasProfile, records: Sequence[GameRecord]
) -> list[dict]:
    """Settle the k-lowest-entropy strategy for every k from 1 to all spreads.

    ``records`` are the test games, already restricted to the profile's
    spreads. Each row carries the pooled win percentage and settled count;
    the row whose k equals the threshold-mode selection is flagged.
    """
    by_spread: dict[float, list[GameRecord]] = {}
    for record in records:
        by_spread.setdefault(record.spread, []).append(record)

    ranked = sorted(profile.entries, key=_bias_rank)
    k_threshold = _threshold_k(profile)
    rows = []
    tally = _Tally()
    for k, entry in enumerate(ranked, start=1):
        decision = predict_max_prob(entry)
        for record in by_spread.get(entry.spread, []):
            tally.add(score_ats(decision, record.outcome, record.spread))
        rows.append(
            {
                "k": k,
                "ats_win_pct": tally.pct,
                "n_wins": tally.wins,
                "n_test": tally.settled,
                "n_push": tally.pushes,
                "threshold_selected": k == k_threshold,
            }
        )
    return rows


def run_td(dataset: Dataset, config: TdConfig) -> EvaluationReport:
    """One-shot backtest: train strictly before the cutoff year, test at it.

    Valid spreads are determined from training bucket sizes only; test
    games at other spreads are dropped. All strategies are settled once,
    and the full k sweep is included.
    """
    train, test = split_by_date(dataset, config.cutoff_year)
    if not train.records:
        raise ValueError(f"no training games before year {config.cutoff_year}")
    if not test.records:
        raise ValueError(f"no test games in year {config.cutoff_year} or later")

    buckets = bucket_by_spread(train, config.min_samples)
    if not buckets:
        raise ValueError(
            f"no training spread has at least min_samples={config.min_samples} outcomes"
        )
    profile = build_profile(
        buckets, config.bandwidth, config.grid(), config.entropy_threshold, config.kernel
    )
    spreads = [e.spread for e in profile.entries]
    valid = set(spreads)
    test_records = sorted(
        (r for r in test if r.spread in valid),
        key=lambda r: (r.spread, r.date, r.home_team, r.visitor_team),
    )

    entry_by_spread = {e.spread: e for e in profile.entries}
    random_tally = _Tally()
    max_prob_tally = _Tally()
    guess_rng = _stream(config.seed, _GUESS_STREAM)
    for record in test_records:
        entry = entry_by_spread[record.spread]
        random_tally.add(
            score_ats(predict_random(guess_rng), record.outcome, record.spread)
        )
        max_prob_tally.add(
            score_ats(predict_max_prob(entry), record.outcome, record.spread)
        )

    rows = sweep_k(profile, test_records)
    k_threshold = _threshold_k(profile)
    min_entropy_row = rows[0]
    if k_threshold >= 1:
        k_lowest_row = rows[k_threshold - 1]
    else:
        k_lowest_row = {"ats_win_pct": None, "n_wins": 0, "n_test": 0, "n_push": 0}

    selected = sorted(e.spread for e in profile.entries if e.entropy_bits < profile.threshold)
    summaries = (
        ModelSummary(
            MODEL_RANDOM, random_tally.pct, None,
            random_tally.settled, random_tally.pushes, random_tally.wins,
        ),
        ModelSummary(
            MODEL_MAX_PROB, max_prob_tally.pct, None,
            max_prob_tally.settled, max_prob_tally.pushes, max_prob_tally.wins,
        ),
        ModelSummary(
            MODEL_MIN_ENTROPY, min_entropy_row["ats_win_pct"], None,
            min_entropy_row["n_test"], min_entropy_row["n_push"], min_entropy_row["n_wins"],
            k=1,
        ),
        ModelSummary(
            MODEL_K_LOWEST, k_lowest_row["ats_win_pct"], None,
            k_lowest_row["n_test"], k_lowest_row["n_push"], k_lowest_row["n_wins"],
            k=k_threshold,
        ),
    )

    profile_rows = tuple(
        {
            "spread": e.spread,
            "p_home": e.p_home,
            "entropy_bits": e.entropy_bits,
            "n_train": e.n_train,
        }
        for e in profile.entries
    )

    return EvaluationReport(
        protocol="td",
        config=asdict(config),
        valid_spreads=tuple(spreads),
        n_test_samples=len(test_records),
        models=summaries,
        profile=profile_rows,
        ksweep=tuple(rows),
        selection_counts={s: 1 for s in selected},
        n_train_records=len(train),
        n_test_records=len(test),
    )
