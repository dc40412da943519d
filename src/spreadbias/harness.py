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
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .bias import (
    DEFAULT_ENTROPY_THRESHOLD,
    BiasProfile,
    build_profile,
    profile_arrays,
    rank_spreads,
)
from .data import Dataset, GameRecord, SpreadBucket, bucket_by_spread, split_by_date
from .density import (
    DEFAULT_BANDWIDTH,
    DEFAULT_GRID_HI,
    DEFAULT_GRID_LO,
    KERNELS,
    OutcomeGrid,
    outcome_counts,
)
from .models import MODEL_K_LOWEST, MODEL_MIN_ENTROPY, MODEL_NAMES, settle_ats

# Stream tags keep the holdout sampler and the coin-flip model on
# non-overlapping deterministic substreams of the config seed.
_HOLDOUT_STREAM = 0
_GUESS_STREAM = 1


def _stream(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(key))


@dataclass(frozen=True)
class FitConfig:
    """Settings of one bias-profile fit: which spreads are valid, and the
    kernel density, grid and threshold behind each valid spread's entropy."""

    min_samples: int = 25
    entropy_threshold: float = DEFAULT_ENTROPY_THRESHOLD
    bandwidth: float = DEFAULT_BANDWIDTH
    grid_lo: int = DEFAULT_GRID_LO
    grid_hi: int = DEFAULT_GRID_HI
    kernel: str = "gaussian"
    seed: int = 0

    def __post_init__(self):
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= self.entropy_threshold <= 1.0:
            raise ValueError("entropy_threshold must lie in [0, 1]")
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")
        if self.grid_lo >= self.grid_hi:
            raise ValueError("grid_lo must be below grid_hi")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def grid(self) -> OutcomeGrid:
        return OutcomeGrid(self.grid_lo, self.grid_hi)

    def valid_buckets(self, dataset: Dataset) -> list[SpreadBucket]:
        """The buckets of ``dataset`` with at least ``min_samples`` outcomes.

        Raises ValueError for a valid spread outside ``[grid_lo, grid_hi)``:
        its home cover probability would be pinned to 0 or 1, and so its
        entropy to 0 bits, whatever its games did.
        """
        buckets = bucket_by_spread(dataset, self.min_samples)
        for bucket in buckets:
            if not self.grid_lo <= bucket.spread < self.grid_hi:
                raise ValueError(
                    f"spread {bucket.spread:g} lies outside the outcome grid "
                    f"[{self.grid_lo}, {self.grid_hi})"
                )
        return buckets


@dataclass(frozen=True)
class TiConfig(FitConfig):
    """Settings for the repeated-random-holdout (date-agnostic) protocol."""

    n_simulations: int = 200
    holdout_per_spread: int = 10

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
        super().__post_init__()


@dataclass(frozen=True)
class TdConfig(FitConfig):
    """Settings for the one-shot date-split protocol."""

    min_samples: int = 15
    cutoff_year: int = 2017


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


class _Tally(NamedTuple):
    """Loss, push and win counts (``settle_ats`` codes -1, 0 and 1, in
    that order) with a push-excluded win percentage."""

    losses: int
    pushes: int
    wins: int

    @property
    def settled(self) -> int:
        return self.wins + self.losses

    @property
    def pct(self) -> float | None:
        if self.settled == 0:
            return None
        return 100.0 * self.wins / self.settled


def _ranked_counts(results: np.ndarray, rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Loss/push/win counts of ``settle_ats`` results pooled over the first
    k spreads of ``order``, one row for each k from 0 to all spreads.

    ``rows`` holds the spread index of each result and broadcasts
    against ``results``.
    """
    n = len(order)
    counts = np.bincount((3 * rows + results + 1).ravel(), minlength=3 * n).reshape(n, 3)
    return np.vstack([np.zeros((1, 3), dtype=counts.dtype), np.cumsum(counts[order], axis=0)])


def _model_counts(random_results: np.ndarray, ranked: np.ndarray, k: int) -> np.ndarray:
    """Loss/push/win counts, one row per strategy in ``MODEL_NAMES`` order,
    from the Random results and the ``_ranked_counts`` of the Max-Prob
    results: Max-Prob wagers at every spread, Min-Ent at the most biased
    one and k-Lowest at the k most biased."""
    random_counts = np.bincount(random_results.ravel() + 1, minlength=3)
    return np.array([random_counts, ranked[-1], ranked[1], ranked[k]])


def _summaries(totals: np.ndarray, estimates: list[tuple], k: int) -> tuple[ModelSummary, ...]:
    """One ModelSummary per strategy from its row of pooled counts and its
    (win percentage, SEM); ``k`` is the k-Lowest selection size."""
    model_k = {MODEL_MIN_ENTROPY: 1, MODEL_K_LOWEST: k}
    summaries = []
    for name, counts, (pct, sem) in zip(MODEL_NAMES, totals.tolist(), estimates):
        tally = _Tally(*counts)
        summaries.append(ModelSummary(
            name, pct, sem, tally.settled, tally.pushes, tally.wins, model_k.get(name)
        ))
    return tuple(summaries)


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
    # TiConfig keeps min_samples above holdout_per_spread, so every valid
    # bucket keeps at least one training outcome.
    buckets = config.valid_buckets(dataset)
    if not buckets:
        raise ValueError(
            f"no spread has at least min_samples={config.min_samples} outcomes"
        )
    spreads = np.array([b.spread for b in buckets])
    n_spreads = len(buckets)
    n_sims = config.n_simulations
    holdout = config.holdout_per_spread
    sizes = [len(b) for b in buckets]
    starts = np.cumsum([0] + sizes[:-1])[:, None]
    all_outcomes = np.concatenate([np.asarray(b.outcomes, dtype=np.int64) for b in buckets])
    full_counts = np.vstack([outcome_counts(b.outcomes, grid) for b in buckets])

    sim_counts = np.empty((n_sims, len(MODEL_NAMES), 3), dtype=np.int64)
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
        _, p_home, entropy = profile_arrays(
            full_counts - outcome_counts(tests, grid), spreads,
            config.bandwidth, grid, config.kernel,
        )
        p_homes[:, sim] = p_home
        entropies[:, sim] = entropy

        # Coin flips in spread-then-holdout order; below 0.5 backs the Visitor.
        flips = _stream(config.seed, _GUESS_STREAM, sim).random(n_spreads * holdout)
        random_results = settle_ats(
            flips.reshape(n_spreads, holdout) < 0.5, tests, spreads[:, None]
        )
        # Max-Prob backs the Visitor only on a strict edge; ties go Home.
        results = settle_ats((1.0 - p_home > p_home)[:, None], tests, spreads[:, None])
        order, k = rank_spreads(entropy, spreads, config.entropy_threshold)
        ks.append(k)
        selection_counter.update(spreads[order[:k]].tolist())

        ranked = _ranked_counts(results, np.arange(n_spreads)[:, None], order)
        sim_counts[sim] = _model_counts(random_results, ranked, k)

    estimates = []
    for model_counts in sim_counts.transpose(1, 0, 2).tolist():
        pcts = [t.pct for t in (_Tally(*c) for c in model_counts) if t.settled]
        estimates.append(summarize(pcts) if pcts else (None, None))
    summaries = _summaries(sim_counts.sum(axis=0), estimates, _modal_k(ks))

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


def _max_prob_ranked(
    profile: BiasProfile, records: Sequence[GameRecord]
) -> tuple[np.ndarray, int, np.ndarray]:
    """Rank the profile's spreads and settle Max-Prob on the test games at
    them: the rank order and threshold k from ``rank_spreads``, and the
    ``_ranked_counts`` of the Max-Prob results."""
    index = {e.spread: j for j, e in enumerate(profile.entries)}
    rows, outcomes = np.array(
        [(index[r.spread], r.outcome) for r in records if r.spread in index], dtype=np.int64
    ).reshape(-1, 2).T
    spreads = np.array([e.spread for e in profile.entries])
    order, k = rank_spreads([e.entropy_bits for e in profile.entries], spreads, profile.threshold)
    # Max-Prob backs the Visitor only on a strict edge; ties go Home.
    backs_visitor = np.array([e.p_visitor > e.p_home for e in profile.entries])
    results = settle_ats(backs_visitor[rows], outcomes, spreads[rows])
    return order, k, _ranked_counts(results, rows, order)


def _sweep_rows(ranked: np.ndarray, k_threshold: int) -> list[dict]:
    rows = []
    for k, counts in enumerate(ranked[1:].tolist(), start=1):
        tally = _Tally(*counts)
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


def sweep_k(
    profile: BiasProfile, records: Sequence[GameRecord]
) -> list[dict]:
    """Settle the k-lowest-entropy strategy for every k from 1 to all spreads.

    ``records`` are the test games; those at spreads outside the profile
    are ignored. Each row carries the pooled win percentage and settled
    count; the row whose k equals the threshold-mode selection is flagged.
    """
    _, k, ranked = _max_prob_ranked(profile, records)
    return _sweep_rows(ranked, k)


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

    buckets = config.valid_buckets(train)
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

    order, k, ranked = _max_prob_ranked(profile, test_records)
    # One coin flip per test game, in test_records order.
    flips = _stream(config.seed, _GUESS_STREAM).random(len(test_records))
    random_results = settle_ats(
        flips < 0.5, [r.outcome for r in test_records], [r.spread for r in test_records]
    )
    totals = _model_counts(random_results, ranked, k)
    estimates = [(_Tally(*counts).pct, None) for counts in totals.tolist()]

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
        models=_summaries(totals, estimates, k),
        profile=profile_rows,
        ksweep=tuple(_sweep_rows(ranked, k)),
        selection_counts={spreads[j]: 1 for j in order[:k].tolist()},
        n_train_records=len(train),
        n_test_records=len(test),
    )
