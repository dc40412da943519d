"""Backtest harnesses: repeated-random-holdout and date-split evaluations.

Both protocols run one evaluation step over a list of train/test splits
of the valid spreads: fit the bias profile on each split's training
games, rank the spreads, and let every strategy wager on the split's test
games; the splits' win percentages are then reduced to a mean and SEM.
The temporally-independent (TI) harness ignores game dates and makes N
splits, each holding out a fixed number of outcomes per valid spread.
The temporally-dependent (TD) harness is the single-split case: it
splits once by date, fits on the past, wagers on the future, and also
sweeps the k-lowest-entropy strategy over every k.

All randomness derives from named streams keyed on the config seed, so
a run is reproducible bit for bit and TI simulations could be evaluated in
any order (results are reduced in simulation-index order regardless).
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .bias import (
    DEFAULT_ENTROPY_THRESHOLD,
    BiasProfile,
    _bucket_counts,
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


#: About how many stream keys ``_holdout_splits`` hashes at a time.
_HASH_BLOCK = 4096

# numpy's SeedSequence hash (bit_generator.pyx), fixed under NEP 19.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's ``hashmix``, carrying its running hash constant."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16
    return hashmix


class _SeedWords(NamedTuple):
    """All PCG64 reads from a SeedSequence: ``generate_state(4, np.uint64)``."""

    words: np.ndarray

    def generate_state(self, n_words: int, dtype=np.uint64) -> np.ndarray:
        return self.words


def _streams(*key: int | np.ndarray) -> Iterator[np.random.Generator]:
    """``default_rng(SeedSequence(k))`` for each key ``k`` of ``key`` in C order,
    all hashed at once as SeedSequence hashes each. An int part is shared by
    every key and coerces to 32-bit words as in SeedSequence; the array parts
    broadcast together, giving each key one part below 2**32."""
    entropy = []  # one uint32 array per entropy word
    for part in key:
        if np.ndim(part) == 0:
            n = operator.index(part)
            entropy += [np.array([n >> s & _MASK32], np.uint32)
                        for s in range(0, n.bit_length() or 1, 32)]
        elif np.any(part > _MASK32):
            raise ValueError("an array key part must fit in one 32-bit word")
        else:
            entropy.append(part.astype(np.uint32))
    entropy += [np.zeros(1, np.uint32)] * (4 - len(entropy))  # fill the 4-word pool
    hashmix = _hasher(_INIT_A, _MULT_A)
    # Past the pool, each entropy word mixes into it just as a pool word does.
    pool = [hashmix(word) for word in entropy[:4]] + entropy[4:]
    for src in range(len(pool)):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * _MIX_MULT_L - hashmix(pool[src]) * _MIX_MULT_R
                pool[dst] = mixed ^ mixed >> 16
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=-1)
    words = state.astype("<u4").view("<u8").astype(np.uint64).reshape(-1, 4)
    # Looked up only here, so importing the package leaves numpy.random unloaded.
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    yield from (np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in words)


#: The rule each config field must keep on its own, and the message that
#: names it (``{!r}`` stands for the value).
_FIELD_RULES = {
    "min_samples": (lambda v: v >= 1, "min_samples must be >= 1"),
    "entropy_threshold": (lambda v: 0.0 <= v <= 1.0, "entropy_threshold must lie in [0, 1]"),
    "bandwidth": (lambda v: 0 < v < math.inf, "bandwidth must be positive and finite"),
    "kernel": (lambda v: v in KERNELS, f"kernel must be one of {KERNELS}, got {{!r}}"),
    "seed": (lambda v: v >= 0, "seed must be non-negative"),
    "n_simulations": (lambda v: v >= 1, "n_simulations must be >= 1"),
    "holdout_per_spread": (lambda v: v >= 1, "holdout_per_spread must be >= 1"),
}


def _field_error(name: str, value) -> str | None:
    """Why ``value`` breaks config field ``name``'s own rule, or None."""
    holds, message = _FIELD_RULES.get(name, (lambda v: True, ""))
    return None if holds(value) else message.format(value)


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
        for f in fields(self):
            if error := _field_error(f.name, getattr(self, f.name)):
                raise ValueError(error)
        if self.grid_lo >= self.grid_hi:
            raise ValueError("grid_lo must be below grid_hi")

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
        super().__post_init__()
        if self.min_samples - self.holdout_per_spread < 1:
            raise ValueError(
                "min_samples must exceed holdout_per_spread so each valid "
                "spread keeps at least one training sample"
            )


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

    ``rows`` holds the spread index of each result.
    """
    n = len(order)
    counts = np.bincount(3 * rows + results + 1, minlength=3 * n).reshape(n, 3)
    return np.vstack([np.zeros((1, 3), dtype=counts.dtype), np.cumsum(counts[order], axis=0)])


def _max_prob_ranked(
    p_home: np.ndarray, entropy, spreads: np.ndarray, threshold: float,
    rows: np.ndarray, outcomes: np.ndarray,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Rank the spreads and settle Max-Prob on the test games at them
    (``rows`` indexes ``spreads``): the rank order and threshold k from
    ``rank_spreads``, and the ``_ranked_counts`` of the Max-Prob results."""
    order, k = rank_spreads(entropy, spreads, threshold)
    # Max-Prob backs the Visitor only on a strict edge; ties go Home.
    results = settle_ats((1.0 - p_home > p_home)[rows], outcomes, spreads[rows])
    return order, k, _ranked_counts(results, rows, order)


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


def _modal_k(ks: Iterable[int]) -> int:
    counts = Counter(ks)
    return min(counts, key=lambda k: (-counts[k], k))


class _Split(NamedTuple):
    """One train/test split of the valid spreads."""

    train: np.ndarray     # (spreads x grid) training outcome counts
    rows: np.ndarray      # spread index of each test game, in coin-flip order
    outcomes: np.ndarray  # outcome of each test game
    flips: np.ndarray     # one uniform draw per test game; below 0.5 backs the Visitor


def _backtest(
    protocol: str, config: FitConfig, spreads: np.ndarray, splits: Iterable[_Split]
) -> tuple[EvaluationReport, np.ndarray, np.ndarray, int]:
    """Fit, rank and settle every strategy on each split, then reduce.

    A strategy's win percentage is the mean (and SEM) of its per-split
    percentages where it settled a wager; its counts are pooled. Max-Prob
    wagers at every spread, Min-Ent at the most biased one and k-Lowest at
    the split's threshold k most biased. A profile row averages a spread's
    fit over the splits; its ``n_train`` is from the last split, as every
    TI split trains on as many games per spread.

    Returns the report parts both protocols share, the (spreads x splits)
    entropies, the Max-Prob ``_ranked_counts`` summed over the splits and
    the modal threshold k.
    """
    grid = config.grid()
    split_counts, ks, p_homes, entropies = [], [], [], []
    selection_counter: Counter[float] = Counter()
    ranked_total = 0
    for split in splits:
        _, p_home, entropy = profile_arrays(
            split.train, spreads, config.bandwidth, grid, config.kernel
        )
        order, k, ranked = _max_prob_ranked(
            p_home, entropy, spreads, config.entropy_threshold, split.rows, split.outcomes
        )
        random_results = settle_ats(split.flips < 0.5, split.outcomes, spreads[split.rows])
        random_counts = np.bincount(random_results + 1, minlength=3)
        split_counts.append([random_counts, ranked[-1], ranked[1], ranked[k]])
        ks.append(k)
        selection_counter.update(spreads[order[:k]].tolist())
        p_homes.append(p_home)
        entropies.append(entropy)
        ranked_total = ranked_total + ranked
        n_train = split.train.sum(axis=1).tolist()

    split_counts = np.array(split_counts)
    totals = split_counts.sum(axis=0).tolist()
    k = _modal_k(ks)
    model_k = {MODEL_MIN_ENTROPY: 1, MODEL_K_LOWEST: k}
    models = []
    per_model = split_counts.transpose(1, 0, 2).tolist()
    for name, total, per_split in zip(MODEL_NAMES, totals, per_model):
        pcts = [t.pct for t in map(_Tally._make, per_split) if t.settled]
        pct, sem = summarize(pcts) if pcts else (None, None)
        tally = _Tally(*total)
        models.append(ModelSummary(
            name, pct, sem, tally.settled, tally.pushes, tally.wins, model_k.get(name)
        ))

    p_home = np.ascontiguousarray(np.transpose(p_homes))
    entropy = np.ascontiguousarray(np.transpose(entropies))
    profile = tuple(
        {
            "spread": spread,
            "p_home": float(np.mean(p_home[j])),
            "entropy_bits": float(np.mean(entropy[j])),
            "n_train": n_train[j],
        }
        for j, spread in enumerate(spreads.tolist())
    )
    report = EvaluationReport(
        protocol=protocol,
        config=asdict(config),
        valid_spreads=tuple(spreads.tolist()),
        n_test_samples=sum(totals[0]),  # Random wagers on every test game
        models=tuple(models),
        profile=profile,
        selection_counts=dict(selection_counter),
    )
    return report, entropy, ranked_total, k


def _holdout_splits(buckets: list[SpreadBucket], config: TiConfig) -> Iterator[_Split]:
    """TI's splits, one per simulation: each bucket's holdouts are its test
    games, and its full counts minus theirs its training block."""
    grid = config.grid()
    holdout = config.holdout_per_spread
    sizes = [len(b) for b in buckets]
    starts = np.cumsum([0] + sizes[:-1])[:, None]
    all_outcomes = np.concatenate([np.asarray(b.outcomes, dtype=np.int64) for b in buckets])
    full_counts = _bucket_counts(buckets, grid)
    rows = np.repeat(np.arange(len(buckets)), holdout)
    block = max(1, _HASH_BLOCK // (len(buckets) + 1))
    for first in range(0, config.n_simulations, block):
        sims = np.arange(first, min(first + block, config.n_simulations))
        holdouts = _streams(config.seed, _HOLDOUT_STREAM, sims[:, None], np.arange(len(sizes)))
        for guess in _streams(config.seed, _GUESS_STREAM, sims):
            picks = np.array([next(holdouts).choice(n, holdout, replace=False) for n in sizes])
            # Holdouts in bucket order, so they pair with the coin flips
            # exactly as a per-outcome loop would.
            tests = all_outcomes[starts + np.sort(picks, axis=1)]
            # Coin flips in spread-then-holdout order.
            flips = guess.random(tests.size)
            yield _Split(full_counts - outcome_counts(tests, grid), rows, tests.ravel(), flips)


def run_ti(dataset: Dataset, config: TiConfig) -> EvaluationReport:
    """Monte Carlo backtest with repeated per-spread random holdouts.

    Valid spreads are found once on the full dataset. Each simulation then
    holds out ``holdout_per_spread`` outcomes per valid spread (sampled
    without replacement from a stream keyed on seed, simulation index, and
    spread index), fits the bias profile on the remainder, and settles
    every strategy's wagers on the held-out outcomes. Win percentages are
    aggregated across simulations as mean and SEM.
    """
    # TiConfig keeps min_samples above holdout_per_spread, so every valid
    # bucket keeps at least one training outcome.
    buckets = config.valid_buckets(dataset)
    if not buckets:
        raise ValueError(
            f"no spread has at least min_samples={config.min_samples} outcomes"
        )
    spreads = np.array([b.spread for b in buckets])
    report, entropy, _, _ = _backtest("ti", config, spreads, _holdout_splits(buckets, config))
    return replace(report, profile=tuple(
        {**row, "entropy_sd": float(np.std(h, ddof=1)) if len(h) > 1 else None}
        for row, h in zip(report.profile, entropy)
    ))


def _games_at(index: dict[float, int], records: Iterable[GameRecord]) -> tuple[np.ndarray, ...]:
    """Spread indices and outcomes of the ``records`` at a spread in
    ``index``, in record order."""
    return np.array(
        [(index[r.spread], r.outcome) for r in records if r.spread in index], dtype=np.int64
    ).reshape(-1, 2).T


def _sweep_rows(ranked: np.ndarray, k_threshold: int) -> list[dict]:
    return [
        {"k": k, "ats_win_pct": t.pct, "n_wins": t.wins, "n_test": t.settled,
         "n_push": t.pushes, "threshold_selected": k == k_threshold}
        for k, t in enumerate(map(_Tally._make, ranked[1:].tolist()), start=1)
    ]


def sweep_k(profile: BiasProfile, records: Sequence[GameRecord]) -> list[dict]:
    """Settle the k-lowest-entropy strategy for every k from 1 to all spreads.

    ``records`` are the test games; those at spreads outside the profile
    are ignored. Each row carries the pooled win percentage and settled
    count; the row whose k equals the threshold-mode selection is flagged.
    """
    index = {e.spread: j for j, e in enumerate(profile.entries)}
    _, k, ranked = _max_prob_ranked(
        np.array([e.p_home for e in profile.entries]),
        [e.entropy_bits for e in profile.entries],
        np.array(list(index)), profile.threshold, *_games_at(index, records),
    )
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
    index = {b.spread: j for j, b in enumerate(buckets)}
    # The test games in the order their coin flips are drawn.
    rows, outcomes = _games_at(index, sorted(
        test, key=lambda r: (r.spread, r.date, r.home_team, r.visitor_team)
    ))
    flips = next(_streams(config.seed, _GUESS_STREAM)).random(len(outcomes))
    split = _Split(_bucket_counts(buckets, config.grid()), rows, outcomes, flips)
    report, _, ranked, k = _backtest("td", config, np.array(list(index)), [split])
    return replace(
        report, ksweep=tuple(_sweep_rows(ranked, k)),
        n_train_records=len(train), n_test_records=len(test),
    )
