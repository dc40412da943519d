"""Backtest harnesses: repeated-random-holdout and date-split evaluations.

Both protocols run one evaluation step over blocks of train/test splits
of the valid spreads: fit the bias profile on each split's training
games, rank the spreads, and let every strategy wager on the split's test
games, each step one array pass over a whole block (``_backtest``). Every
wager is settled from one tally of Home covers, pushes and Visitor covers
per (split, spread) (``models.settle_by_spread``). The per-split results
are then reduced, once, to each strategy's mean and SEM win percentage and
pooled counts (``_report``). The temporally-independent (TI) harness
ignores game dates and makes N splits, each holding out a fixed number of
outcomes per valid spread. They are drawn, ranked and settled in draw blocks
of about 2**16 (simulation, spread, holdout) entries, and a draw block's
training counts are built and fitted about 1,024 (simulation, spread) pairs at
a time. The temporally-dependent (TD) harness is the one-split block: it
splits once by date, fits on the past, wagers on the future, and also sweeps
the k-lowest-entropy strategy over every k.
Both group, split and count games in array passes over the dataset's
columns. Every fit groups its games in one call, ``FitConfig.groups``: the
count block of all games at the valid spreads, which TI's splits start from,
is the one ``profile`` fits, and TD's is that of its training games.

All randomness derives from ``default_rng(SeedSequence(key))`` streams keyed
on the config seed, so a run is reproducible bit for bit and TI simulations
could be evaluated in any order (results are reduced in simulation-index order
regardless). TD's one stream is numpy's own ``default_rng((seed, 1))``. A TI draw
block hashes its (simulations x spreads) keys at once and replays their holdout draws
together (``_streams``); each simulation's coin flips fill its row of one block.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ._streams import _generator, _holdout_picks, _seed_words
from .bias import DEFAULT_ENTROPY_THRESHOLD, _entropies, rank_spreads
from .data import Dataset, _shown
from .density import (
    DEFAULT_BANDWIDTH, DEFAULT_GRID_HI, DEFAULT_GRID_LO, KERNELS, OutcomeGrid, cover_sums,
    grid_cells, outcome_counts,
)
from .models import MODEL_K_LOWEST, MODEL_MIN_ENTROPY, MODEL_NAMES, settle_by_spread

# Stream tags keep the holdout sampler and the coin-flip model on
# non-overlapping deterministic substreams of the config seed.
_HOLDOUT_STREAM = 0
_GUESS_STREAM = 1


#: About how many (simulations x valid spreads x holdout) entries ``_holdout_splits`` draws,
#: and how many (simulation, spread) fits ``_backtest`` makes, at a time.
_DRAW_ENTRIES, _FIT_KEYS = 2**16, 1024


#: The rule each config field must keep on its own, and the message that
#: names it (``{}`` stands for the value, a string as ``data._shown`` shows it).
_FIELD_RULES = {
    "min_samples": (lambda v: v >= 1, "min_samples must be >= 1"),
    "entropy_threshold": (lambda v: 0.0 <= v <= 1.0, "entropy_threshold must lie in [0, 1]"),
    "bandwidth": (lambda v: 0 < v < math.inf, "bandwidth must be positive and finite"),
    "grid_lo": (lambda v: -1000 <= v <= 1000, "grid_lo must lie in [-1000, 1000]"),
    "grid_hi": (lambda v: -1000 <= v <= 1000, "grid_hi must lie in [-1000, 1000]"),
    "kernel": (lambda v: v in KERNELS, f"kernel must be one of {KERNELS}, got {{}}"),
    "seed": (lambda v: v >= 0, "seed must be non-negative"),
    "n_simulations": (lambda v: v >= 1, "n_simulations must be >= 1"),
    "holdout_per_spread": (lambda v: v >= 1, "holdout_per_spread must be >= 1"),
}


def _field_error(name: str, value) -> str | None:
    """Why ``value`` breaks config field ``name``'s own rule, or None."""
    holds, message = _FIELD_RULES.get(name, (lambda v: True, ""))
    if holds(value):
        return None
    return message.format(_shown(value) if isinstance(value, str) else value)


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

    def groups(self, dataset: Dataset, counted=None) -> tuple[np.ndarray, ...]:
        """Every fit's one grouping pass, over the games the boolean mask ``counted`` selects
        (None: all): the spreads, ascending, with at least ``min_samples`` such games; each
        game's index among them (-1 at another spread); the counted games' outcomes there, by
        spread and each spread's in input order; each spread's size; and the (spreads x grid)
        block of their outcome counts. Refused with ValueError where no fit can be made: with
        no valid spread (naming the counted games' largest group), or with one outside
        ``[grid_lo, grid_hi)`` (NaN too), whose cover probability, and so entropy, would be
        pinned whatever its games did. These are the config's only checks that need the
        games: a command meets them after its options and config."""
        spreads, inverse = np.unique(dataset.spread, return_inverse=True)
        sizes = np.bincount(inverse if counted is None else inverse[counted], minlength=len(spreads))
        valid = sizes >= self.min_samples
        if not valid.any():
            raise ValueError(f"no spread has at least min_samples={self.min_samples} games "
                             f"(the largest group has {sizes.max(initial=0)})")
        index = np.where(valid, np.cumsum(valid) - 1, -1)[inverse]
        group = index if counted is None else np.where(counted, index, -1)
        # numpy's stable sort of 8- or 16-bit ints is a radix sort: narrow the group (signed, for -1).
        narrow = group.astype(np.min_scalar_type(-1 - group.max(initial=1)))
        outcomes = dataset.outcome[np.argsort(narrow, kind="stable")[np.count_nonzero(group < 0):]]
        spreads, sizes = spreads[valid], sizes[valid]
        off_grid = spreads[~((self.grid_lo <= spreads) & (spreads < self.grid_hi))]
        if off_grid.size:
            raise ValueError(f"spread {off_grid[0]:g} lies outside the outcome grid "
                             f"[{self.grid_lo}, {self.grid_hi})")
        rows = np.repeat(np.arange(len(sizes)), sizes)
        return spreads, index, outcomes, sizes, outcome_counts(outcomes, self.grid(), rows, len(sizes))


@dataclass(frozen=True)
class TiConfig(FitConfig):
    """Settings for the repeated-random-holdout (date-agnostic) protocol."""

    n_simulations: int = 200
    holdout_per_spread: int = 10

    def __post_init__(self):
        super().__post_init__()
        if self.min_samples - self.holdout_per_spread < 1:
            raise ValueError("min_samples must exceed holdout_per_spread so each valid "
                             "spread keeps at least one training sample")


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
        """The report's fields as JSON-ready values, with ``selection_counts``
        keyed by each spread's ``:g`` text in spread order. Every dict is the
        caller's own, as ``asdict`` gives them; all else in them is immutable
        and shared."""
        def copied(rows):
            return None if rows is None else tuple(map(dict, rows))

        out = {**vars(self), "config": dict(self.config), "models": copied(map(vars, self.models)),
               "profile": copied(self.profile), "ksweep": copied(self.ksweep)}
        if self.selection_counts is not None:
            counts = sorted(self.selection_counts.items())
            out["selection_counts"] = {f"{spread:g}": n for spread, n in counts}
        return out


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


class _Split(NamedTuple):
    """A block of train/test splits of the valid spreads, ranked and settled at
    once; splits along the leading axis."""

    # Training outcome counts: consecutive (splits x spreads x grid) blocks along the splits
    # axis, each fitted alone and taken once; under TI, float64 and each built when taken.
    train: Iterable[np.ndarray]
    rows: np.ndarray      # spread index of each test game, in coin-flip order; shared by all splits
    outcomes: np.ndarray  # (splits x test games) outcome of each test game, tallied by its spread
    flips: np.ndarray     # (splits x test games) uniform draws; below 0.5 backs the Visitor


class _SplitResults(NamedTuple):
    """``_backtest``'s per-split arrays, splits along the leading axis."""

    p_home: np.ndarray    # (splits x spreads) fitted home-cover probabilities
    entropy: np.ndarray   # (splits x spreads) entropies, in bits
    k: np.ndarray         # each split's threshold k
    counts: np.ndarray    # (splits x 4 x 3) loss/push/win counts of each of MODEL_NAMES
    selected: np.ndarray  # (splits x spreads) k-Lowest selection mask
    ranked: np.ndarray    # (splits x (spreads + 1) x 3) Max-Prob counts over the k most biased

    @property
    def modal_k(self) -> int:
        """The most frequent threshold k; ties go to the smaller."""
        return int(np.bincount(self.k).argmax())


def _backtest(config: FitConfig, spreads: np.ndarray, splits: Iterable[_Split]) -> _SplitResults:
    """Fit, rank and settle every strategy on each block of splits.

    A block's training blocks are taken one at a time, each only for its
    ``cover_sums``; the home-cover probabilities joined over the block then
    take one array pass per step along its splits axis, and add one tuple to
    one list: its splits' p_home, entropy, threshold k, strategy counts,
    k-Lowest selection mask and Max-Prob counts over each k most biased
    spreads; the list is joined along the splits axis once, at the end.
    Max-Prob backs one side at each (split, spread), so ``settle_by_spread``
    counts its wagers there; it wagers at every spread, Min-Ent at the most
    biased one and k-Lowest at the split's threshold k most biased.
    ``_report`` reduces the result.
    """
    grid = config.grid()
    blocks = []
    for split in splits:
        # Each training block is freed before the next is built: map holds none as it takes one.
        sums = map(lambda train: cover_sums(train, spreads, config.bandwidth, grid, config.kernel),
                   split.train)
        p_home = np.concatenate([num / den for num, den in sums])
        entropy = _entropies(p_home)
        order, k = rank_spreads(entropy, spreads, config.entropy_threshold)
        # Max-Prob backs the Visitor only on a strict edge; ties go Home.
        sided, random_counts = settle_by_spread(
            1.0 - p_home > p_home, split.flips, split.outcomes, split.rows, spreads)
        # Pooled over the k most biased spreads, one row for each k from 0 to all spreads.
        ranked = np.cumsum(np.take_along_axis(sided, order[..., None], axis=1), axis=1)
        ranked = np.concatenate([np.zeros_like(ranked[:, :1]), ranked], axis=1)
        counts = np.stack([random_counts, ranked[:, -1], ranked[:, 1], ranked[np.arange(len(k)), k]], 1)
        # k-Lowest selects the spreads whose rank position is below the split's k.
        blocks.append((p_home, entropy, k, counts, np.argsort(order) < k[:, None], ranked))
    return _SplitResults(*map(np.concatenate, zip(*blocks)))


def _report(
    protocol: str, config: FitConfig, spreads: np.ndarray, results: _SplitResults,
    n_train: np.ndarray,
) -> EvaluationReport:
    """The report parts both protocols share, reduced from ``_backtest``'s results.

    A strategy's win percentage is the mean (and SEM) of its per-split
    percentages over the splits where it settled a wager; its counts are
    pooled over all splits, and k-Lowest reports the modal threshold k. A
    profile row averages a spread's fit over the splits; its ``n_train`` is
    the spread's entry of ``n_train``, the training games every split has there.
    """
    losses, pushes, wins = results.counts.T  # each (strategies x splits)
    settled = wins + losses
    model_k = {MODEL_MIN_ENTROPY: 1, MODEL_K_LOWEST: results.modal_k}
    models = []
    for name, n_settled, n_pushes, n_wins in zip(MODEL_NAMES, settled, pushes, wins):
        pcts = 100.0 * n_wins[n_settled > 0] / n_settled[n_settled > 0]
        pct, sem = summarize(pcts) if pcts.size else (None, None)
        models.append(ModelSummary(name, pct, sem, int(n_settled.sum()), int(n_pushes.sum()),
                                   int(n_wins.sum()), model_k.get(name)))

    # Each spread's mean over the splits, as np.mean of its contiguous row alone sums it.
    means = [np.ascontiguousarray(a.T).mean(axis=-1).tolist() for a in (results.p_home, results.entropy)]
    profile = tuple({"spread": s, "p_home": p, "entropy_bits": h, "n_train": n}
                    for s, p, h, n in zip(spreads.tolist(), *means, n_train.tolist()))
    selections = np.count_nonzero(results.selected, axis=0).tolist()
    return EvaluationReport(
        protocol=protocol,
        config=asdict(config),
        valid_spreads=tuple(spreads.tolist()),
        n_test_samples=int(results.counts[:, 0].sum()),  # Random wagers on every test game
        models=tuple(models),
        profile=profile,
        selection_counts={s: n for s, n in zip(spreads.tolist(), selections) if n},
    )


def _holdout_splits(
    outcomes: np.ndarray, sizes: np.ndarray, counts: np.ndarray, config: TiConfig
) -> Iterator[_Split]:
    """TI's splits of ``FitConfig.groups``' grouped outcomes, sizes and counts, one block per
    draw block of simulations: the holdouts drawn from each valid spread's games in input
    order are a simulation's test games, and the full counts minus theirs its training
    counts, cut in fit blocks that are each built when taken: float64, as the fit takes it,
    the full counts repeated once per split less one at each held game's cell (``grid_cells``)."""
    grid = config.grid()
    holdout = config.holdout_per_spread
    full_counts = counts.astype(np.float64)
    n = len(sizes)
    starts = np.cumsum(sizes) - sizes
    rows = np.repeat(np.arange(n), holdout)
    draw_block = max(1, _DRAW_ENTRIES // (n * holdout))
    fit_block = max(1, _FIT_KEYS // (n + 1))

    def training_block(test):
        held = grid_cells(test, grid, n * np.arange(len(test))[:, None] + rows)
        # A block of many splits is large: one copy, then one subtraction per held game.
        train = np.repeat(full_counts[None], len(test), axis=0)
        np.subtract.at(train.reshape(-1), held, 1.0)
        return train

    for first in range(0, config.n_simulations, draw_block):
        sims = np.arange(first, min(first + draw_block, config.n_simulations))
        words = _seed_words(config.seed, _HOLDOUT_STREAM, sims[:, None], np.arange(n))
        picks = _holdout_picks(words.reshape(len(sims), n, 4), sizes, holdout)
        # Holdouts in spread-then-holdout order: the order their coin flips are drawn in.
        tests = outcomes[picks + starts[:, None]].reshape(len(sims), -1)
        del words, picks  # so neither is held while _backtest fits the blocks
        flips = np.empty((len(sims), len(rows)))
        for w, row in zip(_seed_words(config.seed, _GUESS_STREAM, sims), flips):
            _generator(w).random(out=row)
        trains = map(training_block, np.split(tests, range(fit_block, len(sims), fit_block)))
        yield _Split(trains, rows, tests, flips)


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
    # spread keeps at least one training outcome.
    spreads, _, outcomes, sizes, counts = config.groups(dataset)
    results = _backtest(config, spreads, _holdout_splits(outcomes, sizes, counts, config))
    report = _report("ti", config, spreads, results, sizes - config.holdout_per_spread)
    entropy = np.ascontiguousarray(results.entropy.T)
    sds = entropy.std(axis=-1, ddof=1).tolist() if config.n_simulations > 1 else [None] * len(spreads)
    return replace(report, profile=tuple({**row, "entropy_sd": sd}
                                         for row, sd in zip(report.profile, sds)))


def _sweep_rows(ranked: np.ndarray, k_threshold: int) -> list[dict]:
    return [
        {"k": k, "ats_win_pct": 100.0 * wins / settled if (settled := wins + losses) else None,
         "n_wins": wins, "n_test": settled, "n_push": pushes, "threshold_selected": k == k_threshold}
        for k, (losses, pushes, wins) in enumerate(ranked[1:].tolist(), start=1)
    ]


def run_td(dataset: Dataset, config: TdConfig) -> EvaluationReport:
    """One-shot backtest: train strictly before the cutoff year, test at it.

    Valid spreads are determined from training games only; test games at
    other spreads are dropped. All strategies are settled once, and the
    full k sweep is included.
    """
    test = dataset.year >= config.cutoff_year
    n_test = int(np.count_nonzero(test))
    if n_test == len(dataset):
        raise ValueError(f"no training games before year {config.cutoff_year}")
    if not n_test:
        raise ValueError(f"no test games in year {config.cutoff_year} or later")

    spreads, index, _, sizes, counts = config.groups(dataset, ~test)
    # Test games in coin-flip order: by spread, then key (date, home, visitor), then input order.
    games = sorted(np.flatnonzero(test & (index >= 0)).tolist(), key=lambda i: dataset.records[i][:3])
    games = np.array(games, dtype=np.intp)[np.argsort(index[games], kind="stable")]
    flips = np.random.default_rng((config.seed, _GUESS_STREAM)).random(len(games))
    split = _Split([counts[None]], index[games], dataset.outcome[games][None], flips[None])
    results = _backtest(config, spreads, [split])
    return replace(
        _report("td", config, spreads, results, sizes),
        ksweep=tuple(_sweep_rows(results.ranked[0], results.modal_k)),
        n_train_records=len(dataset) - n_test, n_test_records=n_test,
    )
