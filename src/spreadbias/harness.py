"""Backtest harnesses: repeated-random-holdout and date-split evaluations.

Both protocols run one evaluation step over blocks of train/test splits
of the valid spreads: fit the bias profile on each split's training
games, rank the spreads, and let every strategy wager on the split's test
games, each step one array pass over a whole block (``_backtest``). The
per-split results are then reduced, once, to each strategy's mean and SEM
win percentage and pooled counts (``_report``). The temporally-independent
(TI) harness ignores game dates and makes N splits, each holding out a
fixed number of outcomes per valid spread, in blocks of about 1,024
stream keys. The temporally-dependent (TD) harness is the one-split
block: it splits once by date, fits on the past, wagers on the future,
and also sweeps the k-lowest-entropy strategy over every k. Both group,
split and count games in array passes over the dataset's columns. The
count block of all games at the valid spreads (``_grouped_counts``),
which TI's splits start from, is also the one the ``profile`` command fits.

All randomness derives from ``default_rng(SeedSequence(key))`` streams keyed
on the config seed, so a run is reproducible bit for bit and TI simulations
could be evaluated in any order (results are reduced in simulation-index order
regardless). A block of simulations hashes its keys and draws its holdouts at once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .bias import DEFAULT_ENTROPY_THRESHOLD, profile_arrays, rank_spreads
from .data import Dataset, by_spread, spread_groups
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


#: About how many stream keys ``_holdout_splits`` hashes, and so how many
#: (simulation, spread) fits ``_backtest`` makes, at a time.
_HASH_BLOCK = 1024

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


def _seed_words(*key: int | np.ndarray) -> np.ndarray:
    """``SeedSequence(k).generate_state(4, np.uint64)``, one row for each key ``k``
    of ``key`` in C order, all hashed at once as SeedSequence hashes each. An int
    part is shared by every key and coerces to 32-bit words as in SeedSequence; the
    array parts broadcast together, giving each key one part below 2**32."""
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
    return state.astype("<u4").view("<u8").astype(np.uint64).reshape(-1, 4)


def _generator(words: np.ndarray) -> np.random.Generator:
    """``default_rng(SeedSequence(k))``, from key ``k``'s ``_seed_words`` row."""
    # Looked up only here, so importing the package leaves numpy.random unloaded.
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def _streams(*key: int | np.ndarray) -> Iterator[np.random.Generator]:
    """``_generator`` for each key's ``_seed_words`` row, in C order."""
    return map(_generator, _seed_words(*key))


# PCG64 (numpy's pcg64.h) on (high, low) uint64 arrays. Constants are uint64 arrays, so
# numpy 1.x's value-based casting and NEP 50 agree, and no scalar overflow warns.
_U1, _U32, _U58, _U63, _U64, _LO32, _2POW32 = (
    np.array([v], np.uint64) for v in (1, 32, 58, 63, 64, _MASK32, 2**32))
_MULT_HI, _MULT_LO = np.array([[2549297995355413924], [4865540595714422341]], np.uint64)


def _uint32_draws(words: np.ndarray) -> Iterator[np.ndarray]:
    """Each key's ``PCG64`` 32-bit draws, one column per step, seeded from its ``_seed_words``
    row as ``pcg64_set_seed`` seeds: each XSL-RR output, low half first, as ``next_uint32``."""
    inc_hi, inc_lo = words[:, 2] << _U1 | words[:, 3] >> _U63, words[:, 3] << _U1 | _U1

    def step(hi, lo):  # state * multiplier + inc; lo * _MULT_LO's high word by 32-bit limbs
        lo0, lo1, mult0, mult1 = lo & _LO32, lo >> _U32, _MULT_LO & _LO32, _MULT_LO >> _U32
        cross0, cross1 = lo0 * mult1, lo1 * mult0
        mid = (lo0 * mult0 >> _U32) + (cross0 & _LO32) + (cross1 & _LO32)
        carry = lo1 * mult1 + (cross0 >> _U32) + (cross1 >> _U32) + (mid >> _U32)
        new_lo = lo * _MULT_LO + inc_lo
        return hi * _MULT_LO + lo * _MULT_HI + carry + inc_hi + (new_lo < inc_lo), new_lo

    # Seeding steps from state 0 (to inc), adds the seed words (with carry), steps again.
    hi, lo = step(inc_hi + words[:, 0] + (inc_lo + words[:, 1] < inc_lo), inc_lo + words[:, 1])
    while True:
        hi, lo = step(hi, lo)
        xor, rot = hi ^ lo, hi >> _U58
        output = xor >> rot | xor << (_U64 - rot & _U63)
        yield output & _LO32
        yield output >> _U32


#: The largest holdout drawn for all keys at once; past about 100 a Generator per key is
#: faster. (``choice`` tail-shuffles only where n > 10,000 and holdout > n // 50 > 199.)
_BATCH_MAX_HOLDOUT = 100


def _holdout_picks(words: np.ndarray, sizes: np.ndarray, holdout: int) -> np.ndarray:
    """``np.sort(_generator(w).choice(n, holdout, replace=False))`` for each key's row ``w``
    of ``_seed_words`` and population ``n`` in ``sizes``. Keys of fewer than 2**32 games
    replay ``choice``'s Floyd loop together, up to a holdout of ``_BATCH_MAX_HOLDOUT``: for
    j = n - holdout ... n - 1, each takes its next 32-bit draw, Lemire-bounded on [0, j],
    or j if that is picked already. A key leaves the replay at the first step where Lemire
    would reject its draw or j < 1 (``choice`` takes no draw on [0, 0] and refuses n < holdout);
    ``choice`` itself draws every key that leaves the replay or never enters it."""
    picks = np.empty((len(sizes), holdout), np.uint64)
    replay = (sizes < 2**32) & (holdout <= _BATCH_MAX_HOLDOUT)
    draws = _uint32_draws(words)
    for t in range(holdout if replay.any() else 0):
        j = np.maximum(sizes - (holdout - t), 0).astype(np.uint64)
        bound = j + _U1
        scaled = next(draws) * bound
        value = scaled >> _U32
        replay &= (j > 0) & (scaled & _LO32 >= (_2POW32 - bound) % bound)
        picks[:, t] = np.where((picks[:, :t] == value[:, None]).any(axis=1), j, value)
    for i in np.flatnonzero(~replay):
        picks[i] = _generator(words[i]).choice(sizes[i], holdout, replace=False)
    return np.sort(picks).astype(np.int64)


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

    def valid_spreads(self, dataset: Dataset, counted=slice(None)) -> tuple[np.ndarray, ...]:
        """``spread_groups(dataset, min_samples, counted)``, refusing a valid
        spread outside ``[grid_lo, grid_hi)`` (NaN too) with ValueError: its
        cover probability, and so its entropy, would be pinned whatever its games did."""
        spreads, index = spread_groups(dataset, self.min_samples, counted)
        off_grid = spreads[~((self.grid_lo <= spreads) & (spreads < self.grid_hi))]
        if off_grid.size:
            raise ValueError(
                f"spread {off_grid[0]:g} lies outside the outcome grid "
                f"[{self.grid_lo}, {self.grid_hi})"
            )
        return spreads, index


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
        """The report's fields as JSON-ready values, with ``selection_counts``
        keyed by each spread's ``:g`` text in spread order."""
        out = asdict(self)
        if self.selection_counts is not None:
            counts = sorted(self.selection_counts.items())
            out["selection_counts"] = {f"{spread:g}": n for spread, n in counts}
        return out


def _ranked_counts(results: np.ndarray, rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Loss/push/win counts of a (splits x test games) block of ``settle_ats``
    results, each split's pooled over the first k spreads of its row of
    ``order``: a (splits x (spreads + 1) x 3) block, one row for each k
    from 0 to all spreads.

    ``rows`` holds the spread index of each test game, shared by every split.
    """
    splits, n = order.shape
    flat = 3 * (n * np.arange(splits)[:, None] + rows) + results + 1
    counts = np.bincount(flat.ravel(), minlength=3 * n * splits).reshape(splits, n, 3)
    ranked = np.cumsum(np.take_along_axis(counts, order[..., None], axis=1), axis=1)
    return np.concatenate([np.zeros((splits, 1, 3), ranked.dtype), ranked], axis=1)


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
    """A block of train/test splits of the valid spreads, fitted, ranked and
    settled at once; splits along the leading axis."""

    train: np.ndarray     # (splits x spreads x grid) training outcome counts
    rows: np.ndarray      # spread index of each test game, in coin-flip order; shared by all splits
    outcomes: np.ndarray  # (splits x test games) outcome of each test game
    flips: np.ndarray     # (splits x test games) uniform draws; below 0.5 backs the Visitor


class _SplitResults(NamedTuple):
    """``_backtest``'s per-split arrays, splits along the leading axis, with the
    summed Max-Prob sweep and the last split's training sizes."""

    p_home: np.ndarray    # (splits x spreads) fitted home-cover probabilities
    entropy: np.ndarray   # (splits x spreads) entropies, in bits
    k: np.ndarray         # each split's threshold k
    counts: np.ndarray    # (splits x 4 x 3) loss/push/win counts of each of MODEL_NAMES
    selected: np.ndarray  # (splits x spreads) k-Lowest selection mask
    ranked: np.ndarray    # ((spreads + 1) x 3) Max-Prob ``_ranked_counts``, summed over the splits
    n_train: np.ndarray   # training games at each spread in the last split

    @property
    def modal_k(self) -> int:
        """The most frequent threshold k; ties go to the smaller."""
        return int(np.bincount(self.k).argmax())


def _backtest(config: FitConfig, spreads: np.ndarray, splits: Iterable[_Split]) -> _SplitResults:
    """Fit, rank and settle every strategy on each block of splits.

    Each block takes one array pass per step along its splits axis and adds
    one tuple to one list: its splits' p_home, entropy, threshold k,
    strategy counts and k-Lowest selection mask. Only the Max-Prob
    ``_ranked_counts`` are summed as blocks come; the list is joined along
    the splits axis once, at the end. Max-Prob wagers at every spread,
    Min-Ent at the most biased one and k-Lowest at the split's threshold k
    most biased. ``_report`` reduces the result.
    """
    grid = config.grid()
    blocks = []
    ranked_total = 0
    for split in splits:
        # The block's densities are not kept: a block of many splits is large.
        p_home, entropy = profile_arrays(
            split.train, spreads, config.bandwidth, grid, config.kernel
        )[1:]
        order, k = rank_spreads(entropy, spreads, config.entropy_threshold)
        test_spreads = spreads[split.rows]
        # Max-Prob backs the Visitor only on a strict edge; ties go Home.
        max_prob = (1.0 - p_home > p_home)[:, split.rows]
        ranked = _ranked_counts(settle_ats(max_prob, split.outcomes, test_spreads), split.rows, order)
        random_results = settle_ats(split.flips < 0.5, split.outcomes, test_spreads)
        random_counts = _ranked_counts(random_results, split.rows, order)[:, -1]
        counts = np.stack([random_counts, ranked[:, -1], ranked[:, 1], ranked[np.arange(len(k)), k]], 1)
        # k-Lowest selects the spreads whose rank position is below the split's k.
        blocks.append((p_home, entropy, k, counts, np.argsort(order) < k[:, None]))
        ranked_total = ranked_total + ranked.sum(axis=0)
    return _SplitResults(*map(np.concatenate, zip(*blocks)), ranked_total, split.train[-1].sum(axis=-1))


def _report(
    protocol: str, config: FitConfig, spreads: np.ndarray, results: _SplitResults
) -> EvaluationReport:
    """The report parts both protocols share, reduced from ``_backtest``'s results.

    A strategy's win percentage is the mean (and SEM) of its per-split
    percentages over the splits where it settled a wager; its counts are
    pooled over all splits, and k-Lowest reports the modal threshold k. A
    profile row averages a spread's fit over the splits; its ``n_train`` is
    from the last split, as every TI split trains on as many games per spread.
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

    p_home, entropy = (np.ascontiguousarray(a.T) for a in (results.p_home, results.entropy))
    profile = tuple(
        {"spread": s, "p_home": float(np.mean(p)), "entropy_bits": float(np.mean(h)), "n_train": n}
        for s, p, h, n in zip(spreads.tolist(), p_home, entropy, results.n_train.tolist())
    )
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


def _grouped_counts(
    dataset: Dataset, index: np.ndarray, grid: OutcomeGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``by_spread``'s outcomes and sizes at ``index``'s spreads, and their
    (spreads x grid) block of outcome counts."""
    outcomes, sizes = by_spread(dataset, index)
    rows = np.repeat(np.arange(len(sizes)), sizes)
    return outcomes, sizes, outcome_counts(outcomes, grid, rows, len(sizes))


def _holdout_splits(dataset: Dataset, index: np.ndarray, config: TiConfig) -> Iterator[_Split]:
    """TI's splits, one block per hash block of simulations: the holdouts drawn from each
    valid spread's games in input order are a simulation's test games, and the full counts
    minus theirs its training block."""
    grid = config.grid()
    holdout = config.holdout_per_spread
    outcomes, sizes, full_counts = _grouped_counts(dataset, index, grid)
    n = len(sizes)
    starts = np.cumsum(sizes) - sizes
    rows = np.repeat(np.arange(n), holdout)
    block = max(1, _HASH_BLOCK // (n + 1))
    for first in range(0, config.n_simulations, block):
        sims = np.arange(first, min(first + block, config.n_simulations))
        words = _seed_words(config.seed, _HOLDOUT_STREAM, sims[:, None], np.arange(n))
        picks = _holdout_picks(words, np.tile(sizes, len(sims)), holdout)
        # Holdouts in spread-then-holdout order: the order their coin flips are drawn in.
        picks = picks.reshape(len(sims), n, holdout) + starts[:, None]
        tests = outcomes[picks].reshape(len(sims), -1)
        del words, picks  # so neither is held while _backtest fits the block
        flips = np.array([g.random(len(rows)) for g in _streams(config.seed, _GUESS_STREAM, sims)])
        held = outcome_counts(tests, grid, n * np.arange(len(sims))[:, None] + rows, len(sims) * n)
        held = held.reshape(len(sims), n, -1)
        # The training block overwrites the holdouts' counts: a block of many splits is large.
        yield _Split(np.subtract(full_counts, held, out=held), rows, tests, flips)


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
    spreads, index = config.valid_spreads(dataset)
    if not spreads.size:
        raise ValueError(
            f"no spread has at least min_samples={config.min_samples} outcomes"
        )
    results = _backtest(config, spreads, _holdout_splits(dataset, index, config))
    report = _report("ti", config, spreads, results)
    return replace(report, profile=tuple(
        {**row, "entropy_sd": float(np.std(h, ddof=1)) if len(h) > 1 else None}
        for row, h in zip(report.profile, np.ascontiguousarray(results.entropy.T))
    ))


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

    spreads, index = config.valid_spreads(dataset, ~test)
    if not spreads.size:
        raise ValueError(
            f"no training spread has at least min_samples={config.min_samples} outcomes"
        )
    train = ~test & (index >= 0)
    counts = outcome_counts(dataset.outcome[train], config.grid(), index[train], len(spreads))
    # Test games in coin-flip order: by spread, then key (date, home, visitor), then input order.
    games = sorted(np.flatnonzero(test & (index >= 0)).tolist(), key=lambda i: dataset.records[i][:3])
    games = np.array(games, dtype=np.intp)[np.argsort(index[games], kind="stable")]
    flips = next(_streams(config.seed, _GUESS_STREAM)).random(len(games))
    split = _Split(counts[None], index[games], dataset.outcome[games][None], flips[None])
    results = _backtest(config, spreads, [split])
    return replace(
        _report("td", config, spreads, results),
        ksweep=tuple(_sweep_rows(results.ranked, results.modal_k)),
        n_train_records=len(dataset) - n_test, n_test_records=n_test,
    )
