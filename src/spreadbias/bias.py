"""Per-spread bias quantification via the entropy of the cover distribution.

A spread that carries no information about which side covers has a
cover distribution near (0.5, 0.5) and binary entropy near 1 bit; a
strongly biased spread has entropy near 0. Spreads whose entropy falls
strictly below a threshold are considered biased and eligible for
wagering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .data import SpreadBucket
from .density import (
    DEFAULT_BANDWIDTH,
    OutcomeGrid,
    cover_probabilities,
    densities,
    outcome_counts,
)

DEFAULT_ENTROPY_THRESHOLD = 0.95


def binary_entropy(p: float) -> float:
    """Shannon entropy in bits of a two-outcome distribution (p, 1 - p).

    Uses the convention 0 * log2(0) = 0, so the endpoints evaluate to
    exactly 0.0. Raises ValueError outside [0, 1].
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    h = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            h -= q * math.log2(q)
    return h


@dataclass(frozen=True)
class SpreadBias:
    """Cover probabilities and entropy for one valid spread."""

    spread: float
    p_home: float
    p_visitor: float
    entropy_bits: float
    n_train: int


@dataclass(frozen=True)
class BiasProfile:
    """Per-spread bias entries, sorted by spread, plus the entropy threshold.

    ``mass`` holds the estimated outcome density behind each entry, one
    grid row per entry, when the profile came from ``build_profile``.
    """

    entries: tuple[SpreadBias, ...]
    threshold: float = DEFAULT_ENTROPY_THRESHOLD
    mass: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        spreads = [e.spread for e in self.entries]
        if len(set(spreads)) != len(spreads):
            raise ValueError("profile entries must have unique spreads")


def profile_arrays(
    counts: np.ndarray, spreads, bandwidth: float, grid: OutcomeGrid, kernel: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Densities, home cover probabilities and entropies of a
    (spreads x grid) block of outcome counts, one row per spread.

    A prefix sum over a mass row that sums to 1 can round to just above
    1 (1.0000000000000002), so cover probabilities are capped at 1.0
    before their entropy is taken.
    """
    mass = densities(counts, bandwidth, grid, kernel)
    p_home = np.minimum(cover_probabilities(mass, grid, spreads), 1.0)
    return mass, p_home, np.array([binary_entropy(p) for p in p_home.tolist()])


def _bucket_counts(buckets: Sequence[SpreadBucket], grid: OutcomeGrid) -> np.ndarray:
    """The (buckets x grid) block of outcome counts, one row per bucket, that
    ``profile_arrays`` takes."""
    rows = [outcome_counts(b.outcomes, grid) for b in buckets]
    return np.vstack(rows) if rows else np.zeros((0, len(grid)), dtype=np.int64)


def build_profile(
    buckets: Iterable[SpreadBucket],
    bandwidth: float = DEFAULT_BANDWIDTH,
    grid: OutcomeGrid = OutcomeGrid(),
    threshold: float = DEFAULT_ENTROPY_THRESHOLD,
    kernel: str = "gaussian",
) -> BiasProfile:
    """Estimate one SpreadBias per bucket from its outcome density.

    For each bucket: estimate the outcome density, integrate it up to the
    bucket's spread to get the home cover probability, and take the binary
    entropy of that probability. All buckets go through ``profile_arrays``
    as one block, as in each TI simulation; the densities are kept as the
    profile's ``mass``.
    """
    buckets = sorted(buckets, key=lambda b: b.spread)
    spreads = [b.spread for b in buckets]
    mass, p_home, entropy = profile_arrays(
        _bucket_counts(buckets, grid), spreads, bandwidth, grid, kernel
    )
    entries = tuple(
        SpreadBias(spread, p, 1.0 - p, h, len(bucket))
        for spread, p, h, bucket in zip(spreads, p_home.tolist(), entropy.tolist(), buckets)
    )
    return BiasProfile(entries, threshold, mass)


def rank_spreads(entropy, spreads, threshold: float) -> tuple[np.ndarray, int]:
    """Rank spreads from most to least biased, and count the biased ones.

    ``order`` sorts by entropy ascending, ties by |spread| then spread;
    ``k`` is the number of entropies strictly below ``threshold``
    (possibly zero). The k-Lowest strategy wagers at ``order[:k]`` and
    Min-Ent at ``order[0]``.
    """
    entropy = np.asarray(entropy, dtype=np.float64)
    order = np.lexsort((spreads, np.abs(spreads), entropy))
    return order, int(np.count_nonzero(entropy < threshold))


def min_entropy_spread(profile: BiasProfile) -> SpreadBias:
    """The most biased entry: smallest entropy, ties by |spread| then spread."""
    return k_lowest_spreads(profile, 1)[0]


def k_lowest_spreads(profile: BiasProfile, k: int | None = None) -> tuple[SpreadBias, ...]:
    """The k most biased entries, ordered by ascending entropy.

    With ``k`` unset, threshold mode applies: k is the number of entries
    whose entropy falls strictly below ``profile.threshold`` (possibly
    zero). An explicit ``k`` must lie in [1, number of entries].
    """
    if not profile.entries:
        raise ValueError("profile has no entries")
    order, k_threshold = rank_spreads(
        [e.entropy_bits for e in profile.entries],
        [e.spread for e in profile.entries],
        profile.threshold,
    )
    if k is None:
        k = k_threshold
    elif not 1 <= k <= len(order):
        raise ValueError(f"k must lie in [1, {len(order)}], got {k}")
    return tuple(profile.entries[i] for i in order[:k].tolist())
