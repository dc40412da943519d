"""Per-spread bias quantification via the entropy of the cover distribution.

A spread that carries no information about which side covers has a
cover distribution near (0.5, 0.5) and binary entropy near 1 bit; a
strongly biased spread has entropy near 0. Spreads whose entropy falls
strictly below a threshold are considered biased and eligible for
wagering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import OutcomeGrid, cover_sums

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
    """Per-spread bias entries, sorted by spread, plus the entropy threshold."""

    entries: tuple[SpreadBias, ...]
    threshold: float = DEFAULT_ENTROPY_THRESHOLD

    def __post_init__(self):
        spreads = [e.spread for e in self.entries]
        if len(set(spreads)) != len(spreads):
            raise ValueError("profile entries must have unique spreads")


def profile_arrays(
    counts: np.ndarray, spreads, bandwidth: float, grid: OutcomeGrid, kernel: str
) -> tuple[np.ndarray, np.ndarray]:
    """Home cover probabilities and entropies of a (... x spreads x grid)
    block of outcome counts, one row per spread along the last two axes (a
    leading axis stacks splits).

    Each cover probability is the ratio of its ``cover_sums``, whose
    numerator never exceeds its denominator, so it lies in [0, 1] without
    a cap, and is exactly 1.0 when the whole density lies at or below the
    spread. Each entropy is ``binary_entropy``'s, bit for bit (``_entropies``).
    """
    num, den = cover_sums(counts, spreads, bandwidth, grid, kernel)
    p_home = num / den
    return p_home, _entropies(p_home)


def _entropies(p: np.ndarray) -> np.ndarray:
    """``binary_entropy`` of each of ``p``, by its operations in its order: ``math.log2`` (not
    ``np.log2``, which rounds differently) maps p and 1 - p, 1.0 for a zero term (product 0.0)."""
    bad = p[~((0.0 <= p) & (p <= 1.0))]  # NaN too
    if bad.size:
        raise ValueError(f"probability must lie in [0, 1], got {bad[0]}")
    terms = np.stack([p, 1.0 - p])
    logs = map(math.log2, np.where(terms > 0.0, terms, 1.0).ravel().tolist())
    terms *= np.fromiter(logs, np.float64, terms.size).reshape(terms.shape)
    return (0.0 - terms[0]) - terms[1]


def rank_spreads(entropy, spreads, threshold: float) -> tuple[np.ndarray, int | np.ndarray]:
    """Rank spreads from most to least biased, and count the biased ones.

    ``order`` sorts by entropy ascending, ties by |spread| then spread;
    ``k`` is the number of entropies strictly below ``threshold``
    (possibly zero). The k-Lowest strategy wagers at ``order[:k]`` and
    Min-Ent at ``order[0]``. Both work along the last axis: a
    (... x spreads) block of entropies gives one ``order`` row and one
    ``k`` (an int array) per leading index.
    """
    entropy = np.asarray(entropy, dtype=np.float64)
    spreads = np.broadcast_to(spreads, entropy.shape)
    order = np.lexsort((spreads, np.abs(spreads), entropy))
    k = np.count_nonzero(entropy < threshold, axis=-1)
    return order, k if entropy.ndim > 1 else int(k)


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
