"""The four wagering strategies and against-the-spread settlement."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .bias import BiasProfile, SpreadBias, k_lowest_spreads, min_entropy_spread


class Decision(enum.Enum):
    """Which side a wager backs."""

    HOME = "home"
    VISITOR = "visitor"


class AtsResult(enum.Enum):
    """Settlement of a wager against the spread."""

    WIN = "win"
    LOSS = "loss"
    PUSH = "push"


MODEL_RANDOM = "random"
MODEL_MAX_PROB = "max_prob"
MODEL_MIN_ENTROPY = "min_entropy"
MODEL_K_LOWEST = "k_lowest"
MODEL_NAMES = (MODEL_RANDOM, MODEL_MAX_PROB, MODEL_MIN_ENTROPY, MODEL_K_LOWEST)


@dataclass(frozen=True)
class Wager:
    """A strategy's pick at one spread."""

    spread: float
    decision: Decision
    model: str


def predict_random(rng) -> Decision:
    """Coin flip: Visitor when the next uniform draw in [0, 1) is below 0.5."""
    return Decision.VISITOR if rng.random() < 0.5 else Decision.HOME


def predict_max_prob(bias: SpreadBias) -> Decision:
    """Back the side with the larger estimated cover probability.

    Visitor only on a strict advantage; ties go Home.
    """
    return Decision.VISITOR if bias.p_visitor > bias.p_home else Decision.HOME


def predict_min_entropy(profile: BiasProfile) -> Wager:
    """Wager only at the most biased spread, picking the max-probability side."""
    entry = min_entropy_spread(profile)
    return Wager(entry.spread, predict_max_prob(entry), MODEL_MIN_ENTROPY)


def predict_k_lowest(profile: BiasProfile, k: int | None = None) -> tuple[Wager, ...]:
    """Wager at each of the k most biased spreads (threshold mode when k unset)."""
    return tuple(
        Wager(entry.spread, predict_max_prob(entry), MODEL_K_LOWEST)
        for entry in k_lowest_spreads(profile, k)
    )


def score_ats(decision: Decision, outcome: int, spread: float) -> AtsResult:
    """Settle a wager: home covers below the spread, visitor above, push at it.

    The outcome is the visitor-minus-home margin; pushes occur only when
    it equals the spread exactly, which is impossible at half-point
    spreads.
    """
    if outcome == spread:
        return AtsResult.PUSH
    covering = Decision.HOME if outcome < spread else Decision.VISITOR
    return AtsResult.WIN if decision is covering else AtsResult.LOSS


def settle_ats(backs_visitor, outcomes, spreads) -> np.ndarray:
    """Array form of ``score_ats``, element-wise over broadcast inputs.

    ``backs_visitor`` is True where a wager backs the visitor and False
    where it backs home. Returns 1 for a win, -1 for a loss and 0 for a
    push.
    """
    outcomes = np.asarray(outcomes)
    spreads = np.asarray(spreads)
    won = (outcomes > spreads) == backs_visitor
    return np.where(outcomes == spreads, 0, np.where(won, 1, -1))
