"""Wager sides, against-the-spread settlement and the four strategy names.

``predict_random``, ``predict_max_prob`` and ``score_ats`` decide and
settle one wager at a time; they are the scalar reference for the
harnesses, which settle whole arrays with ``settle_ats``. Min-Ent and
k-Lowest are Max-Prob restricted to the spreads ``bias.rank_spreads``
selects.
"""

from __future__ import annotations

import enum

import numpy as np

from .bias import SpreadBias


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


def predict_random(rng) -> Decision:
    """Coin flip: Visitor when the next uniform draw in [0, 1) is below 0.5."""
    return Decision.VISITOR if rng.random() < 0.5 else Decision.HOME


def predict_max_prob(bias: SpreadBias) -> Decision:
    """Back the side with the larger estimated cover probability.

    Visitor only on a strict advantage; ties go Home.
    """
    return Decision.VISITOR if bias.p_visitor > bias.p_home else Decision.HOME


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
