"""Wager sides, against-the-spread settlement and the four strategy names.

``predict_random``, ``predict_max_prob`` and ``score_ats`` decide and
settle one wager at a time; they are the scalar reference for the
harnesses, which count whole blocks of splits' wagers per spread with
``settle_by_spread``. Min-Ent and k-Lowest are Max-Prob restricted to the
spreads ``bias.rank_spreads`` selects.
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


def settle_by_spread(backs_visitor, flips, outcomes, rows, spreads) -> tuple[np.ndarray, np.ndarray]:
    """``score_ats``'s loss/push/win counts for a block of splits' test games: ``outcomes``
    (splits x games), game g at spread ``spreads[rows[g]]`` in every split. Returns a (splits x
    spreads x 3) block for one side at each (split, spread), the Visitor where ``backs_visitor``
    holds and Home elsewhere, and a (splits x 3) block for each game's coin flip in ``flips``,
    where a flip below 0.5 backs the Visitor."""
    splits, n = backs_visitor.shape
    # -1 where Home covers (the outcome is below the spread), 0 at a push, 1 where the Visitor
    # covers: tallied per (split, spread), a Visitor wager's counts, and a Home wager's reversed.
    cover = np.sign(outcomes - spreads[rows]).astype(np.intp)
    tally = np.bincount(((3 * n * np.arange(splits) + 1)[:, None] + 3 * rows + cover).ravel(),
                        minlength=3 * n * splits).reshape(splits, n, 3)
    flipped = (3 * np.arange(splits) + 1)[:, None] + np.where(flips < 0.5, cover, -cover)
    return (np.where(backs_visitor[..., None], tally, tally[..., ::-1]),
            np.bincount(flipped.ravel(), minlength=3 * splits).reshape(splits, 3))
