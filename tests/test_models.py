"""Strategy decision rules and against-the-spread settlement."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from spreadbias import (
    AtsResult,
    Decision,
    SpreadBias,
    predict_max_prob,
    predict_random,
    score_ats,
)
from spreadbias.models import settle_by_spread


class QueuedRng:
    """Stand-in uniform stream yielding preset draws."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


def entry(spread, entropy, p_home):
    return SpreadBias(spread, p_home, 1.0 - p_home, entropy, 20)


class TestPredictRandom:
    def test_low_draw_picks_visitor(self):
        assert predict_random(QueuedRng([0.3])) is Decision.VISITOR

    def test_high_draw_picks_home(self):
        assert predict_random(QueuedRng([0.7])) is Decision.HOME

    def test_boundary_draw_picks_home(self):
        assert predict_random(QueuedRng([0.5])) is Decision.HOME

    def test_long_run_frequency(self):
        rng = np.random.default_rng(2024)
        picks = [predict_random(rng) for _ in range(10_000)]
        visitor_fraction = sum(p is Decision.VISITOR for p in picks) / len(picks)
        assert abs(visitor_fraction - 0.5) <= 0.02


class TestPredictMaxProb:
    def test_home_heavy(self):
        assert predict_max_prob(entry(-3.0, 0.9, p_home=0.7)) is Decision.HOME

    def test_visitor_heavy(self):
        assert predict_max_prob(entry(-3.0, 0.9, p_home=0.3)) is Decision.VISITOR

    def test_exact_tie_goes_home(self):
        assert predict_max_prob(entry(-3.0, 1.0, p_home=0.5)) is Decision.HOME

    def test_invariant_under_monotone_rescaling(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            p_home = float(rng.uniform(0.0, 1.0))
            bias = entry(-3.0, 0.9, p_home)
            # Squaring preserves order on [0, 1]; rescale both sides.
            rescaled = SpreadBias(
                bias.spread, bias.p_home**2, bias.p_visitor**2, bias.entropy_bits, 20
            )
            assert predict_max_prob(bias) is predict_max_prob(rescaled)


class TestScoreAts:
    def test_home_covers_below_spread(self):
        assert score_ats(Decision.HOME, -7, -2.5) is AtsResult.WIN

    def test_visitor_covers_above_spread(self):
        assert score_ats(Decision.HOME, 0, -2.5) is AtsResult.LOSS

    def test_exact_integer_tie_is_push(self):
        assert score_ats(Decision.VISITOR, -3, -3.0) is AtsResult.PUSH

    def test_antisymmetric_in_decision(self):
        rng = np.random.default_rng(31)
        flipped = {Decision.HOME: Decision.VISITOR, Decision.VISITOR: Decision.HOME}
        swap = {AtsResult.WIN: AtsResult.LOSS, AtsResult.LOSS: AtsResult.WIN,
                AtsResult.PUSH: AtsResult.PUSH}
        for _ in range(500):
            outcome = int(rng.integers(-40, 41))
            spread = float(rng.integers(-20, 21)) / 2.0
            decision = Decision.HOME if rng.random() < 0.5 else Decision.VISITOR
            assert score_ats(flipped[decision], outcome, spread) is swap[
                score_ats(decision, outcome, spread)
            ]

    def test_half_point_spreads_never_push(self):
        rng = np.random.default_rng(77)
        for _ in range(500):
            outcome = int(rng.integers(-40, 41))
            spread = float(rng.integers(-20, 20)) + 0.5
            decision = Decision.HOME if rng.random() < 0.5 else Decision.VISITOR
            assert score_ats(decision, outcome, spread) is not AtsResult.PUSH


ATS_CODES = {AtsResult.WIN: 1, AtsResult.LOSS: -1, AtsResult.PUSH: 0}
#: Whole- and half-point spreads, plus arbitrary tenths, on the input scale.
SPREADS = st.one_of(
    st.integers(-30, 30).map(float),
    st.integers(-30, 29).map(lambda v: v + 0.5),
    st.integers(-300, 300).map(lambda v: round(v / 10, 1) + 0.0),
)


class TestPerSpreadSettlement:
    """``settle_by_spread`` counts a block of splits' wagers per (split, spread);
    each count must be the one ``score_ats`` gives wager by wager."""

    @staticmethod
    def settle(spreads, rows, outcomes, flips, backs_visitor):
        sided, random = settle_by_spread(
            np.array(backs_visitor, dtype=bool), np.array(flips, dtype=np.float64),
            np.array(outcomes, dtype=np.int64), np.array(rows, dtype=np.intp),
            np.array(spreads, dtype=np.float64))
        return sided.tolist(), random.tolist()

    @given(
        st.lists(SPREADS, min_size=1, max_size=4, unique=True).flatmap(lambda spreads: st.tuples(
            st.just(spreads),
            st.lists(st.tuples(st.integers(0, len(spreads) - 1), st.integers(-60, 60),
                               st.floats(0.0, 1.0, exclude_max=True)), max_size=40),
            st.lists(st.booleans(), min_size=len(spreads), max_size=len(spreads)),
        ))
    )
    def test_equals_score_ats_wager_by_wager(self, case):
        spreads, games, visitor = case
        rows, outcomes, flips = map(list, zip(*games)) if games else ([], [], [])
        sided, random = self.settle(spreads, [rows], [outcomes], [flips], [visitor])
        expected = [[0, 0, 0] for _ in spreads]
        expected_random = [0, 0, 0]
        for row, outcome, flip in games:
            side = Decision.VISITOR if visitor[row] else Decision.HOME
            expected[row][ATS_CODES[score_ats(side, outcome, spreads[row])] + 1] += 1
            flipped = predict_random(QueuedRng([flip]))
            expected_random[ATS_CODES[score_ats(flipped, outcome, spreads[row])] + 1] += 1
        assert sided == [expected]
        assert random == [expected_random]

    @given(st.integers(-30, 30), st.booleans(), st.floats(0.0, 1.0, exclude_max=True))
    def test_integer_spread_pushes_at_equal_margin(self, spread, visitor, flip):
        assert self.settle([float(spread)], [0], [[spread]], [[flip]], [[visitor]]) == (
            [[[0, 1, 0]]], [[0, 1, 0]])

    def test_one_side_per_split_and_spread(self):
        # Split 0 backs Home at -3 and the Visitor at 1.5; split 1 the reverse. A flip
        # below 0.5 backs the Visitor, one of exactly 0.5 Home.
        rows = [0, 0, 0, 1, 1, 1]
        outcomes = [[-7, 0, -3, 5, 2, 1], [-7, 0, -3, 5, 2, 1]]
        flips = [[0.2, 0.7, 0.5, 0.1, 0.9, 0.4], [0.5, 0.5, 0.0, 0.5, 0.5, 0.5]]
        sides = [[False, True], [True, False]]
        sided, random = self.settle([-3.0, 1.5], rows, outcomes, flips, sides)
        assert sided == [[[1, 1, 1], [1, 0, 2]], [[1, 1, 1], [2, 0, 1]]]
        assert random == [[4, 1, 1], [3, 1, 2]]
