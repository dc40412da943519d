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
from spreadbias.models import settle_ats


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


class TestSettleAts:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(-60, 60), SPREADS), min_size=1, max_size=40
        )
    )
    def test_equals_score_ats_elementwise(self, wagers):
        visitor, outcomes, spreads = map(np.array, zip(*wagers))
        expected = [
            ATS_CODES[score_ats(Decision.VISITOR if v else Decision.HOME, o, s)]
            for v, o, s in wagers
        ]
        assert settle_ats(visitor, outcomes, spreads).tolist() == expected

    @given(st.integers(-30, 30), st.booleans())
    def test_integer_spread_pushes_at_equal_margin(self, spread, visitor):
        assert settle_ats(visitor, [spread], [float(spread)]).tolist() == [0]

    def test_broadcasts_one_side_per_row(self):
        outcomes = np.array([[-7, 0, -3], [5, 2, 1]])
        spreads = np.array([[-3.0], [1.5]])
        backs_visitor = np.array([[False], [True]])
        assert settle_ats(backs_visitor, outcomes, spreads).tolist() == [
            [1, -1, 0],
            [1, 1, -1],
        ]
