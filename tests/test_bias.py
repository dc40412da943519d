"""Entropy computation and biased-spread selection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spreadbias import (
    KERNELS,
    BiasProfile,
    OutcomeGrid,
    SpreadBias,
    binary_entropy,
    estimate_density,
    home_cover_probability,
    k_lowest_spreads,
    min_entropy_spread,
    rank_spreads,
)
from spreadbias.bias import _entropies, profile_arrays
from spreadbias.density import OutcomeDensity, cover_sums, densities, outcome_counts
from conftest import reference_ranking, scalar_profile


def entry(spread, entropy, p_home=0.5, n_train=20):
    return SpreadBias(
        spread=spread,
        p_home=p_home,
        p_visitor=1.0 - p_home,
        entropy_bits=entropy,
        n_train=n_train,
    )


class TestBinaryEntropy:
    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_are_exactly_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_known_value(self):
        # -0.75*log2(0.75) - 0.25*log2(0.25), computed independently.
        assert binary_entropy(0.75) == pytest.approx(0.8112781244591328, abs=1e-12)
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_domain_errors(self):
        for p in (-0.01, 1.01, 2.0, -5.0):
            with pytest.raises(ValueError):
                binary_entropy(p)

    def test_symmetry_on_dense_grid(self):
        ps = np.linspace(0.0, 1.0, 10001)
        for p in ps:
            assert abs(binary_entropy(float(p)) - binary_entropy(float(1.0 - p))) <= 1e-12

    def test_strictly_increasing_below_half(self):
        ps = np.linspace(0.0, 0.5, 5001)
        values = [binary_entropy(float(p)) for p in ps]
        assert all(b - a > 1e-12 for a, b in zip(values, values[1:]))


def block_fit(buckets, bandwidth=4.0, grid=OutcomeGrid(), kernel="gaussian"):
    """``profile_arrays`` over one ``outcome_counts`` block of ``(spread,
    outcomes)`` buckets, one row each in the order given."""
    return profile_arrays(bucket_counts(buckets, grid), [s for s, _ in buckets],
                          bandwidth, grid, kernel)


def bucket_counts(buckets, grid):
    """The ``outcome_counts`` block of ``(spread, outcomes)`` buckets."""
    outcomes = [v for _, group in buckets for v in group]
    rows = [j for j, (_, group) in enumerate(buckets) for _ in group]
    return outcome_counts(outcomes, grid, rows, len(buckets))


class TestProfileArrays:
    def test_entropy_is_exactly_that_of_the_cover_probability(self):
        p_home, entropy = block_fit([(3.5, range(-6, 6)), (-2.5, range(-10, 2))])
        assert entropy.tolist() == [binary_entropy(p) for p in p_home.tolist()]

    def test_block_entropy_is_binary_entropy_bit_for_bit(self):
        # np.log2 rounds differently from math.log2 on some of these p.
        edges = [0.0, 1.0, 0.5, 5e-324, 2.0**-1022, 2.0**-53, 1.0 - 2.0**-53]
        p = np.concatenate([edges, np.random.default_rng(3).random(10_003)])
        expected = np.array([binary_entropy(q) for q in p.tolist()])
        assert _entropies(p).tobytes() == expected.tobytes()
        assert _entropies(p.reshape(-1, 7)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [-0.01, -5e-324, 1.0 + 2.0**-52, 2.0, float("nan")])
    def test_block_entropy_domain_errors(self, bad):
        with pytest.raises(ValueError, match="must lie in"):
            binary_entropy(bad)
        with pytest.raises(ValueError, match="must lie in"):
            _entropies(np.array([[0.5, 0.25], [bad, 1.0]]))

    def test_one_sided_bucket_is_near_certain(self):
        # Outcomes far below the spread: the home side all but surely covers.
        (p_home,), (entropy,) = block_fit([(-2.5, range(-30, -20))])
        assert p_home > 0.999
        assert entropy < 0.01

    def test_outcomes_mirrored_about_spread_give_full_entropy(self):
        # Pairs (v, -5 - v) are symmetric about -2.5.
        outcomes = []
        for v in (-3, -4, -8, -13):
            outcomes += [v, -5 - v]
        (p_home,), (entropy,) = block_fit([(-2.5, outcomes)])
        assert p_home == pytest.approx(0.5, abs=1e-9)
        assert entropy == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("bandwidth", [0.7, 3.0, 12.0])
    @pytest.mark.parametrize("grid", [OutcomeGrid(), OutcomeGrid(-10, 10)], ids=["wide", "narrow"])
    def test_block_equals_bucket_by_bucket(self, kernel, bandwidth, grid):
        rng = np.random.default_rng(11)
        buckets = [
            (spread, rng.integers(-30, 31, size=int(rng.integers(1, 40))).tolist())
            for spread in (6.5, -14.0, -3.0, 0.0, 2.5, 10.0, 45.5)
        ]
        p_home, entropy = block_fit(buckets, bandwidth, grid, kernel)
        expected = scalar_profile(buckets, bandwidth, grid, 0.95, kernel).entries
        assert p_home.tolist() == [e.p_home for e in expected]
        assert entropy.tolist() == [e.entropy_bits for e in expected]
        mass = densities(bucket_counts(buckets, grid), bandwidth, grid, kernel)
        prefix_sums = []
        for row, (spread, outcomes) in zip(mass, buckets):
            density = estimate_density(outcomes, bandwidth, grid, kernel)
            assert row.tolist() == density.mass.tolist()
            prefix_sums.append(home_cover_probability(density, spread))
        # The fit is the density's mass at or below the spread, computed
        # without the density: the two agree to within rounding.
        assert np.abs(p_home - prefix_sums).max() <= 1e-14

        # A (splits x spreads x grid) block, each split a different draw of
        # every spread's games, fits as each split does on its own.
        spreads = np.array([spread for spread, _ in buckets])
        block = np.stack([
            outcome_counts(rng.integers(-30, 31, size=(len(spreads), 12)), grid,
                           np.arange(len(spreads))[:, None], len(spreads))
            for _ in range(5)
        ])
        stacked = profile_arrays(block, spreads, bandwidth, grid, kernel)
        for i, counts in enumerate(block):
            for got, want in zip(stacked, profile_arrays(counts, spreads, bandwidth, grid, kernel)):
                assert got[i].tobytes() == want.tobytes()

    @given(
        st.sampled_from(KERNELS),
        st.floats(0.1, 50.0),
        st.sampled_from([OutcomeGrid(), OutcomeGrid(-10, 10), OutcomeGrid(0, 1)]),
        st.lists(st.integers(-96, 96), min_size=1, max_size=8, unique=True),
        st.integers(1, 6),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_fit_lies_in_unit_interval_and_block_equals_each_split(
        self, kernel, bandwidth, grid, half_points, n_splits, fill, seed
    ):
        # Spreads below, inside and at or above the grid; sparse and dense
        # count rows, some with one game.
        spreads = [h / 2 for h in half_points]
        rng = np.random.default_rng(seed)
        shape = (n_splits, len(spreads), len(grid))
        block = rng.integers(0, 6, shape) * (rng.random(shape) < fill)
        block[..., 0][~block.any(axis=-1)] = 1
        p_home, entropy = profile_arrays(block, spreads, bandwidth, grid, kernel)
        assert np.all((0.0 <= p_home) & (p_home <= 1.0))
        for i, counts in enumerate(block):
            alone = profile_arrays(counts, spreads, bandwidth, grid, kernel)
            assert p_home[i].tobytes() == alone[0].tobytes()
            assert entropy[i].tobytes() == alone[1].tobytes()

    def test_block_of_many_splits_equals_each_split_bit_for_bit(self):
        # A TI-sized block, larger than numpy's iterator buffer, sums each
        # row as it does alone.
        grid = OutcomeGrid()
        spreads = np.arange(-15.0, 16.0)
        rng = np.random.default_rng(21)
        block = rng.integers(0, 4, size=(256, len(spreads), len(grid)))
        num, den = cover_sums(block, spreads, 4.0, grid, "gaussian")
        for i in range(0, 256, 15):
            alone = cover_sums(block[i], spreads, 4.0, grid, "gaussian")
            assert (num[i].tobytes(), den[i].tobytes()) == (alone[0].tobytes(), alone[1].tobytes())

    def test_certain_cover_is_exactly_one_without_a_cap(self):
        # A prefix sum over a mass row that sums to 1 can round past 1.
        density = OutcomeDensity(OutcomeGrid(0, 3), np.array([0.2, 0.4, 0.3, 0.1]))
        assert home_cover_probability(density, 3.0) == 1.0000000000000002
        # The fit does not sum a density: this boxcar density lies wholly at
        # or below 7.5, so the numerator equals the denominator.
        outcomes = [-12 + i % 13 for i in range(30)]
        grid = OutcomeGrid()
        num, den = cover_sums(outcome_counts(outcomes, grid), [7.5], 3.0, grid, "boxcar")
        assert num.tolist() == den.tolist()
        p_home, entropy = block_fit([(7.5, outcomes)], 3.0, kernel="boxcar")
        assert (p_home.tolist(), entropy.tolist()) == ([1.0], [0.0])

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError, match="zero outcomes"):
            block_fit([(1.5, (3, 4)), (2.5, ())])


class TestBiasProfile:
    def test_duplicate_spreads_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            BiasProfile((entry(1.0, 0.9), entry(1.0, 0.8)))


#: Entropies on a coarse grid, so that ties are common.
ENTROPIES = st.integers(0, 4).map(lambda q: q / 4)
PROFILES = st.dictionaries(
    st.integers(-30, 30).map(lambda halves: halves / 2 + 0.0), ENTROPIES, min_size=1, max_size=12
).map(lambda by_spread: BiasProfile(
    tuple(entry(spread, h) for spread, h in by_spread.items()), threshold=0.5
))


class TestRankSpreads:
    def test_order_and_threshold_count(self):
        order, k = rank_spreads([0.99, 0.64, 0.97, 0.91, 0.80], [-7.0, -2.5, -1.0, 3.0, 6.5], 0.95)
        assert order.tolist() == [1, 4, 3, 2, 0]
        assert k == 3

    def test_ties_by_absolute_then_signed_spread(self):
        order, k = rank_spreads([0.8, 0.8, 0.8, 0.8], [6.5, 2.5, -2.5, -6.5], 0.8)
        assert order.tolist() == [2, 1, 3, 0]
        assert k == 0

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.lists(st.integers(-30, 30), min_size=n, max_size=n, unique=True),
        st.lists(st.lists(ENTROPIES, min_size=n, max_size=n), min_size=1, max_size=6),
    )))
    @example(([-5, 5, 1], [[0.25, 0.25, 0.25], [1.0, 0.75, 0.5], [0.0, 0.0, 0.0]]))
    def test_block_equals_split_by_split(self, spreads_and_entropies):
        # Coarse entropies tie often; with threshold 0.5 a split selects
        # nothing, some or every spread.
        halves, entropies = spreads_and_entropies
        spreads = np.array(halves) / 2
        order, k = rank_spreads(np.array(entropies), spreads, 0.5)
        assert k.tolist() == [rank_spreads(row, spreads, 0.5)[1] for row in entropies]
        assert order.tolist() == [rank_spreads(row, spreads, 0.5)[0].tolist() for row in entropies]

    @given(PROFILES)
    def test_equals_tuple_sort(self, profile):
        order, k = rank_spreads(
            [e.entropy_bits for e in profile.entries],
            [e.spread for e in profile.entries],
            profile.threshold,
        )
        ranked, expected_k = reference_ranking(profile)
        assert [profile.entries[i] for i in order] == ranked
        assert k == expected_k


class TestMinEntropySpread:
    def test_argmin(self):
        profile = BiasProfile((entry(-7.0, 0.99), entry(-2.5, 0.80), entry(3.0, 0.97)))
        assert min_entropy_spread(profile).spread == -2.5

    def test_single_entry(self):
        profile = BiasProfile((entry(4.5, 0.93),))
        assert min_entropy_spread(profile) == profile.entries[0]

    def test_tie_breaks_by_absolute_spread(self):
        profile = BiasProfile((entry(6.5, 0.80), entry(-2.5, 0.80)))
        assert min_entropy_spread(profile).spread == -2.5

    def test_tie_breaks_by_signed_spread_last(self):
        profile = BiasProfile((entry(2.5, 0.80), entry(-2.5, 0.80)))
        assert min_entropy_spread(profile).spread == -2.5

    def test_empty_profile(self):
        with pytest.raises(ValueError):
            min_entropy_spread(BiasProfile(()))


class TestKLowestSpreads:
    def _profile(self):
        return BiasProfile(
            (
                entry(-7.0, 0.99),
                entry(-2.5, 0.64),
                entry(-1.0, 0.97),
                entry(3.0, 0.91),
                entry(6.5, 0.80),
            ),
            threshold=0.95,
        )

    def test_k_one_matches_min_entropy(self):
        profile = self._profile()
        assert k_lowest_spreads(profile, 1) == (min_entropy_spread(profile),)

    def test_prefix_property(self):
        profile = self._profile()
        for k in range(1, len(profile.entries)):
            smaller = k_lowest_spreads(profile, k)
            larger = k_lowest_spreads(profile, k + 1)
            assert larger[:k] == smaller

    def test_full_k_returns_all_sorted_by_entropy(self):
        profile = self._profile()
        selected = k_lowest_spreads(profile, 5)
        assert [e.spread for e in selected] == [-2.5, 6.5, 3.0, -1.0, -7.0]

    def test_threshold_mode_counts_strictly_below(self):
        profile = self._profile()
        selected = k_lowest_spreads(profile)
        assert [e.spread for e in selected] == [-2.5, 6.5, 3.0]

    def test_threshold_mode_boundary_entry_excluded(self):
        profile = BiasProfile((entry(1.0, 0.95), entry(2.0, 0.9499)), threshold=0.95)
        assert [e.spread for e in k_lowest_spreads(profile)] == [2.0]

    def test_threshold_mode_can_select_nothing(self):
        profile = BiasProfile((entry(1.0, 0.99), entry(2.0, 0.96)), threshold=0.95)
        assert k_lowest_spreads(profile) == ()

    def test_k_out_of_range(self):
        profile = self._profile()
        for k in (0, 6, -1):
            with pytest.raises(ValueError):
                k_lowest_spreads(profile, k)
