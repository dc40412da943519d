"""Density estimation and cover-probability integration."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spreadbias import KERNELS, OutcomeGrid, estimate_density, home_cover_probability
from spreadbias.density import (
    OutcomeDensity, _cover_tables, _kernel_matrix, cover_sums, densities, outcome_counts,
)


def brute_force_cover(density: OutcomeDensity, spread: float) -> float:
    """Independent oracle: left-to-right sum of mass at points <= spread."""
    total = 0.0
    for point, mass in zip(density.grid.points.tolist(), density.mass.tolist()):
        if point <= spread:
            total += mass
    return total


class TestOutcomeGrid:
    def test_default_has_81_unit_spaced_points(self):
        grid = OutcomeGrid()
        assert len(grid) == 81
        assert grid.points[0] == -40 and grid.points[-1] == 40
        assert np.all(np.diff(grid.points) == 1)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            OutcomeGrid(5, 5)


class TestEstimateDensity:
    def test_single_centered_kernel(self):
        density = estimate_density([0], bandwidth=4.0)
        points = density.grid.points
        # Direct evaluation of one Gaussian bump at 0, renormalized.
        expected = np.exp(-0.5 * (points / 4.0) ** 2)
        expected = expected / expected.sum()
        np.testing.assert_allclose(density.mass, expected, atol=1e-12)
        assert points[np.argmax(density.mass)] == 0

    def test_single_kernel_symmetric_about_center(self):
        density = estimate_density([0], bandwidth=4.0)
        np.testing.assert_allclose(density.mass, density.mass[::-1], atol=1e-9)

    def test_mirrored_outcomes_symmetric(self):
        density = estimate_density([-5, 5], bandwidth=4.0)
        np.testing.assert_allclose(density.mass, density.mass[::-1], atol=1e-9)

    def test_normalization_and_nonnegativity(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            outcomes = rng.integers(-40, 41, size=rng.integers(1, 60)).tolist()
            bandwidth = float(rng.uniform(0.5, 10.0))
            density = estimate_density(outcomes, bandwidth)
            assert abs(density.mass.sum() - 1.0) <= 1e-9
            assert np.all(density.mass >= 0)

    @given(
        st.sampled_from(KERNELS),
        st.floats(0.1, 50.0),
        st.sampled_from([OutcomeGrid(), OutcomeGrid(-10, 10), OutcomeGrid(0, 1)]),
        st.lists(st.lists(st.integers(-60, 60), min_size=1, max_size=30), min_size=1, max_size=5),
    )
    def test_density_rows_are_probability_vectors(self, kernel, bandwidth, grid, samples):
        counts = np.vstack([outcome_counts(outcomes, grid) for outcomes in samples])
        mass = densities(counts, bandwidth, grid, kernel)
        assert mass.shape == counts.shape
        assert np.all(mass >= 0)
        assert np.all(np.abs(mass.sum(axis=1) - 1.0) <= 1e-9)

    @given(
        st.sampled_from(KERNELS),
        st.floats(0.1, 50.0),
        st.sampled_from([OutcomeGrid(), OutcomeGrid(-10, 10), OutcomeGrid(0, 1)]),
        st.lists(st.lists(st.integers(-60, 60), min_size=1, max_size=60), min_size=1, max_size=40),
    )
    def test_block_equals_row_by_row_products_bit_for_bit(self, kernel, bandwidth, grid, samples):
        counts = np.vstack([outcome_counts(outcomes, grid) for outcomes in samples])
        weights = _kernel_matrix(grid.lo, grid.hi, bandwidth, kernel)
        expected = np.empty(counts.shape)
        for out, row in zip(expected, counts.astype(np.float64)):
            smoothed = np.einsum("ij,j->i", weights, row / row.sum())
            out[:] = smoothed / smoothed.sum()
        assert densities(counts, bandwidth, grid, kernel).tobytes() == expected.tobytes()

    def test_zero_row_in_a_block_rejected(self):
        counts = np.vstack([outcome_counts([0, 3], OutcomeGrid()), np.zeros((1, 81), np.int64)])
        with pytest.raises(ValueError, match="zero outcomes"):
            densities(counts, 4.0, OutcomeGrid(), "gaussian")

    def test_empty_outcomes_rejected(self):
        with pytest.raises(ValueError, match="zero outcomes"):
            estimate_density([], bandwidth=4.0)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="bandwidth"):
            estimate_density([0], bandwidth=0.0)

    @pytest.mark.parametrize("bandwidth", [math.inf, math.nan, -math.inf])
    def test_non_finite_bandwidth_rejected(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            estimate_density([0], bandwidth=bandwidth)
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            densities(np.ones((2, 81)), bandwidth, OutcomeGrid(), "gaussian")

    def test_out_of_grid_outcomes_clamped_and_counted(self):
        density = estimate_density([55, -3, 41], bandwidth=2.0)
        assert density.n_clamped == 2
        assert abs(density.mass.sum() - 1.0) <= 1e-9

    def test_in_grid_outcomes_not_counted_as_clamped(self):
        assert estimate_density([-40, 0, 40], bandwidth=2.0).n_clamped == 0

    def test_repeated_point_invariant_to_count(self):
        base = estimate_density([7], bandwidth=4.0)
        for n in (2, 5, 17):
            repeated = estimate_density([7] * n, bandwidth=4.0)
            np.testing.assert_array_equal(repeated.mass, base.mass)

    def test_shift_equivariance_of_argmax(self):
        rng = np.random.default_rng(5)
        outcomes = rng.integers(-10, 11, size=40).tolist()
        base = estimate_density(outcomes, bandwidth=4.0)
        base_mode = base.grid.points[np.argmax(base.mass)]
        for shift in (-6, 3, 9):
            shifted = estimate_density([o + shift for o in outcomes], bandwidth=4.0)
            mode = shifted.grid.points[np.argmax(shifted.mass)]
            assert mode == base_mode + shift

    @pytest.mark.parametrize("kernel", ["gaussian", "boxcar", "triangular"])
    def test_alternative_kernels_produce_valid_mass(self, kernel):
        density = estimate_density([-4, 0, 4], bandwidth=3.0, kernel=kernel)
        assert abs(density.mass.sum() - 1.0) <= 1e-9
        assert np.all(density.mass >= 0)
        np.testing.assert_allclose(density.mass, density.mass[::-1], atol=1e-9)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            estimate_density([0], bandwidth=4.0, kernel="epanechnikov")

    def test_boxcar_support_is_hard_edged(self):
        density = estimate_density([0], bandwidth=2.0, kernel="boxcar")
        points = density.grid.points
        inside = np.abs(points) <= 2
        assert np.all(density.mass[inside] > 0)
        assert np.all(density.mass[~inside] == 0)


class TestHomeCoverProbability:
    def test_uniform_grid_spread_zero(self):
        grid = OutcomeGrid()
        uniform = OutcomeDensity(grid, np.full(81, 1.0 / 81))
        assert home_cover_probability(uniform, 0.0) == pytest.approx(41 / 81, rel=1e-12)

    def test_spread_at_top_of_grid(self):
        density = estimate_density([3, -3], bandwidth=4.0)
        assert home_cover_probability(density, 40) == pytest.approx(1.0, abs=1e-12)

    def test_spread_below_grid(self):
        density = estimate_density([3, -3], bandwidth=4.0)
        assert home_cover_probability(density, -41) == 0.0

    def test_half_point_spread_uses_points_strictly_below(self):
        grid = OutcomeGrid()
        uniform = OutcomeDensity(grid, np.full(81, 1.0 / 81))
        # -2.5 covers grid points -40..-3: 38 of 81 points.
        assert home_cover_probability(uniform, -2.5) == pytest.approx(38 / 81, rel=1e-12)

    def test_monotone_in_spread(self):
        rng = np.random.default_rng(17)
        density = estimate_density(rng.integers(-20, 21, size=50).tolist(), bandwidth=4.0)
        spreads = np.arange(-42.0, 42.5, 0.5)
        values = [home_cover_probability(density, s) for s in spreads]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            outcomes = rng.integers(-45, 46, size=rng.integers(1, 40)).tolist()
            density = estimate_density(outcomes, float(rng.uniform(0.5, 8.0)))
            spread = float(rng.integers(-84, 85)) / 2.0
            assert home_cover_probability(density, spread) == brute_force_cover(
                density, spread
            )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_matches_brute_force_exactly_on_a_narrow_grid(self, kernel):
        # Spreads below lo, at lo, lo + 0.5, an interior half point, hi - 0.5,
        # hi and above hi.
        grid = OutcomeGrid(-12, 9)
        spreads = [-20.0, -12.5, -12.0, -11.5, -2.5, 8.5, 9.0, 9.5, 15.0]
        rng = np.random.default_rng(5)
        for _ in range(30):
            outcomes = rng.integers(-16, 14, size=rng.integers(1, 30)).tolist()
            density = estimate_density(outcomes, float(rng.uniform(0.5, 8.0)), grid, kernel)
            for spread in spreads:
                assert home_cover_probability(density, spread) == brute_force_cover(
                    density, spread
                )

    def test_complement_is_exact(self):
        rng = np.random.default_rng(3)
        density = estimate_density(rng.integers(-15, 16, size=30).tolist(), bandwidth=4.0)
        for spread in (-7.0, -2.5, 0.0, 3.5, 10.0):
            p_home = home_cover_probability(density, spread)
            assert p_home + (1.0 - p_home) == 1.0


def test_kernel_matrix_is_symmetric_toeplitz():
    m = _kernel_matrix(-10, 10, 4.0, "gaussian")
    np.testing.assert_array_equal(m, m.T)
    for offset in range(1, 5):
        diag = np.diagonal(m, offset)
        assert np.all(diag == diag[0])
    assert np.all(np.diagonal(m) == 1.0)


def test_gaussian_bandwidth_is_standard_deviation():
    density = estimate_density([0], bandwidth=4.0, grid=OutcomeGrid(-40, 40))
    mass_at = dict(zip(density.grid.points.tolist(), density.mass.tolist()))
    # One bandwidth from the center the unnormalized kernel is exp(-1/2).
    assert mass_at[4] / mass_at[0] == pytest.approx(math.exp(-0.5), rel=1e-12)


@pytest.mark.parametrize("bandwidth", [1e-160, 1e-200, 5e-324])
def test_tiny_gaussian_bandwidth_gives_the_histogram(bandwidth):
    # Every weight off a kernel's own point underflows to 0.0.
    density = estimate_density([-3, 0, 0, 5], bandwidth=bandwidth)
    expected = np.zeros(81)
    expected[[37, 40, 45]] = [0.25, 0.5, 0.25]
    np.testing.assert_array_equal(density.mass, expected)


@pytest.mark.parametrize("bandwidth", [1e-150, 0.01, 0.3, 4.0, 1e6])
def test_gaussian_weights_are_exp_of_the_uncapped_square(bandwidth):
    # Where (d / bandwidth) ** 2 is finite, capping d / bandwidth at 40 changes no weight.
    weights = _kernel_matrix(-40, 40, bandwidth, "gaussian")[0]
    np.testing.assert_array_equal(weights, [math.exp(-0.5 * (d / bandwidth) ** 2) for d in range(81)])


def one_einsum_cover_sums(counts, spreads, bandwidth, grid, kernel):
    """``cover_sums`` as one ``np.einsum`` over both tables, stacked (spreads x 2 x grid)."""
    spreads = tuple(np.asarray(spreads, dtype=np.float64).tolist())
    tables = np.stack(_cover_tables(grid.lo, grid.hi, float(bandwidth), kernel, spreads), axis=1)
    sums = np.einsum("...sg,sog->o...s", np.asarray(counts, dtype=np.float64), tables)
    return sums[0], sums[1]


@given(
    st.sampled_from(KERNELS),
    st.floats(0.1, 50.0),
    st.sampled_from([OutcomeGrid(), OutcomeGrid(-10, 10)]),
    st.sampled_from([np.int64, np.float64]),
    st.sampled_from([(), (1,), (2,), (7,)]),
    st.lists(st.integers(-20, 19), min_size=1, max_size=8),
    st.integers(0, 2**32 - 1),
)
def test_cover_sums_equal_one_einsum_over_both_tables_bit_for_bit(
    kernel, bandwidth, grid, dtype, lead, half_spreads, seed
):
    # Each sum is its own einsum over one table; both must sum each row as one einsum
    # over the stacked tables did, for a count block of either dtype and any leading shape.
    spreads = [s / 2 for s in half_spreads]
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, size=(*lead, len(spreads), len(grid))) * (rng.random(len(grid)) < 0.5)
    counts[..., rng.integers(len(grid))] += 1  # no all-zero row
    counts = counts.astype(dtype)
    num, den = cover_sums(counts, spreads, bandwidth, grid, kernel)
    expected = one_einsum_cover_sums(counts, spreads, bandwidth, grid, kernel)
    assert num.tobytes() == expected[0].tobytes()
    assert den.tobytes() == expected[1].tobytes()
    assert num.shape == den.shape == counts.shape[:-1]
    assert np.all(num <= den)
