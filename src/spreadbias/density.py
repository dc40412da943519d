"""Conditional outcome densities on a quantized margin grid.

The estimator places one kernel per observed margin, evaluates the sum at
every integer grid point, and renormalizes over the grid, so each estimate
is an exact probability vector despite kernel tails falling outside the
grid bounds. Margins are integers, which lets the kernel sum be computed
as a (grid x grid) weight matrix applied to the margin histogram.

A fit reads only a density's mass at or below its spread: a ratio of two
dot products with the histogram (``cover_sums``), so it never builds the
density. Weights come from ``math.exp`` and products from two ``np.einsum``
calls, one per table, not BLAS or ``np.exp``, whose bits change with the CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

DEFAULT_GRID_LO = -40
DEFAULT_GRID_HI = 40
DEFAULT_BANDWIDTH = 4.0

#: Supported kernel shapes. ``bandwidth`` is the Gaussian standard
#: deviation, the boxcar half-width, or the triangular half-base.
KERNELS = ("gaussian", "boxcar", "triangular")


@dataclass(frozen=True)
class OutcomeGrid:
    """Inclusive integer grid of quantized outcome (margin) values."""

    lo: int = DEFAULT_GRID_LO
    hi: int = DEFAULT_GRID_HI

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValueError(f"grid bounds must satisfy lo < hi, got [{self.lo}, {self.hi}]")

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    @property
    def points(self) -> np.ndarray:
        """Grid values ``lo..hi`` inclusive, unit step."""
        return np.arange(self.lo, self.hi + 1)


@dataclass(frozen=True)
class OutcomeDensity:
    """A probability mass vector over ``grid``: non-negative, one entry per
    grid point, summing to 1. ``n_clamped`` counts the input outcomes that
    fell outside the grid and were clamped to the nearest bound."""

    grid: OutcomeGrid
    mass: np.ndarray = field(repr=False)
    n_clamped: int = 0


@lru_cache(maxsize=32)
def _kernel_matrix(lo: int, hi: int, bandwidth: float, kernel: str) -> np.ndarray:
    """Weight of a kernel centered at column value, evaluated at row value:
    one weight per distance. Raises ValueError for a bandwidth that is not
    positive and finite, or an unknown kernel."""
    if not 0 < bandwidth < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    distances = range(hi - lo + 1)
    if kernel == "gaussian":
        # exp(-0.5 * 40 ** 2) is already 0.0; the cap keeps a tiny bandwidth's square finite.
        weights = [math.exp(-0.5 * min(d / bandwidth, 40.0) ** 2) for d in distances]
    elif kernel == "boxcar":
        weights = [float(d <= bandwidth) for d in distances]
    elif kernel == "triangular":
        weights = [max(0.0, 1.0 - d / bandwidth) for d in distances]
    else:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    return np.array(weights)[np.abs(np.subtract.outer(distances, distances))]


@lru_cache(maxsize=32)
def _cover_tables(lo: int, hi: int, bandwidth: float, kernel: str, spreads: tuple) -> np.ndarray:
    """The (2 x spreads x grid) tables of ``cover_sums``: for a game at each
    grid outcome, its kernel's mass at grid points <= each spread (A_s), and
    its whole mass (T). Both are rows of one sequential cumulative sum of
    the kernel matrix down its grid axis, so A_s <= T entry by entry."""
    cumulative = np.cumsum(_kernel_matrix(lo, hi, bandwidth, kernel), axis=0)
    idx = np.searchsorted(np.arange(lo, hi + 1), spreads, side="right")
    below = np.where(idx[:, None] > 0, cumulative[idx - 1], 0.0)
    return np.stack([below, np.broadcast_to(cumulative[-1], below.shape)])


def grid_cells(outcomes, grid: OutcomeGrid, rows=0) -> np.ndarray:
    """The flat index of each outcome's cell in a (rows x grid) block: its
    row of ``rows`` (by default row 0; any shape that broadcasts with
    ``outcomes``) times the grid's length, plus its grid point's offset.
    Outcomes off the grid are clamped to the nearest bound."""
    values = np.clip(np.asarray(outcomes, dtype=np.int64), grid.lo, grid.hi)
    return values - grid.lo + len(grid) * np.asarray(rows, dtype=np.int64)


def outcome_counts(outcomes, grid: OutcomeGrid, rows=0, n_rows: int = 1) -> np.ndarray:
    """The (n_rows x grid) block of outcome counts that counts each outcome
    in its row of ``rows`` (``grid_cells``), with one offset bincount."""
    cells = grid_cells(outcomes, grid, rows).ravel()
    return np.bincount(cells, minlength=n_rows * len(grid)).reshape(n_rows, len(grid))


def cover_sums(
    counts: np.ndarray, spreads, bandwidth: float, grid: OutcomeGrid, kernel: str
) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator of the home cover probability of each row
    of a (... x spreads x grid) block of outcome counts at its spread: for
    a row c at spread s, A_s . c and T . c (``_cover_tables``), each one
    ``np.einsum`` of the counts as float64 (a float64 block is not copied)
    with one table, so both sum a row in the same order. As A_s <= T entry by
    entry and rounding is monotone, the numerator never exceeds the
    denominator, and equals it when the whole density lies at or below s.
    Raises ValueError for a bandwidth that is not positive and finite, or
    an all-zero row.
    """
    spreads = tuple(np.asarray(spreads, dtype=np.float64).tolist())
    tables = _cover_tables(grid.lo, grid.hi, float(bandwidth), kernel, spreads)
    counts = np.asarray(counts, dtype=np.float64)
    num, den = (np.einsum("...sg,sg->...s", counts, table) for table in tables)
    if not den.all():
        raise ValueError("cannot estimate a density from zero outcomes")
    return num, den


def densities(
    counts: np.ndarray, bandwidth: float, grid: OutcomeGrid, kernel: str
) -> np.ndarray:
    """Kernel density estimates from a (... x rows x grid) array of outcome
    counts, one per row along the last axis.

    Rows are smoothed by one ``np.einsum``, which sums each row in the
    same order whatever its block, where a BLAS product's order varies
    with the block's shape and the CPU. Raises ValueError for a bandwidth
    that is not positive and finite, or an all-zero row.
    """
    weights = _kernel_matrix(grid.lo, grid.hi, float(bandwidth), kernel)
    counts = np.array(counts, dtype=np.float64)  # a copy: a block is divided in place
    n = counts.sum(axis=-1, keepdims=True)
    if not n.all():
        raise ValueError("cannot estimate a density from zero outcomes")
    # Relative frequencies keep the estimate exactly invariant to
    # duplicating the whole sample (n identical points == one point).
    counts /= n
    smoothed = np.einsum("ij,...j->...i", weights, counts)
    smoothed /= smoothed.sum(axis=-1, keepdims=True)
    return smoothed


def estimate_density(
    outcomes,
    bandwidth: float = DEFAULT_BANDWIDTH,
    grid: OutcomeGrid = OutcomeGrid(),
    kernel: str = "gaussian",
) -> OutcomeDensity:
    """Kernel density estimate on ``grid`` of a non-empty set of outcomes
    (visitor-minus-home margins): the ``densities`` row of their one-row
    count block. Outcomes off the grid are clamped to the nearest bound and
    counted in ``n_clamped``. ``bandwidth`` is the kernel width in points,
    positive and finite; ``kernel`` is one of ``KERNELS``."""
    values = np.asarray(tuple(outcomes), dtype=np.int64)
    n_clamped = int(np.count_nonzero((values < grid.lo) | (values > grid.hi)))
    mass = densities(outcome_counts(values, grid), bandwidth, grid, kernel)[0]
    return OutcomeDensity(grid=grid, mass=mass, n_clamped=n_clamped)


def home_cover_probability(density: OutcomeDensity, spread: float) -> float:
    """Probability that the home side covers: mass at grid points <= spread.

    Computed as a sequential prefix sum so the result is bit-identical to
    a left-to-right loop over (point, mass) pairs. Spreads below the grid
    give 0.0 and spreads at or above the top give the full mass. The
    visitor probability is defined as one minus this value.
    """
    idx = int(np.searchsorted(density.grid.points, spread, side="right"))
    return float(np.cumsum(density.mass[:idx])[-1]) if idx else 0.0
