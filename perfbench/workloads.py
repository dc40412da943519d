"""Seeded synthetic point-spread datasets and the benchmark workloads.

Each workload fixes the *shape* of its input: which spreads occur and how
many games each spread gets (a schedule weighted toward the key numbers
3 and 7). The seed varies everything else: per-spread cover bias, final
margins, scores, dates, team pairings, which rows are duplicated and the
row order. Holding the shape fixed across seeds keeps the amount of work
per run constant, so run-to-run spread measures the machine, not the data.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

N_TEAMS = 32
#: Standard deviation of a final margin around its spread, in points
#: (NFL margins spread by roughly two touchdowns).
MARGIN_SD = 13.5
#: Standard deviation of the per-spread cover bias, in points.
BIAS_SD = 1.5
#: A fixed share of spreads (at least one) also carries a strong lean of
#: this many points toward a random side: the oddsmaker bias the paper
#: looks for, and enough for the entropy-based strategies to select those
#: spreads, so every strategy places wagers in every workload.
STRONG_LEAN = 6.0
STRONG_SHARE = 0.2


@dataclass(frozen=True)
class Shape:
    """What a workload's generated input looks like."""

    spreads: tuple[float, ...]   # distinct spreads, tenths exact
    sizes: tuple[int, ...]       # unique games per spread
    dup_frac: float              # share of unique games repeated verbatim
    first_year: int
    last_year: int


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    commands: tuple[str, ...]    # CLI subcommands, run in order
    simulations: int = 0         # TI simulations per simulate-ti
    cutoff_year: int = 2017


def _key_number_weights(spreads: np.ndarray) -> np.ndarray:
    """Relative frequency of each spread: falls off away from pick'em, with
    bumps at the key numbers +-3 and +-7; integers a little likelier than
    half points."""
    a = np.abs(spreads)
    w = np.exp(-a / 3.0)
    for key, height in ((3.0, 0.6), (7.0, 0.5)):
        w += height * np.exp(-0.5 * ((a - key) / 0.45) ** 2)
    w *= np.where(spreads == np.round(spreads), 1.3, 1.0)
    return w


def _shape(lo, hi, total, floor, dup_frac, years=(2002, 2019)) -> Shape:
    """Half-point spreads lo..hi sharing exactly ``total`` unique games in
    proportion to the key-number weights, each getting at least ``floor``."""
    spreads = np.arange(round(lo * 2), round(hi * 2) + 1) / 2.0
    weights = _key_number_weights(spreads)
    raw = total * weights / weights.sum()
    sizes = np.maximum(floor, np.floor(raw)).astype(int)
    # Largest remainders take the games rounding left over.
    for i in np.argsort(np.floor(raw) - raw, kind="stable")[: max(0, total - sizes.sum())]:
        sizes[i] += 1
    return Shape(
        tuple(float(s) for s in spreads), tuple(int(n) for n in sizes), dup_frac, *years
    )


#: Deep: few spreads, huge buckets -- the per-simulation training-bucket
#: rebuild dominates.
TI_DEEP_SPREADS = (-7.0, -6.5, -3.5, -3.0, -2.5, 2.5, 3.0, 7.0)


def _deep_shape(per_bucket: int) -> Shape:
    return Shape(TI_DEEP_SPREADS, (per_bucket,) * len(TI_DEEP_SPREADS), 0.0, 2002, 2019)


WORKLOADS = {
    "ti-deep": Workload(
        "ti-deep", _deep_shape(2500), ("simulate-ti",), simulations=200,
    ),
    "ti-wide": Workload(
        "ti-wide", _shape(-16.5, 16.5, 3000, 1, 0.0), ("simulate-ti",), simulations=200,
    ),
    "ingest-td": Workload(
        "ingest-td", _shape(-17.5, 17.5, 67_000, 60, 0.05),
        ("ingest", "profile", "backtest-td"),
    ),
}

#: Small variants with the same code path, for the smoke test. ``ti-wide``
#: shrinks to the paper's 648 games.
TINY = {
    "ti-deep": Workload("ti-deep", _deep_shape(60), ("simulate-ti",), simulations=3),
    "ti-wide": Workload(
        "ti-wide", _shape(-16.5, 16.5, 648, 1, 0.0, (2015, 2017)), ("simulate-ti",),
        simulations=3,
    ),
    "ingest-td": Workload(
        "ingest-td", _shape(-17.5, 17.5, 3000, 30, 0.05),
        ("ingest", "profile", "backtest-td"),
    ),
}


@dataclass(frozen=True)
class Games:
    """A generated games table, one entry per CSV row in file order."""

    day: np.ndarray        # proleptic ordinal of the game date
    home: np.ndarray       # team index
    visitor: np.ndarray    # team index
    home_score: np.ndarray
    visitor_score: np.ndarray
    spread10: np.ndarray   # spread in tenths of a point (exact)

    def __len__(self) -> int:
        return self.day.size

    @property
    def spread(self) -> np.ndarray:
        return self.spread10 / 10.0

    @property
    def outcome(self) -> np.ndarray:
        return self.visitor_score - self.home_score

    def take(self, idx: np.ndarray) -> Games:
        return Games(*(getattr(self, f)[idx] for f in self.__dataclass_fields__))

    def unique(self) -> Games:
        """First occurrence of each (date, home, visitor) key, in file order."""
        key = (self.day * N_TEAMS + self.home) * N_TEAMS + self.visitor
        _, first = np.unique(key, return_index=True)
        return self.take(np.sort(first))


def team_name(i: int) -> str:
    return f"T{i:02d}"


def generate(shape: Shape, seed: int) -> Games:
    """Draw a games table of the given shape; same (shape, seed), same table."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB1A5)))
    sizes = np.array(shape.sizes)
    n = int(sizes.sum())
    spread10 = np.repeat(np.round(np.array(shape.spreads) * 10).astype(np.int64), sizes)
    n_spreads = len(shape.spreads)
    bias = rng.normal(0.0, BIAS_SD, size=n_spreads)
    strong = rng.choice(n_spreads, size=max(1, round(STRONG_SHARE * n_spreads)), replace=False)
    bias[strong] += STRONG_LEAN * rng.choice([-1.0, 1.0], size=strong.size)
    lean = np.repeat(bias, sizes)
    outcome = np.round(spread10 / 10.0 + lean + rng.normal(0.0, MARGIN_SD, n)).astype(np.int64)
    loser = rng.integers(0, 28, n)
    home_score = np.where(outcome >= 0, loser, loser - outcome)
    visitor_score = home_score + outcome

    # Distinct (date, home, visitor) keys, so deduplication never sees a
    # conflicting repeat.
    first = dt.date(shape.first_year, 1, 1).toordinal()
    n_days = dt.date(shape.last_year, 12, 31).toordinal() - first + 1
    n_pairs = N_TEAMS * (N_TEAMS - 1)
    key = rng.choice(n_days * n_pairs, size=n, replace=False)
    day = first + key // n_pairs
    pair = key % n_pairs
    home = pair // (N_TEAMS - 1)
    visitor = pair % (N_TEAMS - 1)
    visitor = visitor + (visitor >= home)

    games = Games(day, home, visitor, home_score, visitor_score, spread10)
    order = rng.permutation(n)
    n_dup = int(round(shape.dup_frac * n))
    if n_dup:
        order = np.concatenate([order, rng.choice(n, size=n_dup, replace=False)])
        rng.shuffle(order)
    return games.take(order)


def write_csv(games: Games, path) -> None:
    """Write the table in the CLI's input format."""
    dates = [dt.date.fromordinal(int(d)).isoformat() for d in games.day]
    teams = [team_name(i) for i in range(N_TEAMS)]
    lines = ["date,home_team,visitor_team,home_score,visitor_score,spread"]
    lines.extend(
        f"{d},{teams[h]},{teams[v]},{hs},{vs},{s / 10:.1f}"
        for d, h, v, hs, vs, s in zip(
            dates, games.home.tolist(), games.visitor.tolist(),
            games.home_score.tolist(), games.visitor_score.tolist(),
            games.spread10.tolist(),
        )
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def describe(games: Games, min_samples: int) -> dict:
    """Rows, duplicates, spreads and valid-bucket sizes of a generated table,
    so a change can state what share of a workload has the property it
    optimises."""
    unique = games.unique()
    _, counts = np.unique(unique.spread10, return_counts=True)
    valid = counts[counts >= min_samples]
    return {
        "rows": len(games),
        "unique_rows": len(unique),
        "duplicate_rows": len(games) - len(unique),
        "distinct_spreads": int(counts.size),
        "valid_spreads": int(valid.size),
        "min_samples": min_samples,
        "valid_share_of_games": round(float(valid.sum() / len(unique)), 4),
        "bucket_min": int(valid.min()) if valid.size else 0,
        "bucket_median": float(np.median(valid)) if valid.size else 0.0,
        "bucket_max": int(valid.max()) if valid.size else 0,
    }
