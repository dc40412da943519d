"""Output correctness for the benchmark: an independent oracle, readers for
what the CLI wrote, and the comparison between them.

The oracle recomputes every command's result from the generated arrays
with batched numpy (one histogram per spread, training histograms as the
full histogram minus the holdout's, all densities in one matrix product).
It shares no code with the package, only its documented contract: the
random-stream keys, the grid, the kernel, the tie-breaking order and the
settlement rule. A summary has two parts. ``exact`` holds integers and
spreads, which must match exactly; ``reference.json`` records a digest of
it per workload, seed and command. ``approx`` holds probabilities,
entropies and percentages, which must match within ``ATOL``, since
summation order may legitimately change.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from workloads import Games, Workload, team_name

ATOL = 1e-12
GRID_LO, GRID_HI = -40, 40
BANDWIDTH = 4.0
THRESHOLD = 0.95
HOLDOUT = 10
TI_MIN_SAMPLES = 25       # simulate-ti and profile default
TD_MIN_SAMPLES = 15       # backtest-td default
MODELS = ("random", "max_prob", "min_entropy", "k_lowest")
MANIFEST_PREFIX = "# manifest "


# -- oracle -------------------------------------------------------------------

def _kernel() -> np.ndarray:
    points = np.arange(GRID_LO, GRID_HI + 1, dtype=np.float64)
    return np.exp(-0.5 * ((points[:, None] - points[None, :]) / BANDWIDTH) ** 2)


def _hist(outcomes: np.ndarray) -> np.ndarray:
    return np.bincount(np.clip(outcomes, GRID_LO, GRID_HI) - GRID_LO,
                       minlength=GRID_HI - GRID_LO + 1)


def _densities(hists: np.ndarray) -> np.ndarray:
    freq = hists / hists.sum(axis=-1, keepdims=True)
    mass = freq @ _kernel().T
    return mass / mass.sum(axis=-1, keepdims=True)


def _p_home(mass: np.ndarray, spreads: np.ndarray) -> np.ndarray:
    """Mass at grid points <= spread, for each density row and its spread."""
    idx = np.searchsorted(np.arange(GRID_LO, GRID_HI + 1), spreads, side="right")
    idx = np.broadcast_to(idx, mass.shape[:-1])
    cum = np.cumsum(mass, axis=-1)
    below = np.take_along_axis(cum, np.maximum(idx - 1, 0)[..., None], axis=-1)[..., 0]
    return np.where(idx > 0, below, 0.0)


def _entropy(p: np.ndarray) -> np.ndarray:
    h = np.zeros_like(p)
    for q in (p, 1.0 - p):
        safe = np.where(q > 0.0, q, 1.0)
        h -= np.where(q > 0.0, q * np.log2(safe), 0.0)
    return h


def _rank(entropy: np.ndarray, spreads: np.ndarray) -> np.ndarray:
    """Indices by entropy ascending, ties by |spread| then spread."""
    return np.lexsort((spreads, np.abs(spreads), entropy))


def _settle(decide_visitor: np.ndarray, outcome: np.ndarray, spread: np.ndarray):
    """(wins, losses, pushes) as boolean arrays."""
    push = outcome == spread
    visitor_covers = outcome > spread
    win = ~push & (decide_visitor == visitor_covers)
    return win, ~push & ~win, push


def _pct(wins: int, settled: int):
    return None if settled == 0 else 100.0 * wins / settled


def _stream(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(key))


def _buckets(games: Games, min_samples: int):
    """Valid spreads ascending, and each one's outcomes in row order."""
    spreads, counts = np.unique(games.spread10, return_counts=True)
    keep = spreads[counts >= min_samples]
    outcome = games.outcome
    return keep / 10.0, [outcome[games.spread10 == s] for s in keep]


def _model_row(wins, settled, pushes, k):
    return [int(wins), int(settled), int(pushes), k]


def _spread_key(s: float) -> str:
    return f"{s:g}"


def expect_ti(games: Games, seed: int, simulations: int) -> dict:
    spreads, buckets = _buckets(games.unique(), TI_MIN_SAMPLES)
    n_spreads = spreads.size
    full = np.array([_hist(b) for b in buckets])
    tests = np.empty((simulations, n_spreads, HOLDOUT), dtype=np.int64)
    train = np.empty((simulations, *full.shape))
    for sim in range(simulations):
        for j, outcomes in enumerate(buckets):
            rng = _stream(seed, 0, sim, j)
            tests[sim, j] = outcomes[np.sort(rng.choice(outcomes.size, HOLDOUT, replace=False))]
            train[sim, j] = full[j] - _hist(tests[sim, j])
    mass = _densities(train)
    p_home = _p_home(mass, spreads)
    entropy = _entropy(p_home)

    spread_b = np.broadcast_to(spreads[:, None], (n_spreads, HOLDOUT))
    totals = {m: [0, 0, 0] for m in MODELS}
    pcts = {m: [] for m in MODELS}
    selection: Counter = Counter()
    ks = []
    for sim in range(simulations):
        guess = _stream(seed, 1, sim).random(n_spreads * HOLDOUT).reshape(n_spreads, HOLDOUT)
        max_prob = (1.0 - p_home[sim]) > p_home[sim]
        order = _rank(entropy[sim], spreads)
        k = int(np.count_nonzero(entropy[sim] < THRESHOLD))
        ks.append(k)
        selection.update(float(spreads[j]) for j in order[:k])
        backed = np.broadcast_to(max_prob[:, None], spread_b.shape)
        every = slice(None)
        picks = {  # model: (backs the visitor, spreads wagered on)
            "random": (guess < 0.5, every),
            "max_prob": (backed, every),
            "min_entropy": (backed, order[:1]),
            "k_lowest": (backed, order[:k]),
        }
        for model, (visitor, rows) in picks.items():
            win, loss, push = _settle(visitor[rows], tests[sim][rows], spread_b[rows])
            w, l, p = int(win.sum()), int(loss.sum()), int(push.sum())
            totals[model] = [totals[model][0] + w, totals[model][1] + w + l,
                             totals[model][2] + p]
            if w + l:
                pcts[model].append(100.0 * w / (w + l))

    counts = Counter(ks)
    modal_k = min(counts, key=lambda k: (-counts[k], k))
    model_k = {"random": None, "max_prob": None, "min_entropy": 1, "k_lowest": modal_k}
    summaries, approx_models = {}, {}
    for m in MODELS:
        summaries[m] = _model_row(*totals[m], model_k[m])
        values = pcts[m]
        mean = float(np.mean(values)) if values else None
        sem = (float(np.std(values, ddof=1) / math.sqrt(len(values)))
               if len(values) > 1 else None)
        approx_models[m] = [mean, sem]
    return {
        "simulate-ti": {
            "exact": {
                "valid_spreads": spreads.tolist(),
                "n_test_samples": simulations * HOLDOUT * n_spreads,
                "n_train": [int(b.size) - HOLDOUT for b in buckets],
                "models": summaries,
                "selection_counts": {_spread_key(s): c for s, c in sorted(selection.items())},
                "files": ["profile.csv", "report.json", "summary.csv"],
            },
            "approx": {
                "p_home": p_home.mean(axis=0).tolist(),
                "entropy_bits": entropy.mean(axis=0).tolist(),
                "models": approx_models,
            },
        }
    }


def expect_td(games: Games, seed: int, cutoff_year: int) -> dict:
    unique = games.unique()
    cutoff = dt.date(cutoff_year, 1, 1).toordinal()
    train, test = unique.take(unique.day < cutoff), unique.take(unique.day >= cutoff)
    spreads, buckets = _buckets(train, TD_MIN_SAMPLES)
    p_home = _p_home(_densities(np.array([_hist(b) for b in buckets], dtype=np.float64)),
                     spreads)
    entropy = _entropy(p_home)

    test = test.take(np.isin(test.spread10, np.round(spreads * 10).astype(np.int64)))
    # By (spread, date, home, visitor); team indices sort like their names.
    test = test.take(np.lexsort((test.visitor, test.home, test.day, test.spread10)))
    spread_idx = np.searchsorted(spreads, test.spread)
    outcome, spread = test.outcome, test.spread
    max_prob = ((1.0 - p_home) > p_home)[spread_idx]

    def tally(visitor, rows=slice(None)):
        win, loss, push = _settle(visitor[rows], outcome[rows], spread[rows])
        return int(win.sum()), int(win.sum() + loss.sum()), int(push.sum())

    random_t = tally(_stream(seed, 1).random(len(test)) < 0.5)
    max_prob_t = tally(max_prob)
    order = _rank(entropy, spreads)
    k_threshold = int(np.count_nonzero(entropy < THRESHOLD))
    sweep, sweep_pct, acc = [], [], np.zeros(3, dtype=np.int64)
    for k, j in enumerate(order, start=1):
        acc += tally(max_prob, spread_idx == j)
        sweep.append([k, int(acc[0]), int(acc[1]), int(acc[2]), k == k_threshold])
        sweep_pct.append(_pct(acc[0], acc[1]))
    k_row = sweep[k_threshold - 1][1:4] if k_threshold else [0, 0, 0]
    summaries = {
        "random": _model_row(*random_t, None),
        "max_prob": _model_row(*max_prob_t, None),
        "min_entropy": _model_row(*sweep[0][1:4], 1),
        "k_lowest": _model_row(*k_row, k_threshold),
    }
    selected = sorted(float(s) for s in spreads[entropy < THRESHOLD])
    return {
        "backtest-td": {
            "exact": {
                "valid_spreads": spreads.tolist(),
                "n_test_samples": len(test),
                "n_train_records": len(train),
                "n_test_records": int(np.count_nonzero(unique.day >= cutoff)),
                "n_train": [int(b.size) for b in buckets],
                "models": summaries,
                "selection_counts": {_spread_key(s): 1 for s in selected},
                "ksweep": sweep,
                "files": ["profile.csv", "report.json", "summary.csv"],
            },
            "approx": {
                "p_home": p_home.tolist(),
                "entropy_bits": entropy.tolist(),
                "models": {m: [_pct(r[0], r[1]), None] for m, r in summaries.items()},
                "ksweep": sweep_pct,
            },
        }
    }


def _canonical_digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update((",".join(row) + "\n").encode())
    return h.hexdigest()


def expect_ingest(games: Games) -> dict:
    unique = games.unique()
    dates = [dt.date.fromordinal(d).isoformat() for d in unique.day.tolist()]
    rows = [["date", "home_team", "visitor_team", "home_score", "visitor_score", "spread"]]
    rows.extend(
        [d, team_name(h), team_name(v), str(hs), str(vs), f"{s / 10:.1f}"]
        for d, h, v, hs, vs, s in zip(dates, unique.home.tolist(), unique.visitor.tolist(),
                                      unique.home_score.tolist(),
                                      unique.visitor_score.tolist(), unique.spread10.tolist())
    )
    return {
        "ingest": {
            "exact": {
                "rows": len(games),
                "unique": len(unique),
                "dropped": len(games) - len(unique),
                "dataset_sha256": _canonical_digest(rows),
                "files": ["dataset.csv"],
            },
            "approx": {},
        }
    }


def expect_profile(games: Games) -> dict:
    spreads, buckets = _buckets(games.unique(), TI_MIN_SAMPLES)
    mass = _densities(np.array([_hist(b) for b in buckets], dtype=np.float64))
    p_home = _p_home(mass, spreads)
    hist_rows = []
    for s, b in zip(spreads, buckets):
        values, counts = np.unique(b, return_counts=True)
        hist_rows.append([f"{s:.1f}"])
        hist_rows.extend([str(v), str(c)] for v, c in zip(values.tolist(), counts.tolist()))
    tags = [f"{s:.1f}" for s in spreads]
    return {
        "profile": {
            "exact": {
                "valid_spreads": spreads.tolist(),
                "n_train": [int(b.size) for b in buckets],
                "hist_sha256": _canonical_digest(hist_rows),
                "files": sorted(["profile.csv"] + [f"hist_{t}.csv" for t in tags]
                                + [f"pdf_{t}.csv" for t in tags]),
            },
            "approx": {
                "p_home": p_home.tolist(),
                "entropy_bits": _entropy(p_home).tolist(),
                "pdf": mass.ravel().tolist(),
            },
        }
    }


def expect(workload: Workload, games: Games, seed: int) -> dict:
    """Expected summary of every command the workload runs, keyed by command."""
    out = {}
    for command in workload.commands:
        if command == "simulate-ti":
            out.update(expect_ti(games, seed, workload.simulations))
        elif command == "backtest-td":
            out.update(expect_td(games, seed, workload.cutoff_year))
        elif command == "ingest":
            out.update(expect_ingest(games))
        elif command == "profile":
            out.update(expect_profile(games))
    return out


# -- what the CLI wrote -------------------------------------------------------

def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


def _observe_report(out_dir: Path, td: bool) -> dict:
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    models = {m["model"]: m for m in report["models"]}
    exact = {
        "valid_spreads": report["valid_spreads"],
        "n_test_samples": report["n_test_samples"],
        "n_train": [row["n_train"] for row in report["profile"]],
        "models": {m: _model_row(models[m]["n_wins"], models[m]["n_test"],
                                 models[m]["n_push"], models[m]["k"]) for m in MODELS},
        "selection_counts": report["selection_counts"],
    }
    approx = {
        "p_home": [row["p_home"] for row in report["profile"]],
        "entropy_bits": [row["entropy_bits"] for row in report["profile"]],
        "models": {m: [models[m]["ats_win_pct"], models[m]["sem"]] for m in MODELS},
    }
    if td:
        exact["n_train_records"] = report["n_train_records"]
        exact["n_test_records"] = report["n_test_records"]
        exact["ksweep"] = [[r["k"], r["n_wins"], r["n_test"], r["n_push"],
                            r["threshold_selected"]] for r in report["ksweep"]]
        approx["ksweep"] = [r["ats_win_pct"] for r in report["ksweep"]]
    return {"exact": exact, "approx": approx}


def observe(command: str, out_dir: Path, stdout: str) -> dict:
    """Summary of one command's outputs, in the oracle's layout."""
    files = sorted(p.name for p in out_dir.iterdir())
    if command in ("simulate-ti", "backtest-td"):
        summary = _observe_report(out_dir, command == "backtest-td")
    elif command == "ingest":
        first = stdout.splitlines()[0].replace(",", "").split()
        rows, unique = int(first[0]), int(first[2])
        summary = {
            "exact": {
                "rows": rows,
                "unique": unique,
                "dropped": rows - unique,
                "dataset_sha256": _canonical_digest(_csv_rows(out_dir / "dataset.csv")),
            },
            "approx": {},
        }
    elif command == "profile":
        table = _csv_rows(out_dir / "profile.csv")[1:]
        spreads = [float(r[0]) for r in table]
        hist_rows = []
        pdf = []
        for s in spreads:
            hist_rows.append([f"{s:.1f}"])
            hist_rows.extend(_csv_rows(out_dir / f"hist_{s:.1f}.csv")[1:])
            pdf.extend(float(r[1]) for r in _csv_rows(out_dir / f"pdf_{s:.1f}.csv")[1:])
        summary = {
            "exact": {
                "valid_spreads": spreads,
                "n_train": [int(r[3]) for r in table],
                "hist_sha256": _canonical_digest(hist_rows),
            },
            "approx": {
                "p_home": [float(r[1]) for r in table],
                "entropy_bits": [float(r[2]) for r in table],
                "pdf": pdf,
            },
        }
    else:
        raise ValueError(f"unknown command {command!r}")
    summary["exact"]["files"] = files
    return summary


def exact_digest(summary: dict) -> str:
    """Digest of a summary's exact part, as ``reference.json`` records it."""
    return hashlib.sha256(json.dumps(summary["exact"], sort_keys=True).encode()).hexdigest()


def fingerprint(out_dir: Path) -> str:
    """Digest of a command's outputs with the run manifest left out (the
    manifest carries a timestamp; everything else is byte-deterministic)."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            payload = json.loads(data)
            payload.pop("manifest", None)
            data = json.dumps(payload, sort_keys=True).encode()
        elif data.startswith(MANIFEST_PREFIX.encode()):
            data = data[data.index(b"\n") + 1:]
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


# -- comparison ---------------------------------------------------------------

def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(_close(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _close(a[k], b[k]) for k in a)
    return abs(a - b) <= ATOL


def compare(observed: dict, expected: dict) -> list[str]:
    """Mismatches between two summaries of one command; empty when equal."""
    problems = []
    for key, want in expected["exact"].items():
        got = observed["exact"].get(key)
        if got != want:
            problems.append(f"{key}: got {_short(got)}, expected {_short(want)}")
    for key, want in expected["approx"].items():
        got = observed["approx"].get(key)
        if not _close(got, want):
            problems.append(f"{key}: differs from oracle by more than {ATOL}")
    return problems


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 160 else text[:157] + "..."
