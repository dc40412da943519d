"""Command-line surface: ingest data, emit bias profiles, run backtests.

Subcommands: ``ingest``, ``profile``, ``simulate-ti``, ``backtest-td``.
Every output file embeds a run manifest (command, resolved config, input
digest, tool version, timestamp): JSON reports carry it under a
``manifest`` key and CSV files as a leading ``#`` comment line. Option
precedence is CLI flag, then ``--config`` file entry, then built-in
default.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import statistics
import sys
from collections import Counter
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .bias import build_profile
from .data import (
    REQUIRED_COLUMNS,
    Dataset,
    DuplicateConflictError,
    ParseError,
    SchemaError,
    bucket_by_spread,
    deduplicate,
    parse_games,
)
from .density import KERNELS
from .harness import (
    EvaluationReport, FitConfig, TdConfig, TiConfig, _field_error, run_td, run_ti,
)
from .models import MODEL_K_LOWEST, MODEL_MAX_PROB, MODEL_MIN_ENTROPY, MODEL_RANDOM

MODEL_LABELS = {MODEL_RANDOM: "Random", MODEL_MAX_PROB: "Max-Prob"}

# Config fields whose flag and --config key are spelled differently; every
# other field's option is its own name.
_FLAG_OF = {"holdout_per_spread": "holdout", "n_simulations": "simulations"}
_FIELD_OF = {flag: name for name, flag in _FLAG_OF.items()}

# Every tuning option, each a field of TiConfig or TdConfig (FitConfig's
# fields are in both), and the type it parses to: that of the default.
_OPTION_TYPES = {
    _FLAG_OF.get(f.name, f.name): type(f.default)
    for cls in (TiConfig, TdConfig)
    for f in fields(cls)
}

_HELP = {
    "min_samples": "min outcomes for a valid spread",
    "entropy_threshold": "bias threshold in bits",
    "bandwidth": "kernel width in points",
    "grid_lo": "lower outcome grid bound",
    "grid_hi": "upper outcome grid bound",
    "kernel": "kernel shape",
    "seed": "random seed (default 0)",
    "simulations": "number of TI simulations",
    "holdout": "held-out outcomes per spread (TI)",
    "cutoff_year": "first test year (TD)",
}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--input", required=True, help="input games CSV")
    shared.add_argument("--out-dir", default="out", help="directory for output files")
    shared.add_argument("--config", help="flat key=value config file")
    for name, kind in _OPTION_TYPES.items():
        shared.add_argument(
            "--" + name.replace("_", "-"), type=kind, help=_HELP[name],
            choices=KERNELS if name == "kernel" else None,
        )

    parser = argparse.ArgumentParser(
        prog="spreadbias",
        description="Detect oddsmaker bias in point-spread data and backtest "
        "against-the-spread wagering strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "ingest", parents=[shared],
        help="parse, validate, and deduplicate a games file",
    )
    sub.add_parser(
        "profile", parents=[shared],
        help="emit the per-spread bias profile plus histogram/density tables",
    )
    sub.add_parser(
        "simulate-ti", parents=[shared],
        help="run the repeated-random-holdout Monte Carlo evaluation",
    )
    sub.add_parser(
        "backtest-td", parents=[shared],
        help="run the date-split backtest with the full k sweep",
    )
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    for n, line in enumerate(Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf").splitlines(), 1):
        try:
            line = line.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{n}: {exc}") from None
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{n}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _OPTION_TYPES:
            raise ValueError(f"{path}:{n}: unknown option {key!r}")
        kind, raw = _OPTION_TYPES[key], raw.strip()
        try:
            values[key] = kind(raw)
        except ValueError:
            raise ValueError(f"{path}:{n}: {key} expects {kind.__name__}, got {raw!r}") from None
        if error := _field_error(_FIELD_OF.get(key, key), values[key]):
            raise ValueError(f"{path}:{n}: {error}")
    return values


def _resolve_options(args: argparse.Namespace) -> dict:
    """Merge CLI flags over config-file entries over nothing (defaults
    come from the harness config dataclasses)."""
    resolved = _read_config_file(args.config) if args.config else {}
    for dest in _OPTION_TYPES:
        if getattr(args, dest) is not None:
            resolved[dest] = getattr(args, dest)
    return resolved


def _config(cls, options: dict):
    """Build config class ``cls`` from the resolved options that set its
    fields; the rest keep their defaults."""
    flags = {f.name: _FLAG_OF.get(f.name, f.name) for f in fields(cls)}
    return cls(**{name: options[flag] for name, flag in flags.items() if flag in options})


def _manifest(command: str, config: dict, input_path: str) -> dict:
    digest = hashlib.sha256(Path(input_path).read_bytes()).hexdigest()
    return {
        "command": command,
        "config": config,
        "input": str(input_path),
        "input_digest": digest,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _load_dataset(path: str) -> tuple[Dataset, Dataset]:
    """Return (raw, deduplicated) datasets from a games file."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            raw = parse_games(fh)
    except UnicodeDecodeError:
        # The error's position counts from a read buffer, not the file: decode by line.
        for n, line in enumerate(Path(path).read_bytes().splitlines(), 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(n, str(exc)) from None
        raise
    return raw, deduplicate(raw)


def _write_csv(path: Path, manifest: dict, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# manifest " + json.dumps(manifest, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_report(path: Path, manifest: dict, report: EvaluationReport) -> None:
    payload = {"manifest": manifest, **report.to_dict()}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _fmt_pct(value: float | None) -> str:
    return "" if value is None else f"{value:.2f}"


def _spread_tag(spread: float) -> str:
    return f"{spread:.1f}"


def _summary_rows(report: EvaluationReport) -> list[list[str]]:
    """Flat model/percent/SEM/sample-count rows, one strategy per line; the
    TD k sweep is expanded into the numbered k-lowest rows."""
    rows = []
    for summary in report.models:
        if summary.model in MODEL_LABELS:
            label = MODEL_LABELS[summary.model]
        elif summary.model == MODEL_MIN_ENTROPY:
            label = "Min-Ent"
        else:
            label = f"{summary.k}-Lowest Ent"
        if summary.model == MODEL_K_LOWEST and report.protocol == "td":
            continue  # expanded from the sweep below
        rows.append(
            [label, _fmt_pct(summary.ats_win_pct), _fmt_pct(summary.sem), str(summary.n_test)]
        )
    if report.ksweep:
        for row in report.ksweep:
            if row["k"] == 1:
                continue  # already present as Min-Ent
            rows.append(
                [
                    f"{row['k']}-Lowest Ent",
                    _fmt_pct(row["ats_win_pct"]),
                    "",
                    str(row["n_test"]),
                ]
            )
    return rows


def _profile_rows(profile) -> tuple[list[str], list[list[str]]]:
    """``profile.csv``'s header and rows from per-spread dicts keyed like a
    report's profile rows; an ``entropy_sd`` key (TI's) gets a column."""
    has_sd = any("entropy_sd" in row for row in profile)
    header = ["spread", "p_home", "entropy_bits"] + (["entropy_sd"] if has_sd else []) + ["n_train"]
    rows = []
    for row in profile:
        out = [f"{row['spread']:g}", repr(row["p_home"]), repr(row["entropy_bits"])]
        if has_sd:
            sd = row.get("entropy_sd")
            out.append("" if sd is None else repr(sd))
        out.append(str(row["n_train"]))
        rows.append(out)
    return header, rows


def cmd_ingest(args: argparse.Namespace, options: dict) -> int:
    raw, unique = _load_dataset(args.input)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _manifest("ingest", dict(options), args.input)

    _write_csv(
        out_dir / "dataset.csv",
        manifest,
        list(REQUIRED_COLUMNS),
        (
            [
                r.date.isoformat(),
                r.home_team,
                r.visitor_team,
                str(r.home_score),
                str(r.visitor_score),
                _spread_tag(r.spread),
            ]
            for r in unique
        ),
    )
    print(f"{len(raw)} rows, {len(unique)} unique ({len(raw) - len(unique)} duplicates removed)")
    if len(unique):
        mean_spread = statistics.fmean(r.spread for r in unique)
        print(f"spread mean: {mean_spread:.2f}")
    print(f"wrote {out_dir / 'dataset.csv'}")
    return 0


def cmd_profile(args: argparse.Namespace, options: dict) -> int:
    _, dataset = _load_dataset(args.input)
    config = _config(FitConfig, options)
    buckets = config.valid_buckets(dataset)
    if not buckets:
        largest = max((len(b) for b in bucket_by_spread(dataset, 1)), default=0)
        print(
            f"error: no spread has {config.min_samples} samples "
            f"(largest group has {largest}); lower --min-samples",
            file=sys.stderr,
        )
        return 1

    profile = build_profile(
        buckets, config.bandwidth, config.grid(), config.entropy_threshold, config.kernel
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _manifest("profile", asdict(config), args.input)

    header, rows = _profile_rows([asdict(e) for e in profile.entries])
    _write_csv(out_dir / "profile.csv", manifest, header, rows)
    points = config.grid().points.tolist()
    for bucket, mass in zip(buckets, profile.mass.tolist()):
        tag = _spread_tag(bucket.spread)
        counts = Counter(bucket.outcomes)
        _write_csv(
            out_dir / f"hist_{tag}.csv",
            manifest,
            ["outcome", "count"],
            ([str(v), str(c)] for v, c in sorted(counts.items())),
        )
        _write_csv(
            out_dir / f"pdf_{tag}.csv",
            manifest,
            ["grid_point", "mass"],
            ([str(p), repr(m)] for p, m in zip(points, mass)),
        )
    for entry in profile.entries:
        print(
            f"spread {entry.spread:+.1f}: p_home={entry.p_home:.4f} "
            f"entropy={entry.entropy_bits:.4f} bits (n={entry.n_train})"
        )
    print(f"wrote {len(buckets)} histogram/density pairs to {out_dir}")
    return 0


def _run_and_write(command: str, report: EvaluationReport, args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(command, dict(report.config), args.input)
    _write_report(out_dir / "report.json", manifest, report)
    summary = _summary_rows(report)
    _write_csv(
        out_dir / "summary.csv",
        manifest,
        ["model", "percent_ats_win", "sem", "n_test_samples"],
        summary,
    )
    header, rows = _profile_rows(report.profile)
    _write_csv(out_dir / "profile.csv", manifest, header, rows)

    for label, pct, sem, n_test in summary:
        line = f"{label}: {pct or 'no wagers'}"
        if sem:
            line += f" +/- {sem} SEM"
        line += f" (n={n_test})"
        print(line)
    print(f"wrote report.json, summary.csv, profile.csv to {out_dir}")
    return 0


def cmd_simulate_ti(args: argparse.Namespace, options: dict) -> int:
    _, dataset = _load_dataset(args.input)
    return _run_and_write("simulate-ti", run_ti(dataset, _config(TiConfig, options)), args)


def cmd_backtest_td(args: argparse.Namespace, options: dict) -> int:
    _, dataset = _load_dataset(args.input)
    return _run_and_write("backtest-td", run_td(dataset, _config(TdConfig, options)), args)


_COMMANDS = {
    "ingest": cmd_ingest,
    "profile": cmd_profile,
    "simulate-ti": cmd_simulate_ti,
    "backtest-td": cmd_backtest_td,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        options = _resolve_options(args)
        return _COMMANDS[args.command](args, options)
    except (SchemaError, ParseError, DuplicateConflictError) as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
