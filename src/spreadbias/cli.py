"""Command-line surface: ingest data, emit bias profiles, run backtests.

Subcommands: ``ingest``, ``profile``, ``simulate-ti``, ``backtest-td``.
Every output file embeds a run manifest (command, resolved config, input
digest, tool version, timestamp): JSON reports carry it under a
``manifest`` key and CSV files as a leading ``#`` comment line. Option
precedence is CLI flag, then ``--config`` file entry, then built-in
default.

``main`` runs the chosen command with Python's cyclic garbage collector
paused, from reading the options to writing the last output file, and on
every exit, raising or not, leaves it as it was. A game table's records
cannot form cycles, yet each stays tracked, so every automatic collection
would walk the whole table again; a command leaves a few hundred cyclic
objects behind, however large its input.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict, fields
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .bias import profile_arrays
from .data import (
    REQUIRED_COLUMNS,
    Dataset,
    DuplicateConflictError,
    ParseError,
    SchemaError,
    _ASCII_SPACE,
    _gc_paused,
    _number,
    deduplicate,
    parse_games,
    spread_groups,
)
from .density import KERNELS
from .harness import (
    EvaluationReport, FitConfig, TdConfig, TiConfig, _field_error, _grouped_counts, run_td, run_ti,
)
from .models import MODEL_K_LOWEST, MODEL_MAX_PROB, MODEL_MIN_ENTROPY, MODEL_RANDOM

#: Each strategy's ``summary.csv`` label; ``{k}`` stands for its k.
MODEL_LABELS = {MODEL_RANDOM: "Random", MODEL_MAX_PROB: "Max-Prob",
                MODEL_MIN_ENTROPY: "Min-Ent", MODEL_K_LOWEST: "{k}-Lowest Ent"}

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
    "kernel": "kernel shape: " + ", ".join(KERNELS),
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
    # Tuning values stay strings here: _parse_option reads a flag as it reads a file line.
    for name in _OPTION_TYPES:
        shared.add_argument("--" + name.replace("_", "-"), help=_HELP[name])

    parser = argparse.ArgumentParser(
        prog="spreadbias",
        description="Detect oddsmaker bias in point-spread data and backtest "
        "against-the-spread wagering strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line) in _COMMANDS.items():
        sub.add_parser(command, parents=[shared], help=help_line)
    return parser


def _read_config_file(path: str) -> dict:
    values, first_line = {}, {}
    for n, line in enumerate(Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf").splitlines(), 1):
        try:
            line = line.decode("utf-8").strip(_ASCII_SPACE)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{n}: {exc}") from None
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{n}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip(_ASCII_SPACE).replace("-", "_")
        if key not in _OPTION_TYPES:
            raise ValueError(f"{path}:{n}: unknown option {key!r}")
        if (first := first_line.setdefault(key, n)) != n:
            raise ValueError(f"{path}:{n}: repeated option {key!r} (first on line {first})")
        try:
            values[key] = _parse_option(key, raw.strip(_ASCII_SPACE))
        except ValueError as exc:
            raise ValueError(f"{path}:{n}: {exc}") from None
    return values


def _parse_option(name: str, raw: str):
    """Option ``name`` spelled ``raw`` (a flag's or a config line's value),
    parsed to its type and held to its config field's own rule; a
    ValueError says what is wrong with it."""
    kind = _OPTION_TYPES[name]
    try:
        value = raw if kind is str else _number(kind, raw)
    except ValueError:
        raise ValueError(f"{name} expects {kind.__name__}, got {raw!r}") from None
    if error := _field_error(_FIELD_OF.get(name, name), value):
        raise ValueError(error)
    return value


def _resolve_options(args: argparse.Namespace) -> dict:
    """Merge CLI flags over config-file entries over nothing (defaults
    come from the harness config dataclasses)."""
    resolved = _read_config_file(args.config) if args.config else {}
    for name in _OPTION_TYPES:
        if (raw := getattr(args, name)) is not None:
            resolved[name] = _parse_option(name, raw)
    return resolved


def _config(cls, options: dict):
    """Build config class ``cls`` from the resolved options that set its
    fields; the rest keep their defaults."""
    flags = {f.name: _FLAG_OF.get(f.name, f.name) for f in fields(cls)}
    return cls(**{name: options[flag] for name, flag in flags.items() if flag in options})


def _start_output(command: str, config: dict, args, digest: str) -> tuple[Path, dict]:
    """Create the output directory; return it and the run manifest that
    each output file embeds, with ``digest`` as the input's."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir, {
        "command": command,
        "config": config,
        "input": str(args.input),
        "input_digest": digest,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _load_dataset(path: str) -> tuple[Dataset, Dataset, str]:
    """Return (raw, deduplicated) datasets from a games file, read once,
    and the SHA-256 hex digest of the bytes that were parsed."""
    data = Path(path).read_bytes()
    try:
        # A text file over the bytes read, so lines split as open(..., newline="") splits them.
        raw = parse_games(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    except UnicodeDecodeError:
        # The error's position counts from a read buffer, not the file: decode by line.
        for n, line in enumerate(data.splitlines(), 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(n, str(exc)) from None
        raise
    return raw, deduplicate(raw), hashlib.sha256(data).hexdigest()


def _write_csv(path: Path, manifest: dict, header: list[str], rows=(), lines=()) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# manifest " + json.dumps(manifest, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
        fh.writelines(lines)


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
        label = MODEL_LABELS[summary.model].format(k=summary.k)
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
                    MODEL_LABELS[MODEL_K_LOWEST].format(k=row["k"]),
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
    raw, unique, digest = _load_dataset(args.input)
    out_dir, manifest = _start_output("ingest", dict(options), args, digest)

    # Written column by column: each distinct value is formatted once (teams and
    # scores by csv.writer, whose writerow returns what its file's write returns;
    # spreads apart, as 7.0 and 7 are one key), and the rows go out joined,
    # 4,096 to a write.
    dates, homes, visitors, home_scores, visitor_scores, spreads = (
        zip(*unique) if len(unique) else [()] * len(REQUIRED_COLUMNS)
    )
    field = csv.writer(SimpleNamespace(write=str), lineterminator="").writerow
    text = {d: d.isoformat() for d in set(dates)}
    text.update((v, field((v,))) for v in {*homes, *visitors, *home_scores, *visitor_scores})
    spread_text = {s: _spread_tag(s) for s in set(spreads)}
    rows = map("%s,%s,%s,%s,%s,%s\r\n".__mod__, zip(
        *(map(text.get, column) for column in (dates, homes, visitors, home_scores, visitor_scores)),
        map(spread_text.get, spreads),
    ))
    _write_csv(
        out_dir / "dataset.csv", manifest, list(REQUIRED_COLUMNS),
        lines=iter(lambda: "".join(islice(rows, 4096)), ""),
    )
    print(f"{len(raw)} rows, {len(unique)} unique ({len(raw) - len(unique)} duplicates removed)")
    if len(unique):
        print(f"spread mean: {math.fsum(spreads) / len(spreads):.2f}")
    print(f"wrote {out_dir / 'dataset.csv'}")
    return 0


def cmd_profile(args: argparse.Namespace, options: dict) -> int:
    _, dataset, digest = _load_dataset(args.input)
    config = _config(FitConfig, options)
    spreads, index = config.valid_spreads(dataset)
    if not spreads.size:
        largest = np.bincount(spread_groups(dataset, 1)[1]).max(initial=0)
        raise ValueError(
            f"no spread has {config.min_samples} samples "
            f"(largest group has {largest}); lower --min-samples"
        )

    grid = config.grid()
    outcomes, sizes, counts = _grouped_counts(dataset, index, grid)
    mass, p_home, entropy = profile_arrays(counts, spreads, config.bandwidth, grid, config.kernel)
    profile = [
        {"spread": s, "p_home": p, "entropy_bits": h, "n_train": n}
        for s, p, h, n in zip(spreads.tolist(), p_home.tolist(), entropy.tolist(), sizes.tolist())
    ]
    out_dir, manifest = _start_output("profile", asdict(config), args, digest)

    header, rows = _profile_rows(profile)
    _write_csv(out_dir / "profile.csv", manifest, header, rows)
    points = grid.points.tolist()
    groups = np.split(outcomes, np.cumsum(sizes)[:-1])
    for row, spread_outcomes, spread_mass in zip(profile, groups, mass.tolist()):
        tag = _spread_tag(row["spread"])
        values, value_counts = np.unique(spread_outcomes, return_counts=True)
        _write_csv(
            out_dir / f"hist_{tag}.csv",
            manifest,
            ["outcome", "count"],
            zip(map(str, values.tolist()), map(str, value_counts.tolist())),
        )
        _write_csv(
            out_dir / f"pdf_{tag}.csv",
            manifest,
            ["grid_point", "mass"],
            ([str(p), repr(m)] for p, m in zip(points, spread_mass)),
        )
    for row in profile:
        print(
            f"spread {row['spread']:+.1f}: p_home={row['p_home']:.4f} "
            f"entropy={row['entropy_bits']:.4f} bits (n={row['n_train']})"
        )
    print(f"wrote {len(profile)} histogram/density pairs to {out_dir}")
    return 0


def _run_and_write(command: str, report: EvaluationReport, args, digest: str) -> int:
    out_dir, manifest = _start_output(command, dict(report.config), args, digest)
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
    _, dataset, digest = _load_dataset(args.input)
    return _run_and_write("simulate-ti", run_ti(dataset, _config(TiConfig, options)), args, digest)


def cmd_backtest_td(args: argparse.Namespace, options: dict) -> int:
    _, dataset, digest = _load_dataset(args.input)
    return _run_and_write("backtest-td", run_td(dataset, _config(TdConfig, options)), args, digest)


#: Each command's handler and help line; the parser's subcommands come from here.
_COMMANDS = {
    "ingest": (cmd_ingest, "parse, validate, and deduplicate a games file"),
    "profile": (cmd_profile, "emit the per-spread bias profile plus histogram/density tables"),
    "simulate-ti": (cmd_simulate_ti, "run the repeated-random-holdout Monte Carlo evaluation"),
    "backtest-td": (cmd_backtest_td, "run the date-split backtest with the full k sweep"),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _gc_paused():
            options = _resolve_options(args)
            return _COMMANDS[args.command][0](args, options)
    except (SchemaError, ParseError, DuplicateConflictError) as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
