"""Command-line surface: ingest data, emit bias profiles, run backtests.

Subcommands: ``ingest``, ``profile``, ``simulate-ti``, ``backtest-td``.
Every output file embeds a run manifest (command, resolved config, input
digest, tool version, timestamp): JSON reports carry it under a
``manifest`` key and CSV files as a leading ``#`` comment line. Option
precedence is CLI flag, then ``--config`` file entry, then built-in
default. A command checks each option on its own, then the config built
from them (cross-field rules such as ``grid_lo`` below ``grid_hi``), then
the input, so a bad option or config exits 1 before the input is opened.
Each fit groups its games in one call, ``FitConfig.groups``, whose
no-valid-spread error is the one for every command.

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
import json
import math
import sys
from dataclasses import asdict, fields
from datetime import date, datetime, timezone
from functools import partial
from itertools import islice, repeat
from operator import mul
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
    _shown,
    deduplicate,
    parse_games,
)
from .density import KERNELS, densities
from .harness import EvaluationReport, FitConfig, TdConfig, TiConfig, _field_error, run_td, run_ti
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
            raise ValueError(f"{path}:{n}: expected key=value, got {_shown(line)}")
        key, _, raw = line.partition("=")
        key = key.strip(_ASCII_SPACE).replace("-", "_")
        if key not in _OPTION_TYPES:
            raise ValueError(f"{path}:{n}: unknown option {_shown(key)}")
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
        raise ValueError(f"{name} expects {kind.__name__}, got {_shown(raw)}") from None
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


def _start_output(config: dict, args, digest: str) -> tuple[Path, dict]:
    """Create the output directory; return it and the run manifest that
    each output file embeds, with ``digest`` as the input's."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir, {
        "command": args.command,
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
    raw = parse_games(data)
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
    """Flat model/percent/SEM/sample-count rows, one per strategy in
    ``report.models``; a report's k sweep (TD's) gives its rows for k >= 2
    in place of the k-Lowest row, as k = 1 is Min-Ent's."""
    rows = []
    for summary in report.models:
        label = MODEL_LABELS[summary.model]
        if summary.model == MODEL_K_LOWEST and report.ksweep is not None:
            rows += ([label.format(k=row["k"]), _fmt_pct(row["ats_win_pct"]), "", str(row["n_test"])]
                     for row in report.ksweep if row["k"] > 1)
        else:
            rows.append([label.format(k=summary.k), _fmt_pct(summary.ats_win_pct),
                         _fmt_pct(summary.sem), str(summary.n_test)])
    return rows


#: ``profile.csv``'s columns in order, each with the format of its cells.
_PROFILE_COLUMNS = {"spread": "{:g}".format, "p_home": repr, "entropy_bits": repr,
                    "entropy_sd": repr, "n_train": str}


def _profile_rows(profile) -> tuple[list[str], list[list[str]]]:
    """``profile.csv``'s header and rows from per-spread dicts keyed like a
    report's profile rows: the columns some row has, a None value empty."""
    header = [column for column in _PROFILE_COLUMNS if any(column in row for row in profile)]
    rows = [["" if (value := row.get(column)) is None else _PROFILE_COLUMNS[column](value)
             for column in header] for row in profile]
    return header, rows


class _Texts(dict):
    """Each value's text, made by ``format`` when the value is first looked up."""

    def __init__(self, format):
        self.format = format

    def __missing__(self, value):
        self[value] = text = self.format(value)
        return text


def cmd_ingest(args: argparse.Namespace, options: dict) -> int:
    raw, unique, digest = _load_dataset(args.input)
    out_dir, manifest = _start_output(dict(options), args, digest)

    # Written column by column: each distinct value is formatted once, on the
    # first row that holds it, in a table of its own kind (teams by csv.writer,
    # whose writerow returns what its file's write returns), and every later
    # row looks its text up. Rows are joined by commas, and 4,096 of them to
    # a write.
    columns = list(zip(*unique)) or [()] * len(REQUIRED_COLUMNS)
    field = csv.writer(SimpleNamespace(write=str), lineterminator="").writerow
    teams, scores = _Texts(lambda team: field((team,))), _Texts(str)
    tables = (_Texts(date.isoformat), teams, teams, scores, scores, _Texts(_spread_tag))
    texts = (map(table.__getitem__, column) for table, column in zip(tables, columns))
    rows = map(",".join, zip(*texts))
    chunks = iter(lambda: "\r\n".join(islice(rows, 4096)), "")
    _write_csv(
        out_dir / "dataset.csv", manifest, list(REQUIRED_COLUMNS),
        lines=(chunk + "\r\n" for chunk in chunks),
    )
    print(f"{len(raw)} rows, {len(unique)} unique ({len(raw) - len(unique)} duplicates removed)")
    if len(unique):
        # Each spread is scaled by a power of two below 1/n, so no partial sum overflows.
        # A nonzero spread is at least 0.1 in size, so the scaling is exact and the
        # mean is the same float as that of the unscaled sum.
        spreads = columns[-1]
        scale = 2.0 ** -len(spreads).bit_length()
        mean = math.fsum(map(mul, spreads, repeat(scale))) / len(spreads) / scale
        print(f"spread mean: {mean:.2f}")
    print(f"wrote {out_dir / 'dataset.csv'}")
    return 0


def cmd_profile(args: argparse.Namespace, options: dict) -> int:
    config = _config(FitConfig, options)
    _, dataset, digest = _load_dataset(args.input)
    spreads, _, outcomes, sizes, counts = config.groups(dataset)
    grid = config.grid()
    p_home, entropy = profile_arrays(counts, spreads, config.bandwidth, grid, config.kernel)
    profile = [
        {"spread": s, "p_home": p, "entropy_bits": h, "n_train": n}
        for s, p, h, n in zip(spreads.tolist(), p_home.tolist(), entropy.tolist(), sizes.tolist())
    ]
    out_dir, manifest = _start_output(asdict(config), args, digest)

    header, rows = _profile_rows(profile)
    _write_csv(out_dir / "profile.csv", manifest, header, rows)
    points = grid.points.tolist()
    groups = np.split(outcomes, np.cumsum(sizes)[:-1])
    mass = densities(counts, config.bandwidth, grid, config.kernel)
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


def cmd_backtest(config_class, run, args: argparse.Namespace, options: dict) -> int:
    """``simulate-ti`` or ``backtest-td``: ``run`` the protocol on the input under a
    ``config_class`` config, then write its report, summary and profile."""
    config = _config(config_class, options)
    _, dataset, digest = _load_dataset(args.input)
    report = run(dataset, config)
    out_dir, manifest = _start_output(dict(report.config), args, digest)
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


#: Each command's handler and help line; the parser's subcommands come from here.
#: run_ti and run_td are looked up per call: perfbench's tracer rebinds this module's names.
_COMMANDS = {
    "ingest": (cmd_ingest, "parse, validate, and deduplicate a games file"),
    "profile": (cmd_profile, "emit the per-spread bias profile plus histogram/density tables"),
    "simulate-ti": (partial(cmd_backtest, TiConfig, lambda *a: run_ti(*a)),
                    "run the repeated-random-holdout Monte Carlo evaluation"),
    "backtest-td": (partial(cmd_backtest, TdConfig, lambda *a: run_td(*a)),
                    "run the date-split backtest with the full k sweep"),
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
