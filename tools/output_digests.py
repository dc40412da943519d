"""Digest every CLI output over the benchmark's workload CSVs, to show that a
change leaves every output byte-identical outside the run manifest.

Usage: python tools/output_digests.py SRC_DIR

SRC_DIR is a checkout's ``src`` directory; its ``spreadbias`` is imported
and run in this process. The tool writes the three workloads' CSVs
(``perfbench/workloads.py``) at seeds 0 and 7 into a temporary directory,
and six more built from the ti-wide seed-0 CSV: one with the lines the
parser skips (a ``# manifest`` line and whitespace-only lines), CRLF
endings and two team names that need quoting, a copy of it with a bad
score after the skipped lines, both again without the quoted names, so
that they hold no quote at all, and those two once more with LF endings,
so that the parser's split at LF meets skipped lines with and without a CR
to replace. Four more copies reach the parser's byte checks: a byte that
is not UTF-8 in the last row of the quote-free LF file and of the quoted
CRLF one, a NUL in the last row of the quote-free LF file, and a NUL in
its ``#`` comment line only, which every command reads past. Two copies of the
quoted CRLF file reach the line cut: one with a lone CR inside a quoted team
name, and one whose last row opens a quote in its last field that no line
closes. One more has a header and one row whose quoted team name opens on
line 2 and runs past csv's 131,072-character field limit on line 3, so
that the parser names the line the row starts on. Two more reach
``ingest``'s writer: a header-only CSV, which ``ingest`` writes with no data
line and the other commands refuse (no valid spread), and a ti-wide seed-0
copy with two teams renamed ``7`` and ``7.0``, names that read as a score
and a spread. It runs
each of the four commands on each CSV under each option set, and prints
one line per run: CSV, options, command, exit
code (or the name of the exception the command raised), a SHA-256 over
stdout, stderr and every output file with its manifest left out
(``perfbench/check.py``'s ``fingerprint``), and the digest of the
outputs' exact part: their integers, spreads and file names, as
``perfbench/check.py``'s ``observe`` reads them and its ``exact_digest``
hashes them (``-`` for a run that exits non-zero). A
change declared to move only the last bits of floating-point outputs
changes the full digest but must leave the exact one; where the exact
one moves, an integer output moved.
An option set without ``--seed`` runs a seed-7 CSV with ``--seed 7``, so
that each CSV seed draws holdouts and coin flips of its own.
Compare two checkouts with

    diff <(python tools/output_digests.py OLD/src) <(python tools/output_digests.py src)
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import os
import shutil
import sys
import tempfile
from pathlib import Path

SEEDS = (0, 7)
COMMANDS = ("ingest", "profile", "simulate-ti", "backtest-td")
OPTION_SETS = (
    (),
    ("--seed", "4294967301"),
    ("--holdout", "3", "--min-samples", "5"),
    ("--holdout", "101", "--min-samples", "102"),
    ("--simulations", "1"),
    ("--simulations", "1000"),  # simulate-ti draws in two or more blocks on every CSV
    # simulate-ti's Floyd replay finds draws picked already on every CSV (1 step in 4 on ti-wide).
    ("--holdout", "24", "--min-samples", "25"),
    ("--kernel", "boxcar"),
    # The fit and TD options no set above reaches. Every workload spread lies within ±17.5,
    # so all stay on the ±30 grid, while margins past ±30 are clamped.
    ("--kernel", "triangular", "--bandwidth", "2.5", "--entropy-threshold", "0.99"),
    ("--grid-lo", "-30", "--grid-hi", "30", "--cutoff-year", "2015"),
    # Config-rule and no-valid-spread exits: simulate-ti refuses the first set (min_samples
    # must exceed holdout), which the other commands run; no spread has 100,000 games;
    # -1001 breaks grid_lo's own rule.
    ("--holdout", "30", "--min-samples", "25"),
    ("--min-samples", "100000"),
    ("--grid-lo", "-1001"),
    ("--bandwidth", "1e-200"),  # the gaussian's weights underflow to 0 off the diagonal
)


#: The header of the CSVs written here rather than copied from a workload.
HEADER = "date,home_team,visitor_team,home_score,visitor_score,spread\n"
#: A row whose quoted team name opens on its first line and passes csv's field limit on its second.
LONG_QUOTE = '2017-09-10,"N\n' + "N" * 131_073 + '",KC,27,42,-9.0\n'

#: Two ti-wide teams renamed to names that csv.writer quotes.
RENAMED = {"T00": "Big, Red", "T01": 'Say "Hi"'}
#: Two ti-wide teams renamed to names that read as a score and as a spread.
NUMERIC = {"T00": "7", "T01": "7.0"}


def write_skips_and_quotes(source: str, name: str, bad: str | None = None,
                           renamed: dict = RENAMED, end: str = "\r\n") -> None:
    """Write ``source`` to ``name`` with each line ending in ``end``, the
    ``renamed`` teams, a ``# manifest`` line and whitespace-only lines (one a
    lone ideographic space) before and inside its rows; ``bad`` replaces the
    home score of the first row after the skipped lines in the middle."""
    with open(source, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    rows = [[renamed.get(field, field) for field in row] for row in rows]
    middle = len(rows) // 2
    if bad is not None:
        rows[middle][header.index("home_score")] = bad
    text = io.StringIO()
    writer = csv.writer(text, lineterminator=end)
    text.write(f"# manifest {{}}{end} \t{end}")
    writer.writerow(header)
    text.write(f"\u3000{end}")
    writer.writerows(rows[:middle])
    text.write(f"{end}  # a comment after spaces{end}\u3000 {end}")
    writer.writerows(rows[middle:])
    Path(name).write_text(text.getvalue(), encoding="utf-8", newline="")


def write_renamed(source: str, name: str, renamed: dict) -> None:
    """Copy ``source`` to ``name`` with the ``renamed`` teams."""
    with open(source, encoding="utf-8", newline="") as fh:
        rows = [[renamed.get(field, field) for field in row] for row in csv.reader(fh)]
    with open(name, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_replaced(source: str, name: str, old: bytes, new: bytes) -> None:
    """Copy ``source`` to ``name`` with the last ``old`` in it replaced by ``new``."""
    data = Path(source).read_bytes()
    at = data.rindex(old)
    Path(name).write_bytes(data[:at] + new + data[at + len(old):])


def run_digest(main, check, csv_name: str, command: str, options: tuple[str, ...]):
    """Run CLI ``main`` on one command in the current directory; return its exit
    code (or the name of the exception it raised, whose message then counts as
    stderr), the digest of its stdout, stderr and ``check.fingerprint`` of its
    outputs, and ``check.exact_digest`` of what ``check.observe`` reads from them
    (``-`` if the command failed)."""
    shutil.rmtree("out", ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([command, "--input", csv_name, "--out-dir", "out", *options])
        except Exception as exc:
            code = type(exc).__name__
            print(exc, file=sys.stderr)
    h = hashlib.sha256()
    for text in (stdout.getvalue(), stderr.getvalue()):
        h.update(text.encode() + b"\0")
    if Path("out").is_dir():
        h.update(check.fingerprint(Path("out")).encode())
    exact = "-"
    if code == 0:
        exact = check.exact_digest(check.observe(command, Path("out"), stdout.getvalue()))
    return code, h.hexdigest(), exact


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path[:0] = [str(Path(argv[0]).resolve()), str(perfbench)]
    import check
    import workloads
    from spreadbias.cli import main as cli_main

    start = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            seeds = {}  # each CSV's workload seed
            for (name, workload), seed in itertools.product(workloads.WORKLOADS.items(), SEEDS):
                seeds[f"{name}-{seed}.csv"] = seed
                workloads.write_csv(workloads.generate(workload.shape, seed), f"{name}-{seed}.csv")
            for suffix, renamed, end in (("skips", RENAMED, "\r\n"), ("skips-plain", {}, "\r\n"),
                                         ("skips-plain-lf", {}, "\n")):
                for name, bad in ((f"ti-wide-0-{suffix}.csv", None), (f"ti-wide-0-{suffix}-bad.csv", "-3")):
                    write_skips_and_quotes("ti-wide-0.csv", name, bad, renamed, end)
                    seeds[name] = 0
            for source, suffix, old, new in (
                ("skips-plain-lf", "utf8", b",T", b",\xffT"), ("skips", "utf8", b",T", b",\xffT"),
                ("skips-plain-lf", "nul", b",T", b",\0T"),
                ("skips-plain-lf", "nul-comment", b"# a comment", b"# a \0 comment"),
                ("skips", "cr", b'"Big, Red"', b'"Big,\r Red"'), ("skips", "open", b",", b',"'),
            ):
                name = f"ti-wide-0-{source}-{suffix}.csv"
                write_replaced(f"ti-wide-0-{source}.csv", name, old, new)
                seeds[name] = 0
            Path("long-quote.csv").write_text(HEADER + LONG_QUOTE)
            Path("header-only.csv").write_text(HEADER)
            write_renamed("ti-wide-0.csv", "ti-wide-0-numeric.csv", NUMERIC)
            seeds.update({"long-quote.csv": 0, "header-only.csv": 0, "ti-wide-0-numeric.csv": 0})
            for csv_name, options, command in itertools.product(seeds, OPTION_SETS, COMMANDS):
                if seeds[csv_name] and "--seed" not in options:
                    options += ("--seed", str(seeds[csv_name]))
                code, digest, exact = run_digest(cli_main, check, csv_name, command, options)
                print(csv_name, " ".join(options) or "-", command, code, digest, exact)
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
