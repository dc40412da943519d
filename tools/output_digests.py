"""Digest every CLI output over the benchmark's workload CSVs, to show that a
change leaves every output byte-identical outside the run manifest.

Usage: python tools/output_digests.py SRC_DIR

SRC_DIR is a checkout's ``src`` directory; its ``spreadbias`` is imported
and run in this process. The tool writes the three workloads' CSVs
(``perfbench/workloads.py``) at seeds 0 and 7 into a temporary directory,
runs each of the four commands on each CSV under each option set, and
prints one line per run: CSV, options, command, exit code and a SHA-256
over stdout, stderr and every output file with its manifest left out
(``perfbench/check.py``'s ``fingerprint``). Compare two checkouts with

    diff <(python tools/output_digests.py OLD/src) <(python tools/output_digests.py src)
"""

from __future__ import annotations

import contextlib
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
    ("--kernel", "boxcar"),
)


def run_digest(main, fingerprint, csv_name: str, command: str, options: tuple[str, ...]):
    """Run CLI ``main`` on one command in the current directory; return its exit
    code and the digest of its stdout, stderr and ``fingerprint`` of its outputs."""
    shutil.rmtree("out", ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([command, "--input", csv_name, "--out-dir", "out", *options])
    h = hashlib.sha256()
    for text in (stdout.getvalue(), stderr.getvalue()):
        h.update(text.encode() + b"\0")
    if Path("out").is_dir():
        h.update(fingerprint(Path("out")).encode())
    return code, h.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path[:0] = [str(Path(argv[0]).resolve()), str(perfbench)]
    import workloads
    from check import fingerprint
    from spreadbias.cli import main as cli_main

    start = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for (name, workload), seed in itertools.product(workloads.WORKLOADS.items(), SEEDS):
                csv_name = f"{name}-{seed}.csv"
                workloads.write_csv(workloads.generate(workload.shape, seed), csv_name)
                for options, command in itertools.product(OPTION_SETS, COMMANDS):
                    code, digest = run_digest(cli_main, fingerprint, csv_name, command, options)
                    print(csv_name, " ".join(options) or "-", command, code, digest)
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
