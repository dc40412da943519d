"""End-to-end command-line behavior."""

from __future__ import annotations

import csv
import datetime as dt
import gc
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spreadbias
from spreadbias import (
    Dataset,
    FitConfig,
    GameRecord,
    OutcomeGrid,
    TdConfig,
    TiConfig,
    deduplicate,
    estimate_density,
    parse_games,
)
from spreadbias import cli
from spreadbias.cli import _config, _resolve_options, build_parser, main
from conftest import (
    GAME_RECORDS, make_record, reference_buckets, scalar_profile, synthetic_spread_dataset,
    write_dataset_csv,
)

SPREADS = [-6.5, -4.5, -2.5, 1.5, 3.5]


@pytest.fixture
def games_csv(tmp_path):
    train = synthetic_spread_dataset(
        SPREADS, 30, cover_probs={-2.5: 0.9}, seed=31, start="2015-01-01"
    )
    test = synthetic_spread_dataset(
        SPREADS, 6, cover_probs={-2.5: 0.9}, seed=32, start="2017-01-02"
    )
    merged = type(train)(train.records + test.records)
    return write_dataset_csv(tmp_path / "games.csv", merged)


def read_csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        data_lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(data_lines))


def read_manifest(path: Path) -> dict:
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert first.startswith("# manifest ")
    return json.loads(first[len("# manifest "):])


def load_report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def numbered_rows(n: int) -> list[str]:
    """``n`` games file rows, each on a date of its own, so all unique."""
    return [
        f"{dt.date(2000, 1, 1) + dt.timedelta(days=i)},T{i % 32},U{i % 7},{i % 40},{i % 37},"
        f"{i % 61 / 2 - 15:.1f}\n"
        for i in range(n)
    ]


class TestIngest:
    def test_counts_and_output(self, games_csv, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["ingest", "--input", str(games_csv), "--out-dir", str(out_dir)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "180 rows, 180 unique (0 duplicates removed)" in captured
        assert "spread mean:" in captured
        assert (out_dir / "dataset.csv").is_file()

    def test_duplicates_removed(self, games_csv, tmp_path, capsys):
        doubled = tmp_path / "doubled.csv"
        lines = games_csv.read_text().splitlines(keepends=True)
        doubled.write_text("".join(lines + lines[1:41]))
        code = main(["ingest", "--input", str(doubled), "--out-dir", str(tmp_path / "o")])
        assert code == 0
        assert "220 rows, 180 unique (40 duplicates removed)" in capsys.readouterr().out

    def test_spread_mean_is_exactly_rounded(self, tmp_path, capsys):
        # A plain left-to-right sum loses the 0.1 to 1e16 and prints 0.00.
        rows = [f"2017-09-1{i},H{i},V{i},20,17,{spread}"
                for i, spread in enumerate(["1e16", "0.1", "-1e16"])]
        path = tmp_path / "games.csv"
        path.write_text("\n".join(["date,home_team,visitor_team,home_score,visitor_score,spread",
                                   *rows]) + "\n", encoding="utf-8")
        code = main(["ingest", "--input", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert "spread mean: 0.03\n" in capsys.readouterr().out

    # math.fsum overflows on the plain sum of either; the mean does not.
    @pytest.mark.parametrize("spreads,mean", [
        (["1e308", "1e308"], 1e308), (["-1e308", "-1e308", "1e308"], -1e308 / 3),
    ], ids=["same-sign", "mixed-signs"])
    def test_spread_mean_of_spreads_whose_sum_overflows(self, tmp_path, capsys, spreads, mean):
        rows = [f"2017-09-1{i},H{i},V{i},20,17,{spread}" for i, spread in enumerate(spreads)]
        path = tmp_path / "games.csv"
        path.write_text("\n".join(["date,home_team,visitor_team,home_score,visitor_score,spread",
                                   *rows]) + "\n", encoding="utf-8")
        assert ingested_dataset_csv(path, tmp_path / "out") == per_record_dataset_csv(path)
        assert f"spread mean: {mean:.2f}\n" in capsys.readouterr().out

    def test_output_reingests_identically(self, games_csv, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(["ingest", "--input", str(games_csv), "--out-dir", str(out_dir)])
        capsys.readouterr()
        second = tmp_path / "second"
        code = main(["ingest", "--input", str(out_dir / "dataset.csv"), "--out-dir", str(second)])
        assert code == 0
        assert "180 rows, 180 unique" in capsys.readouterr().out
        first_rows = read_csv_rows(out_dir / "dataset.csv")
        assert first_rows == read_csv_rows(second / "dataset.csv")

    def test_manifest_embedded(self, games_csv, tmp_path):
        out_dir = tmp_path / "out"
        main(["ingest", "--input", str(games_csv), "--out-dir", str(out_dir)])
        manifest = read_manifest(out_dir / "dataset.csv")
        assert manifest["command"] == "ingest"
        assert manifest["version"]
        assert len(manifest["input_digest"]) == 64

    @pytest.mark.parametrize("command,output", [
        ("ingest", "dataset.csv"), ("profile", "profile.csv"),
        ("simulate-ti", "profile.csv"), ("backtest-td", "profile.csv"),
    ])
    def test_digest_is_of_the_bytes_parsed(self, games_csv, tmp_path, monkeypatch,
                                           command, output):
        # The input changes on disk right after it is parsed.
        parsed = games_csv.read_bytes()

        def parse_then_rewrite(source):
            dataset = parse_games(source)
            games_csv.write_bytes(parsed + parsed.splitlines(keepends=True)[1])
            return dataset

        monkeypatch.setattr(spreadbias.cli, "parse_games", parse_then_rewrite)
        out_dir = tmp_path / "out"
        assert main([command, "--input", str(games_csv), "--out-dir", str(out_dir)]) == 0
        assert games_csv.read_bytes() != parsed
        manifest = read_manifest(out_dir / output)
        assert manifest["input_digest"] == hashlib.sha256(parsed).hexdigest()

    def test_empty_but_valid_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("date,home_team,visitor_team,home_score,visitor_score,spread\n")
        code = main(["ingest", "--input", str(empty), "--out-dir", str(tmp_path / "o")])
        assert code == 0
        assert "0 rows" in capsys.readouterr().out

    # Repeated dates and spreads (one spread in three spellings, pick'em as
    # -0), a team name csv must quote, and one exact duplicate.
    REPEATS = [
        "2017-09-10,NE,KC,27,42,-3\n",
        "2017-09-10,\"Big, Red\",SEA,7,+07,-3.0\n",
        "2017-09-17,GB,SEA,0,10, -3.00\n",
        "2017-09-10,NE,KC,27,42,-3\n",
        "2017-09-17,KC,NE,14,14,-0\n",
        "2017-09-24,KC,GB,3,21,6.5\n",
    ]

    # A team, a score and a spread that all read 7 (the spread written 7.0), a
    # team named 7.0, and a team csv must quote on the home and the visitor side.
    SEVENS = [
        "2017-09-10,7,KC,7,14,7\n",
        '2017-09-10,"Big, Red",7.0,21,7,-7\n',
        '2017-09-17,SEA,"Big, Red",7,0,7.0\n',
        "2017-09-24,7.0,7,3,7,7\n",
    ]

    # One joined write of dataset.csv holds 4,096 rows: exactly one, one and a
    # row, and more than one.
    @pytest.mark.parametrize(
        "rows", [REPEATS, [], numbered_rows(4096), numbered_rows(4097), numbered_rows(5000), SEVENS],
        ids=["repeats", "header-only", "one-chunk", "one-chunk-and-a-row", "over-one-chunk", "sevens"],
    )
    def test_dataset_csv_equals_per_record_formatting(self, tmp_path, capsys, rows):
        games = tmp_path / "games.csv"
        games.write_text(",".join(GameRecord._fields) + "\n" + "".join(rows), encoding="utf-8")
        written = ingested_dataset_csv(games, tmp_path / "o")
        assert written == per_record_dataset_csv(games)
        assert written.count("\r\n") == 1 + len(set(rows))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(GAME_RECORDS, max_size=15, unique_by=lambda r: r.key))
    @example([make_record(home_team="Big, Red", visitor_team='Say "Hi"')])
    def test_dataset_csv_of_any_records_equals_per_record_formatting(self, records):
        with tempfile.TemporaryDirectory() as name:
            games = write_dataset_csv(Path(name) / "games.csv", Dataset(tuple(records * 2)))
            assert ingested_dataset_csv(games, Path(name) / "o") == per_record_dataset_csv(games)

    def test_parse_error_exit_code_and_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "date,home_team,visitor_team,home_score,visitor_score,spread\n"
            "2017-09-10,NE,KC,27,42,-9.0\n"
            "2017-09-11,GB,SEA,-3,10,1.5\n"
        )
        code = main(["ingest", "--input", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    def test_unreadable_csv_exit_code_and_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "date,home_team,visitor_team,home_score,visitor_score,spread\n"
            "2017-09-10,NE,KC,27,42,-9.0\n"
            f"2017-09-11,{'N' * 200_000},SEA,3,10,1.5\n"
        )
        code = main(["ingest", "--input", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert f"error: {bad}: line 3: " in capsys.readouterr().err

    @settings(max_examples=25, deadline=None)
    @given(st.lists(GAME_RECORDS, max_size=15, unique_by=lambda r: r.key))
    def test_reingest_of_own_output_is_byte_identical(self, records):
        with tempfile.TemporaryDirectory() as name:
            tmp = Path(name)
            first, second = tmp / "first" / "dataset.csv", tmp / "second" / "dataset.csv"
            write_dataset_csv(tmp / "games.csv", Dataset(tuple(records)))
            assert main(["ingest", "--input", str(tmp / "games.csv"),
                         "--out-dir", str(first.parent)]) == 0
            assert main(["ingest", "--input", str(first), "--out-dir", str(second.parent)]) == 0
            first_lines = first.read_bytes().split(b"\n", 1)
            second_lines = second.read_bytes().split(b"\n", 1)
            assert first_lines[0].startswith(b"# manifest ")
            assert first_lines[1] == second_lines[1]


def ingested_dataset_csv(games: Path, out_dir: Path) -> str:
    """``dataset.csv`` as ``ingest`` writes it from ``games``, less its manifest line."""
    assert main(["ingest", "--input", str(games), "--out-dir", str(out_dir)]) == 0
    with open(out_dir / "dataset.csv", encoding="utf-8", newline="") as fh:
        manifest, written = fh.read().split("\n", 1)
    assert manifest.startswith("# manifest ")
    return written


def per_record_dataset_csv(games: Path) -> str:
    """Reference for ``ingested_dataset_csv``: each unique record of ``games``
    written by csv.writer on its own."""
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(GameRecord._fields)
    for r in deduplicate(parse_games(games.read_bytes())):
        writer.writerow([r.date.isoformat(), r.home_team, r.visitor_team,
                         str(r.home_score), str(r.visitor_score), f"{r.spread:.1f}"])
    return expected.getvalue()


class TestProfile:
    def test_writes_tables_per_valid_spread(self, games_csv, tmp_path):
        out_dir = tmp_path / "out"
        code = main(
            ["profile", "--input", str(games_csv), "--out-dir", str(out_dir),
             "--min-samples", "25"]
        )
        assert code == 0
        rows = read_csv_rows(out_dir / "profile.csv")
        assert [float(r["spread"]) for r in rows] == SPREADS
        for spread in SPREADS:
            assert (out_dir / f"hist_{spread:.1f}.csv").is_file()
            assert (out_dir / f"pdf_{spread:.1f}.csv").is_file()

    def test_density_files_sum_to_one(self, games_csv, tmp_path):
        out_dir = tmp_path / "out"
        main(["profile", "--input", str(games_csv), "--out-dir", str(out_dir),
              "--min-samples", "25"])
        for spread in SPREADS:
            rows = read_csv_rows(out_dir / f"pdf_{spread:.1f}.csv")
            assert len(rows) == 81
            assert abs(sum(float(r["mass"]) for r in rows) - 1.0) <= 1e-9

    def test_density_files_equal_estimate_density(self, games_csv, tmp_path):
        out_dir = tmp_path / "out"
        main(["profile", "--input", str(games_csv), "--out-dir", str(out_dir),
              "--min-samples", "25", "--bandwidth", "3", "--kernel", "triangular"])
        buckets = reference_buckets(deduplicate(parse_games(games_csv.read_bytes())), 25)
        assert len(buckets) == len(SPREADS)
        for spread, outcomes in buckets:
            rows = read_csv_rows(out_dir / f"pdf_{spread:.1f}.csv")
            density = estimate_density(outcomes, 3.0, kernel="triangular")
            assert [int(r["grid_point"]) for r in rows] == density.grid.points.tolist()
            assert [float(r["mass"]) for r in rows] == density.mass.tolist()

    def test_histogram_counts_match_bucket_sizes(self, games_csv, tmp_path):
        out_dir = tmp_path / "out"
        main(["profile", "--input", str(games_csv), "--out-dir", str(out_dir),
              "--min-samples", "25"])
        rows = read_csv_rows(out_dir / "hist_-2.5.csv")
        assert sum(int(r["count"]) for r in rows) == 36

    def test_files_on_a_narrow_grid_equal_the_references(self, tmp_path):
        # Groups of 30 and 42 games, so each file must take its own spread's games.
        records = (synthetic_spread_dataset(SPREADS, 30, seed=31).records
                   + synthetic_spread_dataset([-2.5, 3.5], 12, seed=33, start="2017-01-02").records)
        games = write_dataset_csv(tmp_path / "games.csv", Dataset(records))
        out_dir = tmp_path / "out"
        assert main(["profile", "--input", str(games), "--out-dir", str(out_dir),
                     "--min-samples", "25", "--grid-lo", "-10", "--grid-hi", "10"]) == 0
        # Margins run off the grid on both sides.
        assert min(r.outcome for r in records) < -10 and max(r.outcome for r in records) > 10
        grid = OutcomeGrid(-10, 10)
        buckets = reference_buckets(records, 25)
        entries = scalar_profile(buckets, 4.0, grid, 0.95, "gaussian").entries
        assert read_csv_rows(out_dir / "profile.csv") == [
            {"spread": f"{e.spread:g}", "p_home": repr(e.p_home),
             "entropy_bits": repr(e.entropy_bits), "n_train": str(e.n_train)}
            for e in entries
        ]
        for spread, outcomes in buckets:
            # The histogram counts each raw margin, off the grid too.
            counts = Counter(r.outcome for r in records if r.spread == spread)
            assert read_csv_rows(out_dir / f"hist_{spread:.1f}.csv") == [
                {"outcome": str(v), "count": str(n)} for v, n in sorted(counts.items())
            ]
            density = estimate_density(outcomes, 4.0, grid)
            assert read_csv_rows(out_dir / f"pdf_{spread:.1f}.csv") == [
                {"grid_point": str(p), "mass": repr(m)}
                for p, m in zip(grid.points.tolist(), density.mass.tolist())
            ]

    @pytest.mark.parametrize("first", ["-0.0", "0"])
    def test_pickem_files_labelled_zero_in_either_row_order(self, tmp_path, first):
        second = "0" if first == "-0.0" else "-0.0"
        lines = ["date,home_team,visitor_team,home_score,visitor_score,spread\n"]
        for i in range(30):
            spread = first if i == 0 else second
            lines.append(f"2016-01-{i % 28 + 1:02d},H{i},V{i},20,{10 + i},{spread}\n")
        games = tmp_path / "pickem.csv"
        games.write_text("".join(lines), encoding="utf-8")
        out_dir = tmp_path / "out"
        assert main(["profile", "--input", str(games), "--out-dir", str(out_dir)]) == 0
        assert [r["spread"] for r in read_csv_rows(out_dir / "profile.csv")] == ["0"]
        assert sorted(p.name for p in out_dir.glob("*_*.csv")) == ["hist_0.0.csv", "pdf_0.0.csv"]

    def test_min_samples_too_large_fails(self, games_csv, tmp_path, capsys):
        code = main(
            ["profile", "--input", str(games_csv), "--out-dir", str(tmp_path / "o"),
             "--min-samples", "500"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: no spread has at least min_samples=500 games (the largest group has 36)\n"
        )

    def test_score_beyond_int64_fails_with_its_line(self, tmp_path, capsys):
        # The largest int64 score is kept; one above it would overflow the outcome column.
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "date,home_team,visitor_team,home_score,visitor_score,spread\n"
            "2017-09-10,NE,KC,9223372036854775807,0,-9.0\n"
            "2017-09-11,GB,SEA,100000000000000000000,10,1.5\n"
        )
        code = main(["profile", "--input", str(bad), "--out-dir", str(tmp_path / "o"),
                     "--min-samples", "1"])
        assert code == 1
        assert f"error: {bad}: line 3: out-of-range home_score" in capsys.readouterr().err


class TestSimulateTi:
    def test_report_and_manifest(self, games_csv, tmp_path):
        out_dir = tmp_path / "out"
        code = main(
            ["simulate-ti", "--input", str(games_csv), "--out-dir", str(out_dir),
             "--simulations", "10", "--seed", "5"]
        )
        assert code == 0
        report = load_report(out_dir / "report.json")
        assert report["manifest"]["config"]["n_simulations"] == 10
        assert report["protocol"] == "ti"
        assert report["n_test_samples"] == 10 * 10 * len(SPREADS)
        assert len(report["models"]) == 4
        summary_rows = read_csv_rows(out_dir / "summary.csv")
        assert [r["model"] for r in summary_rows][:3] == ["Random", "Max-Prob", "Min-Ent"]

    def test_defaults_echoed_into_manifest(self, games_csv, tmp_path):
        out_dir = tmp_path / "out"
        main(["simulate-ti", "--input", str(games_csv), "--out-dir", str(out_dir),
              "--simulations", "2"])
        manifest = load_report(out_dir / "report.json")["manifest"]
        assert manifest["config"]["holdout_per_spread"] == 10
        assert manifest["config"]["min_samples"] == 25
        assert manifest["config"]["entropy_threshold"] == 0.95
        assert manifest["config"]["bandwidth"] == 4.0

    def test_seed_reproducibility(self, games_csv, tmp_path):
        reports = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            main(["simulate-ti", "--input", str(games_csv), "--out-dir", str(out_dir),
                  "--simulations", "5", "--seed", "7"])
            report = load_report(out_dir / "report.json")
            report["manifest"].pop("timestamp")
            reports.append(json.dumps(report, sort_keys=True))
        assert reports[0] == reports[1]

    def test_holdout_consuming_all_samples_fails(self, games_csv, tmp_path, capsys):
        code = main(
            ["simulate-ti", "--input", str(games_csv), "--out-dir", str(tmp_path / "o"),
             "--holdout", "25", "--min-samples", "25"]
        )
        assert code == 1
        assert "training" in capsys.readouterr().err


class TestBacktestTd:
    def test_report_shape(self, games_csv, tmp_path):
        out_dir = tmp_path / "out"
        code = main(
            ["backtest-td", "--input", str(games_csv), "--out-dir", str(out_dir),
             "--min-samples", "15", "--cutoff-year", "2017", "--seed", "3"]
        )
        assert code == 0
        report = load_report(out_dir / "report.json")
        assert report["protocol"] == "td"
        assert len(report["ksweep"]) == len(SPREADS)
        summary_rows = read_csv_rows(out_dir / "summary.csv")
        # Random, Max-Prob, Min-Ent, then 2..K lowest-entropy rows.
        assert len(summary_rows) == 2 + len(SPREADS)
        assert summary_rows[0]["model"] == "Random"
        assert summary_rows[2]["model"] == "Min-Ent"
        assert summary_rows[3]["model"] == "2-Lowest Ent"

    def test_empty_test_side_fails(self, games_csv, tmp_path, capsys):
        code = main(
            ["backtest-td", "--input", str(games_csv), "--out-dir", str(tmp_path / "o"),
             "--cutoff-year", "3000"]
        )
        assert code == 1
        assert "test" in capsys.readouterr().err

    def test_seed_reproducibility(self, games_csv, tmp_path):
        payloads = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            main(["backtest-td", "--input", str(games_csv), "--out-dir", str(out_dir),
                  "--min-samples", "15", "--seed", "11"])
            report = load_report(out_dir / "report.json")
            report["manifest"].pop("timestamp")
            payloads.append(json.dumps(report, sort_keys=True))
        assert payloads[0] == payloads[1]


def read_table(path: Path) -> list[list[str]]:
    """A CSV output's header and rows, as csv.reader reads them, without the manifest line."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


class TestOutputTables:
    """Every ``summary.csv`` and ``profile.csv`` cell, rebuilt from ``report.json``.

    ``summary.csv`` has one row per strategy; TD's k sweep gives its rows for
    k >= 2 in place of the k-Lowest row, as k = 1 is Min-Ent's. A percent is
    written to two decimals and an empty cell is a None. ``profile.csv`` has
    TI's ``entropy_sd`` column, empty at one simulation, which TD's lacks."""

    LABELS = {"random": "Random", "max_prob": "Max-Prob", "min_entropy": "Min-Ent"}

    @staticmethod
    def pct(value) -> str:
        return "" if value is None else f"{value:.2f}"

    def expected_summary(self, report: dict) -> list[list[str]]:
        rows = [["model", "percent_ats_win", "sem", "n_test_samples"]]
        for model in report["models"]:
            if model["model"] != "k_lowest":
                label = self.LABELS[model["model"]]
            elif report["protocol"] == "ti":
                label = f"{model['k']}-Lowest Ent"
            else:
                rows += [[f"{row['k']}-Lowest Ent", self.pct(row["ats_win_pct"]), "",
                          str(row["n_test"])] for row in report["ksweep"][1:]]
                continue
            rows.append([label, self.pct(model["ats_win_pct"]), self.pct(model["sem"]),
                         str(model["n_test"])])
        return rows

    @staticmethod
    def expected_profile(report: dict) -> list[list[str]]:
        ti = report["protocol"] == "ti"
        rows = [["spread", "p_home", "entropy_bits", *["entropy_sd"] * ti, "n_train"]]
        for row in report["profile"]:
            sd = [] if not ti else ["" if row["entropy_sd"] is None else repr(row["entropy_sd"])]
            rows.append([f"{row['spread']:g}", repr(row["p_home"]), repr(row["entropy_bits"]),
                         *sd, str(row["n_train"])])
        return rows

    def check(self, out_dir: Path) -> dict:
        report = load_report(out_dir / "report.json")
        assert read_table(out_dir / "summary.csv") == self.expected_summary(report)
        assert read_table(out_dir / "profile.csv") == self.expected_profile(report)
        return report

    @pytest.mark.parametrize("simulations", ["1", "5"])
    def test_ti(self, games_csv, tmp_path, simulations):
        out_dir = tmp_path / "out"
        assert main(["simulate-ti", "--input", str(games_csv), "--out-dir", str(out_dir),
                     "--simulations", simulations, "--seed", "5"]) == 0
        report = self.check(out_dir)
        assert [m["model"] for m in report["models"]] == [
            "random", "max_prob", "min_entropy", "k_lowest"]
        assert (report["models"][0]["sem"] is None) == (simulations == "1")
        assert all((row["entropy_sd"] is None) == (simulations == "1")
                   for row in report["profile"])

    def test_ti_training_sizes_are_integers(self, games_csv, tmp_path):
        # TI fits float64 count blocks; the training size each profile row reports is a count.
        out_dir = tmp_path / "out"
        assert main(["simulate-ti", "--input", str(games_csv), "--out-dir", str(out_dir),
                     "--simulations", "3", "--seed", "5"]) == 0
        report = load_report(out_dir / "report.json")
        assert [type(row["n_train"]) for row in report["profile"]] == [int] * len(SPREADS)
        assert [row["n_train"] for row in read_csv_rows(out_dir / "profile.csv")] == ["26"] * len(SPREADS)

    def test_td(self, games_csv, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["backtest-td", "--input", str(games_csv), "--out-dir", str(out_dir),
                     "--min-samples", "15", "--seed", "3"]) == 0
        report = self.check(out_dir)
        assert len(read_table(out_dir / "summary.csv")) == 1 + 2 + len(SPREADS)

    def test_td_with_no_settled_wager(self, tmp_path):
        # Every test game lands on its integer spread, so every wager pushes.
        lines = ["date,home_team,visitor_team,home_score,visitor_score,spread"]
        for spread in (3, 7):
            lines += [f"2015-{spread:02d}-{i + 1:02d},H{i},V{i},30,{30 + i % 13 - 6},{spread}.0"
                      for i in range(20)]
            lines += [f"2017-{spread:02d}-{i + 1:02d},H{i},V{i},30,{30 + spread},{spread}.0"
                      for i in range(4)]
        games = tmp_path / "games.csv"
        games.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        assert main(["backtest-td", "--input", str(games), "--out-dir", str(out_dir)]) == 0
        report = self.check(out_dir)
        assert all(m["ats_win_pct"] is None and m["n_test"] == 0 for m in report["models"])
        assert [row[1:] for row in read_table(out_dir / "summary.csv")[1:]] == [["", "", "0"]] * 4


class TestDuplicatedGames:
    """Every game entered again under a fresh key, with ``min_samples`` doubled: every
    count block doubles, so each cover sum doubles exactly and no fit moves by a bit.
    The relation needs no reference implementation."""

    @pytest.fixture
    def doubled_csv(self, games_csv, tmp_path):
        records = parse_games(games_csv.read_bytes()).records
        copies = tuple(record._replace(home_team=record.home_team + "'") for record in records)
        return write_dataset_csv(tmp_path / "doubled.csv", Dataset(records + copies))

    @staticmethod
    def run_both(command, games_csv, doubled_csv, tmp_path, options):
        out_dirs = tmp_path / "single", tmp_path / "doubled"
        for csv_path, min_samples, out_dir in zip((games_csv, doubled_csv), (15, 30), out_dirs):
            assert main([command, "--input", str(csv_path), "--out-dir", str(out_dir),
                         "--min-samples", str(min_samples), *options]) == 0
        return out_dirs

    OPTIONS = [[], ["--kernel", "boxcar"], ["--kernel", "triangular", "--bandwidth", "2.5"],
               ["--grid-lo", "-10", "--grid-hi", "10"]]

    @pytest.mark.parametrize("options", OPTIONS)
    def test_profile_fits_are_bit_identical(self, games_csv, doubled_csv, tmp_path, options):
        single, doubled = (read_csv_rows(out_dir / "profile.csv") for out_dir in
                           self.run_both("profile", games_csv, doubled_csv, tmp_path, options))
        assert [row["spread"] for row in single] == [f"{s:g}" for s in SPREADS]
        for one, two in zip(single, doubled, strict=True):
            assert (two["spread"], two["p_home"], two["entropy_bits"]) == (
                one["spread"], one["p_home"], one["entropy_bits"])
            assert int(two["n_train"]) == 2 * int(one["n_train"])

    @pytest.mark.parametrize("options", OPTIONS)
    def test_td_counts_double_exactly(self, games_csv, doubled_csv, tmp_path, options):
        single, doubled = (load_report(out_dir / "report.json") for out_dir in
                           self.run_both("backtest-td", games_csv, doubled_csv, tmp_path, options))
        assert doubled["valid_spreads"] == single["valid_spreads"]
        assert doubled["selection_counts"] == single["selection_counts"]
        assert doubled["n_test_records"] == 2 * single["n_test_records"]
        # Halved, each count must equal the single table's; an odd count would not.
        for one, two in zip(single["profile"], doubled["profile"], strict=True):
            assert {**two, "n_train": two["n_train"] / 2} == one
        # The coin flips draw one per test game, so Random's counts do not double.
        wagers = single["models"][1:] + single["ksweep"], doubled["models"][1:] + doubled["ksweep"]
        for one, two in zip(*wagers, strict=True):
            assert {**two, **{key: two[key] / 2 for key in ("n_test", "n_push", "n_wins")}} == one
        assert sum(m["n_test"] for m in single["models"][1:]) > 0


class TestCoverProbabilityRoundingPastOne:
    """A boxcar density that lies wholly at or below 7.5 (every margin at most
    0, bandwidth 3) fits a cover probability of exactly 1.0 and entropy 0.0,
    in every split, whatever rounding a prefix sum of its mass would give."""

    FLAGS = ["--kernel", "boxcar", "--bandwidth", "3", "--min-samples", "25",
             "--holdout", "5", "--simulations", "20"]

    @pytest.mark.parametrize("command,test_games", [
        ("profile", 0), ("simulate-ti", 0), ("backtest-td", 5),
    ])
    def test_command_succeeds_with_certain_cover(self, tmp_path, command, test_games):
        lines = ["date,home_team,visitor_team,home_score,visitor_score,spread"]
        lines += [f"2015-01-{i + 1:02d},H{i},V{i},30,{18 + i % 13},7.5" for i in range(30)]
        lines += [f"2017-01-{i + 1:02d},H{i},V{i},30,{28 - i},7.5" for i in range(test_games)]
        games = tmp_path / "games.csv"
        games.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main([command, "--input", str(games), "--out-dir", str(out_dir), *self.FLAGS])
        assert code == 0
        (row,) = read_csv_rows(out_dir / "profile.csv")
        assert (row["spread"], row["p_home"], row["entropy_bits"]) == ("7.5", "1.0", "0.0")


class TestConfigFile:
    def test_file_overrides_defaults(self, games_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min_samples = 20\nbandwidth = 2.0\n# comment\nseed = 9\n")
        out_dir = tmp_path / "out"
        main(["simulate-ti", "--input", str(games_csv), "--out-dir", str(out_dir),
              "--config", str(cfg), "--simulations", "2"])
        config = load_report(out_dir / "report.json")["manifest"]["config"]
        assert config["min_samples"] == 20
        assert config["bandwidth"] == 2.0
        assert config["seed"] == 9

    def test_cli_flag_beats_file(self, games_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bandwidth = 2.0\n")
        out_dir = tmp_path / "out"
        main(["simulate-ti", "--input", str(games_csv), "--out-dir", str(out_dir),
              "--config", str(cfg), "--bandwidth", "6.0", "--simulations", "2"])
        config = load_report(out_dir / "report.json")["manifest"]["config"]
        assert config["bandwidth"] == 6.0

    def test_unknown_key_fails(self, games_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("widht = 4\n")
        code = main(["simulate-ti", "--input", str(games_csv),
                     "--out-dir", str(tmp_path / "o"), "--config", str(cfg)])
        assert code == 1
        assert "unknown option" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("x" * 40, f"expected key=value, got '{'x' * 40}'"),
        ("x" * 41, f"expected key=value, got '{'x' * 40}'... (41 characters)"),
        ("x" * 41 + " = 1", f"unknown option '{'x' * 40}'... (41 characters)"),
    ])
    def test_long_line_or_key_is_shortened(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 1\n{line}\n")
        code = main(["profile", "--input", str(tmp_path / "missing.csv"),
                     "--out-dir", str(tmp_path / "o"), "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: {message}\n"

    def test_unparsable_value_fails_with_location(self, games_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nsimulations = 2.5\n")
        code = main(["simulate-ti", "--input", str(games_csv),
                     "--out-dir", str(tmp_path / "o"), "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:2: ")
        assert "'2.5'" in err

    @pytest.mark.parametrize("command", ["profile", "simulate-ti", "backtest-td"])
    @pytest.mark.parametrize("line, message", [
        ("kernel = cubic",
         "kernel must be one of ('gaussian', 'boxcar', 'triangular'), got 'cubic'"),
        ("min_samples = 0", "min_samples must be >= 1"),
        ("bandwidth = 0", "bandwidth must be positive and finite"),
        ("seed = -1", "seed must be non-negative"),
        ("holdout = 0", "holdout_per_spread must be >= 1"),
        ("cutoff-year = 2017", "repeated option 'cutoff_year' (first on line 2)"),
        # A key is compared after "-" becomes "_".
        ("cutoff_year = 2018", "repeated option 'cutoff_year' (first on line 2)"),
    ])
    def test_value_breaking_its_rule_fails_with_location(
        self, games_csv, tmp_path, capsys, command, line, message
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# header\ncutoff-year = 2017\n{line}\n")
        code = main([command, "--input", str(games_csv),
                     "--out-dir", str(tmp_path / "o"), "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}:3: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_value_padded_with_non_ascii_space_fails_with_location(
        self, games_csv, tmp_path, capsys
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\t\nbandwidth = 3\xa0\n", encoding="utf-8")
        code = main(["profile", "--input", str(games_csv),
                     "--out-dir", str(tmp_path / "o"), "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: bandwidth expects float, got '3\\xa0'\n"
        assert not (tmp_path / "o").exists()
        cfg.write_text("seed = 1\t\nbandwidth =\t3 \n", encoding="utf-8")
        out_dir = tmp_path / "out"
        assert main(["profile", "--input", str(games_csv), "--out-dir", str(out_dir),
                     "--config", str(cfg)]) == 0
        assert read_manifest(out_dir / "profile.csv")["config"]["bandwidth"] == 3.0

    @pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
    def test_non_finite_bandwidth_fails_with_location(self, games_csv, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 1\nbandwidth = {value}\n")
        code = main(["profile", "--input", str(games_csv),
                     "--out-dir", str(tmp_path / "o"), "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: bandwidth must be positive and finite\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["profile", "simulate-ti", "backtest-td"])
    @pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
    def test_non_finite_bandwidth_flag_fails(self, games_csv, tmp_path, capsys, command, value):
        code = main([command, "--input", str(games_csv),
                     "--out-dir", str(tmp_path / "o"), "--bandwidth", value])
        assert code == 1
        assert capsys.readouterr().err == "error: bandwidth must be positive and finite\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["ingest", "profile", "simulate-ti", "backtest-td"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--min-samples", "0", "min_samples must be >= 1"),
        ("--simulations", "-5", "n_simulations must be >= 1"),
        ("--kernel", "cubic",
         "kernel must be one of ('gaussian', 'boxcar', 'triangular'), got 'cubic'"),
        ("--seed", "abc", "seed expects int, got 'abc'"),
        ("--simulations", "2.5", "simulations expects int, got '2.5'"),
        ("--simulations", "1_0", "simulations expects int, got '1_0'"),
        # A wider grid's kernel matrix outgrows memory, and a bound past int64 overflows.
        ("--grid-lo", "-1001", "grid_lo must lie in [-1000, 1000]"),
        ("--grid-hi", "1001", "grid_hi must lie in [-1000, 1000]"),
        ("--grid-lo", "-1000000000000000000000", "grid_lo must lie in [-1000, 1000]"),
        # A value is repeated as a games-file field is: past 40 characters, its first 40 and
        # its length. A digit string this long is an int on Python 3.10 but not on 3.11+.
        ("--seed", "1" * 5000 + "x", f"seed expects int, got '{'1' * 40}'... (5001 characters)"),
        ("--kernel", "c" * 40,
         f"kernel must be one of ('gaussian', 'boxcar', 'triangular'), got '{'c' * 40}'"),
        ("--kernel", "c" * 41, "kernel must be one of ('gaussian', 'boxcar', 'triangular'), "
                               f"got '{'c' * 40}'... (41 characters)"),
    ])
    def test_same_rule_as_a_flag_is_unlocated(
        self, tmp_path, capsys, command, flag, value, message
    ):
        # The option is checked before the input is read: the input need not exist.
        missing = str(tmp_path / "missing.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:]} = {value}\n")
        code = main([command, "--input", missing,
                     "--out-dir", str(tmp_path / "o"), "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}:1: {message}\n"
        code = main([command, "--input", missing,
                     "--out-dir", str(tmp_path / "o"), flag, value])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()


class TestModuleEntryPoint:
    """``python -m spreadbias.cli``, as the installed ``spreadbias`` script runs ``main``."""

    @staticmethod
    def run(*argv: str) -> subprocess.CompletedProcess:
        src = Path(spreadbias.__file__).resolve().parent.parent
        return subprocess.run(
            [sys.executable, "-m", "spreadbias.cli", *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
        )

    def test_bad_option_value_exits_1(self, games_csv, tmp_path):
        done = self.run("simulate-ti", "--input", str(games_csv),
                        "--out-dir", str(tmp_path / "o"), "--kernel", "cubic")
        assert done.returncode == 1
        assert done.stderr == (
            "error: kernel must be one of ('gaussian', 'boxcar', 'triangular'), got 'cubic'\n"
        )
        assert not (tmp_path / "o").exists()

    def test_help_lists_the_kernels(self):
        done = self.run("simulate-ti", "--help")
        assert done.returncode == 0
        assert "gaussian, boxcar, triangular" in done.stdout


# A value for every tuning option, each different from every default.
OPTION_VALUES = {
    "seed": "3", "min_samples": "20", "holdout": "5", "simulations": "4",
    "entropy_threshold": "0.9", "bandwidth": "3.5", "grid_lo": "-30", "grid_hi": "30",
    "cutoff_year": "2016", "kernel": "triangular",
}
FIT_KEYS = {f.name for f in fields(FitConfig)}


class TestSingleDeclaration:
    """Each tuning option is one config field, and every command reads the
    same options."""

    @staticmethod
    def fields_set(option: str) -> set[str]:
        """Names of the config fields that the flag for ``option`` changes."""
        flag = "--" + option.replace("_", "-")
        args = build_parser().parse_args(
            ["profile", "--input", "x.csv", flag, OPTION_VALUES[option]]
        )
        changed = set()
        for cls in (FitConfig, TiConfig, TdConfig):
            config, default = _config(cls, _resolve_options(args)), cls()
            changed |= {f.name for f in fields(cls)
                        if getattr(config, f.name) != getattr(default, f.name)}
        return changed

    @pytest.mark.parametrize("option", sorted(OPTION_VALUES))
    def test_each_option_sets_one_field(self, option):
        assert len(self.fields_set(option)) == 1

    def test_every_field_has_an_option(self):
        covered = set().union(*(self.fields_set(option) for option in OPTION_VALUES))
        assert covered == {f.name for cls in (TiConfig, TdConfig) for f in fields(cls)}

    def test_profile_manifest_echoes_the_fit_options(self, games_csv, tmp_path):
        main(["profile", "--input", str(games_csv), "--out-dir", str(tmp_path / "a")])
        config = read_manifest(tmp_path / "a" / "profile.csv")["config"]
        assert set(config) == FIT_KEYS
        assert config["min_samples"] == 25
        main(["profile", "--input", str(games_csv), "--out-dir", str(tmp_path / "b"),
              "--min-samples", "30"])
        assert read_manifest(tmp_path / "b" / "profile.csv")["config"]["min_samples"] == 30

    def test_one_file_with_every_key_serves_every_command(self, games_csv, tmp_path):
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in OPTION_VALUES.items()))
        outputs = {"ingest": "dataset.csv", "profile": "profile.csv",
                   "simulate-ti": "summary.csv", "backtest-td": "summary.csv"}
        for command, name in outputs.items():
            out_dir = tmp_path / command
            code = main([command, "--input", str(games_csv), "--out-dir", str(out_dir),
                         "--config", str(cfg)])
            assert code == 0
            config = read_manifest(out_dir / name)["config"]
            assert config["seed"] == 3
            assert config["kernel"] == "triangular"
            if command != "ingest":
                assert config["min_samples"] == 20
        ti = load_report(tmp_path / "simulate-ti" / "report.json")["config"]
        assert (ti["n_simulations"], ti["holdout_per_spread"]) == (4, 5)
        td = load_report(tmp_path / "backtest-td" / "report.json")["config"]
        assert td["cutoff_year"] == 2016


OFF_GRID_SPREADS = [-11.0, -3.0, 3.5, 10.5]


@pytest.fixture
def off_grid_csv(tmp_path):
    train = synthetic_spread_dataset(OFF_GRID_SPREADS, 20, seed=41, start="2015-01-01")
    test = synthetic_spread_dataset(OFF_GRID_SPREADS, 10, seed=42, start="2017-01-02")
    return write_dataset_csv(tmp_path / "off_grid.csv", Dataset(train.records + test.records))


class TestSpreadsOffTheGrid:
    """A valid spread outside [grid_lo, grid_hi) would get a cover
    probability of 0 or 1, and so an entropy of 0 bits, from the grid
    alone; the fit commands reject it."""

    FLAGS = ["--simulations", "2"]

    @pytest.mark.parametrize("command", ["profile", "simulate-ti", "backtest-td"])
    def test_rejected(self, off_grid_csv, tmp_path, capsys, command):
        code = main([command, "--input", str(off_grid_csv), "--out-dir", str(tmp_path / "o"),
                     "--grid-lo", "-10", "--grid-hi", "10", *self.FLAGS])
        assert code == 1
        assert "spread -11 lies outside the outcome grid [-10, 10)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["profile", "simulate-ti", "backtest-td"])
    def test_default_grid_accepts(self, off_grid_csv, tmp_path, command):
        out_dir = tmp_path / "o"
        code = main([command, "--input", str(off_grid_csv), "--out-dir", str(out_dir),
                     *self.FLAGS])
        assert code == 0
        rows = read_csv_rows(out_dir / "profile.csv")
        assert [float(r["spread"]) for r in rows] == OFF_GRID_SPREADS
        assert all(float(r["entropy_bits"]) > 0.1 for r in rows)


class TestFitCommandErrors:
    """``profile``, ``simulate-ti`` and ``backtest-td`` check their options, then
    the config built from them, then the input, and share one no-valid-spread
    error, raised by ``FitConfig.groups``."""

    @pytest.mark.parametrize("command, largest", [
        ("profile", 41), ("simulate-ti", 41),
        ("backtest-td", 30),  # TD counts only its training games, none at 6.5
    ])
    def test_no_valid_spread_names_the_largest_counted_group(
        self, tmp_path, capsys, command, largest
    ):
        games = synthetic_spread_dataset([-2.5, 1.5], 30, seed=3)
        big = synthetic_spread_dataset([6.5], 41, seed=4, start="2017-01-01")
        # 15 exact repeats would make -2.5 the largest group before deduplication.
        dataset = Dataset(games.records + big.records + games.records[:15])
        path = write_dataset_csv(tmp_path / "games.csv", dataset)
        code = main([command, "--input", str(path), "--out-dir", str(tmp_path / "o"),
                     "--min-samples", "42"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: no spread has at least min_samples=42 games "
            f"(the largest group has {largest})\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["missing", "malformed"])
    @pytest.mark.parametrize("command, flags, message", [
        ("profile", ["--grid-lo", "10", "--grid-hi", "5"], "grid_lo must be below grid_hi"),
        ("simulate-ti", ["--holdout", "30", "--min-samples", "25"],
         "min_samples must exceed holdout_per_spread so each valid spread keeps at least "
         "one training sample"),
        ("backtest-td", ["--grid-lo", "10", "--grid-hi", "5"], "grid_lo must be below grid_hi"),
    ])
    def test_cross_field_option_error_comes_before_the_input(
        self, tmp_path, capsys, source, command, flags, message
    ):
        path = tmp_path / "games.csv"
        if source == "malformed":
            path.write_text("date,home_team,visitor_team,home_score,visitor_score,spread\n"
                            "2017-09-10,NE,KC,x,42,-9.0\n", encoding="utf-8")
        code = main([command, "--input", str(path), "--out-dir", str(tmp_path / "o"), *flags])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()


class TestOptionLimits:
    """The widest grid the grid rule allows fits. A tiny gaussian bandwidth
    fits too: every weight off a kernel's own point underflows to 0, so a
    spread's p_home is the share of its games at or below it."""

    @pytest.mark.parametrize("command", ["profile", "simulate-ti", "backtest-td"])
    def test_widest_grid_runs(self, games_csv, tmp_path, command):
        assert main([command, "--input", str(games_csv), "--out-dir", str(tmp_path / "o"),
                     "--grid-lo", "-1000", "--grid-hi", "1000", "--simulations", "2"]) == 0

    @pytest.mark.parametrize("command", ["profile", "simulate-ti", "backtest-td"])
    @pytest.mark.parametrize("bandwidth", ["1e-160", "1e-200", "5e-324"])
    def test_tiny_bandwidth_fits_the_histogram(self, games_csv, tmp_path, command, bandwidth):
        out_dir = tmp_path / "o"
        assert main([command, "--input", str(games_csv), "--out-dir", str(out_dir),
                     "--bandwidth", bandwidth, "--simulations", "2"]) == 0
        if command == "profile":
            for row in read_csv_rows(out_dir / "profile.csv"):
                counts = {int(r["outcome"]): int(r["count"])
                          for r in read_csv_rows(out_dir / f"hist_{float(row['spread']):.1f}.csv")}
                below = sum(n for outcome, n in counts.items() if outcome <= float(row["spread"]))
                assert float(row["p_home"]) == below / sum(counts.values())


class TestEncoding:
    """Input files are UTF-8: a byte that is not fails with its file and line,
    and a byte-order mark opening a games file is not part of its header."""

    HEADER = "date,home_team,visitor_team,home_score,visitor_score,spread"
    ROW = "2017-09-10,NE,KC,27,42,-9.0"

    @pytest.mark.parametrize("command", ["ingest", "profile", "simulate-ti", "backtest-td"])
    def test_games_file_byte_names_file_and_line(self, tmp_path, capsys, command):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(f"{self.HEADER}\n{self.ROW}\n2017-09-11,Café,KC,27,42,-9.0\n"
                        .encode("latin-1"))
        code = main([command, "--input", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: line 3: 'utf-8' codec can't decode byte 0xe9 in position 14: "
            "invalid continuation byte\n"
        )

    @pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_past_the_first_read_buffer(self, tmp_path, capsys, eol, quote):
        # 3,000 rows are about 84 kB, far past any read buffer.
        row = self.ROW.replace("NE", f"{quote}NE{quote}")
        lines = [self.HEADER, "# comment", ""] + [row] * 3000 + ["2017-09-11,Caf\xe9,KC,1,2,3"]
        bad = tmp_path / "late.csv"
        bad.write_bytes(eol.join(lines + [self.ROW, ""]).encode("latin-1"))
        code = main(["ingest", "--input", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: line {len(lines)}: ")

    def test_config_file_byte_names_file_and_line(self, games_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("seed = 1\n# café\nbandwidth = 2.0\n".encode("latin-1"))
        code = main(["profile", "--input", str(games_csv), "--out-dir", str(tmp_path / "o"),
                     "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: 'utf-8' codec can't decode byte 0xe9 in position 5: "
            "unexpected end of data\n"
        )

    def test_games_file_with_byte_order_mark(self, games_csv, tmp_path, capsys):
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + games_csv.read_bytes())
        for path, out in ((games_csv, "plain"), (marked, "marked")):
            assert main(["ingest", "--input", str(path), "--out-dir", str(tmp_path / out)]) == 0
        assert "180 rows, 180 unique" in capsys.readouterr().out
        plain, bom = (tmp_path / out / "dataset.csv" for out in ("plain", "marked"))
        assert plain.read_bytes().split(b"\n", 1)[1] == bom.read_bytes().split(b"\n", 1)[1]

    def test_config_file_with_byte_order_mark(self, games_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfmin_samples = 20\nseed = 9\n")
        out_dir = tmp_path / "out"
        assert main(["profile", "--input", str(games_csv), "--out-dir", str(out_dir),
                     "--config", str(cfg)]) == 0
        config = read_manifest(out_dir / "profile.csv")["config"]
        assert (config["min_samples"], config["seed"]) == (20, 9)


class TestLineEndings:
    """One games file with LF, CRLF or CR endings, with a quoted field or with none,
    gives the same outputs: the CLI splits every file at LF once its CRLF and CR are
    LF, and reads a file with a quote by ``csv.reader`` over those lines."""

    @staticmethod
    def outputs(out_dir: Path) -> dict[str, bytes]:
        """Each output file's bytes, with the input digest and timestamp of the
        run manifest replaced by ``-``."""
        manifest = read_manifest(min(out_dir.glob("*.csv")))
        files = {}
        for path in sorted(out_dir.iterdir()):
            data = path.read_bytes()
            for value in (manifest["input_digest"], manifest["timestamp"]):
                data = data.replace(value.encode(), b"-")
            files[path.name] = data
        return files

    @pytest.mark.parametrize("command, written", [
        ("ingest", {"dataset.csv"}),
        ("profile", {"profile.csv", "hist_*.csv", "pdf_*.csv"}),
        ("simulate-ti", {"report.json", "summary.csv", "profile.csv"}),
        ("backtest-td", {"report.json", "summary.csv", "profile.csv"}),
    ])
    def test_outputs_equal_across_line_endings(self, games_csv, tmp_path, monkeypatch, capsys,
                                               command, written):
        lines = games_csv.read_text(encoding="utf-8").splitlines()
        lines[1:1] = ["# a comment", ""]
        lines.insert(len(lines) // 2, " \t")
        quoted = lines.copy()
        date, home, rest = quoted[3].split(",", 2)
        quoted[3] = f'{date},"{home}",{rest}'
        runs = {}
        for (eol_name, eol), (quotes, rows) in itertools.product(
            [("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")], [("plain", lines), ("quoted", quoted)]
        ):
            run_dir = tmp_path / f"{eol_name}-{quotes}"
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)  # the manifest names the same input
            Path("games.csv").write_text(eol.join(rows) + eol, encoding="utf-8", newline="")
            assert main([command, "--input", "games.csv", "--out-dir", "out",
                         "--simulations", "5"]) == 0
            runs[run_dir.name] = capsys.readouterr().out, self.outputs(Path("out"))
        stdout, files = runs.pop("lf-plain")
        assert {name.split("_")[0] + "_*.csv" if name.startswith(("hist_", "pdf_")) else name
                for name in files} == written
        for name, run in runs.items():
            assert run == (stdout, files), name


@pytest.mark.usefixtures("restore_gc")
class TestCollectorPause:
    """``main`` runs a command with the cyclic garbage collector paused, and
    leaves it as it found it on every exit."""

    HEADER_LINE = "date,home_team,visitor_team,home_score,visitor_score,spread\n"

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "rows, flags, outcome",
        [
            ("2017-09-10,NE,KC,27,42,-9.0\n", [], 0),
            ("2017-09-10,NE,KC,27,42,-9.0\n2017-09-11,GB,SEA,-3,10,1.5\n", [], 1),
            ("2017-09-10,NE,KC,27,42,-9.0\n2017-09-10,NE,KC,27,41,-9.0\n", [], 1),
            ("2017-09-10,NE,KC,27,42,-9.0\n", ["--kernel", "cubic"], 1),
            ("2017-09-10,NE,KC,27,42,-9.0\n", [], RuntimeError),
        ],
        ids=["success", "parse-error", "duplicate-conflict", "config-error", "uncaught"],
    )
    def test_command_runs_paused_and_restores_the_caller_state(
        self, tmp_path, monkeypatch, capsys, rows, flags, outcome, enabled
    ):
        handler, help_line = cli._COMMANDS["ingest"]
        seen = []

        def watched(args, options):
            seen.append(gc.isenabled())
            if outcome is RuntimeError:
                raise RuntimeError("a handler fault main does not catch")
            return handler(args, options)

        monkeypatch.setitem(cli._COMMANDS, "ingest", (watched, help_line))
        games = tmp_path / "games.csv"
        games.write_text(self.HEADER_LINE + rows, encoding="utf-8")
        argv = ["ingest", "--input", str(games), "--out-dir", str(tmp_path / "o"), *flags]
        (gc.enable if enabled else gc.disable)()
        if outcome is RuntimeError:
            with pytest.raises(RuntimeError):
                main(argv)
        else:
            assert main(argv) == outcome
        assert gc.isenabled() is enabled
        assert seen == ([] if flags else [False])

    @pytest.mark.parametrize(
        "command, small, large",
        [
            ("ingest", (20, []), (200, [])),
            ("profile", (20, []), (200, [])),
            ("backtest-td", (20, []), (200, [])),
            ("simulate-ti", (20, ["--simulations", "2"]), (200, ["--simulations", "2"])),
            ("simulate-ti", (20, ["--simulations", "2"]), (20, ["--simulations", "20"])),
        ],
        ids=["ingest", "profile", "backtest-td", "simulate-ti", "simulate-ti-simulations"],
    )
    def test_cyclic_garbage_does_not_grow_with_the_work(self, tmp_path, capsys, command, small,
                                                        large):
        # The pause is safe only while what a command leaves for the collector
        # is bounded: a warm command leaves the same cycles whatever its size.
        def run(per_spread, flags):
            train = synthetic_spread_dataset(SPREADS, per_spread, seed=41, start="2001-01-01")
            test = synthetic_spread_dataset(SPREADS, per_spread, seed=42, start="2017-01-01")
            games = write_dataset_csv(tmp_path / f"games-{per_spread}.csv",
                                      Dataset(train.records + test.records))
            gc.disable()
            gc.collect()
            assert main([command, "--input", str(games), "--out-dir", str(tmp_path / "o"),
                         "--min-samples", "15", "--holdout", "5", *flags]) == 0
            return gc.collect()

        run(*small)
        assert run(*small) == run(*large)
