"""End-to-end command-line behavior."""

from __future__ import annotations

import csv
import json
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadbias import (
    Dataset,
    FitConfig,
    TdConfig,
    TiConfig,
    bucket_by_spread,
    deduplicate,
    estimate_density,
    parse_games,
)
from spreadbias.cli import _config, _resolve_options, build_parser, main
from conftest import GAME_RECORDS, synthetic_spread_dataset, write_dataset_csv

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

    def test_empty_but_valid_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("date,home_team,visitor_team,home_score,visitor_score,spread\n")
        code = main(["ingest", "--input", str(empty), "--out-dir", str(tmp_path / "o")])
        assert code == 0
        assert "0 rows" in capsys.readouterr().out

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
        with open(games_csv, encoding="utf-8", newline="") as fh:
            buckets = bucket_by_spread(deduplicate(parse_games(fh)), 25)
        assert len(buckets) == len(SPREADS)
        for bucket in buckets:
            rows = read_csv_rows(out_dir / f"pdf_{bucket.spread:.1f}.csv")
            density = estimate_density(bucket.outcomes, 3.0, kernel="triangular")
            assert [int(r["grid_point"]) for r in rows] == density.grid.points.tolist()
            assert [float(r["mass"]) for r in rows] == density.mass.tolist()

    def test_histogram_counts_match_bucket_sizes(self, games_csv, tmp_path):
        out_dir = tmp_path / "out"
        main(["profile", "--input", str(games_csv), "--out-dir", str(out_dir),
              "--min-samples", "25"])
        rows = read_csv_rows(out_dir / "hist_-2.5.csv")
        assert sum(int(r["count"]) for r in rows) == 36

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
        assert "min-samples" in capsys.readouterr().err


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


class TestCoverProbabilityRoundingPastOne:
    """A boxcar density whose prefix sum at 7.5 rounds to 1.0000000000000002
    (every margin at most 0) is capped at 1.0 instead of failing."""

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
        assert (row["spread"], row["p_home"]) == ("7.5", "1.0")
        if command == "simulate-ti":
            # Some holdouts leave a prefix sum of 0.9999999999999999, whose
            # entropy is about 1e-15 bits; the mean keeps it.
            assert float(row["entropy_bits"]) < 1e-12
        else:
            assert row["entropy_bits"] == "0.0"


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
        ("bandwidth = 0", "bandwidth must be positive"),
        ("seed = -1", "seed must be non-negative"),
        ("holdout = 0", "holdout_per_spread must be >= 1"),
    ])
    def test_value_breaking_its_rule_fails_with_location(
        self, games_csv, tmp_path, capsys, command, line, message
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# header\nseed = 1\n{line}\n")
        code = main([command, "--input", str(games_csv),
                     "--out-dir", str(tmp_path / "o"), "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}:3: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_same_rule_as_a_flag_is_unlocated(self, games_csv, tmp_path, capsys):
        code = main(["profile", "--input", str(games_csv),
                     "--out-dir", str(tmp_path / "o"), "--min-samples", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: min_samples must be >= 1\n"


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

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_past_the_first_read_buffer(self, tmp_path, capsys, eol):
        # 3,000 rows are about 84 kB, far past any read buffer.
        lines = [self.HEADER, "# comment", ""] + [self.ROW] * 3000 + ["2017-09-11,Caf\xe9,KC,1,2,3"]
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
