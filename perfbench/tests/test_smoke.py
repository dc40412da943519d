"""Smoke test for the benchmark: every workload at a tiny size, through the
same code path as a full run.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, *args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert list(workloads.TINY) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("table", [workloads.WORKLOADS, workloads.TINY])
def test_generator_is_deterministic(table, name, tmp_path):
    shape = table[name].shape
    first, again, other = (workloads.generate(shape, s) for s in (5, 5, 6))
    for field in first.__dataclass_fields__:
        assert np.array_equal(getattr(first, field), getattr(again, field))
    assert not np.array_equal(first.outcome, other.outcome)
    workloads.write_csv(first, tmp_path / "a.csv")
    workloads.write_csv(again, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_tiny_ti_wide_is_paper_sized():
    games = workloads.generate(workloads.TINY["ti-wide"].shape, 0)
    assert len(games) == 648


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", list(workloads.TINY))
def test_tiny_run_emits_every_metric(name, trace, tmp_path):
    done = run_bench(tmp_path, "--workload", name, "--seed", "3", "--seconds", "0.2",
                     "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    for line in done.stdout.splitlines()[:-1]:
        if " = " in line:
            assert len(line.split(" = ", 1)[1].split()) >= 2, line  # value and unit


def test_refuses_to_run_without_sources(tmp_path):
    """A directory holding only the benchmark must fail without a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench(tmp_path, "--workload", "ti-wide", "--seed", "1", "--seconds", "1",
                     "--trace", "0", root=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
