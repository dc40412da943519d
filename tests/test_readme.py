"""The README's documented examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

from conftest import dataset_csv_text, synthetic_spread_dataset

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_python(section: str) -> str:
    """The first fenced ``python`` block under the README heading ``section``."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n{section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", body, re.DOTALL).group(1)


def test_library_use_example_prints_one_line_per_model(tmp_path, monkeypatch, capsys):
    dataset = synthetic_spread_dataset([-6.5, -2.5, 3.5], 40, cover_probs={-2.5: 0.9})
    (tmp_path / "games.csv").write_text(dataset_csv_text(dataset), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(fenced_python("## Library use"), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert [line.split()[0] for line in lines] == ["random", "max_prob", "min_entropy", "k_lowest"]
