"""Tests of tools/cold_pairs.py, which times cold rank and compare processes of two checkouts."""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cold_pairs.py"


def _clean_copy(destination: Path) -> Path:
    shutil.copytree(ROOT / "src", destination / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return destination


def _pairs(tmp_path: Path, parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(parent), "--change", str(change),
         "--treatments", "5", "--contrasts", "40", "--runs", "2", "--workdir", str(tmp_path)],
        capture_output=True, text=True,
    )


def test_two_tiny_runs_per_side_report_time_rss_and_the_same_artifacts(tmp_path):
    checkout = _clean_copy(tmp_path / "checkout")
    proc = _pairs(tmp_path, checkout, checkout)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    runs = [re.fullmatch(r"run (\d) (parent|change) (rank|compare): exit 0, [\d.]+ s, "
                         r"peak RSS [\d.]+ MB", line) for line in lines[:8]]
    assert [m.groups() for m in runs] == [
        (run, side, command) for run, sides in (("0", ("parent", "change")),
                                                ("1", ("change", "parent")))
        for side in sides for command in ("rank", "compare")
    ]
    summaries = [("parent", "rank"), ("change", "rank"), ("parent", "compare"),
                 ("change", "compare")]
    for (side, command), line in zip(summaries, lines[8:12]):
        assert line.startswith(f"{side} {command}: ") and "peak RSS" in line
    assert lines[12:] == ["artifacts: same (rank: ability_plot.svg, fit.json, rank.csv; "
                          "compare: scores.csv, scores.json)"]
    # The runs are gone, and the checkout got no bytecode.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkout"]
    assert list(checkout.rglob("__pycache__")) == []


def test_a_changed_artifact_is_named_and_fails_the_pairs(tmp_path):
    parent, change = _clean_copy(tmp_path / "parent"), _clean_copy(tmp_path / "change")
    cli = change / "src" / "treatrank" / "cli.py"
    source = cli.read_text(encoding="utf-8")
    assert source.count('"nu": fit.nu,') == 1
    cli.write_text(source.replace('"nu": fit.nu,', '"nu": fit.nu + 1e-9,'), encoding="utf-8")
    proc = _pairs(tmp_path, parent, change)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "artifacts: differ in rank fit.json (rank: ability_plot.svg, fit.json, rank.csv; "
        "compare: scores.csv, scores.json)"
    )


def test_a_checkout_holding_bytecode_is_refused(tmp_path):
    checkout = _clean_copy(tmp_path / "checkout")
    (checkout / "src" / "treatrank" / "__pycache__").mkdir()
    proc = _pairs(tmp_path, checkout, checkout)
    assert proc.returncode == 2
    assert "treatrank/__pycache__" in proc.stderr
