"""Tests of tools/byte_set.py, which compares the artifacts of two checkouts."""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "byte_set.py"


def _tool():
    spec = importlib.util.spec_from_file_location("byte_set", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _byte_set(tmp_path: Path, parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(parent), "--change", str(change),
         "--inputs", "fixture", "--workdir", str(tmp_path)],
        capture_output=True, text=True,
    )


def test_a_changed_number_in_fit_json_is_counted_and_the_rest_is_the_same(tmp_path):
    change = tmp_path / "change"
    shutil.copytree(ROOT / "src", change / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = change / "src" / "treatrank" / "cli.py"
    source = cli.read_text(encoding="utf-8")
    assert source.count('"nu": fit.nu,') == 1
    cli.write_text(source.replace('"nu": fit.nu,', '"nu": fit.nu + 1e-9,'), encoding="utf-8")
    proc = _byte_set(tmp_path, ROOT, change)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    differing = [line for line in lines[:-1] if not line.endswith(": same")]
    assert len(differing) == 1
    assert re.fullmatch(r"fixture rank fit\.json: differs \(1 of \d+ numbers changed, in nu; "
                        r"max relative \S+\)", differing[0])
    commands = {" ".join(line.split()[:2]) for line in lines[:-1]}
    assert commands == {"fixture rank", "fixture partition", "fixture compare"}
    assert lines[-1] == f"1 of {len(lines) - 1} differ"
    # The runs are gone, and the changed checkout got no bytecode.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["change"]
    assert list(change.rglob("__pycache__")) == []


def test_each_exit_code_stream_and_file_is_compared():
    tool = _tool()
    run = (0, "", {"fit.json": b'{"a": [1.0, 2.0]}', "rank.csv": b"x\n"})
    assert tool.compare("in cmd", run, run) == [
        ("in cmd exit: same", True), ("in cmd stderr: same", True),
        ("in cmd fit.json: same", True), ("in cmd rank.csv: same", True),
    ]
    changed = (2, "error: x\n", {"fit.json": b'{"a": [1.0, 2.5]}', "tree.json": b"{}"})
    assert [line for line, same in tool.compare("in cmd", run, changed)] == [
        "in cmd exit: differs (0 -> 2)",
        "in cmd stderr: differs",
        "in cmd fit.json: differs (1 of 2 numbers changed, in a; max relative 0.2)",
        "in cmd rank.csv: only in parent",
        "in cmd tree.json: only in change",
    ]


def test_json_documents_that_differ_in_more_than_numbers_say_so():
    tool = _tool()
    document = {"n": 1, "x": 0.5, "label": "A", "flag": True}
    same_numbers = json.dumps(document, indent=2).encode()
    assert tool.json_change(json.dumps(document).encode(), same_numbers) == (
        "differs (in formatting only)"
    )
    for other in ({**document, "label": "B"}, {**document, "flag": 1}, {"n": 1, "x": 0.5}):
        assert tool.json_change(json.dumps(document).encode(), json.dumps(other).encode()) == (
            "differs (not only in numbers)"
        )


def test_a_relative_workdir_runs_the_commands_on_their_inputs(tmp_path):
    # Each command runs from a directory of its own, so a relative input path would miss.
    (tmp_path / "runs").mkdir()
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(ROOT), "--change", str(ROOT),
         "--inputs", "planted-7", "--workdir", "runs"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        f"planted-7 partition {what}: same" for what in ("exit", "stderr", "tree.json", "tree.txt")
    ] + ["0 of 4 differ"]
    assert list((tmp_path / "runs").iterdir()) == []


def test_a_missing_workdir_is_a_usage_error(tmp_path):
    missing = tmp_path / "missing"
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(ROOT), "--change", str(ROOT),
         "--inputs", "fixture", "--workdir", str(missing)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert f"--workdir {missing} is not a directory" in proc.stderr
    assert proc.stdout == "" and not missing.exists()
