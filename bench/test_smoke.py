"""Smoke test of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SUBCOMMANDS = {
    "cli_fixture": ("rank", "partition", "compare"),
    "network": ("rank", "compare"),
    "partition_planted": ("partition",),
}


def _run(capsys, workload: str, trace: int):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], sizes=run.TINY)
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_reported(capsys, workload):
    code, lines, result = _run(capsys, workload, trace=0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    printed = {line.split()[0] for line in lines[:-1] if line.strip()}
    expected = {"setup_s", "job_s", "peak_rss_mb", "error_rate"}
    expected.update(f"{kind}_s" for kind in SUBCOMMANDS[workload])
    assert expected <= printed

    code, lines, result = _run(capsys, workload, trace=1)
    assert code == 0 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(v["unit"] == units[name] for name, v in result["metrics"].items())


def test_corrupted_artifact_counts_in_error_rate(capsys, monkeypatch):
    sys.path.insert(0, str(run.SRC))
    import treatrank.cli as cli

    original = cli.main

    def corrupting_main(argv):
        code = original(argv)
        fit_path = Path(argv[argv.index("--out-dir") + 1]) / "fit.json"
        if fit_path.exists():
            document = json.loads(fit_path.read_text(encoding="utf-8"))
            document["pi"][document["treatments"][0]] += 0.01
            fit_path.write_text(json.dumps(document), encoding="utf-8")
        return code

    monkeypatch.setattr(cli, "main", corrupting_main)
    code, lines, result = _run(capsys, "network", trace=0)
    assert code == 0
    assert not result["correct"]
    # Every rank job fails its check; the compare jobs are untouched.
    assert result["failed"] == result["attempted"] // 2
    rate = next(line for line in lines if line.startswith("error_rate "))
    assert float(rate.split()[1]) == pytest.approx(0.5)


def test_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "network", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
