"""Tests of tools/bench_pairs.py, which runs bench/run.py on two checkouts in pairs."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"


def _clean_copy(destination: Path) -> Path:
    """The files bench/run.py reads from this checkout, without bytecode."""
    for part in ("bench", "src", "tests/fixtures"):
        shutil.copytree(ROOT / part, destination / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return destination


def _pairs(tmp_path: Path, checkout: Path, out: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(checkout), "--change", str(checkout),
         "--workloads", "partition_planted", "--pairs", "1", "--seconds", "0",
         "--out", str(out), "--workdir", str(tmp_path)],
        capture_output=True, text=True,
    )


def test_one_self_pair_appends_an_env_line_and_one_result_per_side(tmp_path):
    checkout = _clean_copy(tmp_path / "checkout")
    out = tmp_path / "BENCH_self.json"
    out.write_text('{"kind": "earlier"}\n', encoding="utf-8")
    proc = _pairs(tmp_path, checkout, out)
    assert proc.returncode == 0, proc.stderr
    earlier, env, *results = map(json.loads, out.read_text(encoding="utf-8").splitlines())
    assert earlier == {"kind": "earlier"}  # appended to, not replaced
    assert env["kind"] == "env" and env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert env["parent"] == env["change"] == str(checkout.resolve())
    assert set(env["blas"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert env["python"] and env["numpy"]
    assert [(r["kind"], r["side"], r["first"], r["workload"], r["pair"], r["seed"])
            for r in results] == [("result", side, "parent", "partition_planted", 0, 1)
                                  for side in ("parent", "change")]
    for r in results:
        assert r["result"]["correct"] and r["result"]["failed"] == 0
        assert set(r["result"]["metrics"]) == {"setup_s", "job_s", "peak_rss_mb"}
    summary = [line for line in proc.stdout.splitlines() if "lower in" in line]
    assert [line.split(":")[0] for line in summary] == [
        f"partition_planted {metric}" for metric in ("job_s", "setup_s", "peak_rss_mb")
    ]
    # The copies are gone, and the checkout got no bytecode.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_self.json", "checkout"]
    assert list(checkout.rglob("__pycache__")) == []


def test_a_checkout_holding_bytecode_is_refused(tmp_path):
    checkout = _clean_copy(tmp_path / "checkout")
    (checkout / "src" / "treatrank" / "__pycache__").mkdir()
    out = tmp_path / "BENCH_self.json"
    proc = _pairs(tmp_path, checkout, out)
    assert proc.returncode != 0
    assert "src/treatrank/__pycache__" in proc.stderr
    assert [json.loads(line)["kind"] for line in out.read_text().splitlines()] == ["env"]


def test_the_summary_gives_medians_spreads_and_the_pairs_lower_on_the_change():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def summary(parent, change):
        lines = [
            {"workload": "w", "pair": pair, "side": side,
             "result": {"metrics": {m: {"value": values[pair]} for m in tool.METRICS}}}
            for pair in range(len(parent)) for side, values in (("parent", parent),
                                                                 ("change", change))
        ]
        return tool.summarize(lines)[0]

    # Quartiles by statistics.quantiles: parent 1.25 and 3.75, change 0.875 and 2.875.
    assert summary([1.0, 2.0, 3.0, 4.0], [0.5, 2.5, 2.0, 3.0]) == (
        "w job_s: parent 2.5 (IQR 2.5), change 2.25 (IQR 2), -10.0%, lower in 3 of 4, a gain: no"
    )
    # A gain is lower in at least 9 of 10 pairs, by a median gap above the parent's IQR.
    parent = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]  # IQR 0.55
    assert summary(parent, [x - 1.0 for x in parent]).endswith("lower in 10 of 10, a gain: yes")
    assert summary(parent, [x - 0.5 for x in parent]).endswith("lower in 10 of 10, a gain: no")
    nine = [x - 1.0 for x in parent[:9]] + [parent[9] + 1.0]
    assert summary(parent, nine).endswith("lower in 9 of 10, a gain: yes")
    # A tie counts for neither side.
    tied = [x - 1.0 for x in parent[:8]] + [parent[8] - 1.0, parent[9]]
    assert summary(parent, tied).endswith("lower in 9 of 10, a gain: yes")
    tied = [x - 1.0 for x in parent[:8]] + parent[8:]
    assert summary(parent, tied).endswith("lower in 8 of 10, a gain: no")


def test_a_missing_workdir_is_a_usage_error_and_writes_nothing(tmp_path):
    checkout = _clean_copy(tmp_path / "checkout")
    out = tmp_path / "BENCH_self.json"
    proc = _pairs(tmp_path / "missing", checkout, out)
    assert proc.returncode == 2
    assert f"--workdir {tmp_path / 'missing'} is not a directory" in proc.stderr
    assert not out.exists() and not (tmp_path / "missing").exists()
