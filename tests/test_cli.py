"""End-to-end tests of the command-line driver and the SVG plot output."""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treatrank
from treatrank import build_ability_svg, emit_plot, fit_davidson
from treatrank.cli import RunConfig, _build_parser, main, parse_args
from treatrank.tcc import PairCounts, Tournament

FIXTURES = Path(__file__).parent / "fixtures"
CONTRASTS = FIXTURES / "contrasts.csv"
LEAGUE = FIXTURES / "league.csv"


def _run(*argv) -> int:
    return main([str(a) for a in argv])


def test_every_trace_point_of_the_benchmark_resolves():
    # bench/tracing.py wraps the layer functions by the names they have in these modules.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import tracing
    finally:
        sys.path.pop(0)
    for module, attribute, _ in tracing.TRACE_POINTS:
        assert callable(getattr(importlib.import_module(module), attribute)), (module, attribute)


def test_rank_on_the_bundled_fixture(tmp_path):
    code = _run("rank", "--input", CONTRASTS, "--out-dir", tmp_path, "--mcid", "1.2")
    assert code == 0
    rank_lines = (tmp_path / "rank.csv").read_text().splitlines()
    assert rank_lines[0] == "treatment,ability,se_log_ability,pi,rank"
    assert len(rank_lines) == 7  # header + six treatments
    assert [line.split(",")[-1] for line in rank_lines[1:]] == [str(k) for k in range(1, 7)]
    document = json.loads((tmp_path / "fit.json").read_text())
    assert set(document["treatments"]) == {
        "abrixan", "boretol", "caldex", "durvane", "eptrazol", "fimbrel"
    }
    assert document["n_records"] == 48
    assert document["converged"] is True
    assert math.fsum(document["pi"].values()) == pytest.approx(1.0, abs=1e-10)
    assert len(document["covariance"]) == len(document["param_names"])
    for entry in document["normalized"].values():
        assert entry["ci_lower"] <= entry["estimate"] <= entry["ci_upper"]
    svg = (tmp_path / "ability_plot.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 6


def _readme_names(readme: str, lead: str) -> list[str]:
    """The backquoted names of the README paragraph that starts with ``lead``."""
    paragraph = re.search(rf"^{re.escape(lead)}(.+?)\n\n", readme, re.M | re.S)
    return re.findall(r"`([^`]+)`", paragraph.group(1))


def test_readme_library_quick_start_runs_as_written(monkeypatch, capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(FIXTURES)  # the example reads contrasts.csv
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 6


def test_readme_lists_what_each_subcommand_writes(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = dict(re.findall(r"^\| `([a-z-]+)` +\|[^|]*\| (.+?) \|$", readme, re.M))
    inputs = {"rank": CONTRASTS, "partition": CONTRASTS, "compare": LEAGUE, "tcc-dump": CONTRASTS}
    assert table.keys() == inputs.keys()
    for command, source in inputs.items():
        out = tmp_path / command
        assert _run(command, "--input", source, "--out-dir", out, "--mcid", "1.2") == 0
        written = sorted(p.name for p in out.iterdir())
        assert written == sorted(re.findall(r"`([^`]+)`", table[command])), command
    header = (tmp_path / "rank" / "rank.csv").read_text().splitlines()[0]
    assert header.split(",") == _readme_names(readme, "`rank.csv` columns")
    document = json.loads((tmp_path / "rank" / "fit.json").read_text())
    assert list(document) == _readme_names(readme, "`fit.json` keys:")


def test_rank_csv_values_use_six_significant_digits(tmp_path):
    assert _run("rank", "--input", CONTRASTS, "--out-dir", tmp_path, "--mcid", "1.2") == 0
    for line in (tmp_path / "rank.csv").read_text().splitlines()[1:]:
        _, ability, se, pi, _ = line.split(",")
        for cell in (ability, se, pi):
            assert re.fullmatch(r"-?\d+(\.\d+)?(e-?\d+)?", cell)
            digits = re.sub(r"[-.e]", "", cell).lstrip("0")
            assert len(digits) <= 6


def test_rank_is_byte_deterministic(tmp_path):
    for directory in ("one", "two"):
        code = _run(
            "rank", "--input", CONTRASTS, "--out-dir", tmp_path / directory,
            "--mcid", "1.2", "--dump-records",
        )
        assert code == 0
    for name in ("rank.csv", "fit.json", "ability_plot.svg", "records.csv"):
        first = (tmp_path / "one" / name).read_bytes()
        second = (tmp_path / "two" / name).read_bytes()
        assert first == second, name


_EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                                1e-310, 1.7976931348623157e308, 0.1])


@st.composite
def _documents_with_a_covariance(draw):
    n = draw(st.integers(0, 4))
    cells = draw(st.lists(st.floats() | _EDGE_FLOATS, min_size=n * n, max_size=n * n))
    rest = draw(st.dictionaries(st.text(max_size=12), st.floats() | st.text(max_size=12)
                                | st.lists(st.floats(), max_size=3), max_size=4))
    return rest, np.array(cells, dtype=float).reshape(n, n)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_documents_with_a_covariance())
def test_the_covariance_rows_are_written_as_json_dump_writes_them(case):
    from treatrank.cli import _write_json

    rest, covariance = case
    expected = json.dumps({**rest, "covariance": covariance.tolist()}, indent=2, sort_keys=True)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "fit.json"
        _write_json(path, {**rest, "covariance": covariance}, matrix="covariance")
        assert path.read_text(encoding="utf-8") == expected + "\n"


def test_rank_and_partition_never_build_a_tournaments_counts(tmp_path, monkeypatch):
    from treatrank import tcc

    built, get = [], tcc._CountsOnFirstRead.__get__

    def counted(self, t, owner=None):
        built.append(t)
        return get(self, t, owner)

    monkeypatch.setattr(tcc._CountsOnFirstRead, "__get__", counted)
    assert _run("rank", "--input", CONTRASTS, "--out-dir", tmp_path / "rank", "--mcid", "1.2",
                "--dump-records") == 0
    assert _run("partition", "--input", CONTRASTS, "--out-dir", tmp_path / "partition",
                "--mcid", "1.2") == 0
    assert built == []
    t = tcc._tally(("A", "B"), np.array([[0, 1]]), np.array([0, 2]))
    assert t.counts == {("A", "B"): PairCounts(1, 0, 1)} and built == [t]


def test_rank_records_route_matches_contrast_route(tmp_path):
    assert _run("tcc-dump", "--input", CONTRASTS, "--out-dir", tmp_path, "--mcid", "1.2") == 0
    records = tmp_path / "records.csv"
    assert records.exists()
    assert _run(
        "rank", "--input", CONTRASTS, "--out-dir", tmp_path / "from_contrasts",
        "--mcid", "1.2",
    ) == 0
    assert _run(
        "rank", "--input", records, "--out-dir", tmp_path / "from_records", "--records",
    ) == 0
    first = (tmp_path / "from_contrasts" / "fit.json").read_bytes()
    second = (tmp_path / "from_records" / "fit.json").read_bytes()
    assert first == second


def test_rank_requires_an_mcid_for_contrast_input(tmp_path):
    # The equivalence bounds replace those derived from --mcid; they do not stand for it.
    for k, bounds in enumerate(((), ("--roe-lower", "0.8", "--roe-upper", "1.25"))):
        out_dir = tmp_path / str(k)
        assert _run("rank", "--input", CONTRASTS, *bounds, "--out-dir", out_dir) == 1
        document = json.loads((out_dir / "error.json").read_text())
        assert document["exit_code"] == 1
        assert "--mcid is required" in document["message"]


def test_rank_rejects_a_degenerate_mcid(tmp_path):
    assert _run(
        "rank", "--input", CONTRASTS, "--out-dir", tmp_path, "--mcid", "0.9"
    ) == 1


@pytest.mark.parametrize(
    "argv, name",
    [
        (("compare", "--input", LEAGUE, "--mcid", "nan"), "mcid must be finite"),
        (("compare", "--input", LEAGUE, "--mcid", "inf"), "mcid must be finite"),
        (("rank", "--input", CONTRASTS, "--mcid", "inf"), "mcid must be finite"),
        (("rank", "--input", CONTRASTS, "--mcid", "nan"), "mcid must be finite"),
        (("rank", "--input", CONTRASTS, "--mcid", "1.2", "--roe-upper", "inf"), "roe_upper"),
        (("rank", "--input", CONTRASTS, "--mcid", "1.2", "--roe-lower", "nan"), "roe_lower"),
    ],
)
def test_a_non_finite_mcid_or_roe_bound_is_a_data_error(tmp_path, argv, name):
    assert _run(*argv, "--out-dir", tmp_path) == 1
    document = json.loads((tmp_path / "error.json").read_text())
    assert document["error"] == "DataError"
    assert name in document["message"]
    assert document["message"].endswith(f"got {argv[-1]}")


@pytest.mark.parametrize("level", ["0.9999999999999999", "1e-17"])
@pytest.mark.parametrize("subcommand", ["rank", "tcc-dump"])
def test_a_ci_level_without_a_usable_quantile_is_a_data_error(tmp_path, subcommand, level):
    # (1 + level) / 2 rounds to 1 or to 0.5: an infinite or a zero normal quantile
    source = tmp_path / "contrasts.csv"
    source.write_text(
        "study,treat1,treat2,effect,lower,upper,ci_level\n"
        f"s1,A,B,0.3,0.1,0.5,0.95\ns2,B,C,0.2,0.0,0.4,{level}\n"
    )
    out = tmp_path / "out"
    assert _run(subcommand, "--input", source, "--out-dir", out, "--mcid", "1.2") == 1
    document = json.loads((out / "error.json").read_text())
    assert document["error"] == "DataError"
    assert document["message"] == (
        f"row 3: ci_level {level} is too close to 0 or 1: its normal quantile is 0 or infinite"
    )


@pytest.mark.parametrize("level", ["0.9999999999999999", "1e-17"])
def test_a_report_ci_level_without_a_usable_quantile_is_a_data_error(tmp_path, level):
    argv = ("rank", "--input", CONTRASTS, "--mcid", "1.2", "--ci-level", level)
    assert _run(*argv, "--out-dir", tmp_path) == 1
    document = json.loads((tmp_path / "error.json").read_text())
    assert document["error"] == "DataError"
    assert document["message"] == (
        f"ci_level {level} is too close to 0 or 1: its normal quantile is 0 or infinite"
    )


def test_rank_only_ties_is_a_model_error(tmp_path):
    source = tmp_path / "ties.csv"
    source.write_text(
        "study,treat1,treat2,verdict\ns1,A,B,tie\ns2,B,C,tie\ns3,A,C,tie\n"
    )
    code = _run("rank", "--input", source, "--out-dir", tmp_path, "--records")
    assert code == 2
    document = json.loads((tmp_path / "error.json").read_text())
    assert document["error"] == "OnlyTiesError"
    assert document["exit_code"] == 2


def test_rank_regularity_failure_names_the_bipartition(tmp_path):
    source = tmp_path / "chain.csv"
    source.write_text(
        "study,treat1,treat2,verdict\n"
        "s1,A,B,first_wins\ns2,B,C,first_wins\ns3,A,C,first_wins\n"
    )
    code = _run("rank", "--input", source, "--out-dir", tmp_path, "--records")
    assert code == 2
    document = json.loads((tmp_path / "error.json").read_text())
    assert document["error"] == "FordConditionError"
    assert document["subset"] == ["A"]
    assert sorted(document["complement"]) == ["B", "C"]


def test_rank_without_a_finite_maximum_is_a_model_error(tmp_path):
    source = tmp_path / "tie_and_loss.csv"
    source.write_text("study,treat1,treat2,verdict\ns1,A,B,second_wins\ns2,A,B,tie\n")
    code = _run("rank", "--input", source, "--out-dir", tmp_path, "--records")
    assert code == 2
    document = json.loads((tmp_path / "error.json").read_text())
    assert document["error"] == "ModelError"
    assert "no finite maximum" in document["message"]
    assert not (tmp_path / "fit.json").exists()


def test_rank_with_an_unrepresentable_interval_is_a_model_error(
    tmp_path, overflowing_network, capsys
):
    def reject(constant):
        raise ValueError(f"error.json holds {constant}")

    out = tmp_path / "out"
    assert _run("rank", "--input", overflowing_network, "--out-dir", out, "--mcid", "1.2") == 2
    document = json.loads((out / "error.json").read_text(), parse_constant=reject)
    assert document["error"] == "ModelError" and document["exit_code"] == 2
    assert "is not representable" in document["message"]
    assert capsys.readouterr().err == f"error: {document['message']}\n"
    assert [p.name for p in out.iterdir()] == ["error.json"]
    # rank.csv holds no interval, so it is still written.
    csv_out = tmp_path / "csv"
    assert _run("rank", "--input", overflowing_network, "--out-dir", csv_out, "--mcid", "1.2",
                "--format", "csv") == 0
    assert [p.name for p in csv_out.iterdir()] == ["rank.csv"]


def test_a_model_too_large_for_memory_is_a_model_error(tmp_path, monkeypatch, capsys):
    def exhaust(tournament):
        raise MemoryError()

    monkeypatch.setattr("treatrank.cli.fit_davidson", exhaust)
    assert _run("rank", "--input", CONTRASTS, "--out-dir", tmp_path, "--mcid", "1.2") == 2
    document = json.loads((tmp_path / "error.json").read_text())
    assert document == {"error": "ModelError", "exit_code": 2,
                        "message": "the model does not fit in memory: allocation failed"}
    assert capsys.readouterr().err == f"error: {document['message']}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["error.json"]


def test_rank_missing_input_file(tmp_path):
    assert _run("rank", "--input", tmp_path / "nope.csv", "--out-dir", tmp_path,
                "--mcid", "1.2") == 1


def test_rank_unreadable_input_writes_error_json(tmp_path):
    folder = tmp_path / "a_directory"
    folder.mkdir()
    out = tmp_path / "out"
    assert _run("rank", "--input", folder, "--out-dir", out, "--records") == 1
    document = json.loads((out / "error.json").read_text())
    assert document["error"] == "IsADirectoryError"
    assert document["exit_code"] == 1


def test_an_out_dir_that_is_a_file_exits_1_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("a file\n")
    assert _run("rank", "--input", CONTRASTS, "--out-dir", out, "--mcid", "1.2") == 1
    assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{out}'\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert out.read_text() == "a file\n"


def test_format_selection_limits_artifacts(tmp_path):
    code = _run(
        "rank", "--input", CONTRASTS, "--out-dir", tmp_path,
        "--mcid", "1.2", "--format", "json",
    )
    assert code == 0
    assert (tmp_path / "fit.json").exists()
    assert not (tmp_path / "rank.csv").exists()
    assert not (tmp_path / "ability_plot.svg").exists()
    # tree.txt and tcc-dump's records.csv are written whatever the subset; compare has no svg.
    for command, table, formats, written in [
        ("partition", CONTRASTS, "csv", ["tree.txt"]),
        ("tcc-dump", CONTRASTS, "json", ["records.csv"]),
        ("compare", LEAGUE, "csv,svg", ["scores.csv"]),
    ]:
        out = tmp_path / command
        code = _run(command, "--input", table, "--out-dir", out, "--mcid", "1.2",
                    "--format", formats)
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == written, command


def test_unknown_format_is_rejected():
    assert _run("rank", "--input", CONTRASTS, "--mcid", "1.2", "--format", "csv,pdf") == 1


def test_readme_names_every_long_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    parsers, options = [_build_parser()], set()
    while parsers:
        for action in parsers.pop()._actions:
            options.update(o for o in action.option_strings if o.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    options.discard("--help")
    assert {"--input", "--partition", "--version", "--nsim"} <= options
    assert sorted(o for o in options if not re.search(re.escape(o) + r"(?![\w-])", readme)) == []


def test_version_prints_the_package_version(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--version"])
    assert stop.value.code == 0
    assert capsys.readouterr().out == f"treatrank {treatrank.__version__}\n"


def test_unknown_subcommand_is_rejected():
    assert _run("describe", "--input", CONTRASTS) == 1


@pytest.mark.parametrize(
    "options, message",
    [
        (["--mcid"], "argument --mcid: expected one argument"),
        (["--mcid", "1.2", "--bogus", "3"], "unrecognized arguments: --bogus 3"),
        # argparse reads "-inf" as an option, so --mcid has no value
        (["--mcid", "-inf"], "argument --mcid: expected one argument"),
        (["--mcid", "1.2", "--format", ""], "at least one output format is required"),
    ],
    ids=["missing-value", "unknown-flag", "value-like-an-option", "no-format"],
)
def test_usage_errors_write_error_json_into_the_out_dir(tmp_path, options, message):
    out = tmp_path / "o1"
    assert _run("rank", "--input", CONTRASTS, "--out-dir", out, *options) == 1
    document = json.loads((out / "error.json").read_text())
    assert document == {"error": "DataError", "exit_code": 1, "message": message}


def test_usage_errors_without_an_out_dir_write_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _run("rank", "--input", CONTRASTS, "--mcid", "-inf") == 1
    assert _run("rank", "--input", CONTRASTS, "--mcid", "1.2", "--out-dir") == 1
    assert list(tmp_path.iterdir()) == []
    assert "expected one argument" in capsys.readouterr().err


def test_parse_args_builds_a_run_config():
    config = parse_args(
        [
            "partition", "--input", str(CONTRASTS), "--out-dir", "/tmp/x",
            "--mcid", "1.25", "--partition", "age,setting", "--alpha", "0.01",
            "--permutations", "500", "--seed", "9",
        ]
    )
    assert config.subcommand == "partition"
    assert config.covariates == ("age", "setting")
    assert config.alpha == 0.01
    assert config.permutations == 500
    assert config.seed == 9
    assert config.mcid == 1.25


def test_parse_args_leaves_unset_options_at_the_run_config_defaults():
    for subcommand in ("rank", "partition", "compare", "tcc-dump"):
        config = parse_args([subcommand, "--input", str(CONTRASTS)])
        assert config == RunConfig(subcommand=subcommand, input=CONTRASTS)


@pytest.mark.parametrize(
    "argv",
    [
        ("compare", "--input", LEAGUE),
        ("partition", "--input", CONTRASTS, "--mcid", "1.2"),
        ("rank", "--input", CONTRASTS, "--mcid", "1.2"),
        ("tcc-dump", "--input", CONTRASTS, "--mcid", "1.2"),
    ],
)
def test_negative_seed_is_a_data_error(tmp_path, argv):
    assert _run(*argv, "--out-dir", tmp_path, "--seed", "-1") == 1
    document = json.loads((tmp_path / "error.json").read_text())
    assert document["error"] == "DataError"
    assert "seed must be non-negative" in document["message"]


def test_negative_max_depth_is_a_data_error(tmp_path):
    argv = ("partition", "--input", CONTRASTS, "--mcid", "1.2", "--max-depth", "-1")
    assert _run(*argv, "--out-dir", tmp_path) == 1
    document = json.loads((tmp_path / "error.json").read_text())
    assert document["error"] == "DataError"
    assert "max_depth must be non-negative" in document["message"]
    assert not (tmp_path / "tree.json").exists()


_DUMPING = ("--input", CONTRASTS, "--mcid", "1.2", "--dump-records")
_BAD_TABLE = "<a table without the columns any subcommand needs>"
_MCID = "mcid must be finite and exceed 1 on the ratio scale, got"
_NO_MCID = "--mcid is required to derive preference records from contrasts"
_STRADDLE = "equivalence range must straddle the null effect: need"
_RECORDS = ("--records", "--input", _BAD_TABLE)
_FOR_CONTRASTS = "applies only to contrast input"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("partition", *_DUMPING, "--alpha", "2"), "alpha must be in [0, 1], got 2.0"),
        (("partition", *_DUMPING, "--min-node-size", "1"),
         "min_node_size must be at least 2, got 1"),
        (("partition", *_DUMPING, "--partition", "nope"), "unknown partition covariate(s): nope"),
        (("rank", *_DUMPING, "--ci-level", "7"), "ci_level must be in (0, 1), got 7.0"),
        (("tcc-dump", *_DUMPING[:-1], "--ci-level", "7"), "ci_level must be in (0, 1), got 7.0"),
        (("partition", *_DUMPING, "--ci-level", "7"), "ci_level must be in (0, 1), got 7.0"),
        (("compare", "--input", LEAGUE, "--ci-level", "7"), "ci_level must be in (0, 1), got 7.0"),
        (("rank", "--input", _BAD_TABLE, "--mcid", "0.5"), f"{_MCID} 0.5"),
        (("rank", "--records", "--input", _BAD_TABLE, "--mcid", "0.5"), f"{_MCID} 0.5"),
        (("compare", "--input", _BAD_TABLE, "--mcid", "1"), f"{_MCID} 1.0"),
        (("tcc-dump", "--input", _BAD_TABLE, "--mcid", "1.2", "--roe-lower", "-1"),
         "roe_lower must be positive and finite on the ratio scale, got -1.0"),
        (("partition", "--input", _BAD_TABLE, "--roe-upper", "inf"),
         "roe_upper must be positive and finite on the ratio scale, got inf"),
        (("compare", "--input", _BAD_TABLE, "--nsim", "0"), "nsim must be positive, got 0"),
        (("compare", "--input", LEAGUE, "--nsim", "0"), "nsim must be positive, got 0"),
        *(((subcommand, "--input", _BAD_TABLE, "--dump-records"), _NO_MCID)
          for subcommand in ("rank", "partition", "tcc-dump")),
        (("rank", "--input", _BAD_TABLE, "--dump-records", "--mcid", "1.2", "--roe-lower", "1.5"),
         f"{_STRADDLE} 0.4054651081081644 < 0.0 < 0.1823215567939546"),
        (("partition", "--input", _BAD_TABLE, "--mcid", "1.2", "--roe-upper", "0.9"),
         f"{_STRADDLE} -0.1823215567939546 < 0.0 < -0.10536051565782628"),
        (("compare", "--input", _BAD_TABLE, "--format", "svg"),
         "compare writes no svg artifact; --format needs csv or json"),
        (("compare", "--input", LEAGUE, "--format", "svg"),
         "compare writes no svg artifact; --format needs csv or json"),
        (("rank", *_RECORDS, "--mcid", "1.2"), f"--mcid {_FOR_CONTRASTS}"),
        (("partition", *_RECORDS, "--roe-lower", "0.8"), f"--roe-lower {_FOR_CONTRASTS}"),
        (("rank", *_RECORDS, "--roe-upper", "1.25"), f"--roe-upper {_FOR_CONTRASTS}"),
        (("partition", *_RECORDS, "--direction", "harmful"), f"--direction {_FOR_CONTRASTS}"),
        (("rank", *_RECORDS, "--scale", "ratio"), f"--scale {_FOR_CONTRASTS}"),
        (("rank", *_RECORDS, "--scale", "ratio", "--direction", "harmful", "--roe-lower", "1.5",
          "--mcid", "1.2"), f"--mcid {_FOR_CONTRASTS}"),
        (("partition", "--input", _BAD_TABLE, "--mcid", "1.2", "--partition", ","),
         "--partition needs at least one covariate name"),
        (("partition", "--input", _BAD_TABLE, "--mcid", "1.2", "--partition", ""),
         "--partition needs at least one covariate name"),
    ],
    ids=["alpha", "min-node-size", "partition", "rank-ci-level", "tcc-dump-ci-level",
         "partition-ci-level", "compare-ci-level", "rank-mcid", "records-mcid", "compare-mcid",
         "roe-lower", "roe-upper", "nsim-bad-table", "nsim", "rank-no-mcid", "partition-no-mcid",
         "tcc-dump-no-mcid", "roe-lower-above-null", "roe-upper-below-null",
         "compare-svg-bad-table", "compare-svg", "records-rank-mcid", "records-roe-lower",
         "records-roe-upper", "records-direction", "records-scale", "records-every-flag",
         "partition-comma", "partition-empty"],
)
def test_a_bad_flag_fails_before_any_artifact(tmp_path, capsys, argv, message):
    # records.csv was written, the input read or P-scores computed before the flag was rejected.
    bad_table = tmp_path / "bad.csv"
    bad_table.write_text("study,treat1\ns1,A\n")
    out = tmp_path / "out"
    assert _run(*(bad_table if a == _BAD_TABLE else a for a in argv), "--out-dir", out) == 1
    assert [path.name for path in out.iterdir()] == ["error.json"]
    assert json.loads((out / "error.json").read_text())["message"] == message
    assert capsys.readouterr().err == f"error: {message}\n"


_CYCLE = "s1,A,B,first_wins,1\ns2,B,C,first_wins,2\ns3,C,A,first_wins,3\ns4,B,A,first_wins,4\n"


@pytest.mark.parametrize(
    "subcommand, rows, warning",
    [("partition", _CYCLE + "s5,A,C,tie,\n", "excluded 1 record(s) with missing covariate"),
     ("rank", _CYCLE, "tournament has no ties"),
     ("compare", None, "derived basic parameters")],
    ids=["excluded-records", "tie-free", "compare-covariance"],
)
def test_cli_warnings_print_as_plain_warning_lines(tmp_path, capsys, subcommand, rows, warning):
    # Library warnings reached stderr with the source path and line that issued them.
    if rows is None:
        argv = ("--input", LEAGUE, "--mcid", "1.2")
    else:
        source = tmp_path / "records.csv"
        source.write_text("study,treat1,treat2,verdict,age\n" + rows)
        argv = ("--records", "--input", source)
    assert _run(subcommand, *argv, "--out-dir", tmp_path / "out") == 0
    lines = capsys.readouterr().err.splitlines()
    assert any(warning in line for line in lines)
    for line in lines:
        assert line.startswith("warning: ")
        assert "UserWarning" not in line and ".py:" not in line


@pytest.mark.parametrize(
    "rows, message",
    [("", "no records to partition"),
     ("s1,A,B,tie,\ns2,B,C,first_wins,\n", "no records with complete covariate values")],
    ids=["no-records", "all-missing"],
)
def test_partition_says_why_no_record_is_left(tmp_path, rows, message):
    # An empty table was reported as having no records with complete covariate values.
    source = tmp_path / "records.csv"
    source.write_text("study,treat1,treat2,verdict,age\n" + rows)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assert _run("partition", "--records", "--input", source, "--out-dir", out) == 1
    assert json.loads((out / "error.json").read_text())["message"] == message


def test_partition_on_the_bundled_fixture(tmp_path):
    code = _run(
        "partition", "--input", CONTRASTS, "--out-dir", tmp_path,
        "--mcid", "1.2", "--permutations", "199",
    )
    assert code == 0
    document = json.loads((tmp_path / "tree.json").read_text())
    assert document["config"]["permutations"] == 199
    assert document["config"]["covariates"] == ["age", "setting"]
    assert document["tree"]["n_records"] == 48
    text = (tmp_path / "tree.txt").read_text()
    assert text.startswith("n=48")


def test_partition_covariate_subset_and_unknown_name(tmp_path):
    code = _run(
        "partition", "--input", CONTRASTS, "--out-dir", tmp_path,
        "--mcid", "1.2", "--partition", "age", "--permutations", "199",
    )
    assert code == 0
    document = json.loads((tmp_path / "tree.json").read_text())
    assert document["config"]["covariates"] == ["age"]
    assert _run(
        "partition", "--input", CONTRASTS, "--out-dir", tmp_path,
        "--mcid", "1.2", "--partition", "dose",
    ) == 1


def _r_export(lines):
    # R's default write.csv: every header name quoted, plus a leading row-name column.
    quoted = ",".join(f'"{name}"' for name in lines[0].split(","))
    return [f'"",{quoted}', *(f'"{k}",{line}' for k, line in enumerate(lines[1:], 1))]


@pytest.mark.parametrize(
    "export, column",
    [(_r_export, 1), (lambda lines: [line + "," for line in lines], 8)],
    ids=["r-row-names", "trailing-comma"],
)
def test_partition_rejects_an_unnamed_column(tmp_path, export, column):
    # Read as a covariate, the R row names would be tested as one, and a trailing
    # empty column would leave no record with complete covariates.
    source = tmp_path / "export.csv"
    source.write_text("\n".join(export(CONTRASTS.read_text().splitlines())) + "\n")
    out = tmp_path / "out"
    assert _run("partition", "--input", source, "--out-dir", out, "--mcid", "1.2") == 1
    document = json.loads((out / "error.json").read_text())
    assert document["error"] == "DataError"
    assert document["message"].startswith(f"column {column} has no header name")
    assert not (out / "tree.json").exists()


def test_a_byte_order_mark_changes_no_artifact(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with U+FEFF.
    for command, source, extra in (
        ("rank", CONTRASTS, ("--mcid", "1.2")),
        ("compare", LEAGUE, ("--nsim", "2000")),
    ):
        marked = tmp_path / f"marked_{source.name}"
        marked.write_text("\ufeff" + source.read_text(), encoding="utf-8")
        outputs = []
        for name, path in (("plain", source), ("marked", marked)):
            out = tmp_path / command / name
            assert _run(command, "--input", path, "--out-dir", out, *extra) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]


def test_partition_is_byte_deterministic(tmp_path):
    for directory in ("one", "two"):
        assert _run(
            "partition", "--input", CONTRASTS, "--out-dir", tmp_path / directory,
            "--mcid", "1.2", "--permutations", "199", "--seed", "3",
        ) == 0
    assert (tmp_path / "one" / "tree.json").read_bytes() == (
        tmp_path / "two" / "tree.json"
    ).read_bytes()


def test_compare_on_a_pairwise_league_table(tmp_path):
    code = _run(
        "compare", "--input", LEAGUE, "--out-dir", tmp_path,
        "--mcid", "1.2", "--nsim", "20000",
    )
    assert code == 0
    lines = (tmp_path / "scores.csv").read_text().splitlines()
    assert lines[0] == "treatment,p_score,p_score_civ,p_bv"
    assert len(lines) == 7
    document = json.loads((tmp_path / "scores.json").read_text())
    assert math.fsum(document["prob_best"].values()) == pytest.approx(1.0, abs=1e-12)
    mean_score = math.fsum(document["p_scores"].values()) / 6
    assert mean_score == pytest.approx(0.5, abs=1e-12)
    assert document["mcid"] == 1.2
    # The league table points the same way as the designed hierarchy.
    assert max(document["p_scores"], key=document["p_scores"].get) == "abrixan"


def test_compare_seed_controls_the_simulation(tmp_path):
    for directory, seed in (("a", "5"), ("b", "5"), ("c", "6")):
        assert _run(
            "compare", "--input", LEAGUE, "--out-dir", tmp_path / directory,
            "--nsim", "5000", "--seed", seed,
        ) == 0
    read = lambda d: (tmp_path / d / "scores.json").read_bytes()
    assert read("a") == read("b")
    assert read("a") != read("c")


def test_compare_basic_form_with_covariance(tmp_path):
    basic = tmp_path / "basic.csv"
    basic.write_text("treat,estimate_vs_ref,se\nref,0.0,0.0\nA,0.30,0.10\nB,0.10,0.12\n")
    cov = tmp_path / "cov.csv"
    cov.write_text(
        ",ref,A,B\nref,0.0,0.0,0.0\nA,0.0,0.010,0.002\nB,0.0,0.002,0.0144\n"
    )
    code = _run(
        "compare", "--input", basic, "--out-dir", tmp_path,
        "--covariance", cov, "--nsim", "5000",
    )
    assert code == 0
    document = json.loads((tmp_path / "scores.json").read_text())
    assert document["prob_best"]["A"] == max(document["prob_best"].values())


def test_compare_rejects_covariance_with_pairwise_input(tmp_path):
    cov = tmp_path / "cov.csv"
    cov.write_text(",A,B\nA,0.01,0.0\nB,0.0,0.01\n")
    assert _run(
        "compare", "--input", LEAGUE, "--out-dir", tmp_path, "--covariance", cov
    ) == 1


@pytest.mark.parametrize("cell", ["inf", "nan"])
def test_compare_rejects_a_non_finite_covariance_cell(tmp_path, cell):
    basic = tmp_path / "basic.csv"
    basic.write_text("treat,estimate_vs_ref,se\nref,0.0,0.0\nA,0.30,0.10\n")
    cov = tmp_path / "cov.csv"
    cov.write_text(f",ref,A\nref,0.0,0.0\nA,0.0,{cell}\n")
    code = _run("compare", "--input", basic, "--out-dir", tmp_path, "--covariance", cov)
    assert code == 1
    document = json.loads((tmp_path / "error.json").read_text())
    assert document["message"] == f"row 3: non-finite covariance cell {cell!r}"


def test_compare_reads_a_quoted_header(tmp_path):
    # R's write.csv quotes every header name.
    quoted = tmp_path / "quoted.csv"
    lines = LEAGUE.read_text().splitlines(keepends=True)
    header = ",".join(f'"{name}"' for name in lines[0].strip().split(","))
    quoted.write_text(header + "\n" + "".join(lines[1:]))
    for source, out in ((LEAGUE, tmp_path / "plain"), (quoted, tmp_path / "quoted")):
        assert _run("compare", "--input", source, "--out-dir", out, "--nsim", "2000") == 0
    assert (tmp_path / "quoted" / "scores.csv").read_bytes() == (
        tmp_path / "plain" / "scores.csv"
    ).read_bytes()


@pytest.mark.parametrize("blank", ["\n", ",,,\n", "\n,,,\n"])
@pytest.mark.parametrize("form", ["pairwise", "basic"])
def test_compare_skips_blank_rows_before_the_header(tmp_path, form, blank):
    # The parsers skip blank rows before the header, so the form sniffing must too.
    plain = tmp_path / "plain.csv"
    if form == "pairwise":
        plain.write_text(LEAGUE.read_text())
    else:
        plain.write_text("treat,estimate_vs_ref,se\nref,0.0,0.0\nA,0.30,0.10\nB,0.10,0.12\n")
    padded = tmp_path / "padded.csv"
    padded.write_text(blank + plain.read_text())
    for source, out in ((plain, tmp_path / "plain"), (padded, tmp_path / "padded")):
        assert _run("compare", "--input", source, "--out-dir", out, "--nsim", "2000") == 0
    for name in ("scores.csv", "scores.json"):
        assert (tmp_path / "padded" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_compare_rejects_unrecognized_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("name,value\nA,1\n")
    assert _run("compare", "--input", bad, "--out-dir", tmp_path) == 1


# ---------------------------------------------------------------- plot


def _small_fit():
    return fit_davidson(
        Tournament(
            treatments=("alpha", "beta & co", "<gamma>"),
            counts={
                ("alpha", "beta & co"): PairCounts(3, 1, 2),
                ("alpha", "<gamma>"): PairCounts(2, 1, 1),
                ("beta & co", "<gamma>"): PairCounts(2, 2, 2),
            },
        )
    )


def test_svg_marks_every_treatment_and_escapes_labels():
    svg = build_ability_svg(_small_fit())
    assert svg.count("<circle") == 3
    assert "beta &amp; co" in svg
    assert "&amp; co</text>" in svg
    assert ">&lt;gamma&gt;</text>" in svg
    assert "<gamma>" not in svg and "&amp;lt;" not in svg
    assert "95% intervals" in svg


def test_svg_honors_the_ci_level():
    svg = build_ability_svg(_small_fit(), ci_level=0.9)
    assert "90% intervals" in svg


def test_emit_plot_writes_the_same_bytes(tmp_path):
    fit = _small_fit()
    path = tmp_path / "plot.svg"
    emit_plot(fit, path)
    assert path.read_text(encoding="utf-8") == build_ability_svg(fit)


def test_every_report_lists_the_treatments_in_one_order(tmp_path):
    assert _run("rank", "--input", CONTRASTS, "--out-dir", tmp_path, "--mcid", "1.2") == 0
    assert _run("partition", "--input", CONTRASTS, "--out-dir", tmp_path, "--mcid", "1.2") == 0
    with open(tmp_path / "rank.csv", newline="") as stream:
        table = [row["treatment"] for row in csv.DictReader(stream)]
    first = (tmp_path / "tree.txt").read_text().splitlines()[0]
    tree = re.findall(r"(\w+)=[\d.e-]+", first.split("abilities: ")[1])
    svg = re.findall(r'text-anchor="end">(\w+)</text>', (tmp_path / "ability_plot.svg").read_text())
    assert len(table) == 6
    assert table == tree == svg


@pytest.mark.parametrize("span, step", [(5, 1), (10, 2), (12.5, 2.5), (25, 5), (30, 10)])
def test_the_axis_step_takes_each_nice_multiple(span, step):
    from treatrank.plot import _nice_step

    assert _nice_step(span) == step


# ---------------------------------------------------------------- the command-line contract

_POOL = ("A", "B", "C", "D")
# Cells a table may hold where a valid value belongs: blank, missing, non-finite, no
# number, out of range, and finite but huge or tiny.
_ODD_CELLS = ("", "NA", "nan", "inf", "-inf", "x", "0", "-1", "1e308", "-1e308", "5e-324")
_NUMBER = st.floats(-2.0, 2.0).map(repr)
_SE = st.floats(0.01, 1.0).map(repr)


@st.composite
def _cells(draw, valid, faulty: bool):
    """A cell of ``valid``; in a faulty table, now and then one of ``_ODD_CELLS``."""
    if faulty and draw(st.integers(0, 5)) == 5:
        return draw(st.sampled_from(_ODD_CELLS))
    return draw(valid)


@st.composite
def _study_table(draw, records: bool, faulty: bool):
    """A contrast or record table over one to four treatments, with a numeric covariate
    ``x`` (constant in some tables, blank or ``NA`` now and then) and a categorical
    ``arm``. A contrast has an SE, interval bounds or both. A faulty table may hold odd
    cells and contrasts of a treatment with itself."""
    labels = _POOL[: draw(st.sampled_from([3, 4, 2, 1]))]
    constant = draw(st.booleans())
    numbers = ["verdict"] if records else ["effect", "se", "lower", "upper", "ci_level"]
    rows = [["study", "treat1", "treat2", *numbers, "x", "arm"]]
    for k in range(draw(st.sampled_from([8, 14, 4, 2, 1, 0]))):
        a = draw(st.sampled_from(labels))
        others = [b for b in labels if b != a] or [a]
        row = [f"s{k}", a, draw(st.sampled_from(labels if faulty else others))]
        if records:
            row.append(draw(st.sampled_from(["first_wins", "second_wins", "tie"])))
        else:
            effect, half = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.01, 2.0))
            se, bounds = draw(_SE), [repr(effect - half), repr(effect + half)]
            se, bounds = draw(st.sampled_from([(se, ["", ""]), (se, bounds), ("", bounds)]))
            row += [repr(effect), se, *bounds, draw(st.sampled_from(["", "0.95", "0.5"]))]
        x = draw(st.sampled_from(["NA", ""])) if draw(st.integers(0, 7)) == 7 else draw(_NUMBER)
        row += ["3.0" if constant else x, draw(st.sampled_from(["u", "v"]))]
        rows.append([draw(_cells(st.just(cell), faulty)) for cell in row])
    return rows


@st.composite
def _league(draw, faulty: bool):
    """A pairwise league table, or a basic-form one with or without a covariance table."""
    labels = _POOL[: draw(st.sampled_from([3, 4, 2, 1]))]
    form = draw(st.sampled_from(["pairwise", "basic", "covariance"]))
    if form == "pairwise":
        rows = [["treat1", "treat2", "estimate", "se"]]
        rows += [[a, b, draw(_cells(_NUMBER, faulty)), draw(_cells(_SE, faulty))]
                 for k, a in enumerate(labels) for b in labels[k + 1:]
                 if not faulty or draw(st.integers(0, 5)) < 5]
        return rows, None
    rows = [["treat", "estimate_vs_ref", "se"]]
    rows += [[x, draw(_cells(_NUMBER, faulty)), draw(_cells(_SE, faulty))] for x in labels]
    if form == "basic":
        return rows, None
    root = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16))).reshape(4, 4)
    matrix = (root @ root.T)[: len(labels), : len(labels)]
    covariance = [["", *labels]]
    covariance += [[x, *(draw(_cells(st.just(repr(v)), faulty)) for v in values)]
                   for x, values in zip(labels, matrix.tolist())]
    return rows, covariance


# Valid values of the numeric flags, then odd ones: out of range, non-finite, at the edge.
_FLAGS = {
    "--mcid": (["1.2", "1.5"], ["1", "0.8", "nan", "inf", "1e308"]),
    "--roe-lower": ([None, "0.8"], ["0.99", "1.5", "0", "-1", "nan", "inf", "-inf", "1e-300"]),
    "--roe-upper": ([None, "1.25"], ["1.01", "0.5", "nan", "inf", "1e300"]),
    "--ci-level": ([None, "0.9"], ["0.5", "0", "1", "nan", "inf", "1e-17",
                                   "0.9999999999999999"]),
}


@st.composite
def _invocations(draw, subcommand: str):
    """``(argv, flags, tables)``: the subcommand's arguments, its flags and the CSV tables
    it reads. Odd values may go into the tables, into one numeric flag, or into both."""
    faulty, odd_flag = (draw(st.integers(0, 2)) == 2 for _ in range(2))
    records = subcommand in ("rank", "partition") and draw(st.booleans())
    names = ["--ci-level"] + ([] if records else ["--mcid"])
    names += [] if records or subcommand == "compare" else ["--roe-lower", "--roe-upper"]
    flags = {name: draw(st.sampled_from(_FLAGS[name][0])) for name in names}
    if odd_flag:
        odd = draw(st.sampled_from(names))
        flags[odd] = draw(st.sampled_from(_FLAGS[odd][1]))
    # --direction judges contrasts: with --records it is an error before the input is read.
    # It is drawn for both kinds of input, which keeps every later draw where it was.
    direction = draw(st.sampled_from([None, "beneficial", "harmful"]))
    flags["--direction"] = None if records else direction
    if subcommand == "compare":
        table, covariance = draw(_league(faulty))
        flags.update({"--mcid": draw(st.sampled_from([None, flags["--mcid"]])), "--nsim": "300"})
        return [subcommand], flags, {"input": table, "covariance": covariance}
    if subcommand == "partition":
        flags.update({"--min-node-size": "2", "--permutations": "19", "--max-depth": "2"})
    argv = [subcommand] + (["--records"] if records else [])
    return argv, flags, {"input": draw(_study_table(records, faulty))}


def _finite_numbers(path: Path) -> bool:
    rows = list(csv.reader(path.read_text().splitlines()))[1:]
    return all(math.isfinite(float(cell)) for row in rows for cell in row[1:])


def _check_contract(argv, flags, tables):
    """Run one invocation in-process; check its exit code, error document and numbers.
    A table is a list of rows or raw bytes. Returns the error document, if any."""
    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)
        flags = dict(flags)
        for name, rows in tables.items():
            if isinstance(rows, bytes):
                (folder / f"{name}.csv").write_bytes(rows)
            elif rows is not None:
                with open(folder / f"{name}.csv", "w", newline="") as stream:
                    csv.writer(stream).writerows(rows)
            if rows is not None:
                flags[f"--{name}"] = folder / f"{name}.csv"
        out = folder / "out"
        # Valid flag syntax throughout; values, tables and cells may be anything.
        options = [f"{flag}={value}" for flag, value in flags.items() if value is not None]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            code = main([*argv, *options, f"--out-dir={out}"])
        assert code in (0, 1, 2)
        assert (out / "error.json").exists() == (code != 0)
        if code == 0:
            for name in ("rank.csv", "scores.csv"):
                if (out / name).exists():
                    assert _finite_numbers(out / name), name
            return None
        return json.loads((out / "error.json").read_text())


@pytest.mark.parametrize("subcommand", ["rank", "partition", "tcc-dump", "compare"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_invocation_ends_in_a_result_or_an_error_document(subcommand, data):
    _check_contract(*data.draw(_invocations(subcommand)))


@pytest.mark.parametrize(
    "invocation",
    [
        # A NaN threshold gave exit 0 and NaN adjusted P-scores.
        (["compare"], {"--mcid": "nan", "--nsim": "300"},
         {"input": [["treat1", "treat2", "estimate", "se"], ["A", "B", "0.3", "0.1"]]}),
        # An SE whose square overflows ended in a traceback.
        (["compare"], {"--nsim": "300"},
         {"input": [["treat", "estimate", "se"], ["A", "0.0", "0.1"], ["B", "0.3", "1e308"]]}),
    ],
)
def test_known_invocations_end_in_a_result_or_an_error_document(invocation):
    _check_contract(*invocation)


_CONTRASTS = b"study,treat1,treat2,effect,se\ns1,A,B,0.3,0.1\ns2,B,C,0.1,0.2\n"
_LEAGUE = b"treat,estimate,se\nA,0.0,0.1\nB,0.3,0.1\n"
_COVARIANCE = b",A,B\nA,0.01,0.0\nB,0.0,0.01\n"
_HUGE_CELL = b"x" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize(
    "argv, tables",
    [
        *(([subcommand], {"input": _CONTRASTS.replace(b"B,C", bad)})
          for subcommand in ("rank", "tcc-dump", "partition")
          for bad in (b"B,\xffC", b"B," + _HUGE_CELL)),
        (["rank", "--records"], {"input": b"study,treat1,treat2,verdict\ns1,A,\xe9,tie\n"}),
        (["compare"], {"input": _LEAGUE.replace(b"B,", b"\xff,"), "covariance": None}),
        (["compare"], {"input": _LEAGUE.replace(b"B,", _HUGE_CELL + b","), "covariance": None}),
        (["compare"], {"input": _LEAGUE, "covariance": _COVARIANCE.replace(b",B", b",\xff")}),
    ],
)
def test_unreadable_bytes_end_in_a_data_error_document(argv, tables):
    # Text that is not UTF-8 and an over-long cell ended in a traceback.
    document = _check_contract(argv, {} if "--records" in argv else {"--mcid": "1.2"}, tables)
    assert document["error"] == "DataError"
    assert "UTF-8" in document["message"] or "field limit" in document["message"]


def test_a_cold_partition_run_does_not_import_numpy_ma(tmp_path):
    # np.unique's masked-array check imports numpy.ma, about 17 ms of a cold process.
    script = ("import sys; from treatrank.cli import main; "
              f"code = main(['partition', '--input', {str(CONTRASTS)!r}, '--mcid', '1.2', "
              f"'--out-dir', {str(tmp_path)!r}]); print(code, 'numpy.ma' in sys.modules)")
    src = str(Path(treatrank.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.split() == ["0", "False"]


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core: BLAS runs one thread anyway")
def test_fit_json_does_not_depend_on_the_blas_thread_count(tmp_path):
    # Every pair of 100 treatments at cycle distance up to 50, decided by the
    # gap of rising abilities plus noise. A fit of 100 parameters is large
    # enough for OpenBLAS to thread its solves on two cores (95 is not).
    n = 100
    rng = np.random.default_rng(8)
    lam = np.linspace(0.0, 1.5, n)
    rows = [["study", "treat1", "treat2", "verdict"]]
    for i in range(n):
        for offset in range(1, n // 2 + 1):
            j = (i + offset) % n
            gap = lam[i] - lam[j] + rng.normal(0.0, 0.3)
            verdict = "tie" if abs(gap) < 0.15 else ("first_wins" if gap > 0 else "second_wins")
            rows.append([f"s{len(rows)}", f"T{i:03d}", f"T{j:03d}", verdict])
    records = tmp_path / "records.csv"
    with records.open("w", newline="") as stream:
        csv.writer(stream).writerows(rows)
    src = str(Path(treatrank.__file__).resolve().parents[1])
    fits = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
        env.update(threads, PYTHONPATH=src)
        out = tmp_path / f"out{len(fits)}"
        subprocess.run(
            [sys.executable, "-m", "treatrank.cli", "rank", "--records", "--input",
             str(records), "--out-dir", str(out), "--format", "json"],
            env=env, capture_output=True, check=True,
        )
        fits.append((out / "fit.json").read_bytes())
    assert fits[0] == fits[1]
