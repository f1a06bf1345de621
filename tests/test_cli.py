"""End-to-end tests of the command-line driver and the SVG plot output."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

from treatrank import build_ability_svg, emit_plot, fit_davidson
from treatrank.cli import RunConfig, main, parse_args
from treatrank.tcc import PairCounts, Tournament

FIXTURES = Path(__file__).parent / "fixtures"
CONTRASTS = FIXTURES / "contrasts.csv"
LEAGUE = FIXTURES / "league.csv"


def _run(*argv) -> int:
    return main([str(a) for a in argv])


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
    assert _run("rank", "--input", CONTRASTS, "--out-dir", tmp_path) == 1
    document = json.loads((tmp_path / "error.json").read_text())
    assert document["exit_code"] == 1
    assert "mcid" in document["message"]


def test_rank_rejects_a_degenerate_mcid(tmp_path):
    assert _run(
        "rank", "--input", CONTRASTS, "--out-dir", tmp_path, "--mcid", "0.9"
    ) == 1


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


def test_format_selection_limits_artifacts(tmp_path):
    code = _run(
        "rank", "--input", CONTRASTS, "--out-dir", tmp_path,
        "--mcid", "1.2", "--format", "json",
    )
    assert code == 0
    assert (tmp_path / "fit.json").exists()
    assert not (tmp_path / "rank.csv").exists()
    assert not (tmp_path / "ability_plot.svg").exists()


def test_unknown_format_is_rejected():
    assert _run("rank", "--input", CONTRASTS, "--mcid", "1.2", "--format", "csv,pdf") == 1


def test_unknown_subcommand_is_rejected():
    assert _run("describe", "--input", CONTRASTS) == 1


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
    [("compare", "--input", LEAGUE), ("partition", "--input", CONTRASTS, "--mcid", "1.2")],
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
