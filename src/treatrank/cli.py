"""Command-line driver: ingestion -> preference data -> fit -> reports.

Exit codes: 0 success, 1 data/configuration error, 2 model error (regularity
failure, only ties, non-convergence). Every failure also writes a
machine-readable ``error.json`` into the output directory when possible.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .compare import (
    p_scores,
    p_scores_civ,
    parse_basic_table,
    parse_league_table,
    prob_best,
)
from .davidson import fit_davidson, normalized_abilities
from .errors import DataError, FordConditionError, ModelError
from .partition import PartitionConfig, format_tree, grow_tree, tree_to_dict
from .plot import emit_plot
from .study_data import _read_csv, complete_intervals, parse_contrast_table, validate_network
from .tcc import (
    aggregate_tournament,
    apply_tcc,
    build_roe,
    dump_preference_records,
    parse_preference_records,
)

__all__ = ["RunConfig", "main", "run"]

_FORMATS = ("csv", "json", "svg")


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs; built from the parsed arguments."""

    subcommand: str
    input: Path
    out_dir: Path = Path(".")
    formats: frozenset[str] = frozenset(_FORMATS)
    ci_level: float = 0.95
    seed: int = 0
    # ingestion + treatment-choice criterion
    scale: str = "log"
    records_input: bool = False
    mcid: float | None = None
    roe_lower: float | None = None
    roe_upper: float | None = None
    direction: str = "beneficial"
    dump_records: bool = False
    # partitioning
    covariates: tuple[str, ...] | None = None
    alpha: float = 0.05
    min_node_size: int = 10
    max_depth: int | None = None
    permutations: int = 1000
    # comparison metrics
    covariance: Path | None = None
    nsim: int = 100_000


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which would collide with the
    # model-error code; surface usage problems as data errors instead.
    def error(self, message):
        raise DataError(message)


def _build_parser() -> _Parser:
    # Defaults live in RunConfig alone: an option the user leaves out does not
    # reach the namespace (subparsers do not inherit argument_default).
    quiet = {"argument_default": argparse.SUPPRESS}
    parser = _Parser(
        prog="treatrank",
        description="Rank treatments from study-level contrasts via win/tie preferences.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False, **quiet)
    common.add_argument("--input", required=True, type=Path, help="input CSV file")
    common.add_argument("--out-dir", type=Path, help="output directory")
    common.add_argument("--format", help="comma-separated subset of csv,json,svg to emit")
    common.add_argument("--ci-level", type=float, help="CI level for reports")
    common.add_argument("--seed", type=int, help="seed for randomized steps, non-negative")

    tcc = argparse.ArgumentParser(add_help=False, **quiet)
    tcc.add_argument("--scale", choices=("log", "ratio"),
                     help="scale of effect/lower/upper columns in the input")
    tcc.add_argument(
        "--records",
        dest="records_input",
        action="store_true",
        help="input already holds preference records (study,treat1,treat2,verdict)",
    )
    tcc.add_argument("--mcid", type=float,
                     help="minimal clinically important difference, ratio scale > 1")
    tcc.add_argument("--roe-lower", type=float,
                     help="override the lower equivalence bound, ratio scale")
    tcc.add_argument("--roe-upper", type=float,
                     help="override the upper equivalence bound, ratio scale")
    tcc.add_argument("--direction", choices=("beneficial", "harmful"),
                     help="whether larger effects are better")
    tcc.add_argument("--dump-records", action="store_true",
                     help="also write the derived preference records as records.csv")

    sub = parser.add_subparsers(dest="subcommand", required=True)
    sub.add_parser("rank", parents=[common, tcc], **quiet,
                   help="fit the ability model and write the ranking artifacts")
    part = sub.add_parser("partition", parents=[common, tcc], **quiet,
                          help="grow a covariate-driven partition tree")
    part.add_argument("--partition", dest="covariates",
                      help="comma-separated covariates to test (default: all)")
    part.add_argument("--alpha", type=float, help="significance level")
    part.add_argument("--min-node-size", type=int, help="minimum records per node")
    part.add_argument("--max-depth", type=int, help="maximum split depth")
    part.add_argument("--permutations", type=int,
                      help="permutation draws for continuous covariates")
    comp = sub.add_parser("compare", parents=[common], **quiet,
                          help="P-scores and best-value probabilities from a league table")
    comp.add_argument("--mcid", type=float,
                      help="threshold for the adjusted P-scores, ratio scale > 1")
    comp.add_argument("--direction", choices=("beneficial", "harmful"),
                      help="whether larger effects are better")
    comp.add_argument("--covariance", type=Path,
                      help="covariance CSV for a basic-form league table")
    comp.add_argument("--nsim", type=int,
                      help="simulation draws for the best-value probabilities")
    sub.add_parser("tcc-dump", parents=[common, tcc], **quiet,
                   help="write the preference records derived from the contrasts")
    return parser


def parse_args(argv=None) -> RunConfig:
    options = vars(_build_parser().parse_args(argv))
    if "format" in options:
        formats = frozenset(f.strip() for f in options.pop("format").split(",") if f.strip())
        unknown = formats - set(_FORMATS)
        if unknown:
            raise DataError(f"unknown output format(s): {', '.join(sorted(unknown))}")
        if not formats:
            raise DataError("at least one output format is required")
        options["formats"] = formats
    if "covariates" in options:
        options["covariates"] = tuple(
            c.strip() for c in options["covariates"].split(",") if c.strip()
        )
    return RunConfig(**options)


def _read_preferences(config: RunConfig):
    """Input file -> (records, treatments, covariate schema)."""
    with open(config.input, "r", encoding="utf-8", newline="") as stream:
        if config.records_input:
            data = parse_preference_records(stream)
            return data.records, data.treatments, data.covariate_schema
        network = parse_contrast_table(stream, scale=config.scale)
    report = validate_network(network)
    if not report.is_clean():
        for item in report.isolated_treatments:
            print(f"warning: treatment {item!r} appears in no contrast", file=sys.stderr)
        for study, observed, expected in report.incomplete_studies:
            print(
                f"warning: study {study!r} has {observed} of {expected} pairwise contrasts",
                file=sys.stderr,
            )
        for name in report.covariates_with_missing:
            print(f"warning: covariate {name!r} has missing values", file=sys.stderr)
    if config.mcid is None:
        raise DataError("--mcid is required to derive preference records from contrasts")
    roe = build_roe(
        config.mcid,
        roe_lower=config.roe_lower,
        roe_upper=config.roe_upper,
        direction=config.direction,
    )
    records = tuple(apply_tcc(complete_intervals(e), roe) for e in network.effects)
    return records, network.treatments, network.covariate_schema


def _write_records(records, schema, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as stream:
        dump_preference_records(records, stream, covariate_names=list(schema))


def _write_fit_artifacts(fit, n_records: int, config: RunConfig) -> None:
    abilities = normalized_abilities(fit, ci_level=config.ci_level)
    ranked = sorted(fit.treatments, key=lambda x: (-fit.pi[x], x))
    if "csv" in config.formats:
        with open(config.out_dir / "rank.csv", "w", encoding="utf-8", newline="") as stream:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(["treatment", "ability", "se_log_ability", "pi", "rank"])
            for rank, label in enumerate(ranked, start=1):
                writer.writerow(
                    [
                        label,
                        f"{fit.psi[label]:.6g}",
                        f"{fit.se_log_ability[label]:.6g}",
                        f"{fit.pi[label]:.6g}",
                        rank,
                    ]
                )
    if "json" in config.formats:
        document = {
            "treatments": list(fit.treatments),
            "reference": fit.reference,
            "n_records": n_records,
            "abilities": {x: fit.psi[x] for x in fit.treatments},
            "pi": {x: fit.pi[x] for x in fit.treatments},
            "nu": fit.nu,
            "tie_free": fit.tie_free,
            "log_params": list(fit.log_params),
            "param_names": list(fit.param_names),
            "covariance": fit.covariance.tolist(),
            "se_log_ability": {x: fit.se_log_ability[x] for x in fit.treatments},
            "normalized": {
                x: {
                    "estimate": a.estimate,
                    "se": a.se,
                    "ci_lower": a.ci_lower,
                    "ci_upper": a.ci_upper,
                }
                for x, a in abilities.items()
            },
            "ci_level": config.ci_level,
            "loglik": fit.loglik,
            "converged": fit.converged,
            "iterations": fit.iterations,
        }
        _write_json(config.out_dir / "fit.json", document)
    if "svg" in config.formats:
        emit_plot(fit, config.out_dir / "ability_plot.svg", ci_level=config.ci_level)


def _write_json(path: Path, document) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        json.dump(document, stream, indent=2, sort_keys=True)
        stream.write("\n")


def _run_rank(config: RunConfig) -> None:
    records, treatments, schema = _read_preferences(config)
    if config.dump_records and "csv" in config.formats:
        _write_records(records, schema, config.out_dir / "records.csv")
    fit = fit_davidson(aggregate_tournament(records, treatments))
    _write_fit_artifacts(fit, len(records), config)


def _run_partition(config: RunConfig) -> None:
    records, treatments, schema = _read_preferences(config)
    if config.dump_records and "csv" in config.formats:
        _write_records(records, schema, config.out_dir / "records.csv")
    if config.covariates is not None:
        unknown = [c for c in config.covariates if c not in schema]
        if unknown:
            raise DataError(f"unknown partition covariate(s): {', '.join(unknown)}")
        schema = {name: schema[name] for name in config.covariates}
    tree = grow_tree(
        records,
        schema,
        PartitionConfig(
            alpha=config.alpha,
            min_node_size=config.min_node_size,
            max_depth=config.max_depth,
            permutations=config.permutations,
            seed=config.seed,
        ),
    )
    if "json" in config.formats:
        document = {
            "config": {
                "alpha": config.alpha,
                "min_node_size": config.min_node_size,
                "max_depth": config.max_depth,
                "permutations": config.permutations,
                "seed": config.seed,
                "covariates": sorted(schema),
            },
            "tree": tree_to_dict(tree),
        }
        _write_json(config.out_dir / "tree.json", document)
    with open(config.out_dir / "tree.txt", "w", encoding="utf-8", newline="\n") as stream:
        stream.write(format_tree(tree))


def _run_compare(config: RunConfig) -> None:
    with open(config.input, "r", encoding="utf-8", newline="") as stream:
        columns = set(_read_csv([stream.readline()])[0])
        stream.seek(0)
        if {"treat1", "treat2"} <= columns:
            if config.covariance is not None:
                raise DataError("a covariance CSV applies only to a basic-form table")
            table = parse_league_table(stream, direction=config.direction)
        elif "treat" in columns:
            if config.covariance is None:
                table = parse_basic_table(stream, direction=config.direction)
            else:
                with open(config.covariance, "r", encoding="utf-8", newline="") as cov:
                    table = parse_basic_table(stream, cov, direction=config.direction)
        else:
            raise DataError(
                "input is neither pairwise (treat1,treat2,estimate,se) nor "
                "basic form (treat,estimate_vs_ref,se)"
            )
    scores = p_scores(table)
    civ = p_scores_civ(table, config.mcid) if config.mcid is not None else None
    best = prob_best(table, nsim=config.nsim, seed=config.seed)
    if "csv" in config.formats:
        with open(config.out_dir / "scores.csv", "w", encoding="utf-8", newline="") as stream:
            writer = csv.writer(stream, lineterminator="\n")
            header_row = ["treatment", "p_score"] + (["p_score_civ"] if civ else []) + ["p_bv"]
            writer.writerow(header_row)
            for label in table.treatments:
                row = [label, f"{scores[label]:.6g}"]
                if civ:
                    row.append(f"{civ[label]:.6g}")
                row.append(f"{best[label]:.6g}")
                writer.writerow(row)
    if "json" in config.formats:
        document = {
            "direction": table.direction,
            "nsim": config.nsim,
            "seed": config.seed,
            "p_scores": scores,
            "prob_best": best,
        }
        if civ is not None:
            document["p_scores_civ"] = civ
            document["mcid"] = config.mcid
        _write_json(config.out_dir / "scores.json", document)


def _run_tcc_dump(config: RunConfig) -> None:
    records, _, schema = _read_preferences(config)
    _write_records(records, schema, config.out_dir / "records.csv")


def run(config: RunConfig) -> None:
    """Execute one configured invocation, writing artifacts into ``out_dir``."""
    config.out_dir.mkdir(parents=True, exist_ok=True)
    if not config.input.exists():
        raise DataError(f"input file not found: {config.input}")
    dispatch = {
        "rank": _run_rank,
        "partition": _run_partition,
        "compare": _run_compare,
        "tcc-dump": _run_tcc_dump,
    }
    dispatch[config.subcommand](config)


def _write_error(out_dir: Path, error: Exception, exit_code: int) -> None:
    document = {
        "error": type(error).__name__,
        "message": str(error),
        "exit_code": exit_code,
    }
    if isinstance(error, FordConditionError):
        document["subset"] = list(error.subset)
        document["complement"] = list(error.complement)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "error.json", document)
    except OSError:
        pass  # the console message is all we can leave behind


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except DataError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        run(config)
    except (DataError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        _write_error(config.out_dir, error, 1)
        return 1
    except ModelError as error:
        print(f"error: {error}", file=sys.stderr)
        _write_error(config.out_dir, error, 2)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
