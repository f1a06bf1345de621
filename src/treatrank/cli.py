"""Command-line driver: ingestion -> preference data -> fit -> reports.

Exit codes: 0 success, 1 data/configuration error, 2 model error (regularity
failure, only ties, non-convergence). Every failure also writes a
machine-readable ``error.json`` into the output directory when possible.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import DataError, FordConditionError, ModelError
from .study_data import BENEFICIAL, HARMFUL, _CI_LEVEL, _check_nsim, _check_pairs, _check_ratios
from .study_data import _check_seed, _read_contrasts, _read_header, _report, _write_columns, _z

# Not called here; bench/tracing.py wraps these layer functions by their names in this module.
from .study_data import complete_intervals, parse_contrast_table, validate_network  # noqa: F401

if TYPE_CHECKING:
    from .tcc import _Preferences


def _lazy(module: str, name: str):
    """A stand-in for ``module.name`` that imports ``module`` on its first call, so a
    subcommand loads only the modules it runs."""
    def call(*args, **kwargs):
        return getattr(import_module(module, __package__), name)(*args, **kwargs)
    return call


# bench/tracing.py wraps these layer functions by name; cli calls all but the first four.
apply_tcc = _lazy(".tcc", "apply_tcc")
aggregate_tournament = _lazy(".tcc", "aggregate_tournament")
dump_preference_records = _lazy(".tcc", "dump_preference_records")
parse_preference_records = _lazy(".tcc", "parse_preference_records")
fit_davidson = _lazy(".davidson", "fit_davidson")
normalized_abilities = _lazy(".davidson", "normalized_abilities")
emit_plot = _lazy(".plot", "emit_plot")
grow_tree = _lazy(".partition", "grow_tree")
parse_league_table = _lazy(".compare", "parse_league_table")
parse_basic_table = _lazy(".compare", "parse_basic_table")
p_scores = _lazy(".compare", "p_scores")
p_scores_civ = _lazy(".compare", "p_scores_civ")
prob_best = _lazy(".compare", "prob_best")

__all__ = ["RunConfig", "main", "run"]

_FORMATS = ("csv", "json", "svg")
# The RunConfig fields that PartitionConfig takes, and tree.json reports.
_PARTITION_FIELDS = ("alpha", "min_node_size", "max_depth", "permutations", "seed")
# The flags that judge contrasts, which a preference-record table has no use for.
_CONTRAST_ONLY = ("mcid", "roe_lower", "roe_upper", "direction", "scale")


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs, as given: None leaves a library default in force."""

    subcommand: str
    input: Path
    out_dir: Path = Path(".")
    formats: frozenset[str] = frozenset(_FORMATS)
    ci_level: float = _CI_LEVEL
    seed: int | None = None
    # ingestion + treatment-choice criterion
    scale: str = "log"
    records_input: bool = False
    mcid: float | None = None
    roe_lower: float | None = None
    roe_upper: float | None = None
    direction: str = BENEFICIAL
    dump_records: bool = False
    # partitioning
    covariates: tuple[str, ...] | None = None
    alpha: float | None = None
    min_node_size: int | None = None
    max_depth: int | None = None
    permutations: int | None = None
    # comparison metrics
    covariance: Path | None = None
    nsim: int | None = None


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
    common.add_argument("--direction", choices=(BENEFICIAL, HARMFUL),
                        help="whether larger effects are better")

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
    comp.add_argument("--covariance", type=Path,
                      help="covariance CSV for a basic-form league table")
    comp.add_argument("--nsim", type=int,
                      help="simulation draws for the best-value probabilities")
    sub.add_parser("tcc-dump", parents=[common, tcc], **quiet,
                   help="write the preference records derived from the contrasts")
    return parser


def parse_args(argv=None) -> RunConfig:
    options = vars(_build_parser().parse_args(argv))
    _check_seed(options.get("seed", 0))
    _check_nsim(options.get("nsim", 1))
    _check_ratios(options.get("mcid"), options.get("roe_lower"), options.get("roe_upper"))
    if options.get("records_input") and (judging := [f for f in _CONTRAST_ONLY if f in options]):
        raise DataError(f"--{judging[0].replace('_', '-')} applies only to contrast input")
    if "ci_level" in options:
        _z(options["ci_level"])  # a level the reports cannot use fails before any artifact
    if "format" in options:
        formats = frozenset(f.strip() for f in options.pop("format").split(",") if f.strip())
        unknown = formats - set(_FORMATS)
        if unknown:
            raise DataError(f"unknown output format(s): {', '.join(sorted(unknown))}")
        if not formats:
            raise DataError("at least one output format is required")
        if options["subcommand"] == "compare" and not formats & {"csv", "json"}:
            raise DataError("compare writes no svg artifact; --format needs csv or json")
        options["formats"] = formats
    if "covariates" in options:
        options["covariates"] = tuple(
            c.strip() for c in options["covariates"].split(",") if c.strip()
        )
        if not options["covariates"]:
            raise DataError("--partition needs at least one covariate name")
    return RunConfig(**options)


def _read_preferences(config: RunConfig) -> _Preferences:
    """Input file -> preference records as columns, with their covariate schema."""
    from .tcc import _judge, _read_records, build_roe

    if not config.records_input:  # the flags that judge contrasts fail before the input is read
        if config.mcid is None:
            raise DataError("--mcid is required to derive preference records from contrasts")
        roe = build_roe(config.mcid, config.roe_lower, config.roe_upper, config.direction)
    with open(config.input, "r", encoding="utf-8", newline="") as stream:
        if config.records_input:
            return _read_records(stream)
        studies, numbers = _read_contrasts(stream, scale=config.scale)
    _check_pairs(studies.treatments, studies.study, studies.treat1, studies.treat2)
    report = _report(studies)
    for study, observed, expected in report.incomplete_studies:
        print(
            f"warning: study {study!r} has {observed} of {expected} pairwise contrasts",
            file=sys.stderr,
        )
    for name in report.covariates_with_missing:
        print(f"warning: covariate {name!r} has missing values", file=sys.stderr)
    return _judge(studies, numbers, roe)


def _write_records(preferences: _Preferences, config: RunConfig) -> None:
    with open(config.out_dir / "records.csv", "w", encoding="utf-8", newline="") as stream:
        preferences.dump(stream)


def _write_fit_artifacts(fit, n_records: int, config: RunConfig) -> None:
    from .davidson import _hierarchy

    # Intervals too wide to represent fail here, before any artifact is written.
    if config.formats & {"json", "svg"}:
        abilities = normalized_abilities(fit, ci_level=config.ci_level)
    ranked = _hierarchy(fit)
    if "csv" in config.formats:
        header = ["treatment", "ability", "se_log_ability", "pi", "rank"]
        numbers = ([f"{v[x]:.6g}" for x in ranked] for v in (fit.psi, fit.se_log_ability, fit.pi))
        _write_csv(config.out_dir / "rank.csv", header,
                   [ranked, *numbers, range(1, len(ranked) + 1)])
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
            "normalized": {x: asdict(a) for x, a in abilities.items()},
            "ci_level": config.ci_level,
            "loglik": fit.loglik,
            "converged": fit.converged,
            "iterations": fit.iterations,
        }
        _write_json(config.out_dir / "fit.json", document)
    if "svg" in config.formats:
        emit_plot(fit, config.out_dir / "ability_plot.svg", ci_level=config.ci_level)


def _write_csv(path: Path, header, columns) -> None:
    with open(path, "w", encoding="utf-8", newline="") as stream:
        _write_columns(stream, header, columns)


def _write_json(path: Path, document) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        json.dump(document, stream, indent=2, sort_keys=True)
        stream.write("\n")


def _given(config: RunConfig, fields) -> dict:
    """The ``fields`` that the command line set; the library's defaults fill the rest."""
    return {key: getattr(config, key) for key in fields if getattr(config, key) is not None}


def _run_rank(config: RunConfig) -> None:
    preferences = _read_preferences(config)
    if config.dump_records and "csv" in config.formats:
        _write_records(preferences, config)
    fit = fit_davidson(preferences.tournament())
    _write_fit_artifacts(fit, len(preferences.study), config)


def _run_partition(config: RunConfig) -> None:
    from .partition import PartitionConfig, format_tree, tree_to_dict

    # Every flag is checked before records.csv is written.
    partition_config = PartitionConfig(**_given(config, _PARTITION_FIELDS))
    preferences = _read_preferences(config)
    schema = preferences.schema
    if config.covariates is not None:
        unknown = [c for c in config.covariates if c not in schema]
        if unknown:
            raise DataError(f"unknown partition covariate(s): {', '.join(unknown)}")
        schema = {name: schema[name] for name in config.covariates}
    if config.dump_records and "csv" in config.formats:
        _write_records(preferences, config)
    tree = grow_tree(preferences.records(), schema, partition_config)
    if "json" in config.formats:
        document = {
            "config": {
                **{key: getattr(partition_config, key) for key in _PARTITION_FIELDS},
                "covariates": sorted(schema),
            },
            "tree": tree_to_dict(tree),
        }
        _write_json(config.out_dir / "tree.json", document)
    with open(config.out_dir / "tree.txt", "w", encoding="utf-8", newline="\n") as stream:
        stream.write(format_tree(tree))


def _run_compare(config: RunConfig) -> None:
    from .compare import _NSIM, _SEED

    with open(config.input, "r", encoding="utf-8", newline="") as stream:
        columns = set(_read_header(stream)[0])
        stream.seek(0)
        if {"treat1", "treat2"} <= columns:
            if config.covariance is not None:
                raise DataError("a covariance CSV applies only to a basic-form table")
            table = parse_league_table(stream, direction=config.direction)
        elif "treat" in columns:
            with (nullcontext() if config.covariance is None
                  else open(config.covariance, "r", encoding="utf-8", newline="")) as cov:
                table = parse_basic_table(stream, cov, direction=config.direction)
        else:
            raise DataError(
                "input is neither pairwise (treat1,treat2,estimate,se) nor "
                "basic form (treat,estimate_vs_ref,se)"
            )
    scores = p_scores(table)
    civ = p_scores_civ(table, config.mcid) if config.mcid is not None else None
    simulation = _given(config, ("nsim", "seed"))
    best = prob_best(table, **simulation)
    if "csv" in config.formats:
        named = {"p_score": scores, **({"p_score_civ": civ} if civ else {}), "p_bv": best}
        numbers = ([f"{v[x]:.6g}" for x in table.treatments] for v in named.values())
        _write_csv(config.out_dir / "scores.csv", ["treatment", *named],
                   [table.treatments, *numbers])
    if "json" in config.formats:
        document = {
            "direction": table.direction,
            "nsim": _NSIM,
            "seed": _SEED,
            **simulation,
            "p_scores": scores,
            "prob_best": best,
        }
        if civ is not None:
            document["p_scores_civ"] = civ
            document["mcid"] = config.mcid
        _write_json(config.out_dir / "scores.json", document)


def _run_tcc_dump(config: RunConfig) -> None:
    _write_records(_read_preferences(config), config)


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
    try:
        dispatch[config.subcommand](config)
    except MemoryError as error:  # here, not in the library: _grow reads a ModelError as a leaf
        raise ModelError(f"the model does not fit in memory: {str(error) or 'allocation failed'}")


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


def _usage_out_dir(argv) -> Path | None:
    """The ``--out-dir`` of a command line that failed to parse, if it names one."""
    parser = _Parser(add_help=False)
    parser.add_argument("--out-dir", type=Path)
    try:
        return parser.parse_known_args(argv)[0].out_dir
    except DataError:
        return None


def main(argv=None) -> int:
    config = None
    try:
        with warnings.catch_warnings():
            # One line per warning, without the source path and line that issued it.
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            config = parse_args(argv)
            run(config)
    except (DataError, OSError, ModelError) as error:
        exit_code = 2 if isinstance(error, ModelError) else 1
        print(f"error: {error}", file=sys.stderr)
        if (out_dir := _usage_out_dir(argv) if config is None else config.out_dir) is not None:
            _write_error(out_dir, error, exit_code)
        return exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
