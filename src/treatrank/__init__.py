"""treatrank: rank treatments from study-level contrasts via win/tie preferences.

The pipeline: parse study contrasts (`study_data`), turn each contrast into a
win or tie through a clinically anchored choice criterion (`tcc`), fit the
tie-extended ability model to the resulting tournament (`davidson`), test and
partition the hierarchy along covariates (`partition`), and score treatments
from external league tables (`compare`). `cli` wires it all into a batch
command, `plot` renders the ranking as SVG.

Each public name, and each of those submodules but `cli`, is imported on first
use, so `import treatrank` alone loads neither numpy nor any submodule.
"""

import os as _os
import sys as _sys
from importlib import import_module as _import_module

# A threaded BLAS sums in an order that depends on its thread count, so a large
# fit's last digits, and the artifacts' bytes, would depend on the machine.
# The count is read once, when numpy first loads, and one set explicitly is kept.
if "numpy" not in _sys.modules:
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_name, "1")
    del _name

__version__ = "0.1.0"

# The public names, by the submodule that defines them: the one list of them.
# Each submodule's __all__ is its entry here, plus at most one name of its own.
_EXPORTS = {
    "compare": (
        "LeagueTable",
        "p_scores",
        "p_scores_civ",
        "parse_basic_table",
        "parse_covariance_table",
        "parse_league_table",
        "prob_best",
    ),
    "davidson": (
        "AVERAGE",
        "AbilityFit",
        "AbilityRatio",
        "NormalizedAbility",
        "ability_ratios",
        "check_ford",
        "fit_davidson",
        "log_likelihood",
        "normalized_abilities",
        "pairwise_probabilities",
        "win_tie_probabilities",
    ),
    "errors": (
        "ConvergenceError",
        "DataError",
        "FordConditionError",
        "ModelError",
        "OnlyTiesError",
        "TreatRankError",
    ),
    "partition": (
        "PartitionConfig",
        "PartitionNode",
        "Split",
        "best_split",
        "format_tree",
        "grow_tree",
        "score_contributions",
        "stability_test",
        "tree_to_dict",
    ),
    "plot": ("build_ability_svg", "emit_plot"),
    "study_data": (
        "Categorical",
        "Continuous",
        "Network",
        "StudyEffect",
        "ValidationReport",
        "complete_intervals",
        "dump_contrast_table",
        "parse_contrast_table",
        "validate_network",
    ),
    "tcc": (
        "PairCounts",
        "PreferenceData",
        "PreferenceRecord",
        "RoeConfig",
        "TccDecision",
        "Tournament",
        "Verdict",
        "aggregate_tournament",
        "apply_tcc",
        "build_roe",
        "dump_preference_records",
        "parse_preference_records",
        "tcc_decision",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Import a public name's submodule, or a submodule itself, on first use."""
    if name in _EXPORTS:
        value = _import_module(f"{__name__}.{name}")
    elif name in _MODULE_OF:
        value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
