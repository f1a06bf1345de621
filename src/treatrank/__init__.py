"""treatrank: rank treatments from study-level contrasts via win/tie preferences.

The pipeline: parse study contrasts (`study_data`), turn each contrast into a
win or tie through a clinically anchored choice criterion (`tcc`), fit the
tie-extended ability model to the resulting tournament (`davidson`), test and
partition the hierarchy along covariates (`partition`), and score treatments
from external league tables (`compare`). `cli` wires it all into a batch
command, `plot` renders the ranking as SVG.
"""

import os as _os
import sys as _sys

# A threaded BLAS sums in an order that depends on its thread count, so a large
# fit's last digits, and the artifacts' bytes, would depend on the machine.
# The count is read once, when numpy first loads, and one set explicitly is kept.
if "numpy" not in _sys.modules:
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_name, "1")
    del _name

from .compare import (
    LeagueTable,
    p_scores,
    p_scores_civ,
    parse_basic_table,
    parse_covariance_table,
    parse_league_table,
    prob_best,
)
from .davidson import (
    AVERAGE,
    AbilityFit,
    AbilityRatio,
    NormalizedAbility,
    ability_ratios,
    check_ford,
    fit_davidson,
    log_likelihood,
    normalized_abilities,
    pairwise_probabilities,
    win_tie_probabilities,
)
from .errors import (
    ConvergenceError,
    DataError,
    FordConditionError,
    ModelError,
    OnlyTiesError,
    TreatRankError,
)
from .partition import (
    PartitionConfig,
    PartitionNode,
    Split,
    best_split,
    format_tree,
    grow_tree,
    score_contributions,
    stability_test,
    tree_to_dict,
)
from .plot import build_ability_svg, emit_plot
from .study_data import (
    Categorical,
    Continuous,
    Network,
    StudyEffect,
    ValidationReport,
    complete_intervals,
    dump_contrast_table,
    parse_contrast_table,
    validate_network,
)
from .tcc import (
    PairCounts,
    PreferenceData,
    PreferenceRecord,
    RoeConfig,
    TccDecision,
    Tournament,
    Verdict,
    aggregate_tournament,
    apply_tcc,
    build_roe,
    dump_preference_records,
    parse_preference_records,
    tcc_decision,
)

__version__ = "0.1.0"

__all__ = [
    "AVERAGE",
    "AbilityFit",
    "AbilityRatio",
    "Categorical",
    "Continuous",
    "ConvergenceError",
    "DataError",
    "FordConditionError",
    "LeagueTable",
    "ModelError",
    "Network",
    "NormalizedAbility",
    "OnlyTiesError",
    "PairCounts",
    "PartitionConfig",
    "PartitionNode",
    "PreferenceData",
    "PreferenceRecord",
    "RoeConfig",
    "Split",
    "StudyEffect",
    "TccDecision",
    "Tournament",
    "TreatRankError",
    "ValidationReport",
    "Verdict",
    "ability_ratios",
    "aggregate_tournament",
    "apply_tcc",
    "best_split",
    "build_ability_svg",
    "build_roe",
    "check_ford",
    "complete_intervals",
    "dump_contrast_table",
    "dump_preference_records",
    "emit_plot",
    "fit_davidson",
    "format_tree",
    "grow_tree",
    "log_likelihood",
    "normalized_abilities",
    "p_scores",
    "p_scores_civ",
    "pairwise_probabilities",
    "parse_basic_table",
    "parse_contrast_table",
    "parse_covariance_table",
    "parse_league_table",
    "parse_preference_records",
    "prob_best",
    "score_contributions",
    "stability_test",
    "tcc_decision",
    "tree_to_dict",
    "validate_network",
    "win_tie_probabilities",
]
