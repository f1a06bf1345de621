"""Covariate-driven instability detection and recursive partitioning.

A pooled ability fit assumes one hierarchy for all studies. This module
tests that assumption covariate by covariate using score-based fluctuation
statistics: each preference record contributes a score vector (the gradient
of its log-likelihood term at the pooled estimate), and systematic drift of
these scores along a covariate signals that the abilities differ across its
range. Categorical covariates get a chi-square test on per-level score sums;
continuous covariates get a supremum-LM scan over candidate cutpoints with a
permutation p-value. Where instability is found, the records are split at
the cutpoint (or level subset) maximizing the summed log-likelihood of the
two sub-fits, and the procedure recurses.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .davidson import AbilityFit, _log_nu, _log_probabilities, _pair_credit, fit_davidson
from .errors import DataError, ModelError
from .study_data import Categorical, Continuous, CovariateKind, CovariateSchema
from .tcc import PreferenceRecord, _code_records, _tally, aggregate_tournament

__all__ = [
    "PartitionConfig",
    "PartitionNode",
    "Split",
    "best_split",
    "format_tree",
    "grow_tree",
    "score_contributions",
    "stability_test",
    "tree_to_dict",
]

@dataclass(frozen=True)
class PartitionConfig:
    """Knobs for :func:`grow_tree`; ``max_depth=None`` means unbounded."""

    alpha: float = 0.05
    min_node_size: int = 10
    max_depth: int | None = None
    permutations: int = 1000
    seed: int = 0
    trim: float = 0.10  # fraction of records excluded at each end of a cutpoint scan

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise DataError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.min_node_size < 2:
            raise DataError(f"min_node_size must be at least 2, got {self.min_node_size}")
        if self.permutations < 1:
            raise DataError(f"permutations must be positive, got {self.permutations}")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")
        if not (0.0 <= self.trim < 0.5):
            raise DataError(f"trim must be in [0, 0.5), got {self.trim}")


@dataclass(frozen=True)
class Split:
    """A realized split: covariate, rule, test result, and the two children."""

    covariate: str
    threshold: float | None  # continuous rule: left gets values <= threshold
    subset: tuple[str, ...] | None  # categorical rule: left gets these levels
    statistic: float
    p_value: float  # Bonferroni-adjusted p-value that triggered the split
    children: tuple["PartitionNode", "PartitionNode"]


@dataclass(frozen=True, eq=False)
class PartitionNode:
    """A node of the partition tree: its records, their fit, and an optional split."""

    records: tuple[PreferenceRecord, ...]
    fit: AbilityFit
    split: Split | None = None
    depth: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.split is None

    def leaves(self) -> list["PartitionNode"]:
        """All leaf nodes, left-to-right."""
        if self.split is None:
            return [self]
        left, right = self.split.children
        return left.leaves() + right.leaves()


def score_contributions(records: Sequence[PreferenceRecord], fit: AbilityFit) -> np.ndarray:
    """Per-record score vectors at the fitted log parameters, one row each.

    Columns follow ``fit.param_names``. At the maximum-likelihood estimate
    the rows of the full record set sum to (numerically) zero, which is what
    makes cumulative sums of them usable as fluctuation processes.
    """
    index = {x: k for k, x in enumerate(fit.treatments)}
    outside = [r for r in records if r.treat_a not in index or r.treat_b not in index]
    if outside:
        raise DataError(
            f"record in study {outside[0].study_id!r} uses a treatment outside the fit"
        )
    pairs, codes = _code_records(records, fit.treatments)
    pair, outcome = np.divmod(codes, 3)
    i, j = pairs[pair].T
    # Each record is a pair with a single count, on its observed outcome.
    counts = np.eye(3)[outcome]
    lam = np.log([fit.psi[x] for x in fit.treatments])
    observed, expected = _pair_credit(counts, _log_probabilities(lam, _log_nu(fit.nu), i, j))
    scores = observed - expected
    n_t = len(fit.treatments)
    rows = np.zeros((len(records), n_t + 1))
    at = np.arange(len(records))
    rows[at, i], rows[at, j], rows[:, n_t] = scores.T
    return rows[:, 1 : len(fit.param_names) + 1]


def _read_covariate(
    records: Sequence[PreferenceRecord], covariate: str, kind: CovariateKind | None
) -> tuple[CovariateKind, np.ndarray]:
    """The covariate's kind and its values on the records, as floats or strings.

    ``kind=None`` infers the kind from the parsed values: continuous when
    every value is a number, categorical otherwise (so a string level such
    as ``"1"`` stays categorical).
    """
    values = [r.covariates.get(covariate) for r in records]
    missing = sum(v is None for v in values)
    if missing:
        raise DataError(
            f"covariate {covariate!r} is missing on {missing} record(s); "
            "drop or impute them before testing"
        )
    if kind is None:
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)
        kind = Continuous() if numeric else Categorical(tuple(sorted({str(v) for v in values})))
    if isinstance(kind, Continuous):
        array = np.asarray(values, dtype=float)
    else:
        array = np.asarray([str(v) for v in values])
    if np.unique(array).size < 2:
        raise DataError(f"covariate {covariate!r} is constant on these records")
    return kind, array


def _candidate_rules(kind: CovariateKind, values: np.ndarray) -> list:
    """Midpoints between consecutive distinct values, or the level subsets
    (sorted, each holding the first level) that leave some level out."""
    levels = np.unique(values)
    if isinstance(kind, Continuous):
        return ((levels[:-1] + levels[1:]) / 2.0).tolist()
    anchor, *others = levels.tolist()
    return [
        (anchor, *(lvl for bit, lvl in enumerate(others) if mask >> bit & 1))
        for mask in range(2 ** len(others) - 1)
    ]


def _goes_left(rule, values: np.ndarray) -> np.ndarray:
    """Records the rule sends left: ``values <= cut`` or values in the subset."""
    return np.isin(values, rule) if isinstance(rule, tuple) else values <= rule


def _treatment_order(records: Sequence[PreferenceRecord]) -> tuple[str, ...]:
    return tuple(dict.fromkeys(label for r in records for label in r.pair))


def _chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution with integer ``df`` at ``x``.

    Closed forms of Q(df / 2, x / 2), each term taken from log space: a
    running product gives 0 * inf = nan once df passes about 1400.
    """
    if x <= 0.0:
        return 1.0
    y = x / 2.0
    log_y = math.log(y)
    if df % 2 == 0:
        return math.fsum(
            math.exp(-y + k * log_y - math.lgamma(k + 1)) for k in range(df // 2)
        )
    return math.erfc(math.sqrt(y)) + math.fsum(
        math.exp(-y + (k - 0.5) * log_y - math.lgamma(k + 0.5))
        for k in range(1, (df + 1) // 2)
    )


def stability_test(
    records: Sequence[PreferenceRecord],
    covariate: str,
    fit: AbilityFit,
    kind: CovariateKind | None = None,
    *,
    permutations: int = 1000,
    rng: np.random.Generator | None = None,
    trim: float = 0.10,
    min_records: int = 10,
) -> tuple[float, float]:
    """Score-fluctuation test of ability stability along one covariate.

    Categorical covariates with Q observed levels yield a chi-square
    statistic on the per-level score sums with (number of free parameters)
    x (Q - 1) degrees of freedom. Continuous covariates yield the supremum
    of LM statistics over candidate cutpoints (records sorted by the
    covariate, cut positions trimmed by ``trim`` at both ends), with the
    p-value taken from a seeded permutation distribution: the observed
    statistic is ranked among ``permutations`` reshuffles of the covariate,
    so under the null the p-value is uniform up to 1/(permutations+1)
    resolution.

    Returns ``(statistic, p_value)``.
    """
    records = tuple(records)
    if len(records) < min_records:
        raise DataError(
            f"too few records to test stability: {len(records)} < {min_records}"
        )
    kind, values = _read_covariate(records, covariate, kind)
    scores = score_contributions(records, fit)
    n, p_dim = scores.shape
    info = scores.T @ scores / n
    info_inv = np.linalg.pinv(info)

    if isinstance(kind, Categorical):
        labels = np.unique(values)
        statistic = 0.0
        for level in labels:
            mask = values == level
            level_sum = scores[mask].sum(axis=0)
            statistic += float(level_sum @ info_inv @ level_sum) / int(mask.sum())
        df = p_dim * (len(labels) - 1)
        return statistic, _chi2_sf(statistic, df)

    order = np.argsort(values, kind="stable")
    ordered_values = values[order]
    lo = max(1, math.ceil(trim * n))
    hi = min(n - 1, math.floor((1.0 - trim) * n))
    cut_sizes = np.asarray(
        [j for j in range(lo, hi + 1) if ordered_values[j - 1] < ordered_values[j]],
        dtype=np.intp,
    )
    if cut_sizes.size == 0:
        raise DataError(
            f"covariate {covariate!r} has no admissible cutpoint inside the trim range"
        )
    weights = n / (cut_sizes * (n - cut_sizes))

    def sup_lm(score_rows: np.ndarray) -> np.ndarray:
        # score_rows: (..., n, p); returns the sup-LM along the cut axis.
        sums = np.cumsum(score_rows, axis=-2)[..., cut_sizes - 1, :]
        quad = np.einsum("...cp,pq,...cq->...c", sums, info_inv, sums)
        return np.max(quad * weights, axis=-1)

    statistic = float(sup_lm(scores[order]))
    if rng is None:
        rng = np.random.default_rng(0)
    exceed = 0
    remaining = permutations
    while remaining > 0:
        block = min(remaining, 256)  # bound the (block, n, p) workspace
        shuffles = np.argsort(rng.random((block, n)), axis=1)
        exceed += int(np.sum(sup_lm(scores[shuffles]) >= statistic))
        remaining -= block
    p_value = (1 + exceed) / (permutations + 1)
    return statistic, p_value


def _fit_quietly(pairs, codes, treatments):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fit_davidson(_tally(pairs, codes, treatments))


def best_split(
    records: Sequence[PreferenceRecord],
    covariate: str,
    kind: CovariateKind | None = None,
    treatments: Sequence[str] | None = None,
    *,
    min_node_size: int = 10,
):
    """Best binary split of the records along one covariate.

    Continuous: candidate cutpoints are the midpoints between consecutive
    distinct observed values; categorical: all binary partitions of the
    observed levels. A candidate is admissible when both sides meet
    ``min_node_size`` and fit successfully. The winner maximizes the summed
    maximized log-likelihood of the two sub-fits; exact ties go to the more
    balanced split, then to the smaller cutpoint (or the lexicographically
    smallest level subset).

    Returns ``(rule, partitioned_loglik)`` where ``rule`` is the cutpoint
    (left side: values <= rule) or the tuple of left-side levels.
    """
    records = tuple(records)
    kind, values = _read_covariate(records, covariate, kind)
    if treatments is None:
        treatments = _treatment_order(records)
    pairs, codes = _code_records(records, treatments)
    candidates = []
    for rule in _candidate_rules(kind, values):
        left = _goes_left(rule, values)
        n_left = int(left.sum())
        n_right = len(records) - n_left
        if min(n_left, n_right) < min_node_size:
            continue
        try:
            loglik = (
                _fit_quietly(pairs, codes[left], treatments).loglik
                + _fit_quietly(pairs, codes[~left], treatments).loglik
            )
        except ModelError:
            continue
        candidates.append(((-loglik, abs(n_left - n_right), rule), loglik))
    if not candidates:
        raise ModelError(
            f"no admissible split on covariate {covariate!r}: every candidate "
            "leaves a side too small or unfittable"
        )
    (_, _, rule), loglik = min(candidates, key=lambda c: c[0])
    return rule, loglik


def grow_tree(
    records: Iterable[PreferenceRecord],
    covariate_schema: CovariateSchema,
    config: PartitionConfig | None = None,
) -> PartitionNode:
    """Grow a partition tree: fit, test every covariate, split, recurse.

    At each node the stability test runs for every non-constant covariate in
    the schema, p-values are Bonferroni-adjusted across the covariates
    tested, and the node splits on the smallest adjusted p-value below
    ``config.alpha`` via :func:`best_split`. Guards (minimum node size,
    maximum depth, unfittable children) produce a leaf rather than an error.
    Records missing a value for any schema covariate are excluded up front
    with a warning, so the leaves always partition the retained record set.
    Growth is deterministic given the record order and ``config.seed``.
    """
    if config is None:
        config = PartitionConfig()
    records = tuple(records)
    names = list(covariate_schema)
    usable = tuple(
        r for r in records if all(r.covariates.get(n) is not None for n in names)
    )
    if len(usable) < len(records):
        warnings.warn(
            f"excluded {len(records) - len(usable)} record(s) with missing "
            "covariate values from the partition",
            UserWarning,
            stacklevel=2,
        )
    if not usable:
        raise DataError("no records with complete covariate values")
    return _grow(usable, _treatment_order(usable), covariate_schema, config, path=(), depth=0)


def _grow(records, treatments, schema, config, path, depth):
    fit = fit_davidson(aggregate_tournament(records, treatments))
    node = PartitionNode(records=records, fit=fit, split=None, depth=depth)
    if config.max_depth is not None and depth >= config.max_depth:
        return node
    if len(records) < 2 * config.min_node_size:
        return node

    tests = []
    for cov_index, name in enumerate(schema):
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(*path, cov_index))
        )
        try:
            statistic, p_value = stability_test(
                records,
                name,
                fit,
                schema[name],
                permutations=config.permutations,
                rng=rng,
                trim=config.trim,
                min_records=config.min_node_size,
            )
        except DataError:
            continue  # constant or untestable here; not a candidate at this node
        tests.append((p_value, cov_index, name, statistic))
    if not tests:
        return node

    adjusted = [(min(1.0, p * len(tests)), cov_index, name, stat) for p, cov_index, name, stat in tests]
    p_value, _, name, statistic = min(adjusted, key=lambda t: (t[0], t[1]))
    if p_value >= config.alpha:
        return node

    try:
        rule, _ = best_split(
            records, name, schema[name], treatments, min_node_size=config.min_node_size
        )
    except (DataError, ModelError):
        return node

    left = _goes_left(rule, _read_covariate(records, name, schema[name])[1])
    children = tuple(
        _grow(tuple(compress(records, side)), treatments, schema, config, (*path, k), depth + 1)
        for k, side in enumerate((left, ~left))
    )
    split = Split(
        covariate=name,
        threshold=None if isinstance(rule, tuple) else rule,
        subset=rule if isinstance(rule, tuple) else None,
        statistic=statistic,
        p_value=p_value,
        children=children,
    )
    return replace(node, split=split)


def tree_to_dict(node: PartitionNode) -> dict:
    """JSON-ready nested representation of a partition tree."""
    fit = node.fit
    out = {
        "n_records": len(node.records),
        "depth": node.depth,
        "nu": fit.nu,
        "loglik": fit.loglik,
        "abilities": {x: fit.pi[x] for x in fit.treatments},
        "split": None,
    }
    if node.split is not None:
        s = node.split
        rule = {"threshold": s.threshold} if s.subset is None else {"subset": list(s.subset)}
        out["split"] = {
            "covariate": s.covariate,
            "kind": "continuous" if s.subset is None else "categorical",
            **rule,
            "statistic": s.statistic,
            "p_value": s.p_value,
            "left": tree_to_dict(s.children[0]),
            "right": tree_to_dict(s.children[1]),
        }
    return out


def _rule_labels(split: Split) -> tuple[str, str]:
    if split.subset is None:
        return (
            f"{split.covariate} <= {split.threshold:.6g}",
            f"{split.covariate} > {split.threshold:.6g}",
        )
    levels = ", ".join(split.subset)
    return f"{split.covariate} in {{{levels}}}", f"{split.covariate} not in {{{levels}}}"


def format_tree(node: PartitionNode) -> str:
    """Indented text rendering of a partition tree; deterministic output."""
    lines: list[str] = []
    _format_node(node, "", "", lines)
    return "\n".join(lines) + "\n"


def _format_node(node: PartitionNode, label: str, indent: str, lines: list[str]) -> None:
    fit = node.fit
    order = sorted(fit.treatments, key=lambda x: (-fit.pi[x], x))
    abilities = ", ".join(f"{x}={fit.pi[x]:.6g}" for x in order)
    lines.append(f"{indent}{label}n={len(node.records)}, nu={fit.nu:.6g}, abilities: {abilities}")
    if node.split is not None:
        s = node.split
        lines.append(
            f"{indent}  split on {s.covariate}: statistic={s.statistic:.6g}, "
            f"adjusted p={s.p_value:.6g}"
        )
        left_label, right_label = _rule_labels(s)
        _format_node(s.children[0], f"[{left_label}] ", indent + "  ", lines)
        _format_node(s.children[1], f"[{right_label}] ", indent + "  ", lines)
