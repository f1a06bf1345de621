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
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import _EXPORTS
from .davidson import AbilityFit, _fittable, _hierarchy, _max_logliks, _record_scores
from .davidson import fit_davidson
from .errors import DataError, ModelError
from .study_data import _BLOCK_FLOATS, Categorical, Continuous, CovariateKind, CovariateSchema
from .study_data import _check_seed
from .tcc import PreferenceRecord, _counts, _Preferences, _running_counts, _subset, _tally
from .tcc import aggregate_tournament  # noqa: F401  (bench/tracing.py rebinds this name)

__all__ = _EXPORTS["partition"]

# The categorical split search fits both sides of 2^(L-1) - 1 level subsets
# for L observed levels, so its cost doubles with every level.
MAX_SPLIT_LEVELS = 10
# Each side of a candidate costs the batched solver 9 * P floats of Hessian
# terms over P pairs and (n + 1)^2 of dense Hessian for n treatments; a
# chunk of candidates keeps one batch of sides at or under this many.
_BATCH_FLOATS = 2**20
# stability_test refuses fewer records than this.
_MIN_TEST_RECORDS = 10


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
        if self.max_depth is not None and self.max_depth < 0:
            raise DataError(f"max_depth must be non-negative, got {self.max_depth}")
        if self.permutations < 1:
            raise DataError(f"permutations must be positive, got {self.permutations}")
        _check_seed(self.seed)
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
    return _scores(_Preferences.of(records, fit.treatments), fit)


def _scores(preferences: _Preferences, fit: AbilityFit) -> np.ndarray:
    """:func:`score_contributions` of records held as columns over ``fit.treatments``."""
    try:
        pairs, codes = preferences.coded()
    except DataError as error:  # the first record with a treatment outside the fit
        raise DataError(f"{error}, a treatment outside the fit") from None
    return _record_scores(fit, *pairs[codes // 3].T, codes % 3)


def _distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)``. Asked for the inverse too, numpy skips its masked-array
    check, which imports ``numpy.ma`` (about 17 ms of a cold process)."""
    return np.unique(values, return_inverse=True)[0]


def _read_covariate(values: Sequence, covariate: str,
                    kind: CovariateKind | None) -> tuple[CovariateKind, np.ndarray]:
    """The covariate's kind and its column of values, as floats or strings.

    ``kind=None`` infers the kind from the parsed values: continuous when
    every value is a number, categorical otherwise (so a string level such
    as ``"1"`` stays categorical). A missing value and a continuous value
    that is no number are ``DataError``s; a constant covariate is not.
    """
    missing = sum(v is None for v in values)
    if missing:
        raise DataError(
            f"covariate {covariate!r} is missing on {missing} record(s); "
            "drop or impute them before testing"
        )
    if kind is None:
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)
        kind = Continuous() if numeric else Categorical(tuple(sorted({str(v) for v in values})))
    if isinstance(kind, Categorical):
        return kind, np.asarray([str(v) for v in values])
    try:
        return kind, np.asarray(values, dtype=float)
    except ValueError as error:  # numpy names the first value that is no number
        raise DataError(f"continuous covariate {covariate!r}: {error}") from None


def _goes_left(rule, values: np.ndarray) -> np.ndarray:
    """Records the rule sends left: ``values <= cut`` or values in the subset."""
    return np.isin(values, rule) if isinstance(rule, tuple) else values <= rule


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


def _sup_lm(
    score_rows: np.ndarray, cut_sizes: np.ndarray, info_inv: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """The sup-LM statistic of each ``(..., last, p)`` gather of score rows.

    The maximum over cuts of the weighted quadratic form of the partial sum
    at each cut. ``score_rows`` is a fresh gather; it is summed in place.
    """
    sums = np.cumsum(score_rows, axis=-2, out=score_rows)[..., cut_sizes - 1, :]
    quad = np.einsum("...cp,pq,...cq->...c", sums, info_inv, sums)
    return np.max(quad * weights, axis=-1)


class _Covariate(NamedTuple):
    """A covariate that passed every check of its stability test at a node.

    ``order`` and ``cut_sizes`` are set for a continuous covariate only: the
    stable sort of the records by value, and the record counts left of the
    admissible cuts inside the trim range.
    """

    kind: CovariateKind
    values: np.ndarray
    order: np.ndarray | None = None
    cut_sizes: np.ndarray | None = None


class _Scores(NamedTuple):
    """A node's score rows and what every stability test there reads of them."""

    rows: np.ndarray
    info_inv: np.ndarray  # pseudo-inverse of the information matrix
    whitened: np.ndarray  # rows @ L, where info_inv = L L^T


def _prepare(covariate: str, kind: CovariateKind, values: np.ndarray, trim: float) -> _Covariate:
    """Every check of a stability test on a node's covariate values that
    raises ``DataError``: a constant covariate, no cutpoint inside the trim."""
    if _distinct(values).size < 2:
        raise DataError(f"covariate {covariate!r} is constant on these records")
    if isinstance(kind, Categorical):
        return _Covariate(kind, values)
    n = len(values)
    order = np.argsort(values, kind="stable")
    ordered_values = values[order]
    lo = max(1, math.ceil(trim * n))
    hi = min(n - 1, math.floor((1.0 - trim) * n))
    sizes = np.arange(lo, hi + 1)
    cut_sizes = sizes[ordered_values[sizes - 1] < ordered_values[sizes]]
    if cut_sizes.size == 0:
        raise DataError(
            f"covariate {covariate!r} has no admissible cutpoint inside the trim range"
        )
    return _Covariate(kind, values, order, cut_sizes)


def _node_scores(scores: np.ndarray) -> _Scores:
    """A node's score rows, their inverse information and their whitened columns."""
    info = scores.T @ scores / len(scores)
    info_inv = np.linalg.pinv(info)
    w, v = np.linalg.eigh(info_inv)
    return _Scores(scores, info_inv, scores @ (v * np.sqrt(np.clip(w, 0.0, None))))


def stability_test(
    records: Sequence[PreferenceRecord],
    covariate: str,
    fit: AbilityFit,
    kind: CovariateKind | None = None,
    *,
    permutations: int = PartitionConfig.permutations,
    rng: np.random.Generator | None = None,
    trim: float = PartitionConfig.trim,
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
    resolution. Every permutation runs; only :func:`grow_tree` stops a test
    early, once it can no longer split the node.

    Each permutation's statistic is taken from the sums of whitened score
    rows per segment between consecutive cuts. One within a relative 1e-9
    of the observed statistic is recomputed with the observed statistic's
    own formula, so the exceedance count is the one that formula gives.

    Returns ``(statistic, p_value)``.
    """
    PartitionConfig(permutations=permutations, trim=trim)  # the same checks as grow_tree's
    columns = _Preferences.of(records, fit.treatments, (covariate,))
    if (n := len(columns.study)) < _MIN_TEST_RECORDS:
        raise DataError(f"too few records to test stability: {n} < {_MIN_TEST_RECORDS}")
    values = columns.covariates[covariate]
    prepared = _prepare(covariate, *_read_covariate(values, covariate, kind), trim)
    if rng is None:
        rng = np.random.default_rng(PartitionConfig.seed)
    return _run(prepared, _node_scores(_scores(columns, fit)), permutations, rng)


def _run(
    covariate: _Covariate,
    node: _Scores,
    permutations: int,
    rng: np.random.Generator,
    stop: Callable[[float], bool] | None = None,
) -> tuple[float, float]:
    """``(statistic, p_value)`` of a prepared test on a node's scores.

    Before each block of permutations, ``stop`` (when given) is called with
    the smallest p-value the test can still reach; if it returns true, no
    more permutations run and that bound is returned as the p-value.
    """
    scores, info_inv, whitened = node
    n, p_dim = scores.shape
    values = covariate.values
    if isinstance(covariate.kind, Categorical):
        labels = _distinct(values)
        statistic = 0.0
        for level in labels:
            mask = values == level
            level_sum = scores[mask].sum(axis=0)
            statistic += float(level_sum @ info_inv @ level_sum) / int(mask.sum())
        df = p_dim * (len(labels) - 1)
        return statistic, _chi2_sf(statistic, df)

    order, cut_sizes = covariate.order, covariate.cut_sizes
    weights = n / (cut_sizes * (n - cut_sizes))
    # Rows past the last cut never reach a cut's partial sum.
    last = int(cut_sizes[-1])
    statistic = float(_sup_lm(scores[order[:last]], cut_sizes, info_inv, weights))

    # A permutation needs the partial sums at the cuts only. With info_inv =
    # L L^T they are the cumulative sums over segments (the rows between
    # consecutive cuts; the last segment, past every cut, is dropped) of the
    # segment sums of whitened rows, and each quadratic form is a square norm.
    n_seg = cut_sizes.size + 1
    segment = np.repeat(np.arange(n_seg), np.diff(cut_sizes, prepend=0, append=n))
    # The two formulas differ by rounding only, far inside this band, so only
    # a fast statistic within it can compare otherwise; those are rechecked.
    band = 1e-9 * max(1.0, abs(statistic))
    # A block of permutations tiles the whitened score columns once per
    # permutation in it. The draws of rng.random((block, n)) follow one stream
    # whatever the block.
    block = min(permutations, 256, max(1, _BLOCK_FLOATS // (n * p_dim)))
    tiled = np.tile(whitened.T, (1, block))
    # Permutation b fills flat slots b * n onwards with its segment ids plus b * n_seg.
    b = np.arange(block)[:, None]
    labels = (segment + n_seg * b).ravel()
    exceed = 0
    remaining = permutations
    while remaining > 0:
        if stop is not None and stop((1 + exceed) / (permutations + 1)):
            break
        block = min(remaining, block)
        shuffles = np.argsort(rng.random((block, n)), axis=1)
        ids = np.empty(block * n, dtype=shuffles.dtype)
        ids[(shuffles + n * b[:block]).ravel()] = labels[: block * n]
        sums = np.empty((p_dim, block * n_seg))
        for k, column in enumerate(tiled):
            sums[k] = np.bincount(ids, column[: ids.size], block * n_seg)
        sums = sums.reshape(p_dim, block, n_seg)
        sums = np.cumsum(sums, axis=-1, out=sums)[..., :-1]
        fast = np.max(np.einsum("pbc,pbc->bc", sums, sums) * weights, axis=-1)
        hits = fast >= statistic
        near = np.abs(fast - statistic) <= band
        if near.any():
            exact = _sup_lm(scores[shuffles[near, :last]], cut_sizes, info_inv, weights)
            hits[near] = exact >= statistic
        exceed += int(np.sum(hits))
        remaining -= block
    return statistic, (1 + exceed) / (permutations + 1)


def best_split(
    records: Sequence[PreferenceRecord],
    covariate: str,
    kind: CovariateKind | None = None,
    treatments: Sequence[str] | None = None,
    *,
    min_node_size: int = PartitionConfig.min_node_size,
):
    """Best binary split of the records along one covariate.

    Continuous: candidate cutpoints are the midpoints between consecutive
    distinct observed values; categorical: all binary partitions of the
    observed levels, of which there may be at most ``MAX_SPLIT_LEVELS``
    (more raise a ``DataError`` before any fit). A candidate is admissible
    when both sides meet ``min_node_size`` and each side, tallied over all
    of ``treatments``, passes the checks of :func:`fit_davidson` and
    converges. The winner maximizes the summed maximized log-likelihood of
    the two sides; exact ties go to the more balanced split, then to the
    smaller cutpoint (or the lexicographically smallest level subset).

    The candidates are fitted together: the sides of every candidate whose
    two sides pass the checks are maximized in one batched Newton solve, in
    chunks whose solver workspace holds at most 2^20 floats. The finalists,
    whose batched total lies within 1e-9 (relative above 1) of the best,
    are re-solved one side at a time by the same solver, which then gives
    the ``loglik`` of :func:`fit_davidson` bit for bit, and the winner is
    chosen on those values.

    Returns ``(rule, partitioned_loglik)`` where ``rule`` is the cutpoint
    (left side: values <= rule) or the tuple of left-side levels.
    """
    columns = _Preferences.of(records, treatments, (covariate,))
    kind, values = _read_covariate(columns.covariates[covariate], covariate, kind)
    _prepare(covariate, kind, values, 0.0)  # a constant covariate fails before the codes' checks
    return _best_split(covariate, kind, values, *columns.coded(), columns.treatments, min_node_size)


def _best_split(covariate, kind, values, pairs, codes, treatments, min_node_size):
    """:func:`best_split` of records coded as ``(pairs, codes)`` over ``treatments``."""
    if isinstance(kind, Categorical) and (levels := _distinct(values).size) > MAX_SPLIT_LEVELS:
        raise DataError(
            f"covariate {covariate!r} has {levels} levels; the split search "
            f"takes at most {MAX_SPLIT_LEVELS}"
        )
    rules, totals = _split_logliks(kind, values, pairs, codes, treatments, min_node_size)
    best = np.max(totals, initial=-np.inf, where=~np.isnan(totals))
    i, j = pairs.T
    candidates = []
    for c in np.flatnonzero(totals >= best - 1e-9 * max(1.0, abs(best))).tolist():
        left = _goes_left(rules[c], values)
        sides = (_counts(codes[s], len(pairs)).astype(float) for s in (left, ~left))
        loglik = sum(float(_max_logliks(treatments, i, j, side)[0]) for side in sides)
        if math.isnan(loglik):
            continue  # a side hit the iteration cap
        imbalance = abs(len(codes) - 2 * int(left.sum()))
        candidates.append(((-loglik, imbalance, rules[c]), loglik))
    if not candidates:
        raise ModelError(
            f"no admissible split on covariate {covariate!r}: every candidate "
            "leaves a side too small or unfittable"
        )
    (_, _, rule), loglik = min(candidates, key=lambda c: c[0])
    return rule, loglik


def _split_logliks(kind, values, pairs, codes, treatments, min_node_size):
    """The candidate rules, in order, and the batched summed maximized
    log-likelihood of the two sides of each; nan where inadmissible."""
    levels, group = np.unique(values, return_inverse=True)
    n_pairs, n = len(pairs), len(treatments)
    chunk = max(1, _BATCH_FLOATS // (9 * n_pairs + (n + 1) ** 2))
    if isinstance(kind, Continuous):
        # Midpoints between consecutive distinct values; left sides grow.
        rules = ((levels[:-1] + levels[1:]) / 2.0).tolist()
        order = np.argsort(group, kind="stable")
        lefts = _running_counts(codes[order], n_pairs, group[order], levels.size, chunk)
    else:
        # The level subsets that hold the first level and leave one out.
        anchor, *others = levels.tolist()
        rules = [
            (anchor, *(lvl for bit, lvl in enumerate(others) if mask >> bit & 1))
            for mask in range(2 ** len(others) - 1)
        ]
        members = np.array([_goes_left(rule, levels) for rule in rules], dtype=float)
        by_level = _counts(codes, n_pairs, group, levels.size).reshape(levels.size, -1)
        lefts = (
            (members[a : a + chunk] @ by_level).reshape(-1, n_pairs, 3)
            for a in range(0, len(rules), chunk)
        )
    i, j = pairs.T
    total, totals = _counts(codes, n_pairs), []
    for left in lefts:
        right, n_left = total - left, left.sum(axis=(1, 2))
        ok = np.minimum(n_left, len(codes) - n_left) >= min_node_size
        ok[ok] = _fittable(n, i, j, left[ok]) & _fittable(n, i, j, right[ok])
        logliks = np.full(len(left), np.nan)
        logliks[ok] = _max_logliks(treatments, i, j, left[ok]) + _max_logliks(
            treatments, i, j, right[ok]
        )
        totals.append(logliks)
    return rules, np.concatenate(totals)


def grow_tree(
    records: Iterable[PreferenceRecord],
    covariate_schema: CovariateSchema,
    config: PartitionConfig | None = None,
) -> PartitionNode:
    """Grow a partition tree: fit, test every covariate, split, recurse.

    At each node the stability test runs for every non-constant covariate in
    the schema, p-values are Bonferroni-adjusted across the covariates
    tested, and the node splits on the smallest adjusted p-value below
    ``config.alpha`` via :func:`best_split`. Every covariate is checked
    before any permutation runs, so the number of tests is known, and a
    continuous test stops drawing permutations once its adjusted p-value
    cannot fall below ``config.alpha``. This is exact: only the winning
    test is kept, and a stopped test can neither win nor make the node
    split, so the tree is the one that running every permutation gives.
    Guards (minimum node size, maximum depth, unfittable children) produce
    a leaf rather than an error.
    Records missing a value for any schema covariate are excluded up front
    with a warning, so the leaves always partition the retained record set.
    The retained records and their covariate values are coded once per tree;
    each node is an index array into them, and its children split that array.
    Growth is deterministic given the record order and ``config.seed``.
    """
    if config is None:
        config = PartitionConfig()
    records = tuple(records)
    if not records:
        raise DataError("no records to partition")
    columns = _Preferences.of(records, None, covariate_schema)
    # With the study column, an empty schema still gives one row per record.
    kept = [None not in row for row in zip(columns.study, *columns.covariates.values())]
    if not all(kept):
        warnings.warn(
            f"excluded {kept.count(False)} record(s) with missing "
            "covariate values from the partition",
            UserWarning,
            stacklevel=2,
        )
        if not any(kept):
            raise DataError("no records with complete covariate values")
        records = tuple(r for r, keep in zip(records, kept) if keep)
        columns = _Preferences.of(records, None, covariate_schema)
    covariates = [(cov_index, name, *_read_covariate(columns.covariates[name], name, kind))
                  for cov_index, (name, kind) in enumerate(covariate_schema.items())]
    table = (records, columns.treatments, *columns.coded(), covariates)
    return _grow(table, config, np.arange(len(records)), path=())


def _grow(table, config: PartitionConfig, idx: np.ndarray, path: tuple[int, ...]):
    records, treatments, tree_pairs, tree_codes, covariates = table
    pairs, codes = _subset(tree_pairs, tree_codes, idx)
    fit = fit_davidson(_tally(treatments, pairs, codes))
    node_records = tuple(map(records.__getitem__, idx.tolist()))
    node = PartitionNode(records=node_records, fit=fit, split=None, depth=len(path))
    if config.max_depth is not None and len(path) >= config.max_depth:
        return node
    if len(idx) < 2 * config.min_node_size:
        return node

    prepared = []
    for cov_index, name, kind, values in covariates:
        try:
            covariate = _prepare(name, kind, values[idx], config.trim)
        except DataError:
            continue  # constant or untestable here; not a candidate at this node
        prepared.append((cov_index, name, covariate))
    if not prepared:
        return node

    def adjusted(p_value):  # Bonferroni across the covariates tested here
        return min(1.0, p_value * len(prepared))

    # A permutation test's exceedance count only grows. Once its adjusted
    # p-value cannot fall below alpha, it can neither win nor split the node.
    def cannot_split(p_floor):
        return adjusted(p_floor) >= config.alpha

    scores = _node_scores(_record_scores(fit, *pairs[codes // 3].T, codes % 3))
    tests = []
    for cov_index, name, covariate in prepared:
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(*path, cov_index))
        )
        statistic, p_value = _run(covariate, scores, config.permutations, rng, cannot_split)
        tests.append((adjusted(p_value), cov_index, name, statistic, covariate))
    p_value, _, name, statistic, covariate = min(tests, key=lambda t: (t[0], t[1]))
    if p_value >= config.alpha:
        return node

    kind, values = covariate.kind, covariate.values
    try:
        rule, _ = _best_split(name, kind, values, pairs, codes, treatments, config.min_node_size)
    except (DataError, ModelError):
        return node

    left = _goes_left(rule, values)
    children = tuple(
        _grow(table, config, side, (*path, k)) for k, side in enumerate((idx[left], idx[~left]))
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
    abilities = ", ".join(f"{x}={fit.pi[x]:.6g}" for x in _hierarchy(fit))
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
