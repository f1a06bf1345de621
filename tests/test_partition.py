"""Tests for covariate stability testing and recursive partitioning."""

from __future__ import annotations

import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treatrank import (
    Categorical,
    Continuous,
    DataError,
    ModelError,
    PartitionConfig,
    PreferenceRecord,
    Verdict,
    aggregate_tournament,
    best_split,
    fit_davidson,
    format_tree,
    grow_tree,
    partition,
    score_contributions,
    stability_test,
    tree_to_dict,
)

from treatrank.tcc import _code_records

from oracles import (
    loop_scores,
    reference_best_split,
    reference_split_candidates,
    reference_stability_test,
    simulate_records,
)

STEEP = {"A": 8.0, "B": 4.0, "C": 2.0, "D": 1.0}
REVERSED = {"A": 1.0, "B": 2.0, "C": 4.0, "D": 8.0}
FLAT = {"A": 2.0, "B": 1.0, "C": 1.5}


def _null_draw(rng):
    covariates = {
        "age": float(rng.uniform(40, 80)),
        "group": "lo" if rng.random() < 0.5 else "hi",
    }
    return covariates, FLAT


def _planted_group(rng):
    level = "lo" if rng.random() < 0.5 else "hi"
    return {"group": level}, (STEEP if level == "lo" else REVERSED)


def _planted_cut(rng):
    x = float(rng.uniform(0.0, 20.0))
    return {"x": x}, (STEEP if x <= 10.0 else REVERSED)


def _planted_levels(rng):
    level = ("a", "b", "c")[int(rng.integers(3))]
    return {"site": level}, (STEEP if level == "a" else REVERSED)


def _pooled_fit(records):
    return fit_davidson(aggregate_tournament(records, _labels(records)))


def _labels(records):
    seen: dict[str, None] = {}
    for r in records:
        seen.setdefault(r.treat_a)
        seen.setdefault(r.treat_b)
    return tuple(seen)


# ---------------------------------------------------------------- score rows


def test_score_contributions_sum_to_zero_at_the_mle():
    records = simulate_records(np.random.default_rng(31), 120, _null_draw, 1.0)
    fit = _pooled_fit(records)
    rows = score_contributions(records, fit)
    assert rows.shape == (120, len(fit.treatments) - 1 + 1)
    assert np.max(np.abs(rows.sum(axis=0))) < 1e-7


def test_score_contributions_tie_free_fit_has_no_tie_column():
    records = simulate_records(np.random.default_rng(33), 80, _null_draw, 0.0)
    assert all(r.verdict is not Verdict.TIE for r in records)
    with pytest.warns(UserWarning, match="no ties"):
        fit = _pooled_fit(records)
    rows = score_contributions(records, fit)
    assert rows.shape == (80, len(fit.treatments) - 1)
    assert np.max(np.abs(rows.sum(axis=0))) < 1e-7


@pytest.mark.parametrize("seed, nu", [(36, 1.0), (37, 0.2), (38, 0.0)])
def test_score_contributions_match_the_record_loop_reference(seed, nu):
    records = simulate_records(np.random.default_rng(seed), 90, _planted_group, nu)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the nu = 0 case fits the tie-free model
        fit = _pooled_fit(records)
    # The rows hold at any abilities, not only at the estimate.
    shifted = replace(fit, psi={x: v * (1.5 + k) for k, (x, v) in enumerate(fit.psi.items())})
    for at in (fit, shifted):
        np.testing.assert_allclose(
            score_contributions(records, at), loop_scores(records, at), rtol=0, atol=1e-12
        )


def test_score_contributions_reject_foreign_treatment():
    records = simulate_records(np.random.default_rng(35), 60, _null_draw, 1.0)
    fit = _pooled_fit(records)
    alien = PreferenceRecord(study_id="zz", treat_a="A", treat_b="Z", verdict=Verdict.TIE)
    with pytest.raises(DataError, match="outside the fit"):
        score_contributions(list(records) + [alien], fit)


# ---------------------------------------------------------------- stability test


def test_stability_categorical_detects_planted_shift():
    records = simulate_records(np.random.default_rng(101), 200, _planted_group, 1.0)
    statistic, p_value = stability_test(records, "group", _pooled_fit(records))
    assert statistic > 30.0
    assert p_value < 1e-6


def test_stability_categorical_null_is_unremarkable():
    records = simulate_records(np.random.default_rng(55), 200, _null_draw, 1.0)
    statistic, p_value = stability_test(records, "group", _pooled_fit(records))
    assert statistic >= 0.0
    assert p_value > 0.05


def test_stability_continuous_detects_planted_shift():
    records = simulate_records(np.random.default_rng(202), 200, _planted_cut, 1.0)
    statistic, p_value = stability_test(
        records, "x", _pooled_fit(records),
        permutations=199, rng=np.random.default_rng(7),
    )
    assert p_value <= 0.01


def test_stability_continuous_null_is_unremarkable():
    records = simulate_records(np.random.default_rng(60), 200, _null_draw, 1.0)
    statistic, p_value = stability_test(
        records, "age", _pooled_fit(records),
        permutations=199, rng=np.random.default_rng(9),
    )
    assert p_value > 0.05


def test_stability_is_deterministic_given_the_rng():
    records = simulate_records(np.random.default_rng(64), 120, _null_draw, 1.0)
    fit = _pooled_fit(records)
    first = stability_test(records, "age", fit, permutations=99, rng=np.random.default_rng(3))
    second = stability_test(records, "age", fit, permutations=99, rng=np.random.default_rng(3))
    assert first == second


def test_stability_permutation_p_value_has_a_floor():
    records = simulate_records(np.random.default_rng(202), 200, _planted_cut, 1.0)
    _, p_value = stability_test(
        records, "x", _pooled_fit(records),
        permutations=99, rng=np.random.default_rng(5),
    )
    assert p_value >= 1.0 / 100.0


def test_stability_rejects_constant_covariate():
    records = simulate_records(np.random.default_rng(66), 60, _null_draw, 1.0)
    fixed = [
        PreferenceRecord(r.study_id, r.treat_a, r.treat_b, r.verdict, {"k": "same"})
        for r in records
    ]
    with pytest.raises(DataError, match="constant"):
        stability_test(fixed, "k", _pooled_fit(records))


def test_stability_rejects_too_few_records():
    records = simulate_records(np.random.default_rng(67), 30, _null_draw, 1.0)
    with pytest.raises(DataError, match="too few"):
        stability_test(records[:5], "age", _pooled_fit(records))


def test_stability_rejects_missing_covariate_values():
    records = simulate_records(np.random.default_rng(68), 60, _null_draw, 1.0)
    broken = list(records)
    broken[0] = PreferenceRecord(
        "s0", broken[0].treat_a, broken[0].treat_b, broken[0].verdict, {"age": None, "group": "lo"}
    )
    with pytest.raises(DataError, match="missing"):
        stability_test(broken, "age", _pooled_fit(records))


def test_stability_needs_a_cutpoint_inside_the_trim_range():
    records = simulate_records(np.random.default_rng(69), 100, _null_draw, 1.0)
    # All values equal except one extreme record: the only cut falls in the trim.
    skewed = [
        PreferenceRecord(r.study_id, r.treat_a, r.treat_b, r.verdict,
                         {"z": 2.0 if i == 0 else 1.0})
        for i, r in enumerate(records)
    ]
    with pytest.raises(DataError, match="cutpoint"):
        stability_test(skewed, "z", _pooled_fit(records))


def _coarse_cut(rng):
    # x on a grid of 0.5 over [0, 20]: about 40 distinct values, many ties.
    x = float(np.round(rng.uniform(0.0, 20.0) * 2.0) / 2.0)
    return {"x": x}, (STEEP if x <= 10.0 else REVERSED)


@pytest.mark.parametrize("trim", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("permutations", [1, 300, 1000])
def test_stability_matches_the_reference_sup_lm_bit_for_bit(trim, permutations):
    records = simulate_records(np.random.default_rng(71), 240, _coarse_cut, 1.0)
    fit = _pooled_fit(records)
    kwargs = dict(permutations=permutations, trim=trim)
    got = stability_test(records, "x", fit, rng=np.random.default_rng(11), **kwargs)
    want = reference_stability_test(records, "x", fit, rng=np.random.default_rng(11), **kwargs)
    assert got == want


def test_stability_permutation_workspace_is_bounded():
    # 20 treatments give 20 score columns, so a block holds 2^18 // (1500 * 20)
    # = 8 permutations, not 256, and 300 is not a multiple of it.
    abilities = {f"T{k:02d}": 1.2**k for k in range(20)}

    def draw(rng):
        return {"x": float(rng.uniform(0.0, 1.0))}, abilities

    records = simulate_records(np.random.default_rng(73), 1500, draw, 1.0)
    fit = _pooled_fit(records)
    tracemalloc.start()
    try:
        got = stability_test(records, "x", fit, permutations=300, rng=np.random.default_rng(5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want = reference_stability_test(
        records, "x", fit, permutations=300, rng=np.random.default_rng(5)
    )
    assert got == want
    assert peak < 40 * 2**20


@st.composite
def _stability_cases(draw):
    """Records among 2-5 treatments that chain every treatment to the next
    by a win each way and a tie (so the pooled fit exists), plus random
    records on random pairs, with a continuous covariate on 2-12 values,
    often repeated. Such small discrete designs put many permutations at
    the observed statistic, inside the recheck band."""
    n_t = draw(st.integers(2, 5))
    labels = [f"T{k}" for k in range(n_t)]
    n_values = draw(st.integers(2, 12))
    x = st.integers(0, n_values - 1).map(lambda v: 0.25 * v)
    records = [
        PreferenceRecord(f"c{k}{v.value}", labels[k], labels[k + 1], v, {"x": draw(x)})
        for k in range(n_t - 1)
        for v in Verdict
    ]
    verdicts = st.sampled_from(list(Verdict))
    for k in range(draw(st.integers(10, 60))):
        a, b = draw(st.permutations(labels))[:2]
        records.append(PreferenceRecord(f"s{k}", a, b, draw(verdicts), {"x": draw(x)}))
    kwargs = dict(
        trim=draw(st.sampled_from([0.0, 0.1, 0.25])),
        permutations=draw(st.sampled_from([1, 37, 300])),
    )
    return records, kwargs, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_stability_cases())
def test_stability_matches_the_reference_on_generated_records(case):
    records, kwargs, seed = case
    fit = _pooled_fit(records)
    try:
        want = reference_stability_test(
            records, "x", fit, rng=np.random.default_rng(seed), **kwargs
        )
    except DataError as error:  # a constant covariate, or no cut inside the trim
        with pytest.raises(DataError, match=re.escape(str(error))):
            stability_test(records, "x", fit, rng=np.random.default_rng(seed), **kwargs)
        return
    assert stability_test(records, "x", fit, rng=np.random.default_rng(seed), **kwargs) == want


def test_stability_rechecks_permutations_inside_the_band(monkeypatch):
    # Ten records on one pair, wins alternating: every score row is +-1/2, so
    # many permutations tie the observed statistic.
    records = [
        PreferenceRecord(
            f"s{k}", "A", "B", (Verdict.FIRST_WINS, Verdict.SECOND_WINS)[k % 2], {"x": float(k)}
        )
        for k in range(10)
    ]
    with pytest.warns(UserWarning, match="no ties"):
        fit = _pooled_fit(records)
    kwargs = dict(permutations=999, trim=0.0)
    rechecked = []
    sup_lm = partition._sup_lm
    monkeypatch.setattr(
        partition, "_sup_lm", lambda rows, *a: rechecked.append(len(rows)) or sup_lm(rows, *a)
    )
    got = stability_test(records, "x", fit, rng=np.random.default_rng(13), **kwargs)
    assert got == reference_stability_test(
        records, "x", fit, rng=np.random.default_rng(13), **kwargs
    )
    # The first call computes the observed statistic; the rest are rechecks.
    assert len(rechecked) > 1 and sum(rechecked[1:]) > 0


# ---------------------------------------------------------------- best split


def test_best_split_recovers_a_planted_cutpoint():
    records = simulate_records(np.random.default_rng(303), 200, _planted_cut, 1.0)
    rule, partitioned = best_split(records, "x")
    assert abs(rule - 10.0) < 1.0
    pooled = _pooled_fit(records).loglik
    assert partitioned > pooled


def test_best_split_admits_cuts_outside_the_middle_80_percent():
    # Only the sup-LM scan trims; the split search admits any cut that
    # leaves min_node_size records on each side.
    def draw(rng):
        x = float(rng.uniform(0.0, 20.0))
        return {"x": x}, (STEEP if x <= 1.0 else REVERSED)

    records = simulate_records(np.random.default_rng(11), 300, draw, 1.0)
    rule, _ = best_split(records, "x")
    left = sum(r.covariates["x"] <= rule for r in records)
    assert abs(rule - 1.0) < 0.2
    assert 10 <= left < 0.10 * len(records)


def test_best_split_recovers_a_planted_level_subset():
    records = simulate_records(np.random.default_rng(404), 240, _planted_levels, 1.0)
    rule, _ = best_split(records, "site")
    assert rule == ("a",)


def test_best_split_partitioned_loglik_nests_the_pooled_fit():
    records = simulate_records(np.random.default_rng(505), 150, _null_draw, 1.0)
    pooled = _pooled_fit(records).loglik
    for covariate in ("age", "group"):
        _, partitioned = best_split(records, covariate)
        assert partitioned >= pooled - 1e-8


def test_best_split_rejects_constant_covariate():
    records = simulate_records(np.random.default_rng(77), 60, _null_draw, 1.0)
    fixed = [
        PreferenceRecord(r.study_id, r.treat_a, r.treat_b, r.verdict, {"k": 1.0})
        for r in records
    ]
    with pytest.raises(DataError, match="constant"):
        best_split(fixed, "k")


def test_best_split_refuses_too_many_levels_before_any_fit(monkeypatch):
    levels = [f"L{k:02d}" for k in range(partition.MAX_SPLIT_LEVELS + 1)]
    records = [
        replace(r, covariates={"site": levels[k % len(levels)]})
        for k, r in enumerate(simulate_records(np.random.default_rng(79), 120, _null_draw, 1.0))
    ]

    def no_fit(*args):
        raise AssertionError("best_split fitted a candidate")

    monkeypatch.setattr(partition, "fit_davidson", no_fit)
    monkeypatch.setattr(partition, "_max_logliks", no_fit)
    with pytest.raises(DataError, match=f"'site' has {len(levels)} levels"):
        best_split(records, "site")


def test_best_split_fails_when_no_candidate_is_admissible():
    records = simulate_records(np.random.default_rng(78), 30, _null_draw, 1.0)
    with pytest.raises(ModelError, match="no admissible split"):
        best_split(records, "age", min_node_size=20)


_VERDICT_SETS = (
    (Verdict.FIRST_WINS, Verdict.SECOND_WINS, Verdict.TIE),
    (Verdict.FIRST_WINS, Verdict.SECOND_WINS),
    (Verdict.FIRST_WINS, Verdict.TIE),
    (Verdict.TIE,),
)


@st.composite
def _split_cases(draw):
    """Records among 2-6 treatments on a random subset of their pairs, with
    verdicts from one of _VERDICT_SETS (so sides can be tie-free, all ties,
    fail the Ford check or have no finite maximum), and a covariate with up
    to 6 values: repeated numbers, or categorical levels."""
    n_t = draw(st.integers(2, 6))
    labels = tuple(f"T{k}" for k in range(n_t))
    every_pair = [(a, b) for a in range(n_t) for b in range(a + 1, n_t)]
    pairs = draw(st.lists(st.sampled_from(every_pair), min_size=1, unique=True))
    verdicts = draw(st.sampled_from(_VERDICT_SETS))
    categorical = draw(st.booleans())
    n_values = draw(st.integers(2, 6))
    records = []
    for k in range(draw(st.integers(4, 30))):
        a, b = draw(st.sampled_from(pairs))
        if draw(st.booleans()):
            a, b = b, a
        v = draw(st.integers(0, n_values - 1))
        records.append(
            PreferenceRecord(
                f"s{k}", labels[a], labels[b], draw(st.sampled_from(verdicts)),
                {"x": f"L{v}" if categorical else 0.5 * v},
            )
        )
    return records, labels, draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_split_cases())
def test_batched_split_search_matches_the_per_candidate_fits(case):
    records, labels, min_node_size = case
    kwargs = dict(min_node_size=min_node_size)
    try:
        reference = reference_split_candidates(records, "x", None, labels, **kwargs)
    except DataError:  # a constant covariate
        with pytest.raises(DataError):
            best_split(records, "x", None, labels, **kwargs)
        return
    kind, values = partition._read_covariate(records, "x", None)
    pairs, codes = _code_records(records, labels)
    rules, totals = partition._split_logliks(kind, values, pairs, codes, labels, min_node_size)
    batched = {rule: total for rule, total in zip(rules, totals.tolist()) if math.isfinite(total)}
    assert batched.keys() == {rule for (_, _, rule), _ in reference}
    for (_, _, rule), loglik in reference:
        assert abs(batched[rule] - loglik) <= 1e-9 * max(1.0, abs(loglik))
    if reference:
        got = best_split(records, "x", None, labels, **kwargs)
        assert got == reference_best_split(records, "x", None, labels, **kwargs)
    else:
        with pytest.raises(ModelError, match="no admissible split"):
            best_split(records, "x", None, labels, **kwargs)


def test_best_split_refits_only_the_finalists(monkeypatch):
    records = simulate_records(np.random.default_rng(303), 1000, _planted_cut, 1.0)
    reference = reference_split_candidates(records, "x")
    best = max(loglik for _, loglik in reference)
    finalists = sum(loglik >= best - 1e-9 * max(1.0, abs(best)) for _, loglik in reference)
    want = reference_best_split(records, "x")
    tie_free = simulate_records(np.random.default_rng(304), 300, _planted_cut, 0.0)
    want_tie_free = reference_best_split(tie_free, "x")

    def no_fit(t):
        raise AssertionError("best_split called fit_davidson")

    rows = []
    solve = partition._max_logliks
    monkeypatch.setattr(partition, "fit_davidson", no_fit)
    monkeypatch.setattr(
        partition, "_max_logliks", lambda *args: rows.append(len(args[-1])) or solve(*args)
    )
    assert best_split(records, "x") == want
    assert len(reference) > 500
    # Each finalist's two sides are re-solved one at a time.
    assert rows.count(1) == 2 * finalists
    # Sides without ties fit the tie-free model, which warns in fit_davidson.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert best_split(tie_free, "x") == want_tie_free


def test_best_split_workspace_is_bounded_on_a_wide_node():
    # 100 treatments, about 1300 pairs with records and 299 cuts. In chunks
    # whose solver workspace holds at most 2^20 floats (8 MB) the search
    # peaks near 20 MB; every cut at once takes 53 MB.
    abilities = {f"T{k:03d}": 1.02**k for k in range(100)}
    grid = np.arange(300) / 300

    def draw(rng):
        return {"x": float(grid[rng.integers(300)])}, abilities

    records = simulate_records(np.random.default_rng(5), 1500, draw, 1.0)
    tracemalloc.start()
    try:
        rule, _ = best_split(records, "x")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < rule < 1.0
    assert peak < 32 * 2**20


# ---------------------------------------------------------------- tree growth


def test_grow_tree_recovers_a_planted_partition():
    records = simulate_records(np.random.default_rng(505), 240, _planted_group, 1.0)
    schema = {"group": Categorical(levels=("hi", "lo"))}
    tree = grow_tree(records, schema, PartitionConfig(seed=1))
    assert not tree.is_leaf
    assert tree.split.covariate == "group"
    assert tree.split.p_value < 1e-6
    left, right = tree.split.children
    assert left.is_leaf and right.is_leaf
    assert len(left.records) + len(right.records) == len(tree.records)
    # The two leaves carry opposite hierarchies.
    left_order = sorted(left.fit.pi, key=left.fit.pi.get, reverse=True)
    right_order = sorted(right.fit.pi, key=right.fit.pi.get, reverse=True)
    assert left_order == list(reversed(right_order))


def test_grow_tree_prefers_the_shifted_covariate():
    def draw(rng):
        level = "lo" if rng.random() < 0.5 else "hi"
        covariates = {"age": float(rng.uniform(40, 80)), "group": level}
        return covariates, (STEEP if level == "lo" else REVERSED)

    records = simulate_records(np.random.default_rng(606), 240, draw, 1.0)
    schema = {"age": Continuous(), "group": Categorical(levels=("hi", "lo"))}
    tree = grow_tree(records, schema, PartitionConfig(seed=2, permutations=199))
    assert not tree.is_leaf
    assert tree.split.covariate == "group"
    assert all(leaf.depth == 1 for leaf in tree.leaves())


def test_grow_tree_null_data_stays_a_single_leaf():
    records = simulate_records(np.random.default_rng(70), 160, _null_draw, 1.0)
    schema = {"age": Continuous(), "group": Categorical(levels=("hi", "lo"))}
    tree = grow_tree(records, schema, PartitionConfig(seed=0, permutations=199))
    assert tree.is_leaf
    assert tree.leaves() == [tree]


def test_grow_tree_alpha_zero_never_splits():
    records = simulate_records(np.random.default_rng(505), 240, _planted_group, 1.0)
    schema = {"group": Categorical(levels=("hi", "lo"))}
    tree = grow_tree(records, schema, PartitionConfig(alpha=0.0, seed=1))
    assert tree.is_leaf


def test_grow_tree_depth_and_size_guards():
    records = simulate_records(np.random.default_rng(505), 240, _planted_group, 1.0)
    schema = {"group": Categorical(levels=("hi", "lo"))}
    assert grow_tree(records, schema, PartitionConfig(max_depth=0, seed=1)).is_leaf
    assert grow_tree(
        records[:30], schema, PartitionConfig(min_node_size=20, seed=1)
    ).is_leaf


def test_grow_tree_excludes_records_with_missing_covariates():
    records = list(simulate_records(np.random.default_rng(505), 240, _planted_group, 1.0))
    records.append(
        PreferenceRecord("extra", "A", "B", Verdict.TIE, {"group": None})
    )
    schema = {"group": Categorical(levels=("hi", "lo"))}
    with pytest.warns(UserWarning, match="excluded 1 record"):
        tree = grow_tree(records, schema, PartitionConfig(seed=1))
    assert len(tree.records) == 240
    assert sum(len(leaf.records) for leaf in tree.leaves()) == 240


def test_grow_tree_rejects_all_missing():
    records = [PreferenceRecord("s", "A", "B", Verdict.TIE, {"group": None})]
    with pytest.warns(UserWarning, match="excluded"):
        with pytest.raises(DataError, match="complete covariate"):
            grow_tree(records, {"group": Categorical(levels=("hi", "lo"))})


def test_grow_tree_is_deterministic():
    records = simulate_records(np.random.default_rng(606), 200, _null_draw, 1.0)
    schema = {"age": Continuous(), "group": Categorical(levels=("hi", "lo"))}
    config = PartitionConfig(seed=4, permutations=199)
    first = tree_to_dict(grow_tree(records, schema, config))
    second = tree_to_dict(grow_tree(records, schema, config))
    assert first == second


def test_tree_serialization_and_rendering():
    records = simulate_records(np.random.default_rng(505), 240, _planted_group, 1.0)
    schema = {"group": Categorical(levels=("hi", "lo"))}
    tree = grow_tree(records, schema, PartitionConfig(seed=1))
    doc = tree_to_dict(tree)
    assert doc["n_records"] == 240
    assert doc["split"]["covariate"] == "group"
    assert doc["split"]["kind"] == "categorical"
    assert set(doc["split"]["left"]) == set(doc)  # children share the node shape
    assert abs(sum(doc["abilities"].values()) - 1.0) < 1e-10
    text = format_tree(tree)
    assert "split on group" in text
    assert text.endswith("\n")
    assert format_tree(tree) == text


def test_partition_config_validation():
    with pytest.raises(DataError, match="alpha"):
        PartitionConfig(alpha=1.5)
    with pytest.raises(DataError, match="min_node_size"):
        PartitionConfig(min_node_size=1)
    with pytest.raises(DataError, match="permutations"):
        PartitionConfig(permutations=0)
    with pytest.raises(DataError, match="trim"):
        PartitionConfig(trim=0.5)
    with pytest.raises(DataError, match="seed must be non-negative"):
        PartitionConfig(seed=-1)
    with pytest.raises(DataError, match="max_depth must be non-negative"):
        PartitionConfig(max_depth=-1)


def test_numeric_looking_string_levels_stay_categorical():
    # Parsed records keep a categorical column's levels as strings; kind=None
    # must not read "1" and "2" as numbers.
    records = [
        replace(r, covariates={"group": "1" if r.covariates["group"] == "lo" else "2"})
        for r in simulate_records(np.random.default_rng(506), 240, _planted_group, 1.0)
    ]
    fit = _pooled_fit(records)
    declared = Categorical(levels=("1", "2"))
    statistic, p_value = stability_test(records, "group", fit)
    assert (statistic, p_value) == stability_test(records, "group", fit, declared)
    assert p_value < 0.05
    rule, loglik = best_split(records, "group")
    assert rule == ("1",)
    assert (rule, loglik) == best_split(records, "group", declared)
