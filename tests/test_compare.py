"""Tests for league-table metrics: P-scores, threshold-adjusted P-scores, p_BV."""

from __future__ import annotations

import io
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treatrank import (
    DataError,
    LeagueTable,
    p_scores,
    p_scores_civ,
    parse_basic_table,
    parse_covariance_table,
    parse_league_table,
    prob_best,
)
from treatrank import compare, study_data

from oracles import (
    loop_p_scores,
    loop_p_scores_civ,
    one_shot_best_counts,
    quad_prob_best,
    scalar_pair_entry,
)


def _pairwise_three():
    return LeagueTable.from_pairwise(
        {
            ("A", "B"): (0.30, 0.15),
            ("A", "C"): (0.55, 0.20),
            ("B", "C"): (0.25, 0.18),
        }
    )


# ---------------------------------------------------------------- construction


def test_from_pairwise_canonicalizes_reversed_keys():
    lt = LeagueTable.from_pairwise(
        {("B", "A"): (-0.30, 0.15)}, treatments=("A", "B")
    )
    assert lt.estimate("A", "B") == 0.30
    assert lt.estimate("B", "A") == -0.30
    assert lt.se("A", "B") == lt.se("B", "A") == 0.15


def test_from_pairwise_consistent_duplicates_are_merged():
    lt = LeagueTable.from_pairwise(
        {("A", "B"): (0.30, 0.15), ("B", "A"): (-0.30, 0.15)}
    )
    assert lt.estimate("A", "B") == 0.30


def test_from_pairwise_rejects_inconsistent_duplicates():
    with pytest.raises(DataError, match="inconsistent"):
        LeagueTable.from_pairwise({("A", "B"): (0.30, 0.15), ("B", "A"): (0.30, 0.15)})


def test_from_pairwise_rejects_bad_entries():
    with pytest.raises(DataError, match="itself"):
        LeagueTable.from_pairwise({("A", "A"): (0.0, 0.1)})
    with pytest.raises(DataError, match="positive SE"):
        LeagueTable.from_pairwise({("A", "B"): (0.0, 0.0)})
    with pytest.raises(DataError, match="unknown treatment"):
        LeagueTable.from_pairwise({("A", "B"): (0.0, 0.1)}, treatments=("A", "C"))


@pytest.mark.parametrize("pairwise, message", [
    ({("A", "B"): (0.3, 0.1), ("B", "A"): (0.3, 0.1)},
     "pair ('A', 'B') given twice with inconsistent values"),
    ({("B", "A"): (-0.3, 0.1), ("A", "B"): (0.3, 0.2)},
     "pair ('A', 'B') given twice with inconsistent values"),
    ({("A", "B"): (0.3, 0.1), ("A", "Z"): (0.3, 0.1)},
     "pair ('A', 'Z') uses unknown treatment 'Z'"),
    ({("A", "B"): (0.3, 0.1), ("A", "A"): (0.3, 0.1)},
     "pair ('A', 'A') compares a treatment with itself"),
])
def test_a_pairwise_league_table_rejects_the_keys_that_from_pairwise_rejects(pairwise, message):
    for build in (lambda: LeagueTable(treatments=("A", "B"), pairwise=pairwise),
                  lambda: LeagueTable.from_pairwise(pairwise, treatments=("A", "B"))):
        with pytest.raises(DataError) as caught:
            build()
        assert str(caught.value) == message


def test_a_pairwise_league_table_keeps_its_reversed_and_consistently_repeated_keys():
    reversed_only = LeagueTable(treatments=("A", "B"), pairwise={("B", "A"): (-0.3, 0.1)})
    both = LeagueTable(treatments=("A", "B"),
                       pairwise={("B", "A"): (-0.3, 0.1), ("A", "B"): (0.3, 0.1)})
    for lt in (reversed_only, both):
        assert (lt.estimate("A", "B"), lt.estimate("B", "A"), lt.se("A", "B")) == (0.3, -0.3, 0.1)


def test_league_table_requires_exactly_one_form():
    with pytest.raises(DataError, match="exactly one"):
        LeagueTable(treatments=("A", "B"))
    with pytest.raises(DataError, match="exactly one"):
        LeagueTable(
            treatments=("A", "B"),
            pairwise={("A", "B"): (0.0, 0.1)},
            basic={"A": (0.0, 0.1), "B": (0.0, 0.1)},
        )


def test_league_table_covariance_requires_basic_form():
    with pytest.raises(DataError, match="basic form"):
        LeagueTable(
            treatments=("A", "B"),
            pairwise={("A", "B"): (0.0, 0.1)},
            covariance=np.eye(2),
        )
    with pytest.raises(DataError, match="shape"):
        LeagueTable(
            treatments=("A", "B"),
            basic={"A": (0.0, 0.1), "B": (0.0, 0.1)},
            covariance=np.eye(3),
        )


def test_league_table_rejects_bad_direction_and_small_sets():
    with pytest.raises(DataError, match="direction"):
        LeagueTable.from_pairwise({("A", "B"): (0.0, 0.1)}, direction="upwards")
    with pytest.raises(DataError, match="two treatments"):
        LeagueTable(treatments=("A",), basic={"A": (0.0, 0.1)})
    with pytest.raises(DataError, match="repeat"):
        LeagueTable(treatments=("A", "B", "A"), basic={"A": (0.0, 0.1), "B": (0.0, 0.1)})
    with pytest.raises(DataError, match="cover exactly"):
        LeagueTable(treatments=("A", "B"), basic={"A": (0.0, 0.1)})


@pytest.mark.parametrize(
    "build",
    [
        lambda: LeagueTable.from_basic({"A": (0.0, 0.1), "B": (0.0, 1e308)}),
        lambda: LeagueTable.from_basic({"A": (-1e101, 0.1), "B": (0.0, 0.1)}),
        lambda: LeagueTable.from_pairwise({("A", "B"): (1e308, 0.1)}),
        lambda: LeagueTable.from_pairwise({("A", "B"): (0.3, 1e154)}),
        lambda: LeagueTable(treatments=("A", "B"), pairwise={("A", "B"): (math.nan, 0.1)}),
        lambda: LeagueTable.from_basic({"A": (0.0, 0.1), "B": (0.0, 0.1)},
                                       covariance=np.array([[1e308, 0.0], [0.0, 1.0]])),
    ],
)
def test_league_table_rejects_numbers_that_overflow_the_metrics(build):
    with pytest.raises(DataError, match="at most 1e\\+100 in size"):
        build()


def test_a_tiny_se_gives_scores_of_zero_and_one():
    # estimate / se overflows to inf, whose normal probability is exactly 1
    lt = LeagueTable.from_pairwise({("A", "B"): (2.0, 1e-308)})
    assert p_scores(lt) == {"A": 1.0, "B": 0.0}
    assert p_scores_civ(lt, 1.2) == {"A": 1.0, "B": 0.0}


@pytest.mark.parametrize("form, message", [
    ({"basic": {"A": (0.0, 0.1), "B": (0.0, -0.1), "C": (0.0, 0.1)}},
     "treatment 'B' has negative SE -0.1"),
    ({"pairwise": {("A", "B"): (0.3, -0.2), ("A", "C"): (0.1, 0.2), ("B", "C"): (0.1, 0.2)}},
     "pair ('A', 'B') needs a positive SE, got -0.2"),
])
def test_a_league_table_rejects_a_negative_se_before_any_other_check(form, message):
    # The metrics would square it: the scores and the draws of SE -0.1 are those of +0.1.
    for table in ({"treatments": ("A", "B", "C")},
                  {"treatments": ("A",), "direction": "up", "covariance": np.eye(2)}):
        with pytest.raises(DataError) as error:
            LeagueTable(**table, **form)
        assert str(error.value) == message


def test_pair_entry_errors():
    lt = _pairwise_three()
    with pytest.raises(DataError, match="unknown"):
        lt.estimate("A", "Z")
    with pytest.raises(DataError, match="distinct"):
        lt.estimate("A", "A")
    sparse = LeagueTable.from_pairwise(
        {("A", "B"): (0.1, 0.1), ("B", "C"): (0.1, 0.1)}
    )
    with pytest.raises(DataError, match="missing the pair"):
        sparse.estimate("A", "C")


def test_basic_form_contrasts_use_the_covariance():
    cov = np.array([[0.04, 0.01], [0.01, 0.09]])
    lt = LeagueTable.from_basic({"A": (0.5, 0.2), "B": (0.1, 0.3)}, covariance=cov)
    assert lt.estimate("A", "B") == pytest.approx(0.4)
    assert lt.se("A", "B") == pytest.approx(math.sqrt(0.04 + 0.09 - 0.02))


def test_basic_form_without_covariance_assumes_independence():
    lt = LeagueTable.from_basic({"A": (0.5, 0.2), "B": (0.1, 0.3)})
    assert lt.se("A", "B") == pytest.approx(math.sqrt(0.04 + 0.09))


# ---------------------------------------------------------------- P-scores


def test_p_scores_two_treatment_quantile():
    lt = LeagueTable.from_pairwise({("A", "B"): (0.196, 0.1)})
    scores = p_scores(lt)
    assert scores["A"] == pytest.approx(0.9750021048517795, abs=1e-6)
    assert scores["B"] == pytest.approx(0.0249978951482205, abs=1e-6)
    assert (scores["A"] + scores["B"]) / 2 == 0.5


def test_p_scores_all_null_effects():
    lt = LeagueTable.from_pairwise(
        {("A", "B"): (0.0, 0.1), ("A", "C"): (0.0, 0.2), ("B", "C"): (0.0, 0.3)}
    )
    assert all(score == 0.5 for score in p_scores(lt).values())


def test_p_scores_mean_is_half_and_scores_are_probabilities():
    rng = np.random.default_rng(13)
    labels = tuple(f"T{k}" for k in range(6))
    for _ in range(25):
        entries = {}
        for i, x in enumerate(labels):
            for y in labels[i + 1 :]:
                entries[(x, y)] = (float(rng.normal()), float(rng.uniform(0.05, 0.5)))
        scores = p_scores(LeagueTable.from_pairwise(entries, treatments=labels))
        assert all(0.0 <= score <= 1.0 for score in scores.values())
        assert abs(math.fsum(scores.values()) / len(labels) - 0.5) < 1e-12


def test_p_scores_direction_reversal_complements_scores():
    entries = {("A", "B"): (0.3, 0.1), ("A", "C"): (0.5, 0.2), ("B", "C"): (0.2, 0.3)}
    up = p_scores(LeagueTable.from_pairwise(entries, direction="beneficial"))
    down = p_scores(LeagueTable.from_pairwise(entries, direction="harmful"))
    for x in up:
        assert down[x] == pytest.approx(1.0 - up[x], abs=1e-12)


def test_p_scores_on_basic_form_warns_about_independence():
    lt = LeagueTable.from_basic({"A": (0.3, 0.1), "B": (0.0, 0.1), "C": (-0.2, 0.2)})
    with pytest.warns(UserWarning, match="independent"):
        scores = p_scores(lt)
    assert scores["A"] > scores["B"] > scores["C"]


def test_p_scores_rejects_zero_se_contrasts():
    lt = LeagueTable.from_basic({"A": (0.3, 0.0), "B": (0.0, 0.0)})
    with pytest.warns(UserWarning, match="independent"):
        with pytest.raises(DataError, match="positive SE"):
            p_scores(lt)


# ---------------------------------------------------------------- CIV-adjusted


def test_p_scores_civ_estimate_on_the_threshold():
    lt = LeagueTable.from_pairwise({("A", "B"): (math.log(1.20), 0.1)})
    assert p_scores_civ(lt, 1.20)["A"] == pytest.approx(0.5, abs=1e-12)


def test_p_scores_civ_worked_value():
    lt = LeagueTable.from_pairwise({("A", "B"): (0.40, 0.10)})
    assert p_scores_civ(lt, 1.20)["A"] == pytest.approx(0.9852, abs=1e-4)


def test_p_scores_civ_approaches_p_scores_for_small_mcid():
    lt = _pairwise_three()
    plain = p_scores(lt)
    adjusted = p_scores_civ(lt, 1.0 + 1e-9)
    for x in plain:
        assert adjusted[x] == pytest.approx(plain[x], abs=1e-6)


def test_p_scores_civ_mean_never_exceeds_half():
    rng = np.random.default_rng(29)
    labels = ("A", "B", "C", "D")
    for _ in range(20):
        entries = {}
        for i, x in enumerate(labels):
            for y in labels[i + 1 :]:
                entries[(x, y)] = (float(rng.normal()), float(rng.uniform(0.05, 0.5)))
        scores = p_scores_civ(LeagueTable.from_pairwise(entries), 1.25)
        assert math.fsum(scores.values()) / len(labels) <= 0.5 + 1e-12


def test_p_scores_civ_rejects_degenerate_mcid():
    with pytest.raises(DataError, match="mcid"):
        p_scores_civ(_pairwise_three(), 1.0)


# ---------------------------------------------------------------- against the per-pair loops


_LABELS = ("A", "B", "C", "D", "E")
_ESTIMATES = st.one_of(st.sampled_from([0.0, -0.0, 0.25, -1.5]), st.floats(-4.0, 4.0))


@st.composite
def _se(draw, low=1e-3):
    if draw(st.integers(0, 29)) == 0:
        return draw(st.sampled_from([0.0, -0.0]))
    return draw(st.floats(low, 2.0))


@st.composite
def _league_tables(draw):
    """Pairwise tables (keys in either order or now and then both, a pair now and then
    missing or with a zero SE) and basic tables with or without a covariance, which may
    give one pair a variance of exactly 0, one that rounds negative, or -0.0."""
    n = draw(st.integers(2, len(_LABELS)))
    labels = _LABELS[:n]
    direction = draw(st.sampled_from(["beneficial", "harmful"]))
    form = draw(st.sampled_from(["pairwise", "basic", "covariance"]))
    if form == "pairwise":
        pairwise = {}
        for a in range(n):
            for b in range(a + 1, n):
                if draw(st.integers(0, 19)) == 0:
                    continue
                estimate, se = draw(_ESTIMATES), draw(_se())
                if draw(st.integers(0, 4)) == 0:  # both key orders, equal only within tolerance
                    pairwise[(labels[b], labels[a])] = (-estimate - 1e-13, se + 1e-13)
                    pairwise[(labels[a], labels[b])] = (estimate, se)
                elif draw(st.booleans()):
                    pairwise[(labels[b], labels[a])] = (-estimate, se)
                else:
                    pairwise[(labels[a], labels[b])] = (estimate, se)
        return LeagueTable(treatments=labels, direction=direction, pairwise=pairwise)
    estimates = {x: (draw(_ESTIMATES), abs(draw(_se(low=0.0)))) for x in labels}
    covariance = None
    if form == "covariance":
        cells = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))
        root = np.array(cells).reshape(n, n)
        covariance = root @ root.T + 0.01 * np.eye(n)
        a, b = draw(st.sampled_from([(a, b) for a in range(n) for b in range(a + 1, n)]))
        edge = draw(st.sampled_from([None, None, "zero", "negative", "minus zero"]))
        if edge is not None:
            diagonal, off = {
                "zero": (covariance[a, a], covariance[a, a]),
                "negative": (1.0, 1.0 + 2.0**-52),
                "minus zero": (-0.0, 0.0),
            }[edge]
            covariance[a, a] = covariance[b, b] = diagonal
            covariance[a, b] = covariance[b, a] = off
    return LeagueTable.from_basic(estimates, covariance=covariance, direction=direction)


def _outcome(fn, *args):
    """The scores as exact bits in treatment order, or the first error's message."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return [(x, v.hex()) for x, v in fn(*args).items()]
        except DataError as error:
            return str(error)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_league_tables(), st.floats(1.0, 3.0, exclude_min=True))
def test_p_scores_match_the_per_pair_loops_bit_for_bit(lt, mcid):
    assert _outcome(p_scores, lt) == _outcome(loop_p_scores, lt)
    assert _outcome(p_scores_civ, lt, mcid) == _outcome(loop_p_scores_civ, lt, mcid)


def test_p_scores_of_a_complete_pairwise_table_look_up_no_pair(monkeypatch):
    # The metrics read the table's pair-contrast model, not one pair at a time.
    calls = []
    lookup = compare._pair_entry
    monkeypatch.setattr(compare, "_pair_entry",
                        lambda *args: calls.append(args) or lookup(*args))
    lt = _pairwise_three()
    p_scores(lt)
    p_scores_civ(lt, 1.2)
    assert calls == []


# Cells whose contrast variances come out exactly 0, -0.0 or rounded below 0.
_CELLS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1.0 + 2.0**-52, 0.1, 0.2, 0.3]),
                   st.floats(-1.0, 1.0))


@st.composite
def _basic_tables(draw):
    """Basic tables whose SEs may be -0.0, square into subnormals or be huge, with
    or without a symmetric covariance of _CELLS."""
    n = draw(st.integers(2, len(_LABELS)))
    ses = st.one_of(st.sampled_from([0.0, -0.0, 1e-160, 1e100]), st.floats(0.0, 2.0))
    estimates = {x: (draw(st.one_of(_ESTIMATES, st.just(-1e100))), draw(ses))
                 for x in _LABELS[:n]}
    covariance = None
    if draw(st.booleans()):
        covariance = np.zeros((n, n))
        for a in range(n):
            for b in range(a, n):
                covariance[a, b] = covariance[b, a] = draw(_CELLS)
    return LeagueTable(treatments=_LABELS[:n], basic=estimates, covariance=covariance)


def _entry(lookup, lt, x, y):
    """The exact repr of a pair's estimate and SE, or the error."""
    try:
        return repr(lookup(lt, x, y))
    except DataError as error:
        return str(error)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(_basic_tables(), _league_tables()))
def test_estimate_and_se_match_the_scalar_arithmetic_bit_for_bit(lt):
    def public(lt, x, y):
        return lt.estimate(x, y), lt.se(x, y)
    pairs = [(x, y) for x in lt.treatments for y in lt.treatments if x != y]
    assert ([_entry(public, lt, x, y) for x, y in pairs]
            == [_entry(scalar_pair_entry, lt, x, y) for x, y in pairs])


def _basic_three(cov_ab, var_a=1.0, var_b=1.0):
    cov = np.eye(3)
    cov[0, 0], cov[1, 1] = var_a, var_b
    cov[0, 1] = cov[1, 0] = cov_ab
    return LeagueTable.from_basic(
        {"A": (0.1, 0.1), "B": (0.2, 0.1), "C": (0.3, 0.1)}, covariance=cov
    )


@pytest.mark.parametrize(
    "lt, message",
    [
        (LeagueTable(treatments=("A", "B", "C"),
                     pairwise={("A", "B"): (0.1, 0.2), ("C", "B"): (0.3, 0.2)}),
         "league table is missing the pair ('A', 'C')"),
        (LeagueTable(treatments=("A", "B", "C"),
                     pairwise={("A", "B"): (0.1, 0), ("C", "B"): (0.3, 0.2)}),
         "pair ('A', 'B') needs a positive SE, got 0"),
        (_basic_three(0.25, 0.25, 0.25), "pair ('A', 'B') needs a positive SE, got 0.0"),
        (_basic_three(1.0 + 2.0**-52), "pair ('A', 'B') needs a positive SE, got 0.0"),
        (_basic_three(0.0, -0.0, -0.0), "pair ('A', 'B') needs a positive SE, got -0.0"),
        (LeagueTable.from_basic({"A": (0.1, 0.1), "B": (0.2, -0.0), "C": (0.3, 0.0)}),
         "pair ('B', 'C') needs a positive SE, got 0.0"),
        # (A, D) comes before (B, C) in row-major order, after it column by column
        (LeagueTable(treatments=tuple("ABCD"),
                     pairwise={tuple(p): (0.1, 0.2) for p in ("AB", "AC", "BD", "CD")}),
         "league table is missing the pair ('A', 'D')"),
        (LeagueTable.from_basic({x: (0.1, 1.0) for x in "ABCD"},
                                covariance=np.eye(4) + np.fliplr(np.eye(4))),
         "pair ('A', 'D') needs a positive SE, got 0.0"),
    ],
)
def test_p_scores_raise_the_first_error_of_the_per_pair_loops(lt, message):
    assert _outcome(p_scores, lt) == _outcome(loop_p_scores, lt) == message
    assert _outcome(p_scores_civ, lt, 1.2) == _outcome(loop_p_scores_civ, lt, 1.2) == message


def test_p_scores_warn_once_per_call_at_the_caller():
    lt = LeagueTable.from_basic({"A": (0.3, 0.1), "B": (0.0, 0.1), "C": (-0.2, 0.2)})
    for score in (p_scores, lambda table: p_scores_civ(table, 1.2)):
        with pytest.warns(UserWarning, match="independent") as record:
            score(lt)
        assert [w.filename for w in record] == [__file__]


# ---------------------------------------------------------------- prob_best


def test_prob_best_symmetric_pair():
    lt = LeagueTable.from_basic({"A": (0.2, 0.1), "B": (0.2, 0.1)}, covariance=np.eye(2) * 0.01)
    result = prob_best(lt, nsim=20_000, seed=1)
    margin = 2.0 * math.sqrt(0.25 / 20_000)
    assert result["A"] == pytest.approx(0.5, abs=margin)
    assert math.fsum(result.values()) == 1.0


def test_prob_best_degenerate_spread_is_an_indicator():
    lt = LeagueTable.from_basic(
        {"A": (0.1, 0.0), "B": (0.4, 0.0), "C": (0.2, 0.0)}, covariance=np.zeros((3, 3))
    )
    assert prob_best(lt, nsim=1000, seed=0) == {"A": 0.0, "B": 1.0, "C": 0.0}


def test_prob_best_matches_quadrature_oracle():
    means = [0.30, 0.10, -0.05]
    sds = [0.20, 0.15, 0.25]
    lt = LeagueTable.from_basic(
        {x: (m, s) for x, m, s in zip(("A", "B", "C"), means, sds)},
        covariance=np.diag(np.square(sds)),
    )
    expected = quad_prob_best(means, sds, "beneficial")
    result = prob_best(lt, nsim=100_000, seed=3)
    for k, x in enumerate(("A", "B", "C")):
        assert result[x] == pytest.approx(expected[k], abs=0.01)


def test_prob_best_harmful_direction_prefers_small_values():
    means = [0.30, 0.10, -0.05]
    sds = [0.20, 0.15, 0.25]
    lt = LeagueTable.from_basic(
        {x: (m, s) for x, m, s in zip(("A", "B", "C"), means, sds)},
        covariance=np.diag(np.square(sds)),
        direction="harmful",
    )
    expected = quad_prob_best(means, sds, "harmful")
    result = prob_best(lt, nsim=100_000, seed=4)
    for k, x in enumerate(("A", "B", "C")):
        assert result[x] == pytest.approx(expected[k], abs=0.01)
    assert result["C"] == max(result.values())


def test_prob_best_blocks_draw_what_one_sampler_call_draws():
    rng = np.random.default_rng(43)
    labels = ("A", "B", "C", "D", "E")
    root = rng.normal(size=(5, 5))
    full_rank = root @ root.T / 50.0
    singular = full_rank.copy()
    singular[0, :] = singular[:, 0] = 0.0  # a reference fixed at its estimate
    means = rng.normal(0.0, 0.2, 5)
    # Two full blocks of draws for five treatments and a remainder.
    nsim = 2 * (compare._BLOCK_FLOATS // len(labels)) + 123
    for cov in (full_rank, singular):
        for direction, sign in (("beneficial", 1.0), ("harmful", -1.0)):
            lt = LeagueTable.from_basic(
                {x: (m, 0.1) for x, m in zip(labels, means)},
                covariance=cov,
                direction=direction,
            )
            result = prob_best(lt, nsim=nsim, seed=11)
            counts = one_shot_best_counts(means, cov, sign, nsim, 11)
            assert [round(result[x] * nsim) for x in labels] == counts


_EDGE_LABELS = tuple("ABCDEFGH")
_EDGE_ROWS = compare._BLOCK_FLOATS // len(_EDGE_LABELS)  # rows of draws per buffer for this table


@pytest.mark.parametrize("nsim", [1, _EDGE_ROWS - 1, _EDGE_ROWS, _EDGE_ROWS + 1])
def test_prob_best_buffer_edges_draw_what_one_sampler_call_draws(nsim):
    rng = np.random.default_rng(47)
    labels = _EDGE_LABELS
    root = rng.normal(size=(8, 8))
    cov = root @ root.T / 80.0
    means = rng.normal(0.0, 0.2, 8)
    for direction, sign in (("beneficial", 1.0), ("harmful", -1.0)):
        lt = LeagueTable.from_basic(
            {x: (m, 0.1) for x, m in zip(labels, means)}, covariance=cov, direction=direction
        )
        result = prob_best(lt, nsim=nsim, seed=5)
        counts = one_shot_best_counts(means, cov, sign, nsim, 5)
        assert [round(result[x] * nsim) for x in labels] == counts


def test_prob_best_one_row_blocks_draw_what_one_sampler_call_draws(monkeypatch):
    monkeypatch.setattr(compare, "_BLOCK_FLOATS", 1)
    rng = np.random.default_rng(53)
    labels = ("A", "B", "C")
    root = rng.normal(size=(3, 3))
    cov = root @ root.T / 30.0
    means = rng.normal(0.0, 0.2, 3)
    for direction, sign in (("beneficial", 1.0), ("harmful", -1.0)):
        lt = LeagueTable.from_basic(
            {x: (m, 0.1) for x, m in zip(labels, means)}, covariance=cov, direction=direction
        )
        result = prob_best(lt, nsim=301, seed=9)
        counts = one_shot_best_counts(means, cov, sign, 301, 9)
        assert [round(result[x] * 301) for x in labels] == counts


def test_prob_best_memory_is_bounded_in_treatments_and_draws():
    # Whole-run buffers would be 2 x 10 000 x 500 floats (80 MB).
    labels = [f"T{k:03d}" for k in range(500)]
    sds = np.linspace(0.1, 0.3, 500)
    lt = LeagueTable.from_basic(
        {x: (0.001 * k, s) for k, (x, s) in enumerate(zip(labels, sds))},
        covariance=np.diag(np.square(sds)),
    )
    tracemalloc.start()
    try:
        prob_best(lt, nsim=10_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_prob_best_harmful_tie_goes_to_the_first_treatment():
    # B and C are drawn at exactly their common estimate, the smallest every time.
    lt = LeagueTable.from_basic(
        {"A": (0.5, 0.2), "B": (-0.5, 0.0), "C": (-0.5, 0.0)},
        covariance=np.diag([0.04, 0.0, 0.0]),
        direction="harmful",
    )
    result = prob_best(lt, nsim=3000, seed=2)
    assert result == {"A": 0.0, "B": 1.0, "C": 0.0}
    counts = one_shot_best_counts([0.5, -0.5, -0.5], np.diag([0.04, 0.0, 0.0]), -1.0, 3000, 2)
    assert counts == [0, 3000, 0]


def test_prob_best_rejects_a_negative_seed():
    lt = LeagueTable.from_basic({"A": (0.3, 0.2), "B": (0.1, 0.2)}, covariance=np.eye(2) * 0.04)
    with pytest.raises(DataError, match="seed must be non-negative"):
        prob_best(lt, nsim=10, seed=-1)


def test_prob_best_is_deterministic_given_seed():
    lt = LeagueTable.from_basic(
        {"A": (0.3, 0.2), "B": (0.1, 0.2)}, covariance=np.eye(2) * 0.04
    )
    assert prob_best(lt, nsim=5_000, seed=7) == prob_best(lt, nsim=5_000, seed=7)
    assert prob_best(lt, nsim=5_000, seed=7) != prob_best(lt, nsim=5_000, seed=8)


def test_prob_best_sums_to_exactly_one():
    rng = np.random.default_rng(41)
    labels = ("A", "B", "C", "D", "E")
    for seed in range(5):
        lt = LeagueTable.from_basic(
            {x: (float(rng.normal()), float(rng.uniform(0.1, 0.4))) for x in labels},
            covariance=np.diag(rng.uniform(0.01, 0.2, size=5)),
        )
        assert math.fsum(prob_best(lt, nsim=9_999, seed=seed).values()) == 1.0


def test_prob_best_without_covariance_warns():
    lt = LeagueTable.from_basic({"A": (0.3, 0.2), "B": (0.1, 0.2)})
    with pytest.warns(UserWarning, match="independent"):
        result = prob_best(lt, nsim=2_000, seed=0)
    assert result["A"] > result["B"]


def test_prob_best_from_pairwise_derives_reference_contrasts():
    lt = _pairwise_three()
    with pytest.warns(UserWarning, match="derived basic parameters"):
        result = prob_best(lt, nsim=20_000, seed=0)
    assert set(result) == {"A", "B", "C"}
    assert result["A"] == max(result.values())


def test_prob_best_rejects_indefinite_covariance():
    cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    lt = LeagueTable.from_basic({"A": (0.0, 1.0), "B": (0.0, 1.0)}, covariance=cov)
    with pytest.raises(DataError, match="positive semi-definite"):
        prob_best(lt, nsim=100, seed=0)


def test_prob_best_rejects_bad_nsim():
    lt = LeagueTable.from_basic({"A": (0.0, 0.1), "B": (0.0, 0.1)}, covariance=np.eye(2))
    with pytest.raises(DataError, match="nsim"):
        prob_best(lt, nsim=0)


# ---------------------------------------------------------------- parsers


def test_parse_league_table_round_trip():
    text = "treat1,treat2,estimate,se\nA,B,0.30,0.15\nA,C,0.55,0.20\nB,C,0.25,0.18\n"
    lt = parse_league_table(io.StringIO(text))
    assert lt.treatments == ("A", "B", "C")
    assert lt.estimate("A", "C") == 0.55
    assert lt.se("B", "C") == 0.18


def test_parse_league_table_errors():
    with pytest.raises(DataError, match="missing mandatory"):
        parse_league_table(io.StringIO("treat1,treat2,estimate\nA,B,0.3\n"))
    with pytest.raises(DataError, match="more than once"):
        parse_league_table(
            io.StringIO("treat1,treat2,estimate,se\nA,B,0.3,0.1\nB,A,-0.3,0.1\n")
        )
    with pytest.raises(DataError, match="itself"):
        parse_league_table(io.StringIO("treat1,treat2,estimate,se\nA,A,0.3,0.1\n"))
    with pytest.raises(DataError, match="row 2: both treatment labels are required"):
        parse_league_table(io.StringIO("treat1,treat2,estimate,se\nA,,0.3,0.1\n"))
    with pytest.raises(DataError, match="no rows"):
        parse_league_table(io.StringIO("treat1,treat2,estimate,se\n"))
    with pytest.raises(DataError, match="non-numeric"):
        parse_league_table(io.StringIO("treat1,treat2,estimate,se\nA,B,big,0.1\n"))


def test_parse_basic_table_both_estimate_spellings():
    for column in ("estimate_vs_ref", "estimate"):
        text = f"treat,{column},se\nref,0.0,0.0\nA,0.3,0.1\n"
        lt = parse_basic_table(io.StringIO(text))
        assert lt.treatments == ("ref", "A")
        assert lt.basic["A"] == (0.3, 0.1)


def test_parse_basic_table_with_covariance():
    table = "treat,estimate_vs_ref,se\nref,0.0,0.0\nA,0.3,0.1\n"
    cov = ",ref,A\nref,0.0,0.0\nA,0.0,0.01\n"
    lt = parse_basic_table(io.StringIO(table), covariance_source=io.StringIO(cov))
    assert lt.covariance is not None
    assert lt.covariance[1, 1] == 0.01
    assert lt.se("A", "ref") == pytest.approx(0.1)


def test_parse_basic_table_errors():
    with pytest.raises(DataError, match="needs columns"):
        parse_basic_table(io.StringIO("treat,se\nA,0.1\n"))
    with pytest.raises(DataError, match="more than once"):
        parse_basic_table(
            io.StringIO("treat,estimate,se\nA,0.3,0.1\nA,0.4,0.1\n")
        )
    with pytest.raises(DataError, match="row 3: treatment label is required"):
        parse_basic_table(io.StringIO("treat,estimate,se\nA,0.3,0.1\n,0.4,0.1\n"))
    with pytest.raises(DataError, match="no rows"):
        parse_basic_table(io.StringIO("treat,estimate,se\n"))
    with pytest.raises(DataError, match="treatment 'B' has negative SE -0.1"):
        parse_basic_table(io.StringIO("treat,estimate,se\nA,0.3,0.1\nB,0.4,-0.1\n"))


def test_parse_covariance_table_checks():
    good = ",A,B\nA,0.04,0.01\nB,0.01,0.09\n"
    matrix = parse_covariance_table(io.StringIO(good), ("A", "B"))
    assert matrix[0, 1] == 0.01
    # Column order different from treatment order is aligned, not rejected.
    reordered = ",B,A\nB,0.09,0.01\nA,0.01,0.04\n"
    aligned = parse_covariance_table(io.StringIO(reordered), ("A", "B"))
    assert np.allclose(matrix, aligned)
    with pytest.raises(DataError, match="not symmetric"):
        parse_covariance_table(io.StringIO(",A,B\nA,0.04,0.01\nB,0.02,0.09\n"), ("A", "B"))
    with pytest.raises(DataError, match="do not match"):
        parse_covariance_table(io.StringIO(",A,C\nA,0.04,0.0\nC,0.0,0.09\n"), ("A", "B"))
    with pytest.raises(DataError, match="covariance rows do not match"):
        parse_covariance_table(io.StringIO(",A,B\nA,0.04,0.01\nC,0.01,0.09\n"), ("A", "B"))
    with pytest.raises(DataError, match="non-numeric"):
        parse_covariance_table(io.StringIO(",A,B\nA,x,0.01\nB,0.01,0.09\n"), ("A", "B"))
    with pytest.raises(DataError, match="expected 3 cells, got 4"):
        parse_covariance_table(io.StringIO(",A,B\nA,0.04,0.01,0\nB,0.01,0.09\n"), ("A", "B"))


# Five data rows (rows 2 to 6) of each table; a fault replaces one row's cells.
_ROW_ORDER_TABLES = {
    "league": ("treat1,treat2,estimate,se",
               ["A,B,0.1,0.2", "A,C,0.1,0.2", "A,D,0.1,0.2", "B,C,0.1,0.2", "B,D,0.1,0.2"],
               "A,C,x,0.2", "B,A,0.1,0.2",
               ("non-numeric estimate 'x'", "pair ('B', 'A') appears more than once")),
    "basic": ("treat,estimate_vs_ref,se",
              ["A,0.0,0.1", "B,0.1,0.2", "C,0.1,0.2", "D,0.1,0.2", "E,0.1,0.2"],
              "B,0.1,x", "A,0.1,0.2",
              ("non-numeric se 'x'", "treatment 'A' appears more than once")),
    "covariance": (",A,B,C,D,E",
                   [f"{x},{','.join('1.0' if x == y else '0.0' for y in 'ABCDE')}"
                    for x in "ABCDE"],
                   "B,0.0,x,0.0,0.0,0.0", "A,1.0,0.0,0.0,0.0,0.0",
                   ("non-numeric covariance cell 'x'", "treatment 'A' appears more than once")),
}


def _parse(kind: str, text: str):
    if kind == "league":
        return parse_league_table(io.StringIO(text))
    if kind == "basic":
        return parse_basic_table(io.StringIO(text))
    return parse_covariance_table(io.StringIO(text), tuple("ABCDE"))


@pytest.mark.parametrize("kind", sorted(_ROW_ORDER_TABLES))
@pytest.mark.parametrize("bad_row, repeat_row", [(3, 5), (5, 3)])
def test_compare_parsers_raise_the_first_error_in_row_order(kind, bad_row, repeat_row):
    header, rows, bad, repeat, (bad_message, repeat_message) = _ROW_ORDER_TABLES[kind]
    rows = list(rows)
    rows[bad_row - 2], rows[repeat_row - 2] = bad, repeat
    with pytest.raises(DataError) as raised:
        _parse(kind, "\n".join([header, *rows]) + "\n")
    first = min((bad_row, bad_message), (repeat_row, repeat_message))
    assert str(raised.value) == f"row {first[0]}: {first[1]}"


_BAD_COVARIANCE = {"x": "non-numeric covariance cell 'x'", "": "covariance cell is empty",
                   "inf": "non-finite covariance cell 'inf'"}


@pytest.mark.parametrize("rows_per_block", [1, 3, None])
@pytest.mark.parametrize("cell", sorted(_BAD_COVARIANCE))
def test_a_bad_covariance_cell_is_reported_by_its_row_in_any_block(cell, rows_per_block):
    # Bad cells in the first, a middle and the last row and column; with two, the first
    # in row order, then in column order, is the one reported.
    labels = "ABCDE"
    size = study_data._BLOCK_CELLS if rows_per_block is None else rows_per_block * 6
    for faults in [[(r, c)] for r in (0, 2, 4) for c in (0, 2, 4)] + [[(4, 0), (2, 4)],
                                                                     [(2, 4), (2, 0)]]:
        table = [["1.0" if x == y else "0.0" for y in labels] for x in labels]
        for r, c in faults:
            table[r][c] = cell
        text = "".join([f",{','.join(labels)}\n",
                        *(f"{x},{','.join(row)}\n" for x, row in zip(labels, table))])
        with mock.patch.object(study_data, "_BLOCK_CELLS", size):
            with pytest.raises(DataError) as raised:
                parse_covariance_table(io.StringIO(text), tuple(labels))
        assert str(raised.value) == f"row {min(faults)[0] + 2}: {_BAD_COVARIANCE[cell]}", faults
