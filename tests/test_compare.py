"""Tests for league-table metrics: P-scores, threshold-adjusted P-scores, p_BV."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

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

from oracles import quad_prob_best


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
    with pytest.raises(DataError, match="non-numeric"):
        parse_covariance_table(io.StringIO(",A,B\nA,x,0.01\nB,0.01,0.09\n"), ("A", "B"))
    with pytest.raises(DataError, match="expected 3 cells, got 4"):
        parse_covariance_table(io.StringIO(",A,B\nA,0.04,0.01,0\nB,0.01,0.09\n"), ("A", "B"))
