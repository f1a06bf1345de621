"""Acceptance suite: ten go/no-go checks on the whole package.

Each test covers one numbered criterion and reports a single PASS/FAIL line
through the ``acceptance`` fixture (echoed immediately and repeated in the
terminal summary). Tolerances and runtime budgets are pinned in the asserts.
The statistical checks run on seeds that were probed once and then frozen;
they are deterministic across runs of this suite.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from treatrank import (
    AbilityFit,
    Categorical,
    Continuous,
    FordConditionError,
    LeagueTable,
    OnlyTiesError,
    PairCounts,
    PartitionConfig,
    Tournament,
    Verdict,
    build_roe,
    check_ford,
    fit_davidson,
    grow_tree,
    normalized_abilities,
    p_scores,
    p_scores_civ,
    pairwise_probabilities,
    prob_best,
    tcc_decision,
    win_tie_probabilities,
)
from treatrank.cli import main as cli_main
from treatrank.davidson import DavidsonObjective
from treatrank.tcc import StudyEffect

from oracles import (
    fd_gradient,
    grid_search_mle,
    random_tournament,
    separable_grid_search_mle,
    simulate_records,
)

FIXTURES = Path(__file__).parent / "fixtures"

# Normalized abilities (two decimals) from a published 18-treatment ranking,
# used as an external consistency anchor: rounding aside, they must sum to 1.
REPORTED_PI = (
    0.05, 0.18, 0.21, 0.10, 0.05, 0.05, 0.05, 0.07, 0.02,
    0.03, 0.05, 0.03, 0.04, 0.02, 0.01, 0.02, 0.01, 0.01,
)


def _reported_fit() -> AbilityFit:
    """A minimal fit carrying published abilities for the two front-runners.

    Only ``psi`` and ``nu`` feed pairwise probabilities; the remaining fields
    are inert scaffolding.
    """
    psi = {"front_runner": 0.21, "runner_up": 0.18}
    total = 0.21 + 0.18
    return AbilityFit(
        treatments=tuple(psi),
        psi=psi,
        nu=10.31,
        log_params=np.array([math.log(0.18 / 0.21), math.log(10.31)]),
        param_names=("log_ability[runner_up]", "log_nu"),
        covariance=np.zeros((2, 2)),
        se_log_ability={k: 0.0 for k in psi},
        pi={k: v / total for k, v in psi.items()},
        loglik=0.0,
        converged=True,
        iterations=0,
    )


def test_criterion_01_tie_probability_spot_check(acceptance):
    with acceptance(1, "tie probability between the two top-ranked treatments") as note:
        fit = _reported_fit()
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            _, _, p_tie = pairwise_probabilities(fit, "front_runner", "runner_up")
            best = min(best, time.perf_counter() - t0)
        assert 0.82 <= p_tie <= 0.88
        assert best < 1e-3
        note["detail"] = f"p_tie = {p_tie:.4f} in [0.82, 0.88], {best * 1e6:.0f} us"


def test_criterion_02_normalized_abilities_sum_to_one(acceptance):
    with acceptance(2, "normalized abilities sum to one") as note:
        reported_sum = math.fsum(REPORTED_PI)
        assert reported_sum == pytest.approx(1.0, abs=0.005)
        rng = np.random.default_rng(222)
        checked = 0
        worst = 0.0
        while checked < 25:
            t = random_tournament(rng, int(rng.integers(3, 7)))
            ties = sum(c.ties for c in t.counts.values())
            wins = sum(c.wins_first + c.wins_second for c in t.counts.values())
            if ties == 0 or wins == 0 or check_ford(t) is not None:
                continue
            entries = normalized_abilities(fit_davidson(t))
            gap = abs(math.fsum(e.estimate for e in entries.values()) - 1.0)
            worst = max(worst, gap)
            checked += 1
        assert worst < 1e-10
        note["detail"] = (
            f"published column sums to {reported_sum:.2f}; "
            f"worst |sum - 1| = {worst:.1e} over {checked} fits"
        )


def _criterion_03_tournaments():
    """Criterion 3's random tournaments, with their fits, in order."""
    rng = np.random.default_rng(20260815)
    while True:
        t = random_tournament(rng, int(rng.integers(3, 7)))
        ties = sum(c.ties for c in t.counts.values())
        wins = sum(c.wins_first + c.wins_second for c in t.counts.values())
        if ties == 0 or wins == 0 or check_ford(t) is not None:
            continue
        fit = fit_davidson(t)
        if np.max(np.abs(fit.log_params)) >= 4.0:
            # keep the optimum well inside the oracle's [-5, 5] lattice box
            continue
        yield t, fit


def test_criterion_03_oracle_equivalence(acceptance):
    with acceptance(3, "fit matches a grid-search oracle on 1000 tournaments") as note:
        t0 = time.perf_counter()
        worst = 0.0
        for t, fit in itertools.islice(_criterion_03_tournaments(), 1000):
            oracle = separable_grid_search_mle(t)
            worst = max(worst, float(np.max(np.abs(fit.log_params - oracle))))
        elapsed = time.perf_counter() - t0
        assert worst < 5e-3
        assert elapsed < 300.0
        note["detail"] = f"worst per-parameter gap {worst:.1e}, {elapsed:.0f}s"


def test_separable_lattice_search_finds_the_full_lattice_centre():
    for t, _ in itertools.islice(_criterion_03_tournaments(), 40):
        assert np.array_equal(separable_grid_search_mle(t), grid_search_mle(t))


def test_criterion_04_analytic_gradient_matches_finite_differences(acceptance):
    with acceptance(4, "analytic gradient vs central differences") as note:
        t0 = time.perf_counter()
        rng = np.random.default_rng(417)
        checked = 0
        worst = 0.0
        while checked < 50:
            t = random_tournament(rng, int(rng.integers(3, 7)))
            ties = sum(c.ties for c in t.counts.values())
            wins = sum(c.wins_first + c.wins_second for c in t.counts.values())
            if ties == 0 or wins == 0:
                continue
            obj = DavidsonObjective(t)
            theta = rng.uniform(-2.0, 2.0, size=len(t.treatments))
            analytic = obj.gradient(theta)
            numeric = fd_gradient(obj.value, theta)
            scale = np.maximum(np.abs(numeric), 1.0)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / scale)))
            checked += 1
        elapsed = time.perf_counter() - t0
        assert worst < 1e-5
        assert elapsed < 1.0
        note["detail"] = f"worst relative error {worst:.1e} at 50 points, {elapsed:.2f}s"


def test_criterion_05_probabilities_normalize_and_ignore_scale(acceptance):
    with acceptance(5, "contest probabilities normalize and are scale-free") as note:
        rng = np.random.default_rng(555)
        worst_sum = 0.0
        worst_scale = 0.0
        for _ in range(10_000):
            psi_x, psi_y = np.exp(rng.uniform(-3.0, 3.0, size=2))
            nu = rng.uniform(0.05, 20.0)
            probs = win_tie_probabilities(psi_x, psi_y, nu)
            worst_sum = max(worst_sum, abs(math.fsum(probs) - 1.0))
            c = math.exp(rng.uniform(-2.0, 2.0))
            scaled = win_tie_probabilities(c * psi_x, c * psi_y, nu)
            worst_scale = max(worst_scale, max(abs(a - b) for a, b in zip(probs, scaled)))
        assert worst_sum < 1e-12
        assert worst_scale < 1e-12
        note["detail"] = (
            f"worst |sum - 1| = {worst_sum:.1e}, "
            f"worst rescaling drift = {worst_scale:.1e} over 10000 draws"
        )


def _all_ties_tournament(rng) -> Tournament:
    labels = tuple(f"T{k + 1}" for k in range(int(rng.integers(3, 7))))
    counts = {}
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            counts[(labels[a], labels[b])] = PairCounts(0, 0, int(rng.integers(1, 6)))
    return Tournament(treatments=labels, counts=counts)


def _hierarchy_tournament(rng) -> Tournament:
    labels = tuple(f"T{k + 1}" for k in range(int(rng.integers(3, 7))))
    counts = {}
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            counts[(labels[a], labels[b])] = PairCounts(int(rng.integers(1, 6)), 0, 0)
    return Tournament(treatments=labels, counts=counts)


def _two_block_tournament(rng) -> Tournament:
    """Ties inside each block, wins only across: one block is never reached."""
    size = int(rng.integers(3, 7))
    labels = tuple(f"T{k + 1}" for k in range(size))
    cut = int(rng.integers(1, size))
    counts = {}
    for a in range(size):
        for b in range(a + 1, size):
            same_block = (a < cut) == (b < cut)
            if same_block:
                counts[(labels[a], labels[b])] = PairCounts(0, 0, int(rng.integers(1, 4)))
            else:
                counts[(labels[a], labels[b])] = PairCounts(int(rng.integers(1, 4)), 0, 0)
    return Tournament(treatments=labels, counts=counts)


def test_criterion_06_degenerate_tournaments_are_rejected(acceptance):
    with acceptance(6, "all-ties and one-directional tournaments are rejected") as note:
        rng = np.random.default_rng(606)
        only_ties = 0
        for _ in range(100):
            with pytest.raises(OnlyTiesError):
                fit_davidson(_all_ties_tournament(rng))
            only_ties += 1
        one_way = 0
        for build in (_hierarchy_tournament, _two_block_tournament):
            for _ in range(50):
                with pytest.raises(FordConditionError) as excinfo:
                    fit_davidson(build(rng))
                assert excinfo.value.subset and excinfo.value.complement
                one_way += 1
        assert only_ties == 100 and one_way == 100
        note["detail"] = f"{only_ties + one_way}/200 constructed failing cases detected"


def test_criterion_07_decision_rule_truth_table(acceptance):
    with acceptance(7, "decision-rule truth table") as note:
        # (estimate, lower, upper) on the log scale against the mcid=1.20 range:
        # both clauses fire; only the estimate-plus-direction clause fires;
        # silent because the interval reaches the null; silent because the
        # estimate sits inside the range.
        shapes = (
            (0.40, 0.20, 0.60, True),
            (0.30, 0.10, 0.50, True),
            (0.30, -0.05, 0.65, False),
            (0.10, -0.10, 0.30, False),
        )
        cases = 0
        for direction, win in (
            ("beneficial", Verdict.FIRST_WINS),
            ("harmful", Verdict.SECOND_WINS),
        ):
            roe = build_roe(1.20, direction=direction)
            for y, lo, hi, wins in shapes:
                e = StudyEffect(
                    study_id="s1", treat_a="A", treat_b="B",
                    effect=y, ci_lower=lo, ci_upper=hi,
                )
                expected = win if wins else Verdict.TIE
                assert tcc_decision(e, roe).verdict is expected
                cases += 1
        # mirrored contrasts swap the winner and leave ties alone
        roe = build_roe(1.20)
        for y, lo, hi, wins in shapes:
            e = StudyEffect(
                study_id="s1", treat_a="A", treat_b="B",
                effect=-y, ci_lower=-hi, ci_upper=-lo,
            )
            expected = Verdict.SECOND_WINS if wins else Verdict.TIE
            assert tcc_decision(e, roe).verdict is expected
        assert cases == 8
        note["detail"] = "8/8 clause cases exact in both directions"


PLANT_HI = {"A": 4.0, "B": 2.0, "C": 1.0, "D": 0.5}
PLANT_LO = {"A": 0.5, "B": 1.0, "C": 2.0, "D": 4.0}
FLAT3 = {"A": 1.1, "B": 1.0, "C": 0.9}


def _planted_draw(rng):
    group = "hi" if rng.random() < 0.5 else "lo"
    return {"group": group}, (PLANT_HI if group == "hi" else PLANT_LO)


def _null_draw(rng):
    return {"x": float(rng.uniform(0.0, 1.0))}, FLAT3


def test_criterion_08_partition_recovery_and_false_split_rate(acceptance):
    with acceptance(8, "partition recovery and null calibration") as note:
        t0 = time.perf_counter()
        schema = {"group": Categorical(("hi", "lo"))}
        recovered = 0
        for i in range(200):
            rng = np.random.default_rng((8101, i))
            records = simulate_records(rng, 200, _planted_draw, nu=0.6)
            tree = grow_tree(records, schema, PartitionConfig(alpha=0.01, seed=i))
            recovered += (
                tree.split is not None
                and tree.split.covariate == "group"
                and all(child.is_leaf for child in tree.split.children)
            )
        schema = {"x": Continuous()}
        false_splits = 0
        for i in range(400):
            rng = np.random.default_rng((8203, i))
            records = simulate_records(rng, 200, _null_draw, nu=0.8)
            config = PartitionConfig(alpha=0.05, permutations=199, seed=i)
            false_splits += grow_tree(records, schema, config).split is not None
        elapsed = time.perf_counter() - t0
        assert recovered >= 180
        assert 0.03 <= false_splits / 400 <= 0.07
        assert elapsed < 600.0
        note["detail"] = (
            f"recovered {recovered}/200 planted reversals; "
            f"{false_splits}/400 null false splits; {elapsed:.0f}s"
        )


def test_criterion_09_comparison_metric_checks(acceptance):
    with acceptance(9, "comparison-metric spot checks") as note:
        rng = np.random.default_rng(913)
        labels = tuple("ABCDEF")
        for _ in range(10):
            entries = {}
            for a in range(6):
                for b in range(a + 1, 6):
                    entries[(labels[a], labels[b])] = (
                        float(rng.normal(0.0, 0.5)),
                        float(rng.uniform(0.05, 0.3)),
                    )
            lt = LeagueTable.from_pairwise(entries)
            scores = p_scores(lt)
            assert math.fsum(scores.values()) / 6 == 0.5
            limit = p_scores_civ(lt, mcid=1.0 + 1e-9)
            drift = max(abs(limit[k] - scores[k]) for k in scores)
            assert drift < 1e-6
        two = LeagueTable.from_pairwise({("X", "Y"): (0.196, 0.1)})
        phi_case = p_scores(two)["X"]
        assert abs(phi_case - norm.cdf(1.96)) < 1e-6
        assert round(phi_case, 3) == 0.975
        lt = LeagueTable.from_basic(
            {"A": (0.2, 0.1), "B": (0.2, 0.1)}, covariance=np.eye(2) * 0.01
        )
        best = prob_best(lt, nsim=20_000, seed=1)
        margin = 2.0 * math.sqrt(0.25 / 20_000)
        assert abs(best["A"] - 0.5) <= margin
        note["detail"] = (
            f"score means exact; phi case {phi_case:.6f}; "
            f"symmetric best {best['A']:.4f} within {margin:.4f}"
        )


def test_criterion_10_end_to_end_determinism(acceptance, tmp_path):
    with acceptance(10, "byte-identical artifacts across reruns") as note:
        runs = {
            "rank": ["rank", "--input", str(FIXTURES / "contrasts.csv"),
                     "--mcid", "1.2", "--dump-records"],
            "partition": ["partition", "--input", str(FIXTURES / "contrasts.csv"),
                          "--mcid", "1.2", "--permutations", "199", "--seed", "3"],
            "compare": ["compare", "--input", str(FIXTURES / "league.csv"),
                        "--mcid", "1.2", "--nsim", "20000", "--seed", "1"],
        }
        compared = 0
        for name, argv in runs.items():
            out = []
            for attempt in ("first", "second"):
                directory = tmp_path / f"{name}_{attempt}"
                assert cli_main(argv + ["--out-dir", str(directory)]) == 0
                out.append(directory)
            artifacts = sorted(p.name for p in out[0].iterdir())
            assert artifacts, name
            for artifact in artifacts:
                first = (out[0] / artifact).read_bytes()
                second = (out[1] / artifact).read_bytes()
                assert first == second, f"{name}/{artifact} differs between runs"
                compared += 1
        assert compared >= 7
        note["detail"] = f"{compared} artifacts byte-identical across reruns"
