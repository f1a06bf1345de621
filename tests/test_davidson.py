"""Tests for the tie-extended ability model: likelihood, fitting, uncertainty."""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treatrank import (
    AVERAGE,
    ConvergenceError,
    DataError,
    FordConditionError,
    ModelError,
    OnlyTiesError,
    PairCounts,
    Tournament,
    ability_ratios,
    check_ford,
    fit_davidson,
    log_likelihood,
    normalized_abilities,
    pairwise_probabilities,
    win_tie_probabilities,
)
from treatrank import davidson
from treatrank.davidson import DavidsonObjective, _nu_unbounded

from oracles import (
    fd_gradient,
    floyd_warshall_nu_unbounded,
    grid_search_mle,
    loop_loglik,
    random_tournament,
    reachability,
    reference_fit,
    scalar_maximize,
    ScalarDavidsonObjective,
)


def _tournament(counts, treatments=None):
    if treatments is None:
        seen = []
        for x, y in counts:
            for label in (x, y):
                if label not in seen:
                    seen.append(label)
        treatments = tuple(sorted(seen))
    return Tournament(
        treatments=tuple(treatments),
        counts={pair: PairCounts(*c) for pair, c in counts.items()},
    )


# ---------------------------------------------------------------- probabilities


def test_probabilities_equal_abilities_no_ties():
    assert win_tie_probabilities(1.0, 1.0, 0.0) == (0.5, 0.5, 0.0)


def test_probabilities_tie_prevalence_spot_check():
    # Two near-equal abilities with a large tie parameter: the model puts most
    # mass on the tie outcome.
    p_x, p_y, p_tie = win_tie_probabilities(0.21, 0.18, 10.31)
    assert 0.82 <= p_tie <= 0.88
    assert p_x > p_y


def test_probabilities_sum_to_one_and_are_scale_free():
    rng = np.random.default_rng(3)
    for _ in range(200):
        psi_x, psi_y = rng.lognormal(size=2)
        nu = rng.uniform(0.0, 5.0)
        c = rng.lognormal()
        triple = win_tie_probabilities(psi_x, psi_y, nu)
        assert math.fsum(triple) == pytest.approx(1.0, abs=1e-12)
        scaled = win_tie_probabilities(c * psi_x, c * psi_y, nu)
        assert np.allclose(triple, scaled, atol=1e-12)


# ---------------------------------------------------------------- log-likelihood


def test_loglik_single_win_equal_abilities():
    t = _tournament({("A", "B"): (1, 0, 0)})
    assert log_likelihood(t, {"A": 1.0, "B": 1.0}, 0.0) == pytest.approx(
        math.log(0.5), abs=1e-12
    )


def test_loglik_single_tie():
    t = _tournament({("A", "B"): (0, 0, 1)})
    assert log_likelihood(t, {"A": 1.0, "B": 1.0}, 2.0) == pytest.approx(
        math.log(0.5), abs=1e-12
    )


def test_loglik_is_scale_invariant():
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = random_tournament(rng, int(rng.integers(3, 6)))
        psi = rng.lognormal(size=len(t.treatments))
        nu = rng.uniform(0.1, 3.0)
        c = rng.lognormal()
        base = log_likelihood(t, psi, nu)
        assert log_likelihood(t, c * psi, nu) == pytest.approx(base, rel=1e-12)


def test_loglik_accepts_sequences_and_checks_length():
    t = _tournament({("A", "B"): (1, 0, 0)})
    assert log_likelihood(t, [1.0, 1.0], 0.0) == pytest.approx(math.log(0.5))
    with pytest.raises(DataError, match="length"):
        log_likelihood(t, [1.0, 1.0, 1.0], 0.0)
    with pytest.raises(DataError):
        log_likelihood(t, {"A": 1.0}, 0.0)


def test_loglik_impossible_outcome_is_minus_infinity():
    # A tie was observed but nu = 0 assigns it probability zero.
    t = _tournament({("A", "B"): (1, 0, 1)})
    assert log_likelihood(t, {"A": 1.0, "B": 1.0}, 0.0) == -math.inf


def _with_empty_pair(t):
    """``t`` plus an explicit zero-count entry for its first unrecorded pair."""
    for a, x in enumerate(t.treatments):
        for y in t.treatments[a + 1:]:
            if (x, y) not in t.counts:
                return Tournament(t.treatments, {**t.counts, (x, y): PairCounts(0, 0, 0)})
    return t


def test_loglik_matches_the_pair_loop_reference():
    rng = np.random.default_rng(7)
    for _ in range(60):
        t = _with_empty_pair(random_tournament(rng, int(rng.integers(2, 7)), max_count=3))
        psi = rng.lognormal(sigma=2.0, size=len(t.treatments))
        for nu in (0.0, float(rng.uniform(0.05, 4.0))):
            expected = loop_loglik(t, psi, nu)
            got = log_likelihood(t, psi, nu)
            if math.isinf(expected):
                assert got == expected
            else:
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_loglik_edge_cases_match_the_pair_loop_reference():
    psi = [1.0, 3.0, 0.5]
    tie_free = _tournament({("A", "B"): (2, 1, 0), ("B", "C"): (0, 3, 0)}, ("A", "B", "C"))
    # nu > 0 on a tie-free tournament still puts tie mass in the denominator.
    assert log_likelihood(tie_free, psi, 1.5) == pytest.approx(
        loop_loglik(tie_free, psi, 1.5), rel=1e-12
    )
    assert log_likelihood(tie_free, psi, 1.5) < log_likelihood(tie_free, psi, 0.0)
    empty = Tournament(("A", "B"), {("A", "B"): PairCounts(0, 0, 0)})
    assert log_likelihood(empty, [1.0, 2.0], 1.0) == 0.0


def test_objective_value_matches_the_pair_loop_reference():
    rng = np.random.default_rng(8)
    for _ in range(30):
        t = _with_empty_pair(random_tournament(rng, int(rng.integers(2, 6))))
        if t.total_records == 0:
            continue
        obj = DavidsonObjective(t)
        theta = rng.uniform(-2.0, 2.0, size=obj.n_params)
        n = len(t.treatments)
        psi = np.exp(np.concatenate(([0.0], theta[: n - 1])))
        nu = math.exp(theta[-1]) if obj.has_tie_param else 0.0
        assert obj.value(theta) == pytest.approx(loop_loglik(t, psi, nu), rel=1e-12)


@pytest.mark.parametrize("ties", [True, False])
def test_objective_is_finite_at_extreme_log_abilities(ties):
    t = _tournament(
        {("A", "B"): (3, 1, 2 * ties), ("A", "C"): (1, 2, ties), ("B", "C"): (2, 2, 0)}
    )
    obj = DavidsonObjective(t)
    for sign in (1.0, -1.0):
        theta = np.zeros(obj.n_params)
        theta[0], theta[1] = sign * 800.0, -sign * 800.0
        assert math.isfinite(obj.value(theta))
        assert np.all(np.isfinite(obj.gradient(theta)))
        assert np.all(np.isfinite(obj.hessian(theta)))


@st.composite
def _regular_tournaments(draw):
    n = draw(st.integers(2, 5))
    labels = tuple(f"T{k}" for k in range(n))
    cell = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
    counts = {}
    for a in range(n):
        for b in range(a + 1, n):
            # One win each way and one tie between neighbours connect the win
            # graph by wins alone, so the maximum-likelihood estimate is finite.
            extra = 1 if b == a + 1 else 0
            counts[(labels[a], labels[b])] = PairCounts(*(v + extra for v in draw(cell)))
    return Tournament(labels, counts), draw(st.integers(2, 5))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_regular_tournaments())
def test_scaling_counts_keeps_abilities_and_divides_the_covariance(case):
    t, k = case
    scaled = Tournament(
        t.treatments, {pair: PairCounts(*(k * v for v in c)) for pair, c in t.counts.items()}
    )
    base, fit = fit_davidson(t), fit_davidson(scaled)
    for x in t.treatments:
        assert fit.pi[x] == pytest.approx(base.pi[x], abs=1e-9)
    np.testing.assert_allclose(fit.covariance * k, base.covariance, rtol=1e-6, atol=1e-12)


# ---------------------------------------------------------------- Ford condition


def test_ford_two_cycle_passes():
    t = _tournament({("A", "B"): (1, 1, 0)})
    assert check_ford(t) is None


def test_ford_chain_fails_at_the_unbeaten_top():
    t = _tournament({("A", "B"): (1, 0, 0), ("B", "C"): (1, 0, 0)})
    failure = check_ford(t)
    assert failure is not None
    subset, complement = failure
    assert set(subset) == {"A"}
    assert set(complement) == {"B", "C"}


def test_ford_tie_connects_an_otherwise_unbeaten_treatment():
    # Nothing beats A, but A ties with B; the tie anchors A's ability, so the
    # preference graph is connected and the fit below is interior.
    t = _tournament({("A", "B"): (2, 0, 1), ("B", "C"): (1, 1, 0), ("A", "C"): (1, 0, 1)})
    assert check_ford(t) is None
    fit = fit_davidson(t)
    assert all(v > 0 for v in fit.psi.values())


def test_ford_isolated_treatment_fails():
    t = _tournament({("A", "B"): (1, 1, 0)}, treatments=("A", "B", "C"))
    failure = check_ford(t)
    assert failure is not None
    subset, complement = failure
    assert set(subset) == {"C"} or set(complement) == {"C"}


def test_ford_failure_reported_by_fit():
    t = _tournament({("A", "B"): (1, 0, 0), ("B", "C"): (1, 0, 0)})
    with pytest.raises(FordConditionError) as info:
        fit_davidson(t)
    assert set(info.value.subset) == {"A"}
    assert set(info.value.complement) == {"B", "C"}
    assert "beats or ties" in str(info.value)


@st.composite
def _sparse_tournaments(draw):
    """2-8 treatments; each pair absent, or present with counts of 0-2 (all
    zero included)."""
    n = draw(st.integers(2, 8))
    labels = tuple(f"T{k}" for k in range(n))
    cell = st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
    counts = {}
    for a in range(n):
        for b in range(a + 1, n):
            c = draw(cell)
            if c is not None:
                counts[(labels[a], labels[b])] = PairCounts(*c)
    return Tournament(labels, counts)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_sparse_tournaments())
def test_ford_cut_agrees_with_the_reachability_closure(t):
    reach = reachability(t)
    labels = t.treatments
    failure = check_ford(t)
    if all(all(row) for row in reach):
        assert failure is None
        return
    assert failure is not None
    subset, complement = failure
    assert subset and complement
    assert len(subset) + len(complement) == len(labels)
    assert subset == tuple(x for x in labels if x in subset)
    assert complement == tuple(x for x in labels if x in complement)
    for outside in complement:
        for inside in subset:
            c = t.pair_counts(outside, inside)
            assert c.wins_first == 0 and c.ties == 0
    # Forward sweep first: what the first treatment does not reach; then
    # the backward sweep: what reaches the first treatment.
    if not all(reach[0]):
        expected = tuple(x for b, x in enumerate(labels) if not reach[0][b])
    else:
        expected = tuple(x for a, x in enumerate(labels) if reach[a][0])
    assert subset == expected


# Each case passes the Ford check, yet nu can grow while every win widens and
# every tie stays close: the direction moves log nu by 1/2 and the
# log-abilities by d (A, B, C order).
_NO_FINITE_MAXIMUM = [
    ({("A", "B"): (0, 1, 1)}, (0.0, 1.0)),
    ({("A", "B"): (0, 2, 3)}, (0.0, 1.0)),
    ({("A", "B"): (2, 0, 0), ("B", "C"): (0, 0, 1), ("A", "C"): (0, 0, 1)}, (1.0, 0.0, 0.5)),
]


@pytest.mark.parametrize("counts, d", _NO_FINITE_MAXIMUM)
def test_fit_rejects_a_likelihood_without_a_finite_maximum(counts, d):
    t = _tournament(counts)
    assert check_ford(t) is None
    obj = DavidsonObjective(t)
    # theta holds the log-abilities relative to the first treatment, then log nu.
    direction = np.asarray([x - d[0] for x in d[1:]] + [0.5])
    values = [obj.value(s * direction) for s in (0.0, 5.0, 10.0, 20.0)]
    assert values == sorted(values) and values[-1] > values[0]
    with pytest.raises(ModelError, match="no finite maximum"):
        fit_davidson(t)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_sparse_tournaments())
def test_nu_unbounded_agrees_with_floyd_warshall(t):
    assert _nu_unbounded(t) == floyd_warshall_nu_unbounded(t)
    # Most drawn tournaments have a pair won both ways, which decides the
    # check at once; without those wins both verdicts come up about equally.
    one_way = Tournament(
        t.treatments,
        {
            pair: PairCounts(c.wins_first, 0 if c.wins_first else c.wins_second, c.ties)
            for pair, c in t.counts.items()
        },
    )
    assert _nu_unbounded(one_way) == floyd_warshall_nu_unbounded(one_way)


def test_nu_unbounded_on_a_long_cycle_is_linear_in_memory():
    # A win one way round the cycle and a tie in every pair: no pair wins
    # both ways, and the wins make a negative cycle, so the check runs to the
    # end. A dense n x n bound matrix would take 8 MB.
    n = 1000
    labels = tuple(f"T{k:04d}" for k in range(n))
    counts = {(labels[k], labels[k + 1]): PairCounts(1, 0, 1) for k in range(n - 1)}
    counts[(labels[0], labels[-1])] = PairCounts(0, 1, 1)
    t = Tournament(labels, counts)
    tracemalloc.start()
    try:
        verdict = _nu_unbounded(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict is False
    assert peak < 1_000_000


# ---------------------------------------------------------------- objective


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(50):
        t = random_tournament(rng, int(rng.integers(3, 7)))
        if t.total_records == 0 or t.total_ties == 0:
            continue
        obj = DavidsonObjective(t)
        theta = rng.uniform(-1.5, 1.5, size=obj.n_params)
        analytic = obj.gradient(theta)
        numeric = fd_gradient(obj.value, theta)
        scale = np.maximum(np.abs(numeric), 1.0)
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-5


def test_hessian_matches_finite_differences_of_gradient():
    rng = np.random.default_rng(19)
    t = random_tournament(rng, 4)
    obj = DavidsonObjective(t)
    theta = rng.uniform(-1.0, 1.0, size=obj.n_params)
    analytic = obj.hessian(theta)
    step = 1e-6
    numeric = np.empty_like(analytic)
    for k in range(obj.n_params):
        bump = np.zeros(obj.n_params)
        bump[k] = step
        numeric[:, k] = (obj.gradient(theta + bump) - obj.gradient(theta - bump)) / (2 * step)
    assert np.max(np.abs(analytic - numeric)) < 1e-5


def test_mm_step_never_decreases_the_objective():
    rng = np.random.default_rng(29)
    for _ in range(20):
        t = random_tournament(rng, 4)
        if t.total_ties == 0 or t.total_wins == 0 or check_ford(t) is not None:
            continue
        obj = DavidsonObjective(t)
        theta = rng.uniform(-1.0, 1.0, size=obj.n_params)
        for _ in range(5):
            new_theta = obj.mm_step(theta)
            assert obj.value(new_theta) >= obj.value(theta) - 1e-10
            theta = new_theta


def _evaluations(obj, theta):
    return (
        obj.value(theta),
        obj.gradient(theta).tobytes(),
        obj.hessian(theta).tobytes(),
        obj.mm_step(theta).tobytes(),
    )


def test_objective_reuses_an_evaluation_only_at_the_same_point():
    rng = np.random.default_rng(31)
    t = random_tournament(rng, 5)
    obj = DavidsonObjective(t)
    theta_1 = rng.uniform(-1.0, 1.0, size=obj.n_params)
    theta_2 = rng.uniform(-1.0, 1.0, size=obj.n_params)
    for theta in (theta_1, theta_2, theta_1):
        assert _evaluations(obj, theta) == _evaluations(DavidsonObjective(t), theta)
    # The same array, changed in place, is a new point.
    theta = theta_1.copy()
    obj.value(theta)
    theta[0] += 0.25
    assert _evaluations(obj, theta) == _evaluations(DavidsonObjective(t), theta)


def test_fit_computes_probabilities_once_per_point_it_visits(monkeypatch):
    points: set[bytes] = set()
    calls = []
    for name in ("value", "gradient", "hessian", "mm_step"):
        method = getattr(DavidsonObjective, name)

        def recorded(self, theta, method=method):
            points.add(np.asarray(theta, dtype=float).tobytes())
            return method(self, theta)

        monkeypatch.setattr(DavidsonObjective, name, recorded)
    original = davidson._log_probabilities

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(davidson, "_log_probabilities", counted)
    rng = np.random.default_rng(37)
    for _ in range(10):
        t = random_tournament(rng, 6)
        if t.total_ties == 0 or check_ford(t) is not None or _nu_unbounded(t):
            continue
        points.clear()
        calls.clear()
        fit_davidson(t)
        assert len(points) > 2
        assert len(calls) == len(points)


# ---------------------------------------------------------------- one solver, batched or not


def _rescaled(t, factor=1, ties=True):
    return Tournament(
        t.treatments,
        {
            pair: PairCounts(factor * c.wins_first, factor * c.wins_second, factor * c.ties * ties)
            for pair, c in t.counts.items()
        },
    )


def _quiet_fit(t):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the tie-free model warns
        return fit_davidson(t)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_sparse_tournaments())
def test_fit_matches_the_scalar_solver_bit_for_bit(t):
    # At 10^6 records per count the solver tends to stop on its step
    # tolerance; from a far start it needs step halving and MM sweeps.
    for k, case in enumerate((t, _rescaled(t, ties=False), _rescaled(t, 10**6))):
        try:
            fit = _quiet_fit(case)
        except (DataError, ModelError):
            continue
        log_params, covariance, loglik, iterations = reference_fit(case)
        assert fit.log_params.tobytes() == log_params.tobytes()
        assert fit.covariance.tobytes() == covariance.tobytes()
        assert (fit.loglik, fit.iterations) == (loglik, iterations)
        if k == 0:
            far = 30.0 * (-1.0) ** np.arange(len(log_params))
            want = scalar_maximize(ScalarDavidsonObjective(case), far, 10_000, 1e-8, 1e-10)
            obj = DavidsonObjective(case)
            theta, taken = davidson._maximize(obj, far[None], 10_000, 1e-8, 1e-10)
            assert (theta[0].tobytes(), taken[0]) == (want[0].tobytes(), want[1])


@st.composite
def _count_stacks(draw):
    """1-6 tournaments over the pairs of 2-6 treatments, each with a record.

    Each pair of each tournament has no records, or counts of 0-2 per
    outcome; all counts are then scaled by 1, 1000 or 10^6, and at the
    larger scales the solver tends to stop on its step tolerance.
    """
    n = draw(st.integers(2, 6))
    labels = tuple(f"T{k}" for k in range(n))
    i, j = (np.asarray(v, dtype=np.intp) for v in np.triu_indices(n, 1))
    cell = st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
    row = st.lists(cell, min_size=len(i), max_size=len(i)).map(
        lambda cells: [c or (0, 0, 0) for c in cells]
    )
    rows = draw(st.lists(row.filter(lambda r: any(map(any, r))), min_size=1, max_size=6))
    scale = draw(st.sampled_from([1, 1000, 10**6]))
    return labels, i, j, scale * np.asarray(rows, dtype=float)


def _row_tournament(labels, i, j, row):
    return Tournament(
        labels,
        {(labels[a], labels[b]): PairCounts(*map(int, c)) for a, b, c in zip(i, j, row)},
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_count_stacks())
def test_batched_fits_match_fit_davidson_row_by_row(stack):
    labels, i, j, counts = stack
    passed = davidson._fittable(len(labels), i, j, counts)
    logliks = davidson._max_logliks(labels, i, j, counts[passed])
    assert np.all(np.isfinite(logliks))
    for row, ok in zip(counts, passed):
        try:
            want = _quiet_fit(_row_tournament(labels, i, j, row)).loglik
        except ModelError:
            assert not ok
            continue
        assert ok
        loglik, logliks = logliks[0], logliks[1:]
        assert abs(loglik - want) <= 1e-9 * max(1.0, abs(want))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_sparse_tournaments())
def test_one_row_solve_gives_the_fit_loglik_bit_for_bit(t):
    # The split search re-solves each side of its finalists this way.
    for case in (t, _rescaled(t, ties=False)):
        n, i, j, counts = len(case.treatments), case._i, case._j, case._counts[None]
        if davidson._fittable(n, i, j, counts)[0]:
            loglik = davidson._max_logliks(case.treatments, i, j, counts)[0]
            assert loglik == _quiet_fit(case).loglik


def _assert_each_row_met_a_tolerance(obj, start, grad_tol=1e-8, step_tol=1e-10):
    theta, iterations = davidson._maximize(obj, start, 10_000, grad_tol, step_tol)
    assert np.all(iterations >= 0)
    small = np.max(np.abs(obj.gradient(theta)), axis=-1) < grad_tol
    for r in np.flatnonzero(~small):
        # The solver is deterministic: rerun it one iteration short.
        before, _ = davidson._maximize(obj, start, int(iterations[r]) - 1, grad_tol, step_tol)
        assert np.max(np.abs(theta[r] - before[r])) < step_tol


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_count_stacks())
def test_every_returned_row_met_a_tolerance(stack):
    labels, i, j, counts = stack
    passed = davidson._fittable(len(labels), i, j, counts)
    ties = counts[..., 2].sum(axis=-1) > 0
    for rows in (passed & ties, passed & ~ties):
        if rows.any():
            obj = DavidsonObjective._of_counts(labels, i, j, counts[rows])
            _assert_each_row_met_a_tolerance(obj, obj._start())
    for row in counts[passed]:
        obj = DavidsonObjective(_row_tournament(labels, i, j, row))
        _assert_each_row_met_a_tolerance(obj, obj._start()[None])


# ---------------------------------------------------------------- fitting


def test_fit_two_treatments_closed_form():
    t = _tournament({("A", "B"): (3, 3, 2)})
    fit = fit_davidson(t)
    assert fit.pi["A"] == pytest.approx(0.5, abs=1e-8)
    assert fit.pi["B"] == pytest.approx(0.5, abs=1e-8)
    assert fit.nu == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert fit.converged


def test_fit_relabeling_permutes_abilities():
    counts = {("A", "B"): (5, 1, 2), ("A", "C"): (2, 2, 1), ("B", "C"): (1, 4, 2)}
    base = fit_davidson(_tournament(counts))
    mapping = {"A": "Z", "B": "Y", "C": "X"}
    swapped = {}
    for (x, y), c in counts.items():
        nx, ny = mapping[x], mapping[y]
        if sorted((nx, ny))[0] == nx:
            swapped[(nx, ny)] = c
        else:
            swapped[(ny, nx)] = (c[1], c[0], c[2])
    other = fit_davidson(_tournament(swapped))
    for old, new in mapping.items():
        assert other.pi[new] == pytest.approx(base.pi[old], abs=1e-8)
    assert other.nu == pytest.approx(base.nu, abs=1e-8)


def test_fit_three_treatment_example_matches_grid_oracle():
    t = _tournament({("A", "B"): (2, 0, 1), ("B", "C"): (1, 1, 0), ("A", "C"): (1, 0, 1)})
    fit = fit_davidson(t)
    oracle = grid_search_mle(t)
    assert np.max(np.abs(fit.log_params - oracle)) < 5e-3


def test_fit_rejects_only_ties():
    t = _tournament({("A", "B"): (0, 0, 5)})
    with pytest.raises(OnlyTiesError):
        fit_davidson(t)


def test_fit_rejects_degenerate_inputs():
    with pytest.raises(DataError, match="two treatments"):
        fit_davidson(Tournament(treatments=("A",), counts={}))
    with pytest.raises(DataError, match="no records"):
        fit_davidson(Tournament(treatments=("A", "B"), counts={}))


def test_fit_zero_ties_falls_back_to_tie_free_model():
    t = _tournament({("A", "B"): (3, 1, 0)})
    with pytest.warns(UserWarning, match="no ties"):
        fit = fit_davidson(t)
    assert fit.tie_free
    assert fit.nu == 0.0
    # Two-treatment win-only model has a closed form: pi_A = 3/4.
    assert fit.pi["A"] == pytest.approx(0.75, abs=1e-8)
    assert "log_nu" not in fit.param_names


def test_fit_invariants_on_random_tournaments():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 25:
        t = random_tournament(rng, int(rng.integers(3, 6)))
        if t.total_wins == 0 or t.total_ties == 0 or check_ford(t) is not None:
            continue
        fit = fit_davidson(t)
        checked += 1
        pi = np.array([fit.pi[x] for x in t.treatments])
        assert abs(pi.sum() - 1.0) < 1e-10
        assert np.all(pi > 0)
        assert fit.nu >= 0.0
        assert np.allclose(fit.covariance, fit.covariance.T)
        assert np.min(np.linalg.eigvalsh(fit.covariance)) > -1e-8
        obj = DavidsonObjective(t)
        assert np.max(np.abs(obj.gradient(fit.log_params))) < 1e-6
        assert log_likelihood(t, fit.psi, fit.nu) == pytest.approx(fit.loglik, abs=1e-9)


def test_fit_ranking_invariant_to_duplicating_counts():
    counts = {("A", "B"): (5, 1, 2), ("A", "C"): (2, 2, 1), ("B", "C"): (1, 4, 2)}
    base = fit_davidson(_tournament(counts))
    for k in (2, 3):
        scaled = fit_davidson(
            _tournament({p: tuple(k * v for v in c) for p, c in counts.items()})
        )
        base_order = sorted(base.pi, key=base.pi.get)
        assert sorted(scaled.pi, key=scaled.pi.get) == base_order
        for x in base.pi:
            assert scaled.pi[x] == pytest.approx(base.pi[x], abs=1e-8)


def test_fit_iteration_cap_raises():
    t = _tournament({("A", "B"): (5, 1, 2), ("A", "C"): (4, 2, 1), ("B", "C"): (3, 3, 1)})
    with pytest.raises(ConvergenceError, match="gradient"):
        fit_davidson(t, max_iterations=1)


# ---------------------------------------------------------------- derived outputs


def _example_fit():
    return fit_davidson(
        _tournament(
            {("A", "B"): (5, 1, 2), ("A", "C"): (2, 2, 1), ("B", "C"): (1, 4, 2)}
        )
    )


def test_pairwise_probabilities_from_fit():
    fit = _example_fit()
    p_a, p_b, p_tie = pairwise_probabilities(fit, "A", "B")
    assert math.fsum((p_a, p_b, p_tie)) == pytest.approx(1.0, abs=1e-12)
    assert p_a > p_b  # A beat B five times out of eight
    assert pairwise_probabilities(fit, "B", "A") == (p_b, p_a, p_tie)
    with pytest.raises(DataError, match="unknown"):
        pairwise_probabilities(fit, "A", "Z")
    with pytest.raises(DataError, match="distinct"):
        pairwise_probabilities(fit, "A", "A")


def test_normalized_abilities_symmetric_case():
    t = _tournament(
        {("A", "B"): (1, 1, 1), ("A", "C"): (1, 1, 1), ("B", "C"): (1, 1, 1)}
    )
    result = normalized_abilities(fit_davidson(t))
    for ability in result.values():
        assert ability.estimate == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert ability.se > 0
        assert ability.ci_lower < ability.estimate < ability.ci_upper


def test_normalized_abilities_sum_and_bracketing():
    result = normalized_abilities(_example_fit())
    total = math.fsum(a.estimate for a in result.values())
    assert total == pytest.approx(1.0, abs=1e-10)
    for ability in result.values():
        assert 0.0 < ability.ci_lower <= ability.estimate <= ability.ci_upper


def test_normalized_abilities_ci_level_ordering():
    fit = _example_fit()
    narrow = normalized_abilities(fit, ci_level=0.80)
    wide = normalized_abilities(fit, ci_level=0.99)
    for x in fit.treatments:
        assert wide[x].ci_lower < narrow[x].ci_lower
        assert narrow[x].ci_upper < wide[x].ci_upper
    with pytest.raises(DataError, match="ci_level"):
        normalized_abilities(fit, ci_level=1.0)


def test_ability_ratios_symmetric_average_is_one():
    t = _tournament(
        {("A", "B"): (1, 1, 1), ("A", "C"): (1, 1, 1), ("B", "C"): (1, 1, 1)}
    )
    for ratio in ability_ratios(fit_davidson(t), AVERAGE):
        assert ratio.estimate == pytest.approx(1.0, abs=1e-8)
        assert ratio.denominator is AVERAGE
        assert ratio.ci_lower <= ratio.estimate <= ratio.ci_upper


def test_ability_ratios_reference_denominator():
    fit = _example_fit()
    ratios = {r.numerator: r for r in ability_ratios(fit, fit.reference)}
    self_ratio = ratios[fit.reference]
    assert self_ratio.estimate == 1.0
    assert self_ratio.ci_lower == 1.0 and self_ratio.ci_upper == 1.0
    for r in ratios.values():
        assert r.estimate > 0
        assert r.ci_lower <= r.estimate <= r.ci_upper


def test_ability_ratios_chain_consistency():
    fit = _example_fit()
    vs_b = {r.numerator: r.estimate for r in ability_ratios(fit, "B")}
    vs_c = {r.numerator: r.estimate for r in ability_ratios(fit, "C")}
    assert vs_c["A"] == pytest.approx(vs_b["A"] * vs_c["B"], rel=1e-12)


def test_ability_ratios_average_matches_mean_denominator():
    fit = _example_fit()
    mean_ability = math.fsum(fit.psi.values()) / len(fit.psi)
    for ratio in ability_ratios(fit, AVERAGE):
        assert ratio.estimate == pytest.approx(fit.psi[ratio.numerator] / mean_ability)


def test_ability_ratios_unknown_denominator():
    with pytest.raises(DataError, match="denominator"):
        ability_ratios(_example_fit(), "Z")


def test_average_denominator_has_a_readable_repr():
    assert repr(AVERAGE) == "AVERAGE"
