"""Independent reference implementations used only by the test suite.

Nothing here shares code with the package's optimizer: the grid search
evaluates the likelihood directly on shrinking lattices, the best-value
probabilities come from one-dimensional quadrature (or, draw for draw, from
one call of numpy's multivariate normal sampler), gradients come from
central finite differences, the log-likelihood and per-record scores are
plain loops over the scalar contest probabilities, tournaments are
tallied record by record, the preference graph's connectivity comes
from a boolean transitive closure, and the no-finite-maximum verdict from
Floyd-Warshall on a dense bound matrix. Agreement between
these and the package is the point of the comparisons, so keep them
decoupled. The exceptions are kept here in an earlier form of the
package's own code, because the package must match them bit for bit, so
it is the arithmetic that is under test: the sup-LM stability test
(full-length cumulative sums, blocks of 256 permutations) on the
package's score rows, the one-tournament likelihood core and Newton
solver, and the split search that fits both sides of every candidate.
"""

from __future__ import annotations

import math
import warnings
from itertools import compress

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm

from treatrank.davidson import fit_davidson, win_tie_probabilities
from treatrank.errors import ConvergenceError, DataError, ModelError
from treatrank.partition import (
    MAX_SPLIT_LEVELS,
    _chi2_sf,
    _goes_left,
    _read_covariate,
    score_contributions,
)
from treatrank.study_data import Categorical, Continuous, _first_seen
from treatrank.tcc import PairCounts, PreferenceRecord, Tournament, Verdict, aggregate_tournament


def _pair_arrays(t: Tournament):
    index = {x: k for k, x in enumerate(t.treatments)}
    i_idx, j_idx, r_ij, r_ji, ties = [], [], [], [], []
    for (x, y), c in t.counts.items():
        i_idx.append(index[x])
        j_idx.append(index[y])
        r_ij.append(c.wins_first)
        r_ji.append(c.wins_second)
        ties.append(c.ties)
    return (
        np.asarray(i_idx, dtype=np.intp),
        np.asarray(j_idx, dtype=np.intp),
        np.asarray(r_ij, dtype=float),
        np.asarray(r_ji, dtype=float),
        np.asarray(ties, dtype=float),
    )


def batch_loglik(t: Tournament, thetas: np.ndarray) -> np.ndarray:
    """Log-likelihood at many parameter points at once.

    ``thetas`` has one row per point: log-abilities of every treatment but
    the first, then log nu. Returns one value per row.
    """
    n_t = len(t.treatments)
    i_idx, j_idx, r_ij, r_ji, ties = _pair_arrays(t)
    m = r_ij + r_ji + ties
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    lam = np.concatenate([np.zeros((thetas.shape[0], 1)), thetas[:, : n_t - 1]], axis=1)
    l_i = lam[:, i_idx]
    l_j = lam[:, j_idx]
    l_tie = thetas[:, -1:] + 0.5 * (l_i + l_j)
    log_d = np.logaddexp(np.logaddexp(l_i, l_j), l_tie)
    return l_i @ r_ij + l_j @ r_ji + l_tie @ ties - log_d @ m


def loop_loglik(t: Tournament, psi, nu: float) -> float:
    """Log-likelihood summed pair by pair and outcome by outcome.

    ``psi`` lists abilities in ``t.treatments`` order. Outcomes with a zero
    count add nothing; an observed outcome of probability zero gives -inf.
    """
    index = {x: k for k, x in enumerate(t.treatments)}
    total = 0.0
    for (x, y), c in t.counts.items():
        probs = win_tie_probabilities(psi[index[x]], psi[index[y]], nu)
        for count, p in zip(c, probs):
            if count:
                total += count * (math.log(p) if p > 0 else -math.inf)
    return total


# Credit of an outcome to (ability of treat_a, ability of treat_b, nu).
_VERDICT_CREDIT = {
    Verdict.FIRST_WINS: (1.0, 0.0, 0.0),
    Verdict.SECOND_WINS: (0.0, 1.0, 0.0),
    Verdict.TIE: (0.5, 0.5, 1.0),
}


def loop_scores(records, fit) -> np.ndarray:
    """Per-record score rows (columns as ``fit.param_names``), record by record."""
    index = {x: k for k, x in enumerate(fit.treatments)}
    n_t = len(fit.treatments)
    rows = np.zeros((len(records), n_t + 1))
    for row, r in zip(rows, records):
        i, j = index[r.treat_a], index[r.treat_b]
        p_a, p_b, p_tie = win_tie_probabilities(fit.psi[r.treat_a], fit.psi[r.treat_b], fit.nu)
        credit = _VERDICT_CREDIT[r.verdict]
        row[i] = credit[0] - (p_a + 0.5 * p_tie)
        row[j] = credit[1] - (p_b + 0.5 * p_tie)
        row[n_t] = credit[2] - p_tie
    keep = list(range(1, n_t)) + ([] if fit.tie_free else [n_t])
    return rows[:, keep]


def grid_search_mle(
    t: Tournament,
    *,
    box: float = 5.0,
    points: int = 5,
    margin: float = 1.25,
    final_step: float = 1e-3,
) -> np.ndarray:
    """Maximize the log-likelihood by an iteratively refined lattice search.

    Starts from a full-factorial lattice spanning [-box, box] in every
    coordinate and repeatedly recenters a shrunken lattice on the best point
    (next half-width = margin * current step), clamping windows to the box,
    until the lattice step is at or below ``final_step``. Assumes the
    tournament has at least one tie (so log nu is a coordinate).
    """
    n_t = len(t.treatments)
    dim = n_t  # n_t - 1 free log-abilities plus log nu
    center = np.zeros(dim)
    half = float(box)
    while True:
        step = 2.0 * half / (points - 1)
        low = np.clip(center, -box + half, box - half) - half
        axes = [low[k] + step * np.arange(points) for k in range(dim)]
        lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        values = batch_loglik(t, lattice)
        center = lattice[int(np.argmax(values))]
        if step <= final_step:
            return center
        half = margin * step


def is_interior(theta: np.ndarray, box: float = 5.0, edge: float = 0.1) -> bool:
    return bool(np.all(np.abs(theta) < box - edge))


def random_tournament(
    rng: np.random.Generator,
    n_treatments: int,
    max_count: int = 10,
) -> Tournament:
    """A random tournament over all pairs with counts in [0, max_count]."""
    labels = tuple(f"T{k + 1}" for k in range(n_treatments))
    counts = {}
    for a in range(n_treatments):
        for b in range(a + 1, n_treatments):
            wins_a, wins_b, ties = (int(v) for v in rng.integers(0, max_count + 1, size=3))
            if wins_a + wins_b + ties:
                counts[(labels[a], labels[b])] = PairCounts(wins_a, wins_b, ties)
    return Tournament(treatments=labels, counts=counts)


def fd_gradient(fun, theta: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for k in range(theta.size):
        offset = np.zeros_like(theta)
        offset[k] = step
        grad[k] = (fun(theta + offset) - fun(theta - offset)) / (2.0 * step)
    return grad


def quad_prob_best(means, sds, direction: str = "beneficial") -> list[float]:
    """Probability each independent normal draw is the best, by quadrature."""
    means = np.asarray(means, dtype=float)
    sds = np.asarray(sds, dtype=float)
    sign = 1.0 if direction == "beneficial" else -1.0
    m = sign * means
    out = []
    for k in range(means.size):
        others = [q for q in range(means.size) if q != k]

        def integrand(v, k=k, others=others):
            dens = norm.pdf(v, loc=m[k], scale=sds[k])
            for q in others:
                dens *= norm.cdf(v, loc=m[q], scale=sds[q])
            return dens

        value, _ = quad(integrand, -np.inf, np.inf, limit=200)
        out.append(value)
    return out


def one_shot_best_counts(means, cov, sign: float, nsim: int, seed: int) -> list[int]:
    """How often each treatment is best over ``nsim`` draws taken in one sampler call."""
    draws = np.random.default_rng(seed).multivariate_normal(
        means, cov, size=nsim, check_valid="ignore", method="eigh"
    )
    counts = [0] * len(means)
    for row in sign * draws:
        counts[int(np.argmax(row))] += 1
    return counts


def reachability(t: Tournament) -> list[list[bool]]:
    """``reach[a][b]``: treatment a reaches b along beat-or-tie edges (or a == b).

    Boolean Warshall closure of the preference graph, an edge a -> b when a
    beat or tied b at least once.
    """
    position = list(t.treatments).index
    n = len(t.treatments)
    reach = [[a == b for b in range(n)] for a in range(n)]
    for (x, y), c in t.counts.items():
        a, b = position(x), position(y)
        reach[a][b] = reach[a][b] or c.wins_first > 0 or c.ties > 0
        reach[b][a] = reach[b][a] or c.wins_second > 0 or c.ties > 0
    for k in range(n):
        for a in range(n):
            if reach[a][k]:
                reach[a] = [r or via for r, via in zip(reach[a], reach[k])]
    return reach


def floyd_warshall_nu_unbounded(t: Tournament) -> bool:
    """Whether the difference constraints of ``davidson._nu_unbounded`` are feasible.

    d_loser - d_winner <= -1 for every win and |d_x - d_y| <= 1 for every
    tie, decided by Floyd-Warshall on the n x n bound matrix: feasible iff no
    diagonal entry turns negative.
    """
    i, j, counts, n = t._i, t._j, t._counts, len(t.treatments)
    first, second = counts[:, 0] > 0, counts[:, 1] > 0
    if np.any(first & second):
        return False  # wins both ways in one pair: a negative 2-cycle
    bound = np.full((n, n), np.inf)
    np.fill_diagonal(bound, 0.0)
    ties = counts[:, 2] > 0
    bound[i[ties], j[ties]] = bound[j[ties], i[ties]] = 1.0
    bound[i[first], j[first]] = -1.0
    bound[j[second], i[second]] = -1.0
    for k in range(n):
        np.minimum(bound, bound[:, k, None] + bound[None, k, :], out=bound)
        # A simple path weighs at least -(n - 1), so the floor only stops a
        # negative cycle's walks from growing without bound.
        np.maximum(bound, -n, out=bound)
    return bool(np.all(np.diagonal(bound) >= 0.0))


def loop_tally(records, treatments) -> dict[tuple[str, str], PairCounts]:
    """Per-pair counts keyed in treatment order, one record at a time."""
    position = list(treatments).index
    cells: dict[tuple[str, str], list[int]] = {}
    for r in records:
        if position(r.treat_a) < position(r.treat_b):
            key, first = (r.treat_a, r.treat_b), Verdict.FIRST_WINS
        else:
            key, first = (r.treat_b, r.treat_a), Verdict.SECOND_WINS
        cell = cells.setdefault(key, [0, 0, 0])
        if r.verdict is Verdict.TIE:
            cell[2] += 1
        elif r.verdict is first:
            cell[0] += 1
        else:
            cell[1] += 1
    ordered = sorted(cells, key=lambda k: (position(k[0]), position(k[1])))
    return {k: PairCounts(*cells[k]) for k in ordered}


def simulate_records(rng, n: int, draw, nu: float) -> list[PreferenceRecord]:
    """Draw preference records from the tie-extended model.

    ``draw(rng)`` supplies one record's ``(covariates, abilities)``, so the
    caller controls how (and whether) abilities move with the covariates. The
    treatment pair is chosen uniformly and the outcome sampled from the
    model's win/win/tie probabilities at those abilities.
    """
    records = []
    verdicts = (Verdict.FIRST_WINS, Verdict.SECOND_WINS, Verdict.TIE)
    for idx in range(n):
        covariates, abilities = draw(rng)
        labels = list(abilities)
        k = int(rng.integers(len(labels)))
        j = int(rng.integers(len(labels) - 1))
        x = labels[k]
        y = labels[j if j < k else j + 1]
        probs = win_tie_probabilities(abilities[x], abilities[y], nu)
        u = float(rng.random())
        outcome = 0 if u < probs[0] else (1 if u < probs[0] + probs[1] else 2)
        records.append(
            PreferenceRecord(
                study_id=f"s{idx}",
                treat_a=x,
                treat_b=y,
                verdict=verdicts[outcome],
                covariates=covariates,
            )
        )
    return records


def reference_stability_test(
    records,
    covariate: str,
    fit,
    kind=None,
    *,
    permutations: int = 1000,
    rng: np.random.Generator | None = None,
    trim: float = 0.10,
    min_records: int = 10,
) -> tuple[float, float]:
    """``partition.stability_test`` as it was before its workspace was bounded.

    Every permutation block holds up to 256 full-length (n, p) gathers and
    a second full-length array of their cumulative sums.
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


# ---------------------------------------------------------------- scalar solver
# ``davidson``'s likelihood core and Newton solver for one tournament, as they
# were before they took a leading candidate axis.

_CREDIT = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 1.0]])
_CREDIT_PRODUCTS = np.einsum("ka,kb->abk", _CREDIT, _CREDIT).reshape(9, 3)


def _scalar_log_probabilities(lam, log_nu, i, j):
    l_i, l_j = lam[i], lam[j]
    logits = np.stack((l_i, l_j, log_nu + 0.5 * (l_i + l_j)), axis=1)
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _scalar_loglik(counts, log_p):
    terms = np.multiply(counts, log_p, out=np.zeros_like(log_p), where=counts > 0)
    return float(terms.sum())


def _scalar_pair_credit(counts, p):
    expected = counts.sum(axis=1, keepdims=True) * (p @ _CREDIT)
    return counts @ _CREDIT, expected


class ScalarDavidsonObjective:
    """``davidson.DavidsonObjective`` for one tournament, with its evaluation memo."""

    def __init__(self, t: Tournament):
        self.treatments = t.treatments
        self.n_treatments = n = len(t.treatments)
        self._i, self._j, self._counts = t._i, t._j, t._counts
        self.has_tie_param = t.total_ties > 0
        self.n_params = n - 1 + (1 if self.has_tie_param else 0)
        self._free = slice(1, self.n_params + 1)
        self._slots = np.stack((self._i, self._j, np.full_like(self._i, n)))
        self._cells = (self._slots[:, None, :] * (n + 1) + self._slots[None, :, :]).ravel()
        self._memo = None

    def _scatter(self, per_pair):
        return np.bincount(
            self._slots.ravel(), weights=per_pair.T.ravel(), minlength=self.n_treatments + 1
        )

    def _evaluate(self, theta):
        key = np.asarray(theta, dtype=float).tobytes()
        memo = self._memo
        if memo is not None and memo[0] == key:
            return memo[1], memo[2]
        n = self.n_treatments
        lam = np.concatenate(([0.0], np.asarray(theta[: n - 1], dtype=float)))
        log_nu = theta[-1] if self.has_tie_param else -math.inf
        log_p = _scalar_log_probabilities(lam, log_nu, self._i, self._j)
        p = np.exp(log_p)
        self._memo = (key, log_p, p)
        return log_p, p

    def value(self, theta):
        return _scalar_loglik(self._counts, self._evaluate(theta)[0])

    def gradient(self, theta):
        observed, expected = _scalar_pair_credit(self._counts, self._evaluate(theta)[1])
        return self._scatter(observed - expected)[self._free]

    def hessian(self, theta):
        p = self._evaluate(theta)[1].T
        mean = _CREDIT.T @ p
        cov = (_CREDIT_PRODUCTS @ p).reshape(3, 3, -1) - mean[:, None, :] * mean[None, :, :]
        size = self.n_treatments + 1
        weights = (-self._counts.sum(axis=1) * cov).ravel()
        full = np.bincount(self._cells, weights=weights, minlength=size**2).reshape(size, size)
        return full[self._free, self._free]

    def mm_step(self, theta):
        observed, expected = _scalar_pair_credit(self._counts, self._evaluate(theta)[1])
        used = slice(0, self.n_params + 1)
        lift = np.log(self._scatter(observed)[used]) - np.log(self._scatter(expected)[used])
        new_theta = theta + lift[1:]
        new_theta[: self.n_treatments - 1] -= lift[0]
        return new_theta


def scalar_maximize(obj, theta, max_iterations, grad_tol, step_tol):
    value = obj.value(theta)
    for iteration in range(1, max_iterations + 1):
        grad = obj.gradient(theta)
        if np.max(np.abs(grad)) < grad_tol:
            return theta, iteration - 1
        step = None
        try:
            step = np.linalg.solve(-obj.hessian(theta), grad)
        except np.linalg.LinAlgError:
            pass
        candidate = None
        if step is not None and np.all(np.isfinite(step)):
            scale = 1.0
            while scale >= 1e-12:
                trial = theta + scale * step
                trial_value = obj.value(trial)
                if math.isfinite(trial_value) and trial_value >= value - 1e-12:
                    candidate = (trial, trial_value)
                    break
                scale *= 0.5
        if candidate is None:
            trial = obj.mm_step(theta)
            candidate = (trial, obj.value(trial))
        new_theta, new_value = candidate
        if np.max(np.abs(new_theta - theta)) < step_tol:
            return new_theta, iteration
        theta, value = new_theta, new_value
    raise ConvergenceError(
        f"no convergence after {max_iterations} iterations "
        f"(gradient max-norm {np.max(np.abs(obj.gradient(theta))):.3g})"
    )


def reference_fit(t: Tournament, max_iterations=10_000, grad_tol=1e-8, step_tol=1e-10):
    """``(log_params, covariance, loglik, iterations)`` as ``fit_davidson`` computed
    them from a tournament that passes its checks."""
    obj = ScalarDavidsonObjective(t)
    theta = np.zeros(obj.n_params)
    if obj.has_tie_param:
        theta[-1] = math.log(2.0 * t.total_ties / t.total_wins)
    theta, iterations = scalar_maximize(obj, theta, max_iterations, grad_tol, step_tol)
    covariance = np.linalg.inv(-obj.hessian(theta))
    covariance = 0.5 * (covariance + covariance.T)
    return theta, covariance, obj.value(theta), iterations


# ---------------------------------------------------------------- split search
# ``partition.best_split`` as it was when it fitted both sides of every
# candidate with ``fit_davidson``.


def _candidate_rules(kind, values):
    levels = np.unique(values)
    if isinstance(kind, Continuous):
        return ((levels[:-1] + levels[1:]) / 2.0).tolist()
    anchor, *others = levels.tolist()
    return [
        (anchor, *(lvl for bit, lvl in enumerate(others) if mask >> bit & 1))
        for mask in range(2 ** len(others) - 1)
    ]


def _fit_quietly(records, treatments):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fit_davidson(aggregate_tournament(records, treatments))


def reference_split_candidates(records, covariate, kind=None, treatments=None, *, min_node_size=10):
    """Every admissible candidate as ``((-loglik, imbalance, rule), loglik)``, in rule order."""
    records = tuple(records)
    kind, values = _read_covariate(records, covariate, kind)
    if isinstance(kind, Categorical) and (levels := np.unique(values).size) > MAX_SPLIT_LEVELS:
        raise DataError(
            f"covariate {covariate!r} has {levels} levels; the split search "
            f"takes at most {MAX_SPLIT_LEVELS}"
        )
    if treatments is None:
        treatments = _first_seen(r.pair for r in records)
    candidates = []
    for rule in _candidate_rules(kind, values):
        left = _goes_left(rule, values)
        n_left = int(left.sum())
        n_right = len(records) - n_left
        if min(n_left, n_right) < min_node_size:
            continue
        try:
            loglik = (
                _fit_quietly(compress(records, left), treatments).loglik
                + _fit_quietly(compress(records, ~left), treatments).loglik
            )
        except ModelError:
            continue
        candidates.append(((-loglik, abs(n_left - n_right), rule), loglik))
    return candidates


def reference_best_split(records, covariate, kind=None, treatments=None, *, min_node_size=10):
    candidates = reference_split_candidates(
        records, covariate, kind, treatments, min_node_size=min_node_size
    )
    if not candidates:
        raise ModelError(
            f"no admissible split on covariate {covariate!r}: every candidate "
            "leaves a side too small or unfittable"
        )
    (_, _, rule), loglik = min(candidates, key=lambda c: c[0])
    return rule, loglik
