"""Independent reference implementations used only by the test suite.

Nothing here shares code with the package's optimizer: the grid search
evaluates the likelihood directly on shrinking lattices, the best-value
probabilities come from one-dimensional quadrature (or, draw for draw, from
one call of numpy's multivariate normal sampler), gradients come from
central finite differences, the log-likelihood and per-record scores are
plain loops over the scalar contest probabilities, tournaments are
tallied record by record, the preference graph's connectivity comes
from a boolean transitive closure, the no-finite-maximum verdict from
Floyd-Warshall on a dense bound matrix, and the command line's preference
input from a chain of per-row steps: one contrast row parsed at a time,
completed, judged by a scalar copy of the TCC, tallied and written record
by record. Agreement between
these and the package is the point of the comparisons, so keep them
decoupled. The exceptions are kept here in an earlier form of the
package's own code, because the package must match them bit for bit, so
it is the arithmetic that is under test: the sup-LM stability test
(full-length cumulative sums, blocks of 256 permutations) on the
package's score rows, the one-tournament likelihood core and Newton
solver, the split search that fits both sides of every candidate, and the
P-scores taken one league-table pair at a time, and the repeated-row
checks of a network and of a record table, one row at a time with a
``(study, frozenset)`` key per row. The two earlier forms of the ability
intervals' log-scale variance are kept as well, and the contest
probabilities on the ability scale; those the package matches to rounding
only.
"""

from __future__ import annotations

import csv
import math
import sys
import warnings
from itertools import chain, compress

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm

from treatrank.compare import _pair_entry
from treatrank.davidson import fit_davidson
from treatrank.errors import ConvergenceError, DataError, ModelError
from treatrank.partition import (
    MAX_SPLIT_LEVELS,
    _chi2_sf,
    _goes_left,
    score_contributions,
)
from treatrank.study_data import (
    Categorical,
    Continuous,
    Network,
    StudyEffect,
    _first_seen,
    _log_transform,
    _parse_covariate,
    _parse_float,
    _read_columns,
    _study_columns,
    complete_intervals,
)
from treatrank.tcc import (
    BENEFICIAL,
    PairCounts,
    PreferenceRecord,
    Tournament,
    Verdict,
    _Preferences,
    _RECORD_COLUMNS,
    _VERDICTS,
    aggregate_tournament,
    build_roe,
)


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


def scalar_win_tie_probabilities(
    psi_x: float, psi_y: float, nu: float
) -> tuple[float, float, float]:
    """Win/win/tie probabilities for one contest, on the ability scale.

    The package's formula before it went through the log-space likelihood
    core, kept verbatim so that the loops below and the records they simulate
    keep their bits.
    """
    if not (0 < psi_x < math.inf and 0 < psi_y < math.inf):
        raise DataError(f"abilities must be positive and finite, got ({psi_x}, {psi_y})")
    if not 0 <= nu < math.inf:  # nu = 0 is the tie-free model
        raise DataError(f"tie prevalence must be non-negative and finite, got {nu}")
    root = math.sqrt(psi_x * psi_y)
    denom = psi_x + psi_y + nu * root
    return psi_x / denom, psi_y / denom, nu * root / denom


def loop_loglik(t: Tournament, psi, nu: float) -> float:
    """Log-likelihood summed pair by pair and outcome by outcome.

    ``psi`` lists abilities in ``t.treatments`` order. Outcomes with a zero
    count add nothing; an observed outcome of probability zero gives -inf.
    """
    index = {x: k for k, x in enumerate(t.treatments)}
    total = 0.0
    for (x, y), c in t.counts.items():
        probs = scalar_win_tie_probabilities(psi[index[x]], psi[index[y]], nu)
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
        p_a, p_b, p_tie = scalar_win_tie_probabilities(
            fit.psi[r.treat_a], fit.psi[r.treat_b], fit.nu
        )
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


def separable_grid_search_mle(
    t: Tournament,
    *,
    box: float = 5.0,
    points: int = 5,
    margin: float = 1.25,
    final_step: float = 1e-3,
) -> np.ndarray:
    """:func:`grid_search_mle` with each lattice's log-likelihood summed from
    per-pair tables.

    A pair's term depends on three coordinates only: its two log-abilities
    (the first treatment's is 0) and log nu. So it is evaluated on its own
    ``points``^3 sub-lattice and broadcast-added into the ``points``^dim
    array. The lattices, the argmax and the recentring and shrinking rule
    are those of :func:`grid_search_mle`; only the order of the sum differs.
    """
    n_t = len(t.treatments)
    dim = n_t  # n_t - 1 free log-abilities plus log nu
    pairs = list(zip(*_pair_arrays(t)))
    center = np.zeros(dim)
    half = float(box)
    while True:
        step = 2.0 * half / (points - 1)
        low = np.clip(center, -box + half, box - half) - half
        axes = [low[k] + step * np.arange(points) for k in range(dim)]

        def along(axis):  # the lattice values of one coordinate, laid along its axis
            shape = [1] * dim
            shape[axis] = points
            return axes[axis].reshape(shape)

        def log_ability(k):  # treatment k's; the first treatment's is 0
            return np.zeros([1] * dim) if k == 0 else along(k - 1)

        log_nu = along(dim - 1)
        values = np.zeros((points,) * dim)
        for i, j, r_ij, r_ji, ties in pairs:
            l_i, l_j = log_ability(i), log_ability(j)
            l_tie = log_nu + 0.5 * (l_i + l_j)
            log_d = np.logaddexp(np.logaddexp(l_i, l_j), l_tie)
            values += l_i * r_ij + l_j * r_ji + l_tie * ties - log_d * (r_ij + r_ji + ties)
        # The flat argmax of grid_search_mle's lattice, whose rows are in C order.
        best = np.unravel_index(np.argmax(values), values.shape)
        center = np.array([axes[k][c] for k, c in enumerate(best)])
        if step <= final_step:
            return center
        half = margin * step


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


def _loop_normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _loop_pairs(lt):
    if lt.pairwise is None and lt.covariance is None:
        warnings.warn(
            "no covariance supplied; pairwise SEs assume independent basic estimates",
            UserWarning,
            stacklevel=3,
        )
    for i, x in enumerate(lt.treatments):
        for y in lt.treatments[i + 1 :]:
            yield x, y, _pair_entry(lt, x, y)


def loop_p_scores(lt) -> dict[str, float]:
    """``compare.p_scores`` one pair at a time, each pair looked up on its own."""
    d = 1.0 if lt.direction == BENEFICIAL else -1.0
    beats: dict[str, dict[str, float]] = {x: {} for x in lt.treatments}
    for x, y, (estimate, se) in _loop_pairs(lt):
        if se <= 0:
            raise DataError(f"pair ({x!r}, {y!r}) needs a positive SE, got {se}")
        p = _loop_normal_cdf(d * estimate / se)
        beats[x][y] = p
        beats[y][x] = 1.0 - p
    n_rivals = len(lt.treatments) - 1
    return {x: math.fsum(row.values()) / n_rivals for x, row in beats.items()}


def loop_p_scores_civ(lt, mcid: float) -> dict[str, float]:
    """``compare.p_scores_civ`` one pair at a time, each pair looked up on its own."""
    if mcid <= 1.0:
        raise DataError(f"mcid must exceed 1 on the ratio scale, got {mcid}")
    d = 1.0 if lt.direction == BENEFICIAL else -1.0
    shift = math.log(mcid)
    scores: dict[str, list[float]] = {x: [] for x in lt.treatments}
    for x, y, (estimate, se) in _loop_pairs(lt):
        if se <= 0:
            raise DataError(f"pair ({x!r}, {y!r}) needs a positive SE, got {se}")
        scores[x].append(_loop_normal_cdf((d * estimate - shift) / se))
        scores[y].append(_loop_normal_cdf((-d * estimate - shift) / se))
    n_rivals = len(lt.treatments) - 1
    return {x: math.fsum(row) / n_rivals for x, row in scores.items()}


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
        probs = scalar_win_tie_probabilities(abilities[x], abilities[y], nu)
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


def record_covariate(records, covariate: str, kind=None):
    """The covariate's kind and its values, read record by record, as floats or strings.

    A missing value, a continuous value that is no number and a constant
    covariate are ``DataError``s, checked in that order.
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
        try:
            values = [float(v) for v in values]
        except ValueError as error:
            raise DataError(f"continuous covariate {covariate!r}: {error}") from None
    else:
        values = [str(v) for v in values]
    values = np.array(values)
    if np.unique(values).size < 2:
        raise DataError(f"covariate {covariate!r} is constant on these records")
    return kind, values


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
    kind, values = record_covariate(records, covariate, kind)
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


# ---------------------------------------------------------------- log-scale variances
# The delta-method variances of the ability intervals in the two forms ``davidson``
# had before one rule gave both; the package matches them to rounding, not bit for bit.


def einsum_log_pi_variance(fit) -> np.ndarray:
    """Var(log pi_x) for every treatment x, from the n x (n - 1) gradient matrix
    d log pi_x / d lambda_z = 1{x = z} - pi_z over the free log-abilities."""
    n = len(fit.treatments)
    pi = np.asarray([fit.pi[x] for x in fit.treatments])
    grads = np.eye(n)[:, 1:] - pi[1:]
    return np.einsum("ki,ij,kj->k", grads, fit.covariance[: n - 1, : n - 1], grads)


def named_ratio_variance(fit, denominator: str) -> np.ndarray:
    """Var(log psi_x - log psi_d) for every treatment x: B_xx + B_dd - 2 B_xd, with B
    the covariance of all log-abilities (reference row and column zero)."""
    n = len(fit.treatments)
    block = np.zeros((n, n))
    block[1:, 1:] = fit.covariance[: n - 1, : n - 1]
    d = fit.treatments.index(denominator)
    return np.diagonal(block) + block[d, d] - 2.0 * block[:, d]


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
    kind, values = record_covariate(records, covariate, kind)
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


# --- the command line's preference input, one row at a time -------------------------


def reference_read_columns(source, mandatory=()) -> dict[str, tuple[str, ...]]:
    """``study_data._read_columns`` as it read a table one row at a time: every kept
    row's stripped, padded cells in one list of rows, transposed at the end."""
    lines = iter(source)
    first = next(lines, "")
    reader = csv.reader(chain((first.removeprefix("\ufeff"),), lines))
    stripped = (list(map(str.strip, cells)) for cells in reader)
    kept = (cells for cells in stripped if any(cells))
    fields = next(kept, None)
    if fields is None:
        raise DataError("empty input: no header row")
    if len(set(fields)) < len(fields):
        repeated = next(name for k, name in enumerate(fields) if name in fields[:k])
        raise DataError(f"column {repeated!r} appears more than once in the header")
    missing = [c for c in mandatory if c not in fields]
    if missing:
        raise DataError(f"missing mandatory column(s): {', '.join(missing)}")
    width = len(fields)
    rows = []
    for row_num, cells in enumerate(kept, start=2):
        if len(cells) > width:
            raise DataError(f"row {row_num}: expected {width} cells, got {len(cells)}")
        cells += [""] * (width - len(cells))
        rows.append(cells)
    return dict(zip(fields, zip(*rows))) if rows else dict.fromkeys(fields, ())


def per_row_parse(stream, scale: str) -> Network:
    """A contrast table read the way ``parse_contrast_table`` read it before its
    columnar core: the label and covariate checks over every row, then one row's
    numbers at a time into a ``StudyEffect`` whose completed interval is finite."""
    columns = _read_columns(stream, ("study", "treat1", "treat2", "effect"))
    fields = list(columns)
    rows = [(i, dict(zip(fields, cells))) for i, cells in enumerate(zip(*columns.values()), 2)]
    has_bounds = "lower" in fields and "upper" in fields
    if "se" not in fields and not has_bounds:
        raise DataError("need an 'se' column or both 'lower' and 'upper' columns")
    reserved = {"study", "treat1", "treat2", "effect", "se", "lower", "upper", "ci_level"}
    names = [f for f in fields if f not in reserved]
    if "" in names:
        raise DataError(
            f"column {fields.index('') + 1} has no header name; name it, or drop it "
            "(in R, write.csv(..., row.names = FALSE))"
        )
    schema = {}
    for name in names:
        cells = {row[name] for _, row in rows} - {""}
        try:
            numbers = [float(c) for c in cells - {"NA"}]
        except ValueError:
            numbers = None
        schema[name] = Continuous() if numbers or not cells else Categorical(tuple(sorted(cells)))
    covariates = []
    for i, row in rows:
        if not (row["study"] and row["treat1"] and row["treat2"]):
            raise DataError(f"row {i}: study and both treatment labels are required")
        covariates.append({n: _parse_covariate(n, schema[n], row[n], i) for n in names})
    effects = []
    for (i, row), values in zip(rows, covariates):
        effect = _parse_float(row["effect"], "effect", i)
        se = _parse_float(row.get("se"), "standard error", i, required=False)
        lower = upper = None
        if has_bounds:
            lower = _parse_float(row["lower"], "lower bound", i, required=False)
            upper = _parse_float(row["upper"], "upper bound", i, required=False)
        if scale == "ratio":
            effect = _log_transform(effect, "effect", i)
            lower = _log_transform(lower, "lower bound", i)
            upper = _log_transform(upper, "upper bound", i)
        ci_level = _parse_float(row.get("ci_level"), "ci_level", i, required=False)
        contrast = StudyEffect(row["study"], row["treat1"], row["treat2"], effect, se, lower,
                               upper, 0.95 if ci_level is None else ci_level, values)
        complete_intervals(contrast)  # raises when the completed interval or SE is not finite
        effects.append(contrast)
    treatments = tuple(dict.fromkeys(label for e in effects for label in e.pair))
    return Network(treatments, tuple(effects), schema)


def per_row_warnings(network: Network) -> list[str]:
    """The command line's warnings about a network, from loops over its contrasts."""
    used = {label for e in network.effects for label in e.pair}
    lines = [f"warning: treatment {t!r} appears in no contrast"
             for t in network.treatments if t not in used]
    studies: dict[str, list[StudyEffect]] = {}
    for e in network.effects:
        studies.setdefault(e.study_id, []).append(e)
    for study, contrasts in studies.items():
        arms = {label for e in contrasts for label in e.pair}
        expected = len(arms) * (len(arms) - 1) // 2
        if len(contrasts) < expected:
            lines.append(f"warning: study {study!r} has {len(contrasts)} of {expected} "
                         "pairwise contrasts")
    lines.extend(f"warning: covariate {name!r} has missing values"
                 for name in network.covariate_schema
                 if any(e.covariates.get(name) is None for e in network.effects))
    return lines


def scalar_verdict(e: StudyEffect, roe) -> Verdict:
    """The treatment-choice criterion for one completed contrast, in scalar arithmetic."""
    y, lo, hi = e.effect, e.ci_lower, e.ci_upper
    i1 = 1 if (lo > roe.roe_upper) or (y > roe.roe_upper and lo > roe.null_effect) else 0
    i2 = -1 if (hi < roe.roe_lower) or (y < roe.roe_lower and hi < roe.null_effect) else 0
    if i1 + i2 == 0:
        return Verdict.TIE
    first = (i1 + i2 == 1) == (roe.direction == BENEFICIAL)
    return Verdict.FIRST_WINS if first else Verdict.SECOND_WINS


class PerRowPreferences:
    """The preference input that the command line reads, built record by record."""

    def __init__(self, records, treatments, schema):
        self._records, self.treatments, self.schema = tuple(records), treatments, schema
        self.study = [r.study_id for r in self._records]

    def records(self):
        return self._records

    def tournament(self) -> Tournament:
        return Tournament(self.treatments, loop_tally(self._records, self.treatments))

    def dump(self, stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["study", "treat1", "treat2", "verdict", *self.schema])
        for r in self._records:
            cells = [r.covariates.get(name) for name in self.schema]
            writer.writerow([r.study_id, r.treat_a, r.treat_b, r.verdict.value]
                            + ["" if v is None else repr(v) if isinstance(v, float) else v
                               for v in cells])


def per_row_read_preferences(config) -> PerRowPreferences:
    """The command line's contrast input as a chain of per-row steps: parse, warn,
    ``complete_intervals``, the scalar TCC, then records. The flags that judge the
    contrasts are checked before the input is read."""
    if config.mcid is None:
        raise DataError("--mcid is required to derive preference records from contrasts")
    roe = build_roe(config.mcid, config.roe_lower, config.roe_upper, config.direction)
    with open(config.input, encoding="utf-8", newline="") as stream:
        network = per_row_parse(stream, config.scale)
    for line in per_row_warnings(network):
        print(line, file=sys.stderr)
    records = []
    for e in network.effects:
        verdict = scalar_verdict(complete_intervals(e), roe)
        records.append(PreferenceRecord(e.study_id, e.treat_a, e.treat_b, verdict, e.covariates))
    return PerRowPreferences(records, network.treatments, network.covariate_schema)


# --- the repeated-row rule, one row at a time ----------------------------------------


def per_row_network_checks(treatments, effects) -> None:
    """``Network.__post_init__`` as it checked a network: one effect at a time."""
    known = set(treatments)
    seen_pairs: set[tuple[str, frozenset[str]]] = set()
    for e in effects:
        for label in (e.treat_a, e.treat_b):
            if label not in known:
                raise DataError(f"treatment {label!r} missing from the treatment set")
        key = (e.study_id, frozenset(e.pair))
        if key in seen_pairs:
            raise DataError(
                f"duplicate contrast for pair {e.pair} in study {e.study_id!r}"
            )
        seen_pairs.add(key)


def per_row_read_records(source, schema=None) -> _Preferences:
    """``tcc._read_records`` as it checked a record table: one row at a time."""
    columns = _read_columns(source, _RECORD_COLUMNS)
    studies = _study_columns(columns, _RECORD_COLUMNS, schema)
    outcome = {v.value: k for k, v in enumerate(_VERDICTS)}
    seen: set[tuple[str, frozenset[str]]] = set()
    for i, (study, t1, t2, verdict) in enumerate(zip(*map(columns.get, _RECORD_COLUMNS)), 2):
        if verdict not in outcome:
            raise DataError(f"row {i}: verdict must be one of {sorted(outcome)}, got {verdict!r}")
        key = (study, frozenset((t1, t2)))
        if key in seen:
            raise DataError(f"row {i}: duplicate record for pair ({t1}, {t2}) in study {study!r}")
        seen.add(key)
        if t1 == t2:
            raise DataError(f"study {study!r}: preference pair members must differ")
    codes = np.array([outcome[v] for v in columns["verdict"]], dtype=np.intp)
    return _Preferences(**vars(studies), outcome=codes)
