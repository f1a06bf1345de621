"""Independent reference implementations used only by the test suite.

Nothing here shares code with the package's optimizer: the grid search
evaluates the likelihood directly on shrinking lattices, the best-value
probabilities come from one-dimensional quadrature (or, draw for draw, from
one call of numpy's multivariate normal sampler), gradients come from
central finite differences, the log-likelihood and per-record scores are
plain loops over the scalar contest probabilities, and tournaments are
tallied record by record. Agreement between
these and the package is the point of the comparisons, so keep them
decoupled.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm

from treatrank.davidson import win_tie_probabilities
from treatrank.tcc import PairCounts, PreferenceRecord, Tournament, Verdict


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
