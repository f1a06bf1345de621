"""Tie-extended Bradley-Terry (Davidson) ranking model.

Each treatment carries a positive latent ability psi. For a contest between
X and Y the outcome probabilities are

    Pr(X wins) = psi_X / D,    Pr(tie) = nu * sqrt(psi_X * psi_Y) / D,
    D = psi_X + psi_Y + nu * sqrt(psi_X * psi_Y),

with a single tie-prevalence parameter nu >= 0. The probabilities are
degree-0 homogeneous in the abilities, so only ability ratios are
identifiable; fitting pins the first treatment's log-ability at 0 and works
on theta = (log-abilities of the rest, log nu), where the trinomial
log-likelihood is concave. Estimation runs damped Newton iterations with a
minorization-maximization sweep as fallback for ill-conditioned steps.
Uncertainty comes from the inverse observed information of theta and is
propagated to normalized abilities and ability ratios on the log scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from statistics import NormalDist
from typing import Mapping, Sequence

import numpy as np

from .errors import ConvergenceError, DataError, FordConditionError, ModelError, OnlyTiesError
from .tcc import Tournament

__all__ = [
    "AVERAGE",
    "AbilityFit",
    "AbilityRatio",
    "DavidsonObjective",
    "NormalizedAbility",
    "ability_ratios",
    "check_ford",
    "fit_davidson",
    "log_likelihood",
    "normalized_abilities",
    "pairwise_probabilities",
    "win_tie_probabilities",
]


class _AverageAbility:
    """Sentinel denominator: a fictional treatment whose ability is the mean ability."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "AVERAGE"


AVERAGE = _AverageAbility()


def win_tie_probabilities(psi_x: float, psi_y: float, nu: float) -> tuple[float, float, float]:
    """Win/win/tie probabilities for one contest, on the ability scale.

    Parameters
    ----------
    psi_x, psi_y : positive abilities of the two treatments.
    nu : tie-prevalence parameter, >= 0.

    Returns
    -------
    (p_x_wins, p_y_wins, p_tie), summing to 1.
    """
    if psi_x <= 0 or psi_y <= 0:
        raise DataError(f"abilities must be positive, got ({psi_x}, {psi_y})")
    if nu < 0:
        raise DataError(f"tie prevalence must be non-negative, got {nu}")
    root = math.sqrt(psi_x * psi_y)
    denom = psi_x + psi_y + nu * root
    return psi_x / denom, psi_y / denom, nu * root / denom


def _ability_vector(t: Tournament, psi) -> np.ndarray:
    if isinstance(psi, Mapping):
        missing = [x for x in t.treatments if x not in psi]
        if missing:
            raise DataError(f"abilities missing for treatment(s): {', '.join(missing)}")
        values = np.asarray([float(psi[x]) for x in t.treatments])
    else:
        values = np.asarray([float(v) for v in psi])
        if values.shape != (len(t.treatments),):
            raise DataError(
                f"ability vector has length {values.size}, expected {len(t.treatments)}"
            )
    if np.any(values <= 0):
        raise DataError("abilities must be positive componentwise")
    return values


# The likelihood core. Every pair (i, j) with records is one row of a
# (P, 3) count array over the outcomes (i wins, j wins, tie). An outcome
# credits the pair's three parameter slots (lambda_i, lambda_j, log nu) by
# one row of _CREDIT; each pair's score is its observed credit minus the
# expected credit, and gradient, Hessian, MM step and per-record scores are
# scatter-sums of these per-pair quantities. Every function also takes
# leading axes, one per independent tournament over the same pairs; each
# reduction runs over the trailing axes only, so a single tournament goes
# through exactly the operations it would alone.
_CREDIT = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 1.0]])
# Row (a, b): the product of the credits to slots a and b, per outcome.
_CREDIT_PRODUCTS = np.einsum("ka,kb->abk", _CREDIT, _CREDIT).reshape(9, 3)


def _log_nu(nu: float) -> float:
    return math.log(nu) if nu > 0 else -math.inf


def _log_probabilities(lam: np.ndarray, log_nu, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """(..., P, 3) log win/win/tie probabilities of the pairs ``(i[p], j[p])``.

    ``lam`` holds log-abilities (..., n) and ``log_nu`` has shape (...);
    ``log_nu = -inf`` is the tie-free model. The log-denominator is a
    max-shifted three-term log-sum-exp, finite for any finite log-abilities.
    """
    l_i, l_j = lam[..., i], lam[..., j]
    logits = np.stack((l_i, l_j, np.expand_dims(log_nu, -1) + 0.5 * (l_i + l_j)), axis=-1)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _loglik(counts: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """``counts . log_p`` over the last two axes; unobserved outcomes add 0, even at -inf."""
    terms = np.multiply(counts, log_p, out=np.zeros_like(log_p), where=counts > 0)
    return terms.sum(axis=(-2, -1))


def _pair_credit(counts: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Observed and expected credit of each pair on its three parameter slots,
    given the pairs' (..., P, 3) outcome probabilities ``p``."""
    expected = counts.sum(axis=-1, keepdims=True) * (p @ _CREDIT)
    return counts @ _CREDIT, expected


def _scatter_rows(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Sum the (..., m) ``weights`` into ``size`` bins by ``index``, row by row.

    One ``bincount`` over all rows, each offset into its own bins; within a
    row it adds in the order of ``index``, as a bincount of that row would.
    """
    lead = weights.shape[:-1]
    rows = math.prod(lead)
    offsets = size * np.arange(rows)[:, None]
    sums = np.bincount(
        (index + offsets).ravel(), weights=weights.reshape(rows, -1).ravel(), minlength=rows * size
    )
    return sums.reshape(*lead, size)


def log_likelihood(t: Tournament, psi, nu: float) -> float:
    """Trinomial log-likelihood of a tournament at the given abilities.

    Every unordered pair contributes its full win/win/tie trinomial; pairs
    without records contribute 0. Zero-probability outcomes with a positive
    count yield -inf.
    """
    values = _ability_vector(t, psi)
    if nu < 0:
        raise DataError(f"tie prevalence must be non-negative, got {nu}")
    return float(_loglik(t._counts, _log_probabilities(np.log(values), _log_nu(nu), t._i, t._j)))


def _preference_edges(
    i: np.ndarray, j: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The preference graphs of (..., P, 3) ``counts`` on the pairs ``(i, j)``.

    Returns ``(source, target, weight, present)``: the 2P possible directed
    edges as treatment indices, X -> Y and then Y -> X per pair, and per
    count row which of them run. An edge X -> Y runs when X beat Y at least
    once (weight -1) or, failing that, tied with Y (weight +1).
    """
    first, second, ties = np.moveaxis(counts > 0, -1, 0)
    wins = np.concatenate((first, second), axis=-1)
    present = wins | np.concatenate((ties, ties), axis=-1)
    return np.concatenate((i, j)), np.concatenate((j, i)), np.where(wins, -1, 1), present


def _reached(n: int, source: np.ndarray, target: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Which of ``n`` nodes node 0 reaches along the ``present`` edges, per row
    of the (..., E) mask: one frontier step over all edges per round."""
    seen = np.zeros(present.shape[:-1] + (n,), dtype=bool)
    seen[..., 0] = True
    while True:
        hit = np.nonzero(present & seen[..., source] & ~seen[..., target])
        if not hit[-1].size:
            return seen
        seen[hit[:-1] + (target[hit[-1]],)] = True


def _ford_passes(n: int, i: np.ndarray, j: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """:func:`check_ford` on each row of (..., P, 3) ``counts``: whether it passes."""
    source, target, _, present = _preference_edges(i, j, counts)
    return (
        _reached(n, source, target, present).all(axis=-1)
        & _reached(n, target, source, present).all(axis=-1)
    )


def check_ford(t: Tournament) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """Regularity check guaranteeing a finite, unique ability MLE.

    Builds the directed preference graph — an edge X -> Y when X beat Y at
    least once, and edges both ways when they tied — and requires strong
    connectivity: every bipartition (S, S-complement) must have some
    treatment outside S beating or tying some treatment in S. A tie counts
    in both directions because tied contests shrink in probability as the
    two abilities drift apart, anchoring the likelihood just as a win does.

    Two searches from the first treatment decide it, forward and backward,
    each a frontier step over the P pairs' edges per round, at most as many
    rounds as the longest shortest path from or to the first treatment.
    Returns None on pass, else one violating bipartition as
    ``(subset, complement)``, each in treatment order: no treatment in
    ``complement`` ever beats or ties a treatment in ``subset``. When some
    treatment cannot be reached from the first one along the edges,
    ``subset`` holds every such treatment and ``complement`` the reached
    ones, the first included. Otherwise, when some treatment cannot reach
    the first one, ``subset`` holds the treatments that can, the first
    included, and ``complement`` the rest.
    """
    n = len(t.treatments)
    if n == 0:
        return None
    source, target, _, present = _preference_edges(t._i, t._j, t._counts)
    inside = ~_reached(n, source, target, present)
    if not inside.any():
        inside = _reached(n, target, source, present)
        if inside.all():
            return None
    return (
        tuple(x for x, k in zip(t.treatments, inside) if k),
        tuple(x for x, k in zip(t.treatments, inside) if not k),
    )


def _wins_both_ways(counts: np.ndarray) -> np.ndarray:
    """Whether some pair of the (..., P, 3) ``counts`` has wins in both directions."""
    return np.any((counts[..., 0] > 0) & (counts[..., 1] > 0), axis=-1)


def _unbounded(n: int, i: np.ndarray, j: np.ndarray, counts: np.ndarray) -> bool:
    """:func:`_nu_unbounded` on the (P, 3) count array of ``n`` treatments."""
    if _wins_both_ways(counts):
        return False  # a negative 2-cycle
    source, target, weight, present = _preference_edges(i, j, counts)
    source, target, weight = source[present], target[present], weight[present]
    distance = np.zeros(n, dtype=np.intp)
    for _ in range(n):
        relaxed = distance[source] + weight
        if not np.any(relaxed < distance[target]):
            return True
        np.minimum.at(distance, target, relaxed)
    return False


def _nu_unbounded(t: Tournament) -> bool:
    """Whether the likelihood keeps rising as nu grows and the abilities spread.

    Move log nu by t / 2 and the log-abilities by t * d. As t grows, the
    probability of an observed outcome stays bounded away from 0 exactly
    when its term dominates its pair's denominator: for a win,
    d_winner - d_loser >= 1; for a tie, |d_x - d_y| <= 1. Each pair then
    also has a dominated term, so the likelihood rises towards a supremum it
    never reaches. The conditions are difference constraints d_v - d_u <= w,
    one per preference edge u -> v of weight w, feasible iff that graph has
    no negative cycle; wins both ways in one pair are a negative 2-cycle.
    Bellman-Ford rounds from all-zero distances decide it in O(n * P) time
    and O(n + P) memory: a round that changes nothing leaves feasible
    distances, and one that still relaxes after n rounds means a negative
    cycle (Cormen et al., CLRS section 24.4).
    """
    return _unbounded(len(t.treatments), t._i, t._j, t._counts)


class DavidsonObjective:
    """Log-likelihood of a tournament as a function of the log parameters.

    The parameter vector holds the log-abilities of every treatment except
    the first (the reference, pinned at 0), followed by log nu whenever the
    tournament contains at least one tie. In these coordinates each pair's
    log-denominator is a log-sum-exp of linear maps, so the objective is
    concave and the observed information equals the expected information.

    :meth:`_of_counts` builds one objective over a stack of tournaments with
    the same pairs and the same tie model; its methods then take a
    (..., n_params) stack of parameter vectors, one per tournament.
    """

    def __init__(self, t: Tournament):
        self._bind(t.treatments, t._i, t._j, t._counts)

    @classmethod
    def _of_counts(cls, treatments, i, j, counts) -> "DavidsonObjective":
        """The objective of (..., P, 3) ``counts`` over the pairs ``(i, j)``,
        which either all have ties or all have none."""
        obj = cls.__new__(cls)
        obj._bind(tuple(treatments), i, j, counts)
        return obj

    def _bind(self, treatments, i, j, counts):
        self.treatments = treatments
        self.n_treatments = n = len(treatments)
        self._i, self._j, self._counts = i, j, counts
        self.has_tie_param = bool(np.any(counts[..., 2] > 0))
        self.n_params = n - 1 + (1 if self.has_tie_param else 0)
        self.param_names = tuple(
            [f"log_ability[{x}]" for x in treatments[1:]]
            + (["log_nu"] if self.has_tie_param else [])
        )
        # The full parameter vector holds all n log-abilities, then log nu in
        # slot n; theta is its slice after the reference. Per pair, _slots
        # lists the (lambda_i, lambda_j, log nu) slots and _cells the 3 x 3
        # block of the full (n + 1)-square Hessian, both slot-major.
        self._free = slice(1, self.n_params + 1)
        self._slots = np.stack((i, j, np.full_like(i, n)))
        self._cells = (self._slots[:, None, :] * (n + 1) + self._slots[None, :, :]).ravel()
        self._memo: tuple[tuple, np.ndarray, np.ndarray] | None = None

    def _take(self, rows: np.ndarray) -> "DavidsonObjective":
        """The objective of the tournaments selected by the boolean ``rows``;
        no row may be dropped from an objective of one tournament."""
        if rows.all():
            return self
        return self._of_counts(self.treatments, self._i, self._j, self._counts[rows])

    def _start(self) -> np.ndarray:
        """The starting point: equal abilities and, with ties, the nu whose
        tie odds nu / 2 at equal abilities match the observed tie ratio."""
        counts = self._counts
        theta = np.zeros(counts.shape[:-2] + (self.n_params,))
        if self.has_tie_param:
            ratio = 2.0 * counts[..., 2].sum(axis=-1) / counts[..., :2].sum(axis=(-2, -1))
            # math.log, as fits have always used: np.log can differ in the last bit.
            theta[..., -1] = np.frompyfunc(math.log, 1, 1)(ratio)
        return theta

    def _scatter(self, per_pair: np.ndarray) -> np.ndarray:
        """Sum (..., P, 3) per-pair slot values into the full parameter vector."""
        slot_major = np.swapaxes(per_pair, -1, -2).reshape(*per_pair.shape[:-2], -1)
        return _scatter_rows(self._slots.ravel(), slot_major, self.n_treatments + 1)

    def _evaluate(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(log_p, p)``: the pairs' (..., P, 3) log-probabilities and probabilities.

        Newton asks for the value, gradient and Hessian at one point, so the
        last point's evaluation is kept, keyed on the shape and bytes of
        ``theta``; a ``theta`` changed in place therefore gets a fresh
        evaluation.
        """
        theta = np.asarray(theta, dtype=float)
        key = (theta.shape, theta.tobytes())
        memo = self._memo
        if memo is not None and memo[0] == key:
            return memo[1], memo[2]
        n = self.n_treatments
        lam = np.concatenate((np.zeros(theta.shape[:-1] + (1,)), theta[..., : n - 1]), axis=-1)
        log_nu = theta[..., -1] if self.has_tie_param else -math.inf
        log_p = _log_probabilities(lam, log_nu, self._i, self._j)
        p = np.exp(log_p)
        self._memo = (key, log_p, p)
        return log_p, p

    def value(self, theta: np.ndarray) -> float | np.ndarray:
        return _loglik(self._counts, self._evaluate(theta)[0])

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        observed, expected = _pair_credit(self._counts, self._evaluate(theta)[1])
        return self._scatter(observed - expected)[..., self._free]

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        # A pair's information is its count times the covariance of the
        # credit its outcome gives the pair's three slots.
        # The (..., 3, 3, P) terms are the largest workspace; they are
        # updated in place.
        p = np.swapaxes(self._evaluate(theta)[1], -1, -2)
        lead = p.shape[:-2]
        mean = _CREDIT.T @ p
        weights = (_CREDIT_PRODUCTS @ p).reshape(*lead, 3, 3, -1)
        weights -= mean[..., :, None, :] * mean[..., None, :, :]
        weights *= -self._counts.sum(axis=-1)[..., None, None, :]
        size = self.n_treatments + 1
        full = _scatter_rows(self._cells, weights.reshape(*lead, -1), size**2)
        return full.reshape(*lead, size, size)[..., self._free, self._free]

    def mm_step(self, theta: np.ndarray) -> np.ndarray:
        """One minorization-maximization sweep (Hunter 2004), in log parameters.

        Every ability and nu is multiplied by its observed over its expected
        credit, then the reference is re-pinned at 0.
        """
        observed, expected = _pair_credit(self._counts, self._evaluate(theta)[1])
        used = slice(0, self.n_params + 1)
        lift = np.log(self._scatter(observed)[..., used]) - np.log(
            self._scatter(expected)[..., used]
        )
        new_theta = theta + lift[..., 1:]
        new_theta[..., : self.n_treatments - 1] -= lift[..., :1]
        return new_theta


@dataclass(frozen=True, eq=False)
class AbilityFit:
    """Fitted abilities with uncertainty on the log-parameter scale.

    ``psi`` holds the abilities rescaled to sum to 1, which makes them equal
    to the normalized abilities ``pi``; both views are kept because they
    answer different questions (latent strength vs probability of being
    preferred). ``covariance`` is the inverse observed information over
    ``log_params`` and ``se_log_ability`` maps the reference treatment to 0.
    Instances are immutable and safe to share across threads.
    """

    treatments: tuple[str, ...]
    psi: Mapping[str, float]
    nu: float
    log_params: np.ndarray
    param_names: tuple[str, ...]
    covariance: np.ndarray
    se_log_ability: Mapping[str, float]
    pi: Mapping[str, float]
    loglik: float
    converged: bool
    iterations: int
    tie_free: bool = False

    @property
    def reference(self) -> str:
        return self.treatments[0]


@dataclass(frozen=True)
class NormalizedAbility:
    """Normalized ability with its delta-method SE and log-scale Wald CI."""

    estimate: float
    se: float
    ci_lower: float
    ci_upper: float


@dataclass(frozen=True)
class AbilityRatio:
    """Ability of ``numerator`` relative to a treatment or the average ability."""

    numerator: str
    denominator: str | _AverageAbility
    estimate: float
    ci_lower: float
    ci_upper: float
    ci_level: float = 0.95


def _newton_step(neg_hessian: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve ``neg_hessian @ step = grad`` row by row; nan where a matrix is singular."""
    try:
        return np.linalg.solve(neg_hessian, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if grad.ndim == 1:
            return np.full_like(grad, np.nan)
        return np.stack([_newton_step(h, g) for h, g in zip(neg_hessian, grad)])


def _maximize(obj: DavidsonObjective, theta: np.ndarray, max_iterations: int,
              grad_tol: float, step_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton ascent from each row of an (R, n_params) ``theta``.

    Row r maximizes tournament r of ``obj`` (every row, when ``obj`` holds
    one tournament). Per row: stop at the current point once the gradient
    max-norm is below ``grad_tol``; otherwise take the Newton step, halved
    until the value falls by no more than 1e-12, or one MM sweep when no
    such step exists, and stop at the new point once it moved by less than
    ``step_tol``. A row that stops leaves the batch, and each halving and
    sweep evaluates only the rows that take it. Returns the points and, per
    row, the iterations taken, -1 where the row had not stopped after
    ``max_iterations``.
    """
    theta = theta.copy()
    iterations = np.full(len(theta), -1)
    rows = np.arange(len(theta))
    point, value = theta, obj.value(theta)

    def settle(done, taken):
        # Record the rows that stopped and drop them; True once none is left.
        nonlocal obj, rows, point, value
        theta[rows[done]], iterations[rows[done]] = point[done], taken
        if done.all():
            return True
        obj, rows, point, value = obj._take(~done), rows[~done], point[~done], value[~done]
        return False

    for iteration in range(1, max_iterations + 1):
        grad = obj.gradient(point)
        done = np.max(np.abs(grad), axis=-1) < grad_tol
        if done.any():
            if settle(done, iteration - 1):
                return theta, iterations
            grad = grad[~done]
        step = _newton_step(-obj.hessian(point), grad)
        new_point, new_value = point.copy(), value.copy()
        pending = np.ones(len(rows), dtype=bool)
        searching = np.all(np.isfinite(step), axis=-1)
        scale = 1.0
        while scale >= 1e-12 and searching.any():
            at = np.flatnonzero(searching)
            trial = point[at] + scale * step[at]
            trial_value = obj._take(searching).value(trial)
            ok = np.isfinite(trial_value) & (trial_value >= value[at] - 1e-12)
            new_point[at[ok]], new_value[at[ok]] = trial[ok], trial_value[ok]
            searching[at[ok]] = pending[at[ok]] = False
            scale *= 0.5
        if pending.any():
            # Newton step unusable (singular or non-improving): fall back to
            # one minorization-maximization sweep, which is always defined.
            sweep = obj._take(pending)
            new_point[pending] = trial = sweep.mm_step(point[pending])
            new_value[pending] = sweep.value(trial)
        done = np.max(np.abs(new_point - point), axis=-1) < step_tol
        point, value = new_point, new_value
        if done.any() and settle(done, iteration):
            return theta, iterations
    theta[rows] = point
    return theta, iterations


# The default stopping rule of fit_davidson, which the batched fits share.
_MAX_ITERATIONS, _GRAD_TOL, _STEP_TOL = 10_000, 1e-8, 1e-10


def fit_davidson(
    t: Tournament,
    *,
    max_iterations: int = _MAX_ITERATIONS,
    grad_tol: float = _GRAD_TOL,
    step_tol: float = _STEP_TOL,
) -> AbilityFit:
    """Maximum-likelihood fit of the tie-extended model to a tournament.

    The log-parametrized likelihood is maximized by damped Newton iterations
    (minorization-maximization sweeps as fallback); convergence is declared
    when the gradient max-norm drops below ``grad_tol`` or the parameter
    change below ``step_tol``. Abilities are rescaled afterwards so they sum
    to 1. A tournament with zero ties is fitted under the tie-free model with
    ``nu = 0`` and a warning, since the tie parameter would sit on the
    boundary and break the covariance.

    Raises
    ------
    OnlyTiesError
        when no record is a win, so no hierarchy is estimable.
    FordConditionError
        when the preference graph is not strongly connected.
    ModelError
        when the tournament has ties and the likelihood still has no finite
        maximum: every win can widen and every tie stay close while nu grows.
    ConvergenceError
        when the iteration cap is hit.
    """
    if len(t.treatments) < 2:
        raise DataError("need at least two treatments to rank")
    if t.total_records == 0:
        raise DataError("tournament has no records")
    if t.total_wins == 0:
        raise OnlyTiesError(
            "all records are ties; a preference hierarchy is not estimable"
        )
    failure = check_ford(t)
    if failure is not None:
        raise FordConditionError(*failure)

    obj = DavidsonObjective(t)
    if obj.has_tie_param and _nu_unbounded(t):
        raise ModelError(
            "no finite maximum-likelihood estimate: the likelihood keeps rising as "
            "the tie prevalence nu grows and the abilities spread apart with it"
        )
    if not obj.has_tie_param:
        warnings.warn(
            "tournament has no ties; fitting the tie-free model with nu = 0",
            UserWarning,
            stacklevel=2,
        )
    # One row of parameters; the objective's memo then holds the last point
    # for the Hessian and the value below.
    theta, iterations = _maximize(obj, obj._start()[None], max_iterations, grad_tol, step_tol)
    if iterations[0] < 0:
        raise ConvergenceError(
            f"no convergence after {max_iterations} iterations "
            f"(gradient max-norm {np.max(np.abs(obj.gradient(theta))):.3g})"
        )
    loglik = float(obj.value(theta)[0])
    covariance = np.linalg.inv(-obj.hessian(theta)[0])
    covariance = 0.5 * (covariance + covariance.T)
    theta = theta[0]

    n = obj.n_treatments
    lam = np.concatenate(([0.0], theta[: n - 1]))
    pi = np.exp(lam - lam.max())
    pi = pi / pi.sum()
    nu = math.exp(theta[-1]) if obj.has_tie_param else 0.0
    se = {t.treatments[0]: 0.0}
    for k, label in enumerate(t.treatments[1:]):
        se[label] = math.sqrt(max(covariance[k, k], 0.0))
    abilities = {label: float(pi[k]) for k, label in enumerate(t.treatments)}
    return AbilityFit(
        treatments=t.treatments,
        psi=abilities,
        nu=nu,
        log_params=theta,
        param_names=obj.param_names,
        covariance=covariance,
        se_log_ability=se,
        pi=dict(abilities),
        loglik=loglik,
        converged=True,
        iterations=int(iterations[0]),
        tie_free=not obj.has_tie_param,
    )


def _fittable(n: int, i: np.ndarray, j: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Which tournaments of an (R, P, 3) count stack over ``n`` treatments, on
    the pairs ``(i, j)``, pass the checks of :func:`fit_davidson`: a win, the
    Ford check and, with ties, a finite maximum. The checks run on the
    count-array helpers that :func:`check_ford` and :func:`_nu_unbounded` use."""
    passed = (counts[..., :2].sum(axis=(-2, -1)) > 0) & _ford_passes(n, i, j, counts)
    ties = counts[..., 2].sum(axis=-1) > 0
    for r in np.flatnonzero(passed & ties & ~_wins_both_ways(counts)):
        passed[r] = not _unbounded(n, i, j, counts[r])
    return passed


def _max_logliks(treatments, i: np.ndarray, j: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Maximized log-likelihood of each tournament in an (R, P, 3) count stack.

    Row r is a tournament over ``treatments`` that passes :func:`_fittable`;
    its counts are on the pairs ``(i, j)``, some of which may have none.
    The rows are maximized together, one batch with the tie parameter and
    one without, each from the same start by the same rule and defaults as
    :func:`fit_davidson`, whose ``loglik`` each gets up to the order of
    float sums; nan where a row hits the iteration cap.
    """
    used = counts.any(axis=(0, 2))  # pairs without records in any row add nothing
    i, j, counts = i[used], j[used], counts[:, used]
    ties = counts[..., 2].sum(axis=-1) > 0
    logliks = np.full(len(counts), np.nan)
    for tie_model in (False, True):
        rows = np.flatnonzero(ties == tie_model)
        if rows.size:
            obj = DavidsonObjective._of_counts(treatments, i, j, counts[rows])
            theta, iterations = _maximize(obj, obj._start(), _MAX_ITERATIONS, _GRAD_TOL, _STEP_TOL)
            logliks[rows] = np.where(iterations >= 0, obj.value(theta), np.nan)
    return logliks


def pairwise_probabilities(f: AbilityFit, x: str, y: str) -> tuple[float, float, float]:
    """Win/win/tie probabilities between two fitted treatments."""
    for label in (x, y):
        if label not in f.psi:
            raise DataError(f"unknown treatment {label!r}")
    if x == y:
        raise DataError(f"need two distinct treatments, got {x!r} twice")
    return win_tie_probabilities(f.psi[x], f.psi[y], f.nu)


def _ability_block(f: AbilityFit) -> np.ndarray:
    """Covariance of all log-abilities, reference row/column zero."""
    n = len(f.treatments)
    block = np.zeros((n, n))
    block[1:, 1:] = f.covariance[: n - 1, : n - 1]
    return block


def _log_pi_variance(f: AbilityFit) -> np.ndarray:
    """Delta-method variance of each log normalized ability."""
    n = len(f.treatments)
    pi = np.asarray([f.pi[x] for x in f.treatments])
    block = f.covariance[: n - 1, : n - 1]
    # d log pi_x / d lambda_z = 1{x = z} - pi_z over the free log-abilities.
    grads = np.eye(n)[:, 1:] - pi[1:]
    return np.einsum("ki,ij,kj->k", grads, block, grads)


def _wald_intervals(
    estimates: Sequence[float], log_variances: Sequence[float], ci_level: float
) -> list[tuple[float, float, float]]:
    """``(se_log, lower, upper)`` per estimate: a log-scale Wald interval, exponentiated."""
    if not (0.0 < ci_level < 1.0):
        raise DataError(f"ci_level must be in (0, 1), got {ci_level}")
    z = NormalDist().inv_cdf((1.0 + ci_level) / 2.0)
    out = []
    for estimate, log_var in zip(estimates, log_variances):
        se_log = math.sqrt(max(log_var, 0.0))
        out.append((se_log, estimate * math.exp(-z * se_log), estimate * math.exp(z * se_log)))
    return out


def normalized_abilities(
    f: AbilityFit, ci_level: float = 0.95
) -> dict[str, NormalizedAbility]:
    """Normalized abilities with SEs and CIs propagated on the log scale."""
    estimates = [f.pi[x] for x in f.treatments]
    intervals = _wald_intervals(estimates, _log_pi_variance(f), ci_level)
    return {
        label: NormalizedAbility(estimate=pi, se=pi * se_log, ci_lower=lower, ci_upper=upper)
        for label, pi, (se_log, lower, upper) in zip(f.treatments, estimates, intervals)
    }


def ability_ratios(
    f: AbilityFit,
    denominator: str | _AverageAbility = AVERAGE,
    ci_level: float = 0.95,
) -> list[AbilityRatio]:
    """Ability ratios of every treatment against a denominator.

    The denominator is either a treatment label or :data:`AVERAGE`, a
    fictional treatment whose ability is the arithmetic mean ability. CIs are
    Wald intervals on the log-ratio, exponentiated.
    """
    labels = f.treatments
    if isinstance(denominator, _AverageAbility):
        scale = sum(f.psi[x] for x in labels) / len(labels)
        log_var = _log_pi_variance(f)
    elif denominator in f.psi:
        scale, d = f.psi[denominator], labels.index(denominator)
        block = _ability_block(f)
        log_var = np.diagonal(block) + block[d, d] - 2.0 * block[:, d]
    else:
        raise DataError(f"unknown denominator treatment {denominator!r}")
    estimates = [f.psi[x] / scale for x in labels]
    intervals = _wald_intervals(estimates, log_var, ci_level)
    return [
        AbilityRatio(
            numerator=x,
            denominator=denominator,
            estimate=estimate,
            ci_lower=lower,
            ci_upper=upper,
            ci_level=ci_level,
        )
        for x, estimate, (_, lower, upper) in zip(labels, estimates, intervals)
    ]
