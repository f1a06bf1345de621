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
# scatter-sums of these per-pair quantities.
_CREDIT = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 1.0]])
# Row (a, b): the product of the credits to slots a and b, per outcome.
_CREDIT_PRODUCTS = np.einsum("ka,kb->abk", _CREDIT, _CREDIT).reshape(9, 3)


def _log_nu(nu: float) -> float:
    return math.log(nu) if nu > 0 else -math.inf


def _log_probabilities(
    lam: np.ndarray, log_nu: float, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """(P, 3) log win/win/tie probabilities of the pairs ``(i[p], j[p])``.

    ``lam`` holds log-abilities; ``log_nu = -inf`` is the tie-free model.
    The log-denominator is a max-shifted three-term log-sum-exp, finite for
    any finite log-abilities.
    """
    l_i, l_j = lam[i], lam[j]
    logits = np.stack((l_i, l_j, log_nu + 0.5 * (l_i + l_j)), axis=1)
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _loglik(counts: np.ndarray, log_p: np.ndarray) -> float:
    """``counts . log_p`` where unobserved outcomes contribute 0, even at -inf."""
    terms = np.multiply(counts, log_p, out=np.zeros_like(log_p), where=counts > 0)
    return float(terms.sum())


def _pair_credit(counts: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Observed and expected credit of each pair on its three parameter slots,
    given the pairs' (P, 3) outcome probabilities ``p``."""
    expected = counts.sum(axis=1, keepdims=True) * (p @ _CREDIT)
    return counts @ _CREDIT, expected


def log_likelihood(t: Tournament, psi, nu: float) -> float:
    """Trinomial log-likelihood of a tournament at the given abilities.

    Every unordered pair contributes its full win/win/tie trinomial; pairs
    without records contribute 0. Zero-probability outcomes with a positive
    count yield -inf.
    """
    values = _ability_vector(t, psi)
    if nu < 0:
        raise DataError(f"tie prevalence must be non-negative, got {nu}")
    return _loglik(t._counts, _log_probabilities(np.log(values), _log_nu(nu), t._i, t._j))


def _preference_edges(t: Tournament) -> list[tuple[int, int, int]]:
    """The preference graph as ``(source, target, weight)`` treatment-index edges.

    An edge X -> Y runs when X beat Y at least once (weight -1) or, failing
    that, tied with Y (weight +1).
    """
    edges = []
    for i, j, (first, second, ties) in zip(t._i.tolist(), t._j.tolist(), t._counts.tolist()):
        if first or ties:
            edges.append((i, j, -1 if first else 1))
        if second or ties:
            edges.append((j, i, -1 if second else 1))
    return edges


def _reached(edges: list[tuple[int, int, int]], n: int) -> list[bool]:
    """Which of ``n`` nodes node 0 reaches along the directed ``edges``."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for a, b, _ in edges:
        adjacency[a].append(b)
    seen = [k == 0 for k in range(n)]
    stack = [0]
    while stack:
        for b in adjacency[stack.pop()]:
            if not seen[b]:
                seen[b] = True
                stack.append(b)
    return seen


def _cut(labels: Sequence[str], inside: list[bool]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The labels inside, then those outside, each in the given order."""
    return (
        tuple(x for x, k in zip(labels, inside) if k),
        tuple(x for x, k in zip(labels, inside) if not k),
    )


def check_ford(t: Tournament) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """Regularity check guaranteeing a finite, unique ability MLE.

    Builds the directed preference graph — an edge X -> Y when X beat Y at
    least once, and edges both ways when they tied — and requires strong
    connectivity: every bipartition (S, S-complement) must have some
    treatment outside S beating or tying some treatment in S. A tie counts
    in both directions because tied contests shrink in probability as the
    two abilities drift apart, anchoring the likelihood just as a win does.

    Two sweeps from the first treatment decide it, in O(n + P) for n
    treatments and P pairs with records. Returns None on pass, else one
    violating bipartition as ``(subset, complement)``, each in treatment
    order: no treatment in ``complement`` ever beats or ties a treatment in
    ``subset``. When some treatment cannot be reached from the first one
    along the edges, ``subset`` holds every such treatment and
    ``complement`` the reached ones, the first included. Otherwise, when
    some treatment cannot reach the first one, ``subset`` holds the
    treatments that can, the first included, and ``complement`` the rest.
    """
    n = len(t.treatments)
    if n == 0:
        return None
    edges = _preference_edges(t)
    reached = _reached(edges, n)
    if not all(reached):
        return _cut(t.treatments, [not k for k in reached])
    reaching = _reached([(b, a, w) for a, b, w in edges], n)
    if not all(reaching):
        return _cut(t.treatments, reaching)
    return None


def _nu_unbounded(t: Tournament) -> bool:
    """Whether the likelihood keeps rising as nu grows and the abilities spread.

    Move log nu by t / 2 and the log-abilities by t * d. As t grows, the
    probability of an observed outcome stays bounded away from 0 exactly
    when its term dominates its pair's denominator: for a win,
    d_winner - d_loser >= 1; for a tie, |d_x - d_y| <= 1. Each pair then
    also has a dominated term, so the likelihood rises towards a supremum it
    never reaches. The conditions are difference constraints d_v - d_u <= w,
    one per preference edge u -> v of weight w, feasible iff that graph has
    no negative cycle. Bellman-Ford rounds from all-zero distances decide it
    in O(n * P) time and O(n + P) memory: a round that changes nothing
    leaves feasible distances, and one that still relaxes after n rounds
    means a negative cycle (Cormen et al., CLRS section 24.4).
    """
    counts = t._counts
    if np.any((counts[:, 0] > 0) & (counts[:, 1] > 0)):
        return False  # wins both ways in one pair: a negative 2-cycle
    edges = np.asarray(_preference_edges(t), dtype=np.intp).reshape(-1, 3)
    source, target, weight = edges.T
    distance = np.zeros(len(t.treatments), dtype=np.intp)
    for _ in range(len(t.treatments)):
        relaxed = distance[source] + weight
        if not np.any(relaxed < distance[target]):
            return True
        np.minimum.at(distance, target, relaxed)
    return False


class DavidsonObjective:
    """Log-likelihood of a tournament as a function of the log parameters.

    The parameter vector holds the log-abilities of every treatment except
    the first (the reference, pinned at 0), followed by log nu whenever the
    tournament contains at least one tie. In these coordinates each pair's
    log-denominator is a log-sum-exp of linear maps, so the objective is
    concave and the observed information equals the expected information.
    """

    def __init__(self, t: Tournament):
        self.treatments = t.treatments
        self.n_treatments = n = len(t.treatments)
        self._i, self._j, self._counts = t._i, t._j, t._counts
        self.has_tie_param = t.total_ties > 0
        self.n_params = n - 1 + (1 if self.has_tie_param else 0)
        self.param_names = tuple(
            [f"log_ability[{x}]" for x in t.treatments[1:]]
            + (["log_nu"] if self.has_tie_param else [])
        )
        # The full parameter vector holds all n log-abilities, then log nu in
        # slot n; theta is its slice after the reference. Per pair, _slots
        # lists the (lambda_i, lambda_j, log nu) slots and _cells the 3 x 3
        # block of the full (n + 1)-square Hessian, both slot-major.
        self._free = slice(1, self.n_params + 1)
        self._slots = np.stack((self._i, self._j, np.full_like(self._i, n)))
        self._cells = (self._slots[:, None, :] * (n + 1) + self._slots[None, :, :]).ravel()
        self._memo: tuple[bytes, np.ndarray, np.ndarray] | None = None

    def _scatter(self, per_pair: np.ndarray) -> np.ndarray:
        """Sum (P, 3) per-pair slot values into the full parameter vector."""
        return np.bincount(
            self._slots.ravel(), weights=per_pair.T.ravel(), minlength=self.n_treatments + 1
        )

    def _evaluate(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(log_p, p)``: the pairs' (P, 3) log-probabilities and probabilities.

        Newton asks for the value, gradient and Hessian at one point, so the
        last point's evaluation is kept, keyed on the bytes of ``theta``; a
        ``theta`` changed in place therefore gets a fresh evaluation.
        """
        key = np.asarray(theta, dtype=float).tobytes()
        memo = self._memo
        if memo is not None and memo[0] == key:
            return memo[1], memo[2]
        n = self.n_treatments
        lam = np.concatenate(([0.0], np.asarray(theta[: n - 1], dtype=float)))
        log_nu = theta[-1] if self.has_tie_param else -math.inf
        log_p = _log_probabilities(lam, log_nu, self._i, self._j)
        p = np.exp(log_p)
        self._memo = (key, log_p, p)
        return log_p, p

    def value(self, theta: np.ndarray) -> float:
        return _loglik(self._counts, self._evaluate(theta)[0])

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        observed, expected = _pair_credit(self._counts, self._evaluate(theta)[1])
        return self._scatter(observed - expected)[self._free]

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        # A pair's information is its count times the covariance of the
        # credit its outcome gives the pair's three slots.
        p = self._evaluate(theta)[1].T
        mean = _CREDIT.T @ p
        cov = (_CREDIT_PRODUCTS @ p).reshape(3, 3, -1) - mean[:, None, :] * mean[None, :, :]
        size = self.n_treatments + 1
        weights = (-self._counts.sum(axis=1) * cov).ravel()
        full = np.bincount(self._cells, weights=weights, minlength=size**2).reshape(size, size)
        return full[self._free, self._free]

    def mm_step(self, theta: np.ndarray) -> np.ndarray:
        """One minorization-maximization sweep (Hunter 2004), in log parameters.

        Every ability and nu is multiplied by its observed over its expected
        credit, then the reference is re-pinned at 0.
        """
        observed, expected = _pair_credit(self._counts, self._evaluate(theta)[1])
        used = slice(0, self.n_params + 1)
        lift = np.log(self._scatter(observed)[used]) - np.log(self._scatter(expected)[used])
        new_theta = theta + lift[1:]
        new_theta[: self.n_treatments - 1] -= lift[0]
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


def _maximize(obj: DavidsonObjective, theta: np.ndarray, max_iterations: int,
              grad_tol: float, step_tol: float) -> tuple[np.ndarray, int]:
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
            # Newton step unusable (singular or non-improving): fall back to
            # one minorization-maximization sweep, which is always defined.
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


def fit_davidson(
    t: Tournament,
    *,
    max_iterations: int = 10_000,
    grad_tol: float = 1e-8,
    step_tol: float = 1e-10,
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
    theta = np.zeros(obj.n_params)
    if obj.has_tie_param:
        # Equal abilities make tie odds nu/2, so match the observed ratio.
        theta[-1] = math.log(2.0 * t.total_ties / t.total_wins)
    else:
        warnings.warn(
            "tournament has no ties; fitting the tie-free model with nu = 0",
            UserWarning,
            stacklevel=2,
        )
    theta, iterations = _maximize(obj, theta, max_iterations, grad_tol, step_tol)

    covariance = np.linalg.inv(-obj.hessian(theta))
    covariance = 0.5 * (covariance + covariance.T)

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
        loglik=obj.value(theta),
        converged=True,
        iterations=iterations,
        tie_free=not obj.has_tie_param,
    )


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
