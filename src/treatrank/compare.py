"""Ranking metrics computed from a league table of summary relative effects.

The league table carries network-meta-analysis summary estimates on the log
scale, either as all pairwise contrasts (estimate and standard error per
pair) or as basic parameters (one estimate per treatment against a common
baseline, with an optional covariance matrix). Three metrics are offered:
P-scores (mean probability of beating each rival), P-scores adjusted for a
clinically important threshold, and the simulated probability of having the
best value. Producing the league table itself is out of scope.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import IO, Iterable, Mapping

import numpy as np

from .errors import DataError
from .study_data import _first_seen, _parse_float, _read_csv
from .tcc import BENEFICIAL, HARMFUL

__all__ = [
    "LeagueTable",
    "p_scores",
    "p_scores_civ",
    "parse_basic_table",
    "parse_covariance_table",
    "parse_league_table",
    "prob_best",
]


@dataclass(frozen=True, eq=False)
class LeagueTable:
    """Summary estimates for every treatment, in pairwise or basic form.

    ``pairwise`` maps index-ordered pairs (X, Y) to (estimate of X vs Y,
    standard error); ``basic`` maps each treatment to (estimate against a
    common baseline, standard error), optionally with a full ``covariance``
    aligned to ``treatments``. Exactly the supplied form is stored; the
    metric functions derive the form they need. ``_index`` maps each
    treatment to its position.
    """

    treatments: tuple[str, ...]
    direction: str = BENEFICIAL
    pairwise: Mapping[tuple[str, str], tuple[float, float]] | None = None
    basic: Mapping[str, tuple[float, float]] | None = None
    covariance: np.ndarray | None = None
    _index: Mapping[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if self.direction not in (BENEFICIAL, HARMFUL):
            raise DataError(
                f"direction must be 'beneficial' or 'harmful', got {self.direction!r}"
            )
        if len(self.treatments) < 2:
            raise DataError("a league table needs at least two treatments")
        if (self.pairwise is None) == (self.basic is None):
            raise DataError("supply exactly one of the pairwise or basic forms")
        if self.covariance is not None:
            if self.basic is None:
                raise DataError("a covariance matrix requires the basic form")
            n = len(self.treatments)
            if self.covariance.shape != (n, n):
                raise DataError(
                    f"covariance shape {self.covariance.shape} does not match "
                    f"{n} treatments"
                )
        object.__setattr__(self, "_index", {x: k for k, x in enumerate(self.treatments)})

    @classmethod
    def from_pairwise(
        cls,
        entries: Mapping[tuple[str, str], tuple[float, float]],
        treatments: Iterable[str] | None = None,
        direction: str = BENEFICIAL,
    ) -> "LeagueTable":
        """Build from pairwise contrasts given in either key order.

        When both (X, Y) and (Y, X) appear they must agree (opposite
        estimates, equal SEs). Keys are canonicalized to treatment order.
        """
        treatments = _first_seen(entries) if treatments is None else tuple(treatments)
        index = {x: k for k, x in enumerate(treatments)}
        canonical: dict[tuple[str, str], tuple[float, float]] = {}
        for (x, y), (estimate, se) in entries.items():
            for label in (x, y):
                if label not in index:
                    raise DataError(f"pair ({x!r}, {y!r}) uses unknown treatment {label!r}")
            if x == y:
                raise DataError(f"pair ({x!r}, {y!r}) compares a treatment with itself")
            if se <= 0:
                raise DataError(f"pair ({x!r}, {y!r}) needs a positive SE, got {se}")
            key, value = (x, y), (float(estimate), float(se))
            if index[x] > index[y]:
                key, value = (y, x), (-float(estimate), float(se))
            if key in canonical:
                prior_est, prior_se = canonical[key]
                if not (
                    math.isclose(prior_est, value[0], rel_tol=1e-9, abs_tol=1e-12)
                    and math.isclose(prior_se, value[1], rel_tol=1e-9, abs_tol=1e-12)
                ):
                    raise DataError(
                        f"pair {key} given twice with inconsistent values"
                    )
            canonical[key] = value
        return cls(treatments=treatments, direction=direction, pairwise=canonical)

    @classmethod
    def from_basic(
        cls,
        estimates: Mapping[str, tuple[float, float]],
        covariance: np.ndarray | None = None,
        direction: str = BENEFICIAL,
    ) -> "LeagueTable":
        """Build from per-treatment estimates against a common baseline."""
        treatments = tuple(estimates)
        basic = {}
        for label, (estimate, se) in estimates.items():
            if se < 0:
                raise DataError(f"treatment {label!r} has negative SE {se}")
            basic[label] = (float(estimate), float(se))
        cov = None if covariance is None else np.asarray(covariance, dtype=float)
        return cls(treatments=treatments, direction=direction, basic=basic, covariance=cov)

    def estimate(self, x: str, y: str) -> float:
        """Log-scale contrast of x versus y."""
        return _pair_entry(self, x, y)[0]

    def se(self, x: str, y: str) -> float:
        """Standard error of the x-versus-y contrast."""
        return _pair_entry(self, x, y)[1]


def _check_known(lt: LeagueTable, *labels: str) -> None:
    for label in labels:
        if label not in lt._index:
            raise DataError(f"unknown treatment {label!r}")


def _pair_entry(lt: LeagueTable, x: str, y: str) -> tuple[float, float]:
    _check_known(lt, x, y)
    if x == y:
        raise DataError(f"need two distinct treatments, got {x!r} twice")
    if lt.pairwise is not None:
        if (x, y) in lt.pairwise:
            return lt.pairwise[(x, y)]
        if (y, x) in lt.pairwise:
            estimate, se = lt.pairwise[(y, x)]
            return -estimate, se
        raise DataError(f"league table is missing the pair ({x!r}, {y!r})")
    b_x, se_x = lt.basic[x]
    b_y, se_y = lt.basic[y]
    if lt.covariance is not None:
        i, j = lt._index[x], lt._index[y]
        var = lt.covariance[i, i] + lt.covariance[j, j] - 2.0 * lt.covariance[i, j]
    else:
        var = se_x**2 + se_y**2
    return b_x - b_y, math.sqrt(max(var, 0.0))


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _direction_sign(lt: LeagueTable) -> float:
    return 1.0 if lt.direction == BENEFICIAL else -1.0


def _ordered_pairs(lt: LeagueTable):
    if lt.pairwise is None and lt.covariance is None:
        warnings.warn(
            "no covariance supplied; pairwise SEs assume independent basic estimates",
            UserWarning,
            stacklevel=3,
        )
    for i, x in enumerate(lt.treatments):
        for y in lt.treatments[i + 1 :]:
            yield x, y, _pair_entry(lt, x, y)


def p_scores(lt: LeagueTable) -> dict[str, float]:
    """Mean probability of each treatment beating its rivals.

    For each ordered pair the probability that X's effect over Y points the
    right way is Phi(d * estimate / se) with d = +1 for a beneficial outcome
    and -1 for a harmful one; the score of X averages these over all rivals.
    The mirrored probability is taken as its exact complement, so the scores
    always average to one half.
    """
    d = _direction_sign(lt)
    beats: dict[str, dict[str, float]] = {x: {} for x in lt.treatments}
    for x, y, (estimate, se) in _ordered_pairs(lt):
        if se <= 0:
            raise DataError(f"pair ({x!r}, {y!r}) needs a positive SE, got {se}")
        p = _normal_cdf(d * estimate / se)
        beats[x][y] = p
        beats[y][x] = 1.0 - p
    n_rivals = len(lt.treatments) - 1
    return {x: math.fsum(row.values()) / n_rivals for x, row in beats.items()}


def p_scores_civ(lt: LeagueTable, mcid: float) -> dict[str, float]:
    """P-scores counting only benefits beyond the clinically important threshold.

    Each pairwise probability becomes Phi((d * estimate - log(mcid)) / se):
    the probability that X's advantage over Y exceeds the threshold, not just
    zero. As mcid drops to 1 this recovers :func:`p_scores`.
    """
    if mcid <= 1.0:
        raise DataError(f"mcid must exceed 1 on the ratio scale, got {mcid}")
    d = _direction_sign(lt)
    shift = math.log(mcid)
    scores: dict[str, list[float]] = {x: [] for x in lt.treatments}
    for x, y, (estimate, se) in _ordered_pairs(lt):
        if se <= 0:
            raise DataError(f"pair ({x!r}, {y!r}) needs a positive SE, got {se}")
        scores[x].append(_normal_cdf((d * estimate - shift) / se))
        scores[y].append(_normal_cdf((-d * estimate - shift) / se))
    n_rivals = len(lt.treatments) - 1
    return {x: math.fsum(row) / n_rivals for x, row in scores.items()}


def _basic_parameters(lt: LeagueTable) -> tuple[np.ndarray, np.ndarray]:
    n = len(lt.treatments)
    if lt.basic is not None:
        means = np.asarray([lt.basic[x][0] for x in lt.treatments])
        if lt.covariance is not None:
            return means, np.asarray(lt.covariance, dtype=float)
        warnings.warn(
            "no covariance supplied; simulating basic estimates as independent",
            UserWarning,
            stacklevel=3,
        )
        return means, np.diag([lt.basic[x][1] ** 2 for x in lt.treatments])
    reference = lt.treatments[0]
    means = np.zeros(n)
    variances = np.zeros(n)
    for k, x in enumerate(lt.treatments[1:], start=1):
        estimate, se = _pair_entry(lt, x, reference)
        means[k] = estimate
        variances[k] = se**2
    warnings.warn(
        f"derived basic parameters from contrasts against {reference!r}; "
        "simulating them as independent",
        UserWarning,
        stacklevel=3,
    )
    return means, np.diag(variances)


_DRAW_BLOCK = 8192  # rows of draws held at once by prob_best


def prob_best(lt: LeagueTable, nsim: int = 100_000, seed: int = 0) -> dict[str, float]:
    """Simulated probability of each treatment having the best value.

    Draws the basic parameters ``nsim`` times from a multivariate normal
    (mean = estimates, covariance as supplied or diagonal from the SEs) and
    tallies which treatment has the best drawn value under the direction.
    The reported probabilities are the tally shares, adjusted in the largest
    share's last bit so they sum to exactly 1. Deterministic given ``seed``.
    """
    if nsim < 1:
        raise DataError(f"nsim must be positive, got {nsim}")
    if seed < 0:
        raise DataError(f"seed must be non-negative, got {seed}")
    means, cov = _basic_parameters(lt)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    tolerance = 1e-9 * max(1.0, float(np.max(np.abs(eigenvalues)))) if eigenvalues.size else 0.0
    if eigenvalues.size and float(eigenvalues[0]) < -tolerance:
        raise DataError(
            f"covariance is not positive semi-definite (min eigenvalue {eigenvalues[0]:.3g})"
        )
    # The factor and the draw order of numpy's multivariate_normal(method="eigh"),
    # taken in blocks of rows so memory stays bounded in nsim.
    factor = (eigenvectors * np.sqrt(np.abs(eigenvalues))).T
    sign = _direction_sign(lt)
    rng = np.random.default_rng(seed)
    counts = np.zeros(len(lt.treatments), dtype=np.int64)
    for start in range(0, nsim, _DRAW_BLOCK):
        rows = min(_DRAW_BLOCK, nsim - start)
        draws = rng.standard_normal((rows, len(means))) @ factor + means
        counts += np.bincount(np.argmax(sign * draws, axis=1), minlength=len(counts))
    shares = counts / nsim
    top = int(np.argmax(counts))
    shares[top] = 1.0 - (shares.sum() - shares[top])
    return {x: float(shares[k]) for k, x in enumerate(lt.treatments)}


def parse_league_table(
    source: IO[str] | Iterable[str], direction: str = BENEFICIAL
) -> LeagueTable:
    """Parse a pairwise league-table CSV: treat1, treat2, estimate, se (log scale)."""
    _, rows = _read_csv(source, ("treat1", "treat2", "estimate", "se"))
    entries: dict[tuple[str, str], tuple[float, float]] = {}
    seen_pairs: set[frozenset[str]] = set()
    for i, row in rows:
        t1, t2 = row["treat1"], row["treat2"]
        if not t1 or not t2:
            raise DataError(f"row {i}: both treatment labels are required")
        if t1 == t2:
            raise DataError(f"row {i}: pair compares {t1!r} with itself")
        estimate = _parse_float(row["estimate"], "estimate", i)
        se = _parse_float(row["se"], "se", i)
        key = frozenset((t1, t2))
        if key in seen_pairs:
            raise DataError(f"row {i}: pair ({t1!r}, {t2!r}) appears more than once")
        seen_pairs.add(key)
        entries[(t1, t2)] = (estimate, se)
    if not entries:
        raise DataError("league table has no rows")
    return LeagueTable.from_pairwise(entries, direction=direction)


def parse_basic_table(
    source: IO[str] | Iterable[str],
    covariance_source: IO[str] | Iterable[str] | None = None,
    direction: str = BENEFICIAL,
) -> LeagueTable:
    """Parse a basic-form CSV: treat, estimate_vs_ref, se; optional covariance CSV."""
    fields, rows = _read_csv(source)
    estimate_column = next(
        (c for c in ("estimate_vs_ref", "estimate") if c in fields), None
    )
    if "treat" not in fields or "se" not in fields or estimate_column is None:
        raise DataError(
            "basic-form table needs columns: treat, estimate_vs_ref (or estimate), se"
        )
    estimates: dict[str, tuple[float, float]] = {}
    for i, row in rows:
        label = row["treat"]
        if not label:
            raise DataError(f"row {i}: treatment label is required")
        if label in estimates:
            raise DataError(f"row {i}: treatment {label!r} appears more than once")
        estimates[label] = (
            _parse_float(row[estimate_column], estimate_column, i),
            _parse_float(row["se"], "se", i),
        )
    if not estimates:
        raise DataError("basic-form table has no rows")
    covariance = (
        None
        if covariance_source is None
        else parse_covariance_table(covariance_source, tuple(estimates))
    )
    return LeagueTable.from_basic(estimates, covariance=covariance, direction=direction)


def parse_covariance_table(
    source: IO[str] | Iterable[str], treatments: tuple[str, ...]
) -> np.ndarray:
    """Parse a labeled square covariance CSV and align it to treatment order."""
    fields, rows = _read_csv(source)
    header = fields[1:]
    if sorted(header) != sorted(treatments):
        raise DataError(
            "covariance columns do not match the treatments: "
            f"{header} vs {list(treatments)}"
        )
    by_label: dict[str, dict[str, float]] = {}
    for i, row in rows:
        label = row[fields[0]]
        if label in by_label:
            raise DataError(f"row {i}: treatment {label!r} appears more than once")
        by_label[label] = {
            column: _parse_float(row[column], "covariance cell", i) for column in header
        }
    if sorted(by_label) != sorted(treatments):
        raise DataError(
            f"covariance rows do not match the treatments: {sorted(by_label)}"
        )
    matrix = np.asarray(
        [[by_label[x][y] for y in treatments] for x in treatments], dtype=float
    )
    if not np.allclose(matrix, matrix.T, rtol=1e-8, atol=1e-12):
        raise DataError("covariance table is not symmetric")
    return 0.5 * (matrix + matrix.T)

