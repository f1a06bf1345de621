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
from itertools import chain
from typing import IO, Iterable, Mapping

import numpy as np

from . import _EXPORTS
from .errors import DataError
from .study_data import BENEFICIAL, _BLOCK_FLOATS, _check_contest, _check_direction, _check_nsim
from .study_data import _check_ratios, _check_seed, _first_seen, _read_columns

__all__ = _EXPORTS["compare"]


# prob_best's defaults, which scores.json reports when the command line leaves them out.
_NSIM, _SEED = 100_000, 0
_LARGEST = 1e100  # an estimate or SE past this, or a covariance past its square, may overflow
_REPEATED_ROW = "row {}: treatment {!r} appears more than once"  # basic and covariance tables


@dataclass(frozen=True, eq=False)
class LeagueTable:
    """Summary estimates for every treatment, in pairwise or basic form.

    ``pairwise`` maps index-ordered pairs (X, Y) to (estimate of X vs Y,
    standard error); ``basic`` maps each treatment to (estimate against a
    common baseline, standard error), optionally with a full ``covariance``
    aligned to ``treatments``. Exactly the supplied form is stored. ``_index`` maps
    each treatment to its position; ``_model`` is the basic form's ``(means, covariance)``
    in that order, the covariance as supplied or else independent (SE² diagonal).
    ``_pairs`` is either form's pair-contrast model, which the metrics and ``estimate``
    and ``se`` read: two n × n arrays, the estimate and SE of row versus column.
    """

    treatments: tuple[str, ...]
    direction: str = BENEFICIAL
    pairwise: Mapping[tuple[str, str], tuple[float, float]] | None = None
    basic: Mapping[str, tuple[float, float]] | None = None
    covariance: np.ndarray | None = None
    _index: Mapping[str, int] = field(init=False, repr=False)
    _model: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)
    _pairs: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        for label, (_, se) in (self.basic or {}).items():
            if se < 0:
                raise DataError(f"treatment {label!r} has negative SE {se}")
        for (x, y), (_, se) in (self.pairwise or {}).items():
            if se < 0:
                raise _se_error(x, y, se)
        _check_direction(self.direction)
        if len(self.treatments) < 2:
            raise DataError("a league table needs at least two treatments")
        if (self.pairwise is None) == (self.basic is None):
            raise DataError("supply exactly one of the pairwise or basic forms")
        if len(set(self.treatments)) < len(self.treatments):
            raise DataError(f"league table treatments repeat: {list(self.treatments)}")
        index = {x: k for k, x in enumerate(self.treatments)}
        for (x, y), (estimate, se) in (self.pairwise or {}).items():
            _check_pair(index, x, y)
            if index[x] > index[y]:  # a reversed key: the pair may be there in order too
                _check_repeat(self.pairwise, (y, x), (-estimate, se))
        if self.basic is not None and set(self.basic) != set(self.treatments):
            raise DataError("basic-form estimates must cover exactly the treatments")
        if self.covariance is not None:
            if self.basic is None:
                raise DataError("a covariance matrix requires the basic form")
            n = len(self.treatments)
            if self.covariance.shape != (n, n):
                raise DataError(
                    f"covariance shape {self.covariance.shape} does not match "
                    f"{n} treatments"
                )
        sizes = np.abs([*(self.basic if self.pairwise is None else self.pairwise).values()])
        squares = np.abs(() if self.covariance is None else self.covariance)
        if not (np.all(sizes <= _LARGEST) and np.all(squares <= _LARGEST**2)):
            raise DataError(f"estimates and SEs must be finite and at most {_LARGEST:g} in size, "
                            f"and covariance entries at most {_LARGEST**2:g}")
        object.__setattr__(self, "_index", index)
        if self.basic is not None:
            estimates, ses = zip(*map(self.basic.get, self.treatments))
            cov = _independent(ses) if self.covariance is None else self.covariance
            means, c = np.array(estimates, dtype=float), np.asarray(cov, dtype=float)
            object.__setattr__(self, "_model", (means, c))
            d = np.diagonal(c)
            var = d[:, None] + d - 2.0 * c  # a variance that rounds negative reads as 0
            pairs = means[:, None] - means, np.sqrt(np.where(0.0 > var, 0.0, var))  # keeps -0.0
        else:  # a pair left out is NaN; one given in both key orders reads each key's own value
            pairs = np.full((2, len(index), len(index)), np.nan)
            keys = np.fromiter(map(index.__getitem__, chain.from_iterable(self.pairwise)), np.intp)
            given = np.fromiter(chain.from_iterable(self.pairwise.values()), float)
            (i, j), given = keys.reshape(-1, 2).T, given.reshape(-1, 2).T
            pairs[:, j, i] = given * [[-1.0], [1.0]]  # each key mirrored, then as given
            pairs[:, i, j] = given
        object.__setattr__(self, "_pairs", tuple(pairs))

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
            _check_pair(index, x, y)
            if se <= 0:
                raise _se_error(x, y, se)
            key, value = (x, y), (float(estimate), float(se))
            if index[x] > index[y]:
                key, value = (y, x), (-float(estimate), float(se))
            _check_repeat(canonical, key, value)
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
        basic = {label: (float(estimate), float(se)) for label, (estimate, se) in estimates.items()}
        cov = None if covariance is None else np.asarray(covariance, dtype=float)
        return cls(treatments=treatments, direction=direction, basic=basic, covariance=cov)

    def estimate(self, x: str, y: str) -> float:
        """Log-scale contrast of x versus y."""
        return _pair_entry(self, x, y)[0]

    def se(self, x: str, y: str) -> float:
        """Standard error of the x-versus-y contrast."""
        return _pair_entry(self, x, y)[1]


def _check_pair(index: Mapping[str, int], x: str, y: str) -> None:
    """The checks of a pairwise key ``(x, y)``: both labels in ``index``, and distinct."""
    for label in (x, y):
        if label not in index:
            raise DataError(f"pair ({x!r}, {y!r}) uses unknown treatment {label!r}")
    if x == y:
        raise DataError(f"pair ({x!r}, {y!r}) compares a treatment with itself")


def _check_repeat(entries: Mapping, key: tuple[str, str], value: tuple[float, float]) -> None:
    """That ``value`` agrees with ``entries[key]`` when the pair is there already."""
    if key in entries and not all(
        math.isclose(prior, given, rel_tol=1e-9, abs_tol=1e-12)
        for prior, given in zip(entries[key], value)  # the estimates, then the SEs
    ):
        raise DataError(f"pair {key} given twice with inconsistent values")


def _pair_entry(lt: LeagueTable, x: str, y: str) -> tuple[float, float]:
    _check_contest(lt._index, x, y)
    if lt.pairwise is not None:
        if (x, y) in lt.pairwise:
            return lt.pairwise[(x, y)]
        if (y, x) in lt.pairwise:
            estimate, se = lt.pairwise[(y, x)]
            return -estimate, se
        raise DataError(f"league table is missing the pair ({x!r}, {y!r})")
    return tuple(float(values[lt._index[x], lt._index[y]]) for values in lt._pairs)


def _independent(ses) -> np.ndarray:
    """Independent estimates' covariance: ``ses`` squared by Python's pow, on the diagonal."""
    return np.diag([se**2 for se in ses])


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _direction_sign(lt: LeagueTable) -> float:
    return 1.0 if lt.direction == BENEFICIAL else -1.0


def _pair_table(lt: LeagueTable) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(i, j, estimate, se)`` of every pair i < j in row-major order, raising on the
    first pair that is missing or has no positive SE."""
    if lt.pairwise is None and lt.covariance is None:
        warnings.warn(
            "no covariance supplied; pairwise SEs assume independent basic estimates",
            UserWarning,
            stacklevel=3,
        )
    labels = lt.treatments
    i, j = np.triu_indices(len(labels), 1)
    estimate, se = (values[i, j] for values in lt._pairs)
    first = np.flatnonzero(~(se > 0))[:1].tolist()  # a missing pair's SE is NaN
    if first:
        x, y = labels[i[first[0]]], labels[j[first[0]]]
        raise _se_error(x, y, _pair_entry(lt, x, y)[1])  # or the missing pair's error
    return i, j, estimate, se


def _se_error(x: str, y: str, se) -> DataError:
    return DataError(f"pair ({x!r}, {y!r}) needs a positive SE, got {se}")


def _row_means(lt: LeagueTable, i, j, ahead, behind) -> dict[str, float]:
    """Each treatment's exact mean of ``ahead`` where it leads and ``behind`` where it trails."""
    n = len(lt.treatments)
    table = np.zeros((n, n))
    table[i, j] = ahead
    table[j, i] = behind
    return {x: math.fsum(row) / (n - 1) for x, row in zip(lt.treatments, table.tolist())}


def p_scores(lt: LeagueTable) -> dict[str, float]:
    """Mean probability of each treatment beating its rivals.

    For each ordered pair the probability that X's effect over Y points the
    right way is Phi(d * estimate / se) with d = +1 for a beneficial outcome
    and -1 for a harmful one; the score of X averages these over all rivals.
    The mirrored probability is taken as its exact complement, so the scores
    always average to one half.
    """
    d = _direction_sign(lt)
    i, j, estimate, se = _pair_table(lt)
    with np.errstate(over="ignore"):  # a tiny SE gives z = +-inf, and Phi(z) = 1 or 0
        p = np.array(list(map(_normal_cdf, (d * estimate / se).tolist())))
    return _row_means(lt, i, j, p, 1.0 - p)


def p_scores_civ(lt: LeagueTable, mcid: float) -> dict[str, float]:
    """P-scores counting only benefits beyond the clinically important threshold.

    Each pairwise probability becomes Phi((d * estimate - log(mcid)) / se):
    the probability that X's advantage over Y exceeds the threshold, not just
    zero. As mcid drops to 1 this recovers :func:`p_scores`.
    """
    _check_ratios(mcid)
    d = _direction_sign(lt)
    shift = math.log(mcid)
    i, j, estimate, se = _pair_table(lt)
    with np.errstate(over="ignore"):  # as in p_scores
        ahead, behind = (
            list(map(_normal_cdf, ((sign * estimate - shift) / se).tolist())) for sign in (d, -d)
        )
    return _row_means(lt, i, j, ahead, behind)


def _basic_parameters(lt: LeagueTable) -> tuple[np.ndarray, np.ndarray]:
    if lt.basic is not None:
        if lt.covariance is None:
            warnings.warn(
                "no covariance supplied; simulating basic estimates as independent",
                UserWarning,
                stacklevel=3,
            )
        return lt._model
    reference = lt.treatments[0]
    means, ses = zip((0.0, 0.0), *(_pair_entry(lt, x, reference) for x in lt.treatments[1:]))
    warnings.warn(
        f"derived basic parameters from contrasts against {reference!r}; "
        "simulating them as independent",
        UserWarning,
        stacklevel=3,
    )
    return np.array(means, dtype=float), _independent(ses)


def prob_best(lt: LeagueTable, nsim: int = _NSIM, seed: int = _SEED) -> dict[str, float]:
    """Simulated probability of each treatment having the best value.

    Draws the basic parameters ``nsim`` times from a multivariate normal
    (mean = estimates, covariance as supplied or diagonal from the SEs) and
    tallies which treatment has the best drawn value under the direction.
    The reported probabilities are the tally shares, adjusted in the largest
    share's last bit so they sum to exactly 1. Deterministic given ``seed``.
    """
    _check_nsim(nsim)
    _check_seed(seed)
    means, cov = _basic_parameters(lt)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    tolerance = 1e-9 * max(1.0, float(np.max(np.abs(eigenvalues)))) if eigenvalues.size else 0.0
    if eigenvalues.size and float(eigenvalues[0]) < -tolerance:
        raise DataError(
            f"covariance is not positive semi-definite (min eigenvalue {eigenvalues[0]:.3g})"
        )
    # The factor and the draw order of numpy's multivariate_normal(method="eigh"),
    # taken in blocks of rows whose two buffers hold at most _BLOCK_FLOATS floats
    # each (one row when a row alone is larger), so they stay bounded in nsim
    # and in the number of treatments.
    factor = (eigenvectors * np.sqrt(np.abs(eigenvalues))).T
    pick = np.argmax if lt.direction == BENEFICIAL else np.argmin
    rng = np.random.default_rng(seed)
    counts = np.zeros(len(lt.treatments), dtype=np.int64)
    block = max(1, _BLOCK_FLOATS // len(means))  # rows of draws per buffer
    noise = np.empty((min(block, nsim), len(means)))
    draws = np.empty_like(noise)
    for start in range(0, nsim, block):
        rows = min(block, nsim - start)
        rng.standard_normal(out=noise[:rows])
        np.matmul(noise[:rows], factor, out=draws[:rows])
        draws[:rows] += means
        counts += np.bincount(pick(draws[:rows], axis=1), minlength=len(counts))
    shares = counts / nsim
    top = int(np.argmax(counts))
    shares[top] = 1.0 - (shares.sum() - shares[top])
    return {x: float(shares[k]) for k, x in enumerate(lt.treatments)}


def parse_league_table(
    source: IO[str] | Iterable[str], direction: str = BENEFICIAL
) -> LeagueTable:
    """Parse a pairwise league-table CSV: treat1, treat2, estimate, se (log scale)."""
    names = ("treat1", "treat2", "estimate", "se")
    columns = _read_columns(source, names, numeric=names[2:])
    estimates, ses = columns["estimate"], columns["se"]
    entries: dict[tuple[str, str], tuple[float, float]] = {}
    seen_pairs: set[frozenset[str]] = set()
    for k, (t1, t2) in enumerate(zip(columns["treat1"], columns["treat2"])):
        i = k + 2
        if not t1 or not t2:
            raise DataError(f"row {i}: both treatment labels are required")
        if t1 == t2:
            raise DataError(f"row {i}: pair compares {t1!r} with itself")
        estimate = estimates.number(k, "estimate", i)
        se = ses.number(k, "se", i)
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
    columns = _read_columns(source, numeric=("estimate_vs_ref", "estimate", "se"))
    estimate_column = next((c for c in ("estimate_vs_ref", "estimate") if c in columns), None)
    if "treat" not in columns or "se" not in columns or estimate_column is None:
        raise DataError(
            "basic-form table needs columns: treat, estimate_vs_ref (or estimate), se"
        )
    estimates: dict[str, tuple[float, float]] = {}
    for k, label in enumerate(columns["treat"]):
        i = k + 2
        if not label:
            raise DataError(f"row {i}: treatment label is required")
        if label in estimates:
            raise DataError(_REPEATED_ROW.format(i, label))
        estimates[label] = (
            columns[estimate_column].number(k, estimate_column, i),
            columns["se"].number(k, "se", i),
        )
    if not estimates:
        raise DataError("basic-form table has no rows")
    covariance = None
    if covariance_source is not None:
        covariance = parse_covariance_table(covariance_source, tuple(estimates))
    return LeagueTable.from_basic(estimates, covariance=covariance, direction=direction)


@np.errstate(over="ignore")  # LeagueTable rejects a covariance that overflows
def parse_covariance_table(
    source: IO[str] | Iterable[str], treatments: tuple[str, ...]
) -> np.ndarray:
    """Parse a labeled square covariance CSV and align it to treatment order."""
    columns = _read_columns(source, numeric=treatments)
    first, *header = columns
    if sorted(header) != sorted(treatments):
        raise DataError(
            "covariance columns do not match the treatments: "
            f"{header} vs {list(treatments)}"
        )
    labels, cells = columns[first], [columns[y] for y in header]
    finite = np.ones(len(labels), dtype=bool)
    for column in cells:
        finite &= np.isfinite(column.values)
    rows: dict[str, int] = {}  # each row label's position
    for k, label in enumerate(labels):
        i = k + 2
        if label in rows:
            raise DataError(_REPEATED_ROW.format(i, label))
        if not finite[k]:  # raises on the row's first cell that is no finite number
            for column in cells:
                column.number(k, "covariance cell", i)
        rows[label] = k
    if sorted(rows) != sorted(treatments):
        raise DataError(f"covariance rows do not match the treatments: {sorted(rows)}")
    order = [rows[x] for x in treatments]
    matrix = np.stack([columns[y].values[order] for y in treatments], axis=1)
    del columns, cells  # the reader's arrays, freed before the symmetry check's temporaries
    if not np.allclose(matrix, matrix.T, rtol=1e-8, atol=1e-12):
        raise DataError("covariance table is not symmetric")
    return 0.5 * (matrix + matrix.T)
