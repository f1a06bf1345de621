"""Treatment-choice criterion: turn study contrasts into wins and ties.

A contrast produces a win only when its effect clears the range of
equivalence (ROE) with interval support; everything else is a tie. The ROE is
built from the minimal clinically important difference (MCID) and its
reciprocal. Wins and ties are then tallied per treatment pair into a
tournament, the input of the ability model.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import _EXPORTS
from .errors import DataError
from .study_data import (
    BENEFICIAL,
    CovariateSchema,
    CovariateValue,
    StudyEffect,
    _check_direction,
    _check_ratios,
    _codes,
    _completed,
    _first_seen,
    _read_columns,
    _repeats,
    _study_columns,
    _Studies,
    _write_columns,
)

__all__ = _EXPORTS["tcc"]


class Verdict(enum.Enum):
    FIRST_WINS = "first_wins"
    SECOND_WINS = "second_wins"
    TIE = "tie"


_VERDICTS = tuple(Verdict)  # indexed by outcome: a win for the first, for the second, a tie
_VERDICT_VALUES = tuple(v.value for v in _VERDICTS)  # their records.csv strings
_OUTCOME = {v: k for k, v in enumerate(_VERDICTS)}
_SWAPPED = np.array([1, 0, 2])  # the same outcome seen from the other pair member
_RECORD_COLUMNS = ("study", "treat1", "treat2", "verdict")


@dataclass(frozen=True)
class RoeConfig:
    """Range of equivalence on the log scale, plus the outcome direction.

    ``mcid`` is kept on the ratio scale for reporting; the decision rule only
    uses the log-scale bounds and the null effect.
    """

    mcid: float
    roe_lower: float
    roe_upper: float
    null_effect: float = 0.0
    direction: str = BENEFICIAL

    def __post_init__(self):
        _check_direction(self.direction)
        if not (self.roe_lower < self.null_effect < self.roe_upper):
            raise DataError(
                "equivalence range must straddle the null effect: need "
                f"{self.roe_lower} < {self.null_effect} < {self.roe_upper}"
            )


def build_roe(
    mcid: float,
    roe_lower: float | None = None,
    roe_upper: float | None = None,
    direction: str = BENEFICIAL,
) -> RoeConfig:
    """Build the ROE from an MCID given on the ratio scale.

    Defaults are log(mcid) above the null and log(1/mcid) below; overrides,
    also on the ratio scale, replace either bound. The null effect is 0.
    """
    _check_ratios(mcid, roe_lower, roe_upper)
    lower = -math.log(mcid) if roe_lower is None else math.log(roe_lower)
    upper = math.log(mcid) if roe_upper is None else math.log(roe_upper)
    return RoeConfig(mcid=mcid, roe_lower=lower, roe_upper=upper, direction=direction)


@dataclass(frozen=True)
class TccDecision:
    """The two indicator values and the resulting verdict for one contrast."""

    i1: int  # 1 when the effect clears the upper ROE bound with support, else 0
    i2: int  # -1 when it clears the lower bound, else 0
    verdict: Verdict


@dataclass(frozen=True)
class PreferenceRecord:
    """One study-level preference datum: a win for either treatment, or a tie."""

    study_id: str
    treat_a: str
    treat_b: str
    verdict: Verdict
    covariates: Mapping[str, CovariateValue] = field(default_factory=dict)

    def __post_init__(self):
        if self.treat_a == self.treat_b:
            raise DataError(f"study {self.study_id!r}: preference pair members must differ")
        if not isinstance(self.verdict, Verdict):
            raise DataError(f"study {self.study_id!r}: verdict must be one of "
                            f"{', '.join(map(str, Verdict))}, got {self.verdict!r}")

    @property
    def pair(self) -> tuple[str, str]:
        return (self.treat_a, self.treat_b)


def _outcomes(y, lo, hi, roe: RoeConfig):
    """The TCC's ``(i1, -i2, outcome)`` for completed contrasts, as floats or arrays.

    The outcome is 0 for a win of ``treat_a``, 1 for a win of ``treat_b`` and 2 for a
    tie. Inequalities against the ROE bounds are strict: values sitting exactly on a
    bound never produce a win. For a harmful outcome the wins swap; ties do not.
    """
    upper, lower, null = roe.roe_upper, roe.roe_lower, roe.null_effect
    i1 = (lo > upper) | ((y > upper) & (lo > null))
    i2 = (hi < lower) | ((y < lower) & (hi < null))
    return i1, i2, np.where(i1 == i2, 2, i2 if roe.direction == BENEFICIAL else i1)


def tcc_decision(e: StudyEffect, roe: RoeConfig) -> TccDecision:
    """Evaluate the treatment-choice criterion for one completed contrast.

    The effect is read as ``treat_a`` versus ``treat_b``; see :func:`_outcomes`.
    """
    if not e.has_intervals():
        raise DataError(
            f"study {e.study_id!r}: intervals absent; run complete_intervals first"
        )
    i1, i2, outcome = _outcomes(e.effect, e.ci_lower, e.ci_upper, roe)
    return TccDecision(i1=int(i1), i2=-int(i2), verdict=_VERDICTS[int(outcome)])


def apply_tcc(e: StudyEffect, roe: RoeConfig) -> PreferenceRecord:
    """Turn one completed contrast into a preference record via the TCC."""
    decision = tcc_decision(e, roe)
    return PreferenceRecord(
        study_id=e.study_id,
        treat_a=e.treat_a,
        treat_b=e.treat_b,
        verdict=decision.verdict,
        covariates=e.covariates,
    )


class PairCounts(NamedTuple):
    wins_first: int
    wins_second: int
    ties: int

    @property
    def total(self) -> int:
        return self.wins_first + self.wins_second + self.ties


class _CountsOnFirstRead:
    """``Tournament.counts``: made from the tournament's arrays on the first read, which
    the instance then holds. A non-data descriptor, so a value that the instance holds
    comes first; read from the class it raises AttributeError, so the dataclass field
    has no default."""

    def __get__(self, t, owner=None):
        if t is None:
            raise AttributeError("counts")
        x = t.treatments
        keys = [(x[a], x[b]) for a, b in zip(t._i.tolist(), t._j.tolist())]
        counts = map(PairCounts._make, t._counts.astype(np.intp).tolist())
        t.__dict__["counts"] = MappingProxyType(dict(zip(keys, counts)))
        return t.__dict__["counts"]


@dataclass(frozen=True)
class Tournament:
    """Win/win/tie tallies per unordered treatment pair.

    Keys follow the ``treatments`` order: in a ``(X, Y)`` key, X precedes Y,
    and ``wins_first`` counts wins for X. Pairs with no records are absent,
    also when the mapping passed in holds them with zero counts. The model
    code reads the tallies as arrays, built once here: ``_i``, ``_j`` hold
    the treatment indices of the pairs with records, in key order, and
    ``_counts[P, 3]`` their (wins for ``_i``, wins for ``_j``, ties).
    :meth:`_of_counts` builds a tournament from those arrays instead. Either
    way ``counts``, a read-only mapping of whole counts, is built from the
    arrays on its first read, as the command line never reads it.
    """

    treatments: tuple[str, ...]
    counts: Mapping[tuple[str, str], PairCounts] = _CountsOnFirstRead()
    _i: np.ndarray = field(init=False, repr=False, compare=False)
    _j: np.ndarray = field(init=False, repr=False, compare=False)
    _counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {t: i for i, t in enumerate(self.treatments)}
        rows = []
        for (x, y), c in dict(self.counts).items():
            if x not in index or y not in index:
                raise DataError(f"pair ({x!r}, {y!r}) uses an unknown treatment")
            if index[x] >= index[y]:
                raise DataError(f"pair key ({x!r}, {y!r}) is not in treatment order")
            if len(c) != 3 or not all(0 <= v <= 2**53 and v == int(v) for v in c):
                raise DataError(f"pair ({x!r}, {y!r}) needs three non-negative whole counts, "
                                f"got {c}")
            if any(c):
                rows.append((index[x], index[y], *c))
        table = np.asarray(rows, dtype=np.intp).reshape(-1, 5)
        del self.__dict__["counts"]  # read back from the arrays, without the zero pairs
        self._bind(table[:, 0], table[:, 1], table[:, 2:])

    @classmethod
    def _of_counts(cls, treatments: tuple[str, ...], pairs: np.ndarray,
                   counts: np.ndarray) -> "Tournament":
        """The tournament with ``counts[p]`` for the pair of treatment indices
        ``pairs[p]``, with no checks: the pairs are distinct, each in
        treatment order, ascending, and each with a record, as
        :meth:`_Preferences.coded` gives them; the counts are non-negative."""
        self = cls.__new__(cls)
        object.__setattr__(self, "treatments", treatments)
        self._bind(pairs[:, 0], pairs[:, 1], counts)
        return self

    def _bind(self, i: np.ndarray, j: np.ndarray, table: np.ndarray) -> None:
        object.__setattr__(self, "_i", i)
        object.__setattr__(self, "_j", j)
        object.__setattr__(self, "_counts", table.astype(float))

    @property
    def total_records(self) -> int:
        return int(self._counts.sum())

    @property
    def total_ties(self) -> int:
        return int(self._counts[:, 2].sum())

    @property
    def total_wins(self) -> int:
        return int(self._counts[:, :2].sum())

    def pair_counts(self, x: str, y: str) -> PairCounts:
        """Counts for the (x, y) pair, oriented so wins_first belongs to x."""
        if (x, y) in self.counts:
            return self.counts[(x, y)]
        if (y, x) in self.counts:
            c = self.counts[(y, x)]
            return PairCounts(c.wins_second, c.wins_first, c.ties)
        return PairCounts(0, 0, 0)


@dataclass(frozen=True)
class _Preferences(_Studies):
    """Preference records as columns: how the command line holds them, and the core that
    the record-at-a-time functions below wrap. ``outcome[k]`` is record k's verdict as an
    outcome code of :func:`_outcomes`."""

    outcome: np.ndarray

    @classmethod
    def of(cls, records: Iterable[PreferenceRecord], treatments=(), covariate_names=()):
        """The records as columns; ``treatments=None`` lists theirs in first-seen order."""
        records = tuple(records)
        study, t1, t2 = ([r.study_id for r in records], [r.treat_a for r in records],
                         [r.treat_b for r in records])
        treatments = _first_seen(zip(t1, t2)) if treatments is None else treatments
        covariates = {name: [r.covariates.get(name) for r in records] for name in covariate_names}
        outcome = np.array([_OUTCOME[r.verdict] for r in records], dtype=np.intp)
        return cls(study, t1, t2, tuple(treatments), covariates, {}, outcome)

    def coded(self) -> tuple[np.ndarray, np.ndarray]:
        """The records as ``(pairs, codes)``, the one place verdicts meet pair order.

        ``pairs[P, 2]`` holds the distinct treatment-index pairs ``(x, y)``,
        ``x < y``, in ascending order; record k's code is ``3 * p + outcome``
        for its pair ``p``, with outcome 0 a win for x, 1 a win for y, 2 a tie.
        """
        a, b = _codes(self.treatments, self.treat1, self.treat2)
        unknown = (a < 0) | (b < 0)
        if unknown.any():
            k = int(np.argmax(unknown))
            label = self.treat1[k] if a[k] < 0 else self.treat2[k]
            raise DataError(f"record in study {self.study[k]!r} uses unknown treatment {label!r}")
        n = len(self.treatments)
        keys, pair = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True)
        pairs = np.stack(np.divmod(keys, n), axis=1)
        return pairs, 3 * pair + np.where(a > b, _SWAPPED[self.outcome], self.outcome)

    def tournament(self) -> Tournament:
        return _tally(self.treatments, *self.coded())

    def records(self) -> tuple[PreferenceRecord, ...]:
        return tuple(map(PreferenceRecord, self.study, self.treat1, self.treat2,
                         [_VERDICTS[o] for o in self.outcome.tolist()], self.rows()))

    def dump(self, stream: IO[str]) -> None:
        """Write the records as CSV: study, treat1, treat2, verdict, then covariates."""
        verdicts = list(map(_VERDICT_VALUES.__getitem__, self.outcome.tolist()))
        _write_columns(stream, [*_RECORD_COLUMNS, *self.covariates],
                       [self.study, self.treat1, self.treat2, verdicts, *self.covariates.values()])


def _subset(pairs: np.ndarray, codes: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`_Preferences.coded` of the records ``rows`` of what it gave (its pairs ascend)."""
    used, pair = np.unique(codes[rows] // 3, return_inverse=True)
    return pairs[used], 3 * pair + codes[rows] % 3


def _judge(studies: _Studies, numbers: Mapping[str, np.ndarray], roe: RoeConfig) -> _Preferences:
    """``apply_tcc(complete_intervals(e), roe)`` for every contrast of a table at once."""
    _, lower, upper = _completed(numbers)
    outcome = _outcomes(numbers["effect"], lower, upper, roe)[2]
    return _Preferences(**vars(studies), outcome=outcome)


def _tally(treatments: tuple[str, ...], pairs: np.ndarray, codes: np.ndarray) -> Tournament:
    """The tournament of records coded as ``(pairs, codes)``; see :meth:`_Preferences.coded`."""
    return Tournament._of_counts(treatments, pairs, _counts(codes, len(pairs))[0])


def _counts(codes: np.ndarray, n_pairs: int, group=0, n_groups: int = 1) -> np.ndarray:
    """(n_groups, P, 3) outcome counts per pair of the coded records in each
    group, for records in groups ``0 <= group < n_groups``."""
    cells = 3 * n_pairs
    counts = np.bincount(group * cells + codes, minlength=n_groups * cells)
    return counts.reshape(n_groups, n_pairs, 3)


def _running_counts(codes: np.ndarray, n_pairs: int, group: np.ndarray, n_groups: int,
                    chunk: int) -> Iterator[np.ndarray]:
    """The counts of the records in groups ``0..k`` for ``k < n_groups - 1``,
    as (c, P, 3) arrays of at most ``chunk`` consecutive ``k``: running sums
    over records sorted by ``group``."""
    starts = np.searchsorted(group, np.arange(n_groups))
    counts = np.zeros((1, n_pairs, 3))
    for a in range(0, n_groups - 1, chunk):
        b = min(a + chunk, n_groups - 1)
        at = slice(starts[a], starts[b])
        counts = counts[-1] + np.cumsum(_counts(codes[at], n_pairs, group[at] - a, b - a), axis=0)
        yield counts


def aggregate_tournament(
    records: Iterable[PreferenceRecord], treatments: Sequence[str]
) -> Tournament:
    """Tally preference records into a tournament over the given treatments."""
    return _Preferences.of(records, treatments).tournament()


@dataclass(frozen=True)
class PreferenceData:
    """Parsed preference records plus the covariate schema they carry."""

    records: tuple[PreferenceRecord, ...]
    treatments: tuple[str, ...]
    covariate_schema: CovariateSchema = field(default_factory=dict)


def dump_preference_records(
    records: Iterable[PreferenceRecord],
    stream: IO[str],
    covariate_names: Sequence[str] = (),
) -> None:
    """Write records as CSV: study, treat1, treat2, verdict, then covariates."""
    _Preferences.of(records, covariate_names=covariate_names).dump(stream)


def _read_records(
    source: IO[str] | Iterable[str], schema: CovariateSchema | None = None
) -> _Preferences:
    """The columnar core of :func:`parse_preference_records`."""
    columns = _read_columns(source, _RECORD_COLUMNS)
    studies = _study_columns(columns, _RECORD_COLUMNS, schema)
    (outcome,) = _codes(_VERDICT_VALUES, columns["verdict"])
    a, b = _codes(studies.treatments, studies.treat1, studies.treat2)
    bad, repeat = outcome < 0, _repeats(studies.study, a, b, len(studies.treatments))
    flagged = bad | repeat | (a == b)
    if flagged.any():  # the first flagged row's error, its checks in the row-wise order
        k = int(np.argmax(flagged))
        i, study, t1, t2, verdict = k + 2, *(columns[c][k] for c in _RECORD_COLUMNS)
        if bad[k]:
            raise DataError(f"row {i}: verdict must be one of {sorted(_VERDICT_VALUES)}, "
                            f"got {verdict!r}")
        if repeat[k]:
            raise DataError(f"row {i}: duplicate record for pair ({t1}, {t2}) in study {study!r}")
        PreferenceRecord(study, t1, t2, Verdict(verdict))  # raises: both members are one label
    return _Preferences(**vars(studies), outcome=outcome)


def parse_preference_records(
    source: IO[str] | Iterable[str],
    schema: CovariateSchema | None = None,
) -> PreferenceData:
    """Read a preference-record CSV; the entry point for externally computed TCCs."""
    data = _read_records(source, schema)
    return PreferenceData(data.records(), data.treatments, data.schema)
