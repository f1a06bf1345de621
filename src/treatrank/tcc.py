"""Treatment-choice criterion: turn study contrasts into wins and ties.

A contrast produces a win only when its effect clears the range of
equivalence (ROE) with interval support; everything else is a tie. The ROE is
built from the minimal clinically important difference (MCID) and its
reciprocal. Wins and ties are then tallied per treatment pair into a
tournament, the input of the ability model.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError
from .study_data import (
    CovariateSchema,
    CovariateValue,
    StudyEffect,
    _covariate_cell,
    _first_seen,
    _read_csv,
    _study_rows,
)

__all__ = [
    "PairCounts",
    "PreferenceData",
    "PreferenceRecord",
    "RoeConfig",
    "TccDecision",
    "Tournament",
    "Verdict",
    "aggregate_tournament",
    "apply_tcc",
    "build_roe",
    "dump_preference_records",
    "parse_preference_records",
    "tcc_decision",
]

BENEFICIAL = "beneficial"
HARMFUL = "harmful"


class Verdict(enum.Enum):
    FIRST_WINS = "first_wins"
    SECOND_WINS = "second_wins"
    TIE = "tie"


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
        if self.direction not in (BENEFICIAL, HARMFUL):
            raise DataError(f"direction must be 'beneficial' or 'harmful', got {self.direction!r}")
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
    if mcid <= 1.0:
        raise DataError(f"mcid must exceed 1 on the ratio scale, got {mcid}")
    for name, bound in (("roe_lower", roe_lower), ("roe_upper", roe_upper)):
        if bound is not None and bound <= 0:
            raise DataError(f"{name} must be positive on the ratio scale, got {bound}")
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

    @property
    def pair(self) -> tuple[str, str]:
        return (self.treat_a, self.treat_b)


def tcc_decision(e: StudyEffect, roe: RoeConfig) -> TccDecision:
    """Evaluate the treatment-choice criterion for one completed contrast.

    The effect is read as ``treat_a`` versus ``treat_b``. Inequalities against
    the ROE bounds are strict: values sitting exactly on a bound never produce
    a win. For a harmful outcome the win assignment is swapped; ties are
    unaffected.
    """
    if not e.has_intervals():
        raise DataError(
            f"study {e.study_id!r}: intervals absent; run complete_intervals first"
        )
    y, lo, hi = e.effect, e.ci_lower, e.ci_upper
    upper, lower, null = roe.roe_upper, roe.roe_lower, roe.null_effect
    i1 = 1 if (lo > upper) or (y > upper and lo > null) else 0
    i2 = -1 if (hi < lower) or (y < lower and hi < null) else 0
    total = i1 + i2
    if total == 0:
        verdict = Verdict.TIE
    elif total == 1:
        verdict = Verdict.FIRST_WINS if roe.direction == BENEFICIAL else Verdict.SECOND_WINS
    else:
        verdict = Verdict.SECOND_WINS if roe.direction == BENEFICIAL else Verdict.FIRST_WINS
    return TccDecision(i1=i1, i2=i2, verdict=verdict)


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


@dataclass(frozen=True)
class Tournament:
    """Win/win/tie tallies per unordered treatment pair.

    Keys follow the ``treatments`` order: in a ``(X, Y)`` key, X precedes Y,
    and ``wins_first`` counts wins for X. Pairs with no records are absent.
    ``counts`` is a read-only copy of the mapping passed in. The model code
    reads the same tallies as arrays, built once here: ``_i``, ``_j`` hold
    the treatment indices of the pairs with records, in key order, and
    ``_counts[P, 3]`` their (wins for ``_i``, wins for ``_j``, ties).
    """

    treatments: tuple[str, ...]
    counts: Mapping[tuple[str, str], PairCounts]
    _i: np.ndarray = field(init=False, repr=False, compare=False)
    _j: np.ndarray = field(init=False, repr=False, compare=False)
    _counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {t: i for i, t in enumerate(self.treatments)}
        counts = MappingProxyType(dict(self.counts))
        rows = []
        for (x, y), c in counts.items():
            if x not in index or y not in index:
                raise DataError(f"pair ({x!r}, {y!r}) uses an unknown treatment")
            if index[x] >= index[y]:
                raise DataError(f"pair key ({x!r}, {y!r}) is not in treatment order")
            if min(c) < 0:
                raise DataError(f"pair ({x!r}, {y!r}) has negative counts {c}")
            if any(c):
                rows.append((index[x], index[y], *c))
        table = np.asarray(rows, dtype=np.intp).reshape(-1, 5)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "_i", table[:, 0])
        object.__setattr__(self, "_j", table[:, 1])
        object.__setattr__(self, "_counts", table[:, 2:].astype(float))

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


_OUTCOME = {Verdict.FIRST_WINS: 0, Verdict.SECOND_WINS: 1, Verdict.TIE: 2}
_SWAPPED = np.array([1, 0, 2])  # the same outcome seen from the other pair member


def _code_records(
    records: Iterable[PreferenceRecord], treatments: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Records as ``(pairs, codes)``, the one place verdicts meet pair order.

    ``pairs[P, 2]`` holds the distinct treatment-index pairs ``(x, y)``,
    ``x < y``, in ascending order; record k's code is ``3 * p + outcome``
    for its pair ``p``, with outcome 0 a win for x, 1 a win for y, 2 a tie.
    """
    index = {t: k for k, t in enumerate(treatments)}
    rows = []
    for r in records:
        for label in r.pair:
            if label not in index:
                raise DataError(f"record in study {r.study_id!r} uses unknown treatment {label!r}")
        rows.append((index[r.treat_a], index[r.treat_b], _OUTCOME[r.verdict]))
    a, b, outcome = np.asarray(rows, dtype=np.intp).reshape(-1, 3).T
    n = len(treatments)
    keys, pair = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True)
    pairs = np.stack(np.divmod(keys, n), axis=1)
    return pairs, 3 * pair + np.where(a > b, _SWAPPED[outcome], outcome)


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
    treatments = tuple(treatments)
    pairs, codes = _code_records(records, treatments)
    return Tournament(
        treatments=treatments,
        counts={
            (treatments[x], treatments[y]): PairCounts(*c)
            for (x, y), c in zip(pairs.tolist(), _counts(codes, len(pairs))[0].tolist())
        },
    )


@dataclass(frozen=True)
class PreferenceData:
    """Parsed preference records plus the covariate schema they carry."""

    records: tuple[PreferenceRecord, ...]
    treatments: tuple[str, ...]
    covariate_schema: CovariateSchema = field(default_factory=dict)


_RECORD_COLUMNS = ("study", "treat1", "treat2", "verdict")


def dump_preference_records(
    records: Iterable[PreferenceRecord],
    stream: IO[str],
    covariate_names: Sequence[str] = (),
) -> None:
    """Write records as CSV: study, treat1, treat2, verdict, then covariates."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(list(_RECORD_COLUMNS) + list(covariate_names))
    for r in records:
        row = [r.study_id, r.treat_a, r.treat_b, r.verdict.value]
        row.extend(_covariate_cell(r.covariates.get(name)) for name in covariate_names)
        writer.writerow(row)


def parse_preference_records(
    source: IO[str] | Iterable[str],
    schema: CovariateSchema | None = None,
) -> PreferenceData:
    """Read a preference-record CSV; the entry point for externally computed TCCs."""
    fields, rows = _read_csv(source, _RECORD_COLUMNS)
    schema, study_rows = _study_rows(fields, rows, _RECORD_COLUMNS, schema)

    valid = {v.value for v in Verdict}
    records = []
    seen_pairs: set[tuple[str, frozenset[str]]] = set()
    for i, row, (study, t1, t2), covariates in study_rows:
        verdict_cell = row["verdict"]
        if verdict_cell not in valid:
            raise DataError(
                f"row {i}: verdict must be one of {sorted(valid)}, got {verdict_cell!r}"
            )
        key = (study, frozenset((t1, t2)))
        if key in seen_pairs:
            raise DataError(
                f"row {i}: duplicate record for pair ({t1}, {t2}) in study {study!r}"
            )
        seen_pairs.add(key)
        records.append(
            PreferenceRecord(
                study_id=study,
                treat_a=t1,
                treat_b=t2,
                verdict=Verdict(verdict_cell),
                covariates=covariates,
            )
        )
    return PreferenceData(
        records=tuple(records),
        treatments=_first_seen(r.pair for r in records),
        covariate_schema=schema,
    )
