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
from typing import IO, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError
from .study_data import (
    CovariateSchema,
    CovariateValue,
    StudyEffect,
    _covariate_cell,
    _covariate_schema,
    _parse_covariate,
    _read_csv,
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
    """

    treatments: tuple[str, ...]
    counts: Mapping[tuple[str, str], PairCounts]

    def __post_init__(self):
        index = {t: i for i, t in enumerate(self.treatments)}
        for (x, y), c in self.counts.items():
            if x not in index or y not in index:
                raise DataError(f"pair ({x!r}, {y!r}) uses an unknown treatment")
            if index[x] >= index[y]:
                raise DataError(f"pair key ({x!r}, {y!r}) is not in treatment order")
            if min(c) < 0:
                raise DataError(f"pair ({x!r}, {y!r}) has negative counts {c}")

    @property
    def total_records(self) -> int:
        return sum(c.total for c in self.counts.values())

    @property
    def total_ties(self) -> int:
        return sum(c.ties for c in self.counts.values())

    @property
    def total_wins(self) -> int:
        return sum(c.wins_first + c.wins_second for c in self.counts.values())

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


def _tally(pairs: np.ndarray, codes: np.ndarray, treatments: Sequence[str]) -> Tournament:
    """Tournament of coded records; pairs without records are left out."""
    treatments = tuple(treatments)
    counts = np.bincount(codes, minlength=3 * len(pairs)).reshape(-1, 3)
    kept = counts.sum(axis=1) > 0
    return Tournament(
        treatments=treatments,
        counts={
            (treatments[x], treatments[y]): PairCounts(*c)
            for (x, y), c in zip(pairs[kept].tolist(), counts[kept].tolist())
        },
    )


def aggregate_tournament(
    records: Iterable[PreferenceRecord], treatments: Sequence[str]
) -> Tournament:
    """Tally preference records into a tournament over the given treatments."""
    treatments = tuple(treatments)
    return _tally(*_code_records(records, treatments), treatments)


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
    covariate_names = [f for f in fields if f not in _RECORD_COLUMNS]
    schema = _covariate_schema(covariate_names, rows, schema)

    valid = {v.value for v in Verdict}
    records = []
    treatments: list[str] = []
    seen = set()
    seen_pairs: set[tuple[str, frozenset[str]]] = set()
    for i, row in rows:
        study = (row.get("study") or "").strip()
        t1 = (row.get("treat1") or "").strip()
        t2 = (row.get("treat2") or "").strip()
        verdict_cell = (row.get("verdict") or "").strip()
        if not study or not t1 or not t2:
            raise DataError(f"row {i}: study and both treatment labels are required")
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
        covariates = {
            name: _parse_covariate(name, schema[name], row.get(name), i)
            for name in covariate_names
        }
        for label in (t1, t2):
            if label not in seen:
                seen.add(label)
                treatments.append(label)
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
        treatments=tuple(treatments),
        covariate_schema=schema,
    )
