"""Ingest and validate study-level contrast data into a network representation.

Input rows carry one pairwise contrast per study on the log scale (log odds
ratio or any other log effect measure), with uncertainty given either as a
standard error or as a confidence/credible interval. Effects are read as
``treat_a`` versus ``treat_b``: a positive value favors ``treat_a`` on a
beneficial outcome. Variances of multi-arm contrasts are expected to be
pre-adjusted upstream; nothing here inflates or deflates them.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import IO, Iterable, Mapping, Sequence, Union

from .errors import DataError

__all__ = [
    "Categorical",
    "Continuous",
    "CovariateSchema",
    "Network",
    "StudyEffect",
    "ValidationReport",
    "complete_intervals",
    "dump_contrast_table",
    "parse_contrast_table",
    "validate_network",
]


@dataclass(frozen=True)
class Continuous:
    """Marker for a numeric covariate."""


@dataclass(frozen=True)
class Categorical:
    """Covariate taking one of a fixed set of string levels."""

    levels: tuple[str, ...]


CovariateKind = Union[Continuous, Categorical]
CovariateSchema = dict[str, CovariateKind]

CovariateValue = Union[float, str, None]


@dataclass(frozen=True)
class StudyEffect:
    """One pairwise contrast from one study, on the log-ratio scale.

    ``effect`` is the estimate for ``treat_a`` relative to ``treat_b``; the
    interval bounds, when present, live on the same scale. At least one of
    ``se`` or the (``ci_lower``, ``ci_upper``) pair must be supplied.
    """

    study_id: str
    treat_a: str
    treat_b: str
    effect: float
    se: float | None = None
    ci_lower: float | None = None
    ci_upper: float | None = None
    ci_level: float = 0.95
    covariates: Mapping[str, CovariateValue] = field(default_factory=dict)

    def __post_init__(self):
        if self.treat_a == self.treat_b:
            raise DataError(
                f"study {self.study_id!r}: contrast compares {self.treat_a!r} with itself"
            )
        if not (0.0 < self.ci_level < 1.0):
            raise DataError(f"ci_level must be in (0, 1), got {self.ci_level}")
        if self.se is not None and self.se < 0:
            raise DataError(f"study {self.study_id!r}: negative standard error {self.se}")
        has_bounds = self.ci_lower is not None and self.ci_upper is not None
        if self.se is None and not has_bounds:
            raise DataError(
                f"study {self.study_id!r}: needs a standard error or both interval bounds"
            )
        if has_bounds and not (self.ci_lower <= self.effect <= self.ci_upper):
            raise DataError(
                f"study {self.study_id!r}: interval ({self.ci_lower}, {self.ci_upper}) "
                f"does not bracket the estimate {self.effect}"
            )

    @property
    def pair(self) -> tuple[str, str]:
        return (self.treat_a, self.treat_b)

    def has_intervals(self) -> bool:
        return self.ci_lower is not None and self.ci_upper is not None


@dataclass(frozen=True)
class Network:
    """All contrasts of a trial network plus the covariate schema.

    ``treatments`` keeps first-appearance order; ``effects`` keeps input row
    order (contrasts of one study are contiguous in well-formed inputs).
    Instances are immutable and safe to share across threads.
    """

    treatments: tuple[str, ...]
    effects: tuple[StudyEffect, ...]
    covariate_schema: CovariateSchema = field(default_factory=dict)

    def __post_init__(self):
        known = set(self.treatments)
        seen_pairs: set[tuple[str, frozenset[str]]] = set()
        for e in self.effects:
            for label in (e.treat_a, e.treat_b):
                if label not in known:
                    raise DataError(f"treatment {label!r} missing from the treatment set")
            key = (e.study_id, frozenset(e.pair))
            if key in seen_pairs:
                raise DataError(
                    f"duplicate contrast for pair {e.pair} in study {e.study_id!r}"
                )
            seen_pairs.add(key)

    def by_study(self) -> dict[str, list[StudyEffect]]:
        """Group effects by study id, preserving row order within each study."""
        grouped: dict[str, list[StudyEffect]] = {}
        for e in self.effects:
            grouped.setdefault(e.study_id, []).append(e)
        return grouped


@dataclass(frozen=True)
class ValidationReport:
    """Reporting-only findings of :func:`validate_network`."""

    isolated_treatments: tuple[str, ...]
    incomplete_studies: tuple[tuple[str, int, int], ...]  # (study, observed, expected)
    covariates_with_missing: tuple[str, ...]

    def is_clean(self) -> bool:
        return not (
            self.isolated_treatments
            or self.incomplete_studies
            or self.covariates_with_missing
        )


def _first_seen(pairs: Iterable[tuple[str, str]]) -> tuple[str, ...]:
    """Treatment labels in order of first appearance over the pairs; the
    first is the reference treatment of a fit."""
    return tuple(dict.fromkeys(label for pair in pairs for label in pair))


_MANDATORY = ("study", "treat1", "treat2", "effect")
# A cell spelling a missing value in an otherwise numeric covariate column.
_MISSING = "NA"


def _read_csv(
    source: IO[str] | Iterable[str], mandatory: Sequence[str] = ()
) -> tuple[list[str], list[tuple[int, dict[str, str]]]]:
    """The one CSV-reading path for every input table, and the one place a cell is normalized.

    Returns the stripped header names, without a leading byte order mark, and the
    ``(row_num, row)`` pairs, with ``row_num`` counting the header as 1 and skipping
    blank rows: empty lines and rows whose cells are all empty after stripping (Excel
    writes ``,,,,`` for a formatted but empty row), before the header and after it.
    Each row maps every name to its stripped cell, ``""`` where the row is short. A
    repeated name and a row longer than the header are rejected.
    """
    lines = iter(source)
    first = next(lines, "")
    reader = csv.reader(itertools.chain((first.removeprefix("\ufeff"),), lines))
    stripped = ([cell.strip() for cell in cells] for cells in reader)
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
        rows.append((row_num, dict(zip(fields, cells + [""] * (width - len(cells))))))
    return fields, rows


def _parse_float(
    cell: str | None, what: str, row_num: int, required: bool = True
) -> float | None:
    """A finite float from one cell; an empty or absent cell is ``None`` unless required."""
    if not cell:
        if required:
            raise DataError(f"row {row_num}: {what} is empty")
        return None
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"row {row_num}: non-numeric {what} {cell!r}") from None
    if not math.isfinite(value):
        raise DataError(f"row {row_num}: non-finite {what} {cell!r}")
    return value


def _log_transform(value: float | None, what: str, row_num: int) -> float | None:
    if value is None:
        return None
    if value <= 0:
        raise DataError(f"row {row_num}: ratio-scale {what} must be positive, got {value}")
    return math.log(value)


def _parse_covariate(name, kind, cell, row_num) -> CovariateValue:
    if not cell or (cell == _MISSING and isinstance(kind, Continuous)):
        return None
    if isinstance(kind, Continuous):
        return _parse_float(cell, f"covariate {name!r}", row_num)
    if cell not in kind.levels:
        raise DataError(
            f"row {row_num}: covariate {name!r} has unknown level {cell!r} "
            f"(expected one of {kind.levels})"
        )
    return cell


def _covariate_cell(value: CovariateValue) -> str:
    """The CSV cell that :func:`_parse_covariate` reads back as ``value``."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else value


def _covariate_schema(
    names: list[str], rows: list[tuple[int, dict]], schema: CovariateSchema | None
) -> CovariateSchema:
    """The declared schema checked against the covariate columns, or one inferred.

    An inferred column is continuous when every non-empty cell is numeric or
    the missing token ``NA`` and at least one is numeric, or when it has no
    non-empty cell; otherwise it is categorical over its non-empty cells,
    ``NA`` included.
    """
    if schema is not None:
        undeclared = [n for n in names if n not in schema]
        if undeclared:
            raise DataError(f"covariate column(s) not in schema: {', '.join(undeclared)}")
        return dict(schema)
    inferred: CovariateSchema = {}
    for name in names:
        cells = {c for _, row in rows if (c := row[name])}
        try:
            numbers = [float(c) for c in cells - {_MISSING}]
        except ValueError:
            numbers = None
        if numbers or not cells:
            inferred[name] = Continuous()
        else:
            inferred[name] = Categorical(levels=tuple(sorted(cells)))
    return inferred


def _study_rows(fields, rows, reserved, schema) -> tuple[CovariateSchema, list[tuple]]:
    """The covariate schema and the study part of every row of a study table.

    Every column outside ``reserved`` is a covariate and needs a name. Each row
    comes back as ``(row_num, row, (study, treat1, treat2), covariates)``.
    """
    names = [f for f in fields if f not in reserved]
    if "" in names:
        raise DataError(
            f"column {fields.index('') + 1} has no header name; name it, or drop it "
            "(in R, write.csv(..., row.names = FALSE))"
        )
    schema = _covariate_schema(names, rows, schema)
    study_rows = []
    for i, row in rows:
        labels = (row["study"], row["treat1"], row["treat2"])
        if not all(labels):
            raise DataError(f"row {i}: study and both treatment labels are required")
        covariates = {name: _parse_covariate(name, schema[name], row[name], i) for name in names}
        study_rows.append((i, row, labels, covariates))
    return schema, study_rows


def parse_contrast_table(
    source: IO[str] | Iterable[str],
    schema: CovariateSchema | None = None,
    scale: str = "log",
) -> Network:
    """Parse a contrast CSV (UTF-8, comma-delimited, header row) into a Network.

    Required columns: ``study``, ``treat1``, ``treat2``, ``effect``, plus either
    ``se`` or ``lower``/``upper``. An optional ``ci_level`` column overrides the
    0.95 default per row; every remaining column is a covariate. With
    ``scale="ratio"``, ``effect``/``lower``/``upper`` are log-transformed on
    ingest; ``se`` values are always read as log-scale standard errors.

    ``schema=None`` infers covariate kinds: continuous when every non-empty
    cell is numeric (``NA`` then marks a missing value), categorical
    otherwise.
    """
    if scale not in ("log", "ratio"):
        raise DataError(f"scale must be 'log' or 'ratio', got {scale!r}")
    fields, rows = _read_csv(source, _MANDATORY)
    has_bounds = "lower" in fields and "upper" in fields
    if "se" not in fields and not has_bounds:
        raise DataError("need an 'se' column or both 'lower' and 'upper' columns")
    reserved = set(_MANDATORY) | {"se", "lower", "upper", "ci_level"}
    schema, study_rows = _study_rows(fields, rows, reserved, schema)

    effects = []
    for i, row, (study, t1, t2), covariates in study_rows:
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
        effects.append(
            StudyEffect(
                study_id=study,
                treat_a=t1,
                treat_b=t2,
                effect=effect,
                se=se,
                ci_lower=lower,
                ci_upper=upper,
                ci_level=0.95 if ci_level is None else ci_level,
                covariates=covariates,
            )
        )
    return Network(
        treatments=_first_seen(e.pair for e in effects),
        effects=tuple(effects),
        covariate_schema=schema,
    )


def dump_contrast_table(network: Network, stream: IO[str]) -> None:
    """Serialize a Network back to contrast CSV; inverse of the parser."""
    covariate_names = list(network.covariate_schema)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(
        ["study", "treat1", "treat2", "effect", "se", "lower", "upper", "ci_level"]
        + covariate_names
    )
    for e in network.effects:
        row = [
            e.study_id,
            e.treat_a,
            e.treat_b,
            repr(e.effect),
            "" if e.se is None else repr(e.se),
            "" if e.ci_lower is None else repr(e.ci_lower),
            "" if e.ci_upper is None else repr(e.ci_upper),
            repr(e.ci_level),
        ]
        row.extend(_covariate_cell(e.covariates.get(name)) for name in covariate_names)
        writer.writerow(row)


def complete_intervals(e: StudyEffect) -> StudyEffect:
    """Fill missing interval bounds from the SE, or the SE from the bounds.

    Bounds come from the normal quantile at ``(1 + ci_level) / 2``; existing
    values are never touched, which makes the operation idempotent. Bayesian
    credible intervals are accepted verbatim.
    """
    z = NormalDist().inv_cdf((1.0 + e.ci_level) / 2.0)
    se = e.se
    lower, upper = e.ci_lower, e.ci_upper
    if lower is None or upper is None:
        lower = e.effect - z * e.se
        upper = e.effect + z * e.se
    elif se is None:
        se = (upper - lower) / (2.0 * z)
    if se == e.se and lower == e.ci_lower and upper == e.ci_upper:
        return e
    return StudyEffect(
        study_id=e.study_id,
        treat_a=e.treat_a,
        treat_b=e.treat_b,
        effect=e.effect,
        se=se,
        ci_lower=lower,
        ci_upper=upper,
        ci_level=e.ci_level,
        covariates=e.covariates,
    )


def validate_network(network: Network) -> ValidationReport:
    """Report isolated treatments, incomplete multi-arm studies, and missing covariates."""
    used: set[str] = set()
    for e in network.effects:
        used.update(e.pair)
    isolated = tuple(t for t in network.treatments if t not in used)

    incomplete = []
    for study_id, contrasts in network.by_study().items():
        arms: set[str] = set()
        for e in contrasts:
            arms.update(e.pair)
        expected = len(arms) * (len(arms) - 1) // 2
        if len(contrasts) < expected:
            incomplete.append((study_id, len(contrasts), expected))

    missing = []
    for name in network.covariate_schema:
        if any(e.covariates.get(name) is None for e in network.effects):
            missing.append(name)

    return ValidationReport(
        isolated_treatments=isolated,
        incomplete_studies=tuple(incomplete),
        covariates_with_missing=tuple(missing),
    )
