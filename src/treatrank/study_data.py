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
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import IO, Container, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from . import _EXPORTS
from .errors import DataError

__all__ = (*_EXPORTS["study_data"], "CovariateSchema")

# The streaming kernels, the permutation blocks of a stability test and the
# draw buffers of prob_best, size each working array to at most this many
# floats (512 KiB), so a block and its index arrays stay in a 2 MiB L2 cache
# instead of streaming through memory. Their results do not depend on the
# block size, and smaller blocks let a permutation test stop sooner.
_BLOCK_FLOATS = 2**16
# The one default interval level: of the reports, and of a contrast row without ci_level.
_CI_LEVEL = 0.95
# The two outcome directions: whether a larger effect is the better one.
BENEFICIAL = "beneficial"
HARMFUL = "harmful"


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
    ci_level: float = _CI_LEVEL
    covariates: Mapping[str, CovariateValue] = field(default_factory=dict)

    def __post_init__(self):
        if self.treat_a == self.treat_b:
            raise DataError(
                f"study {self.study_id!r}: contrast compares {self.treat_a!r} with itself"
            )
        for name in ("effect", "se", "ci_lower", "ci_upper"):
            if (value := getattr(self, name)) is not None and not math.isfinite(value):
                raise DataError(f"study {self.study_id!r}: non-finite {name} {value}")
        if not (0.0 < self.ci_level < 1.0):
            raise DataError(_LEVEL_RANGE.format(self.ci_level))
        if _unusable_level(self.ci_level):
            raise DataError(f"study {self.study_id!r}: {_UNUSABLE_LEVEL.format(self.ci_level)}")
        if self.se is not None and self.se < 0:
            raise DataError(f"study {self.study_id!r}: negative standard error {self.se}")
        if self.se is None and not self.has_intervals():
            raise DataError(
                f"study {self.study_id!r}: needs a standard error or both interval bounds"
            )
        if self.has_intervals() and not (self.ci_lower <= self.effect <= self.ci_upper):
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
        e = self.effects
        _check_pairs(self.treatments, [x.study_id for x in e], [x.treat_a for x in e],
                     [x.treat_b for x in e])


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


@dataclass(frozen=True)
class _Studies:
    """The study part of a table as columns: entry ``k`` of each comes from data row
    ``k + 2``, and ``covariates`` maps every covariate name to one value per row."""

    study: Sequence[str]
    treat1: Sequence[str]
    treat2: Sequence[str]
    treatments: tuple[str, ...]
    covariates: Mapping[str, Sequence[CovariateValue]]
    schema: CovariateSchema

    def rows(self) -> Iterator[dict[str, CovariateValue]]:
        """Each row's covariates as a dict of its own."""
        if not self.covariates:
            return ({} for _ in self.study)
        names = list(self.covariates)
        return (dict(zip(names, values)) for values in zip(*self.covariates.values()))


_MANDATORY = ("study", "treat1", "treat2", "effect")
_LABELS = ("study", "treat1", "treat2")
_NUMBERS = ("effect", "se", "lower", "upper", "ci_level")
# A cell spelling a missing value in an otherwise numeric covariate column.
_MISSING = "NA"


def _rows(source: IO[str] | Iterable[str]) -> Iterator[list[str]]:
    """The cells of each line of a CSV source, a leading byte order mark dropped.

    Text that is not UTF-8 and a cell over the ``csv`` module's size limit are
    ``DataError``s, not tracebacks.
    """
    lines = iter(source)
    try:
        first = next(lines, "")
        reader = csv.reader(itertools.chain((first.removeprefix("\ufeff"),), lines))
        yield from reader
    except UnicodeDecodeError as error:
        byte = error.object[error.start]
        raise DataError(f"input is not UTF-8 text (byte 0x{byte:02x}: {error.reason})") from None
    except csv.Error as error:
        raise DataError(f"line {reader.line_num}: {error}") from None


def _read_header(source: IO[str] | Iterable[str]) -> tuple[list[str], Iterator[list[str]]]:
    """The stripped header names of a table and an iterator over its other rows' cells.

    Blank rows before the header are skipped: rows whose cells are all empty after
    stripping, that is whose joined cells strip to ``""`` (empty lines, and the ``,,,,``
    Excel writes for a formatted but empty row). A repeated name is rejected, and so is
    a second unnamed column, by its position.
    """
    rows = _rows(source)
    fields = next((cells for cells in rows if "".join(cells).strip()), None)
    if fields is None:
        raise DataError("empty input: no header row")
    fields = list(map(str.strip, fields))
    if len(set(fields)) < len(fields):
        k, repeated = next((k, name) for k, name in enumerate(fields) if name in fields[:k])
        if not repeated:
            raise DataError(f"column {k + 1} has no header name; name it, or drop it")
        raise DataError(f"column {repeated!r} appears more than once in the header")
    return fields, rows


# Cells that _read_columns reads at a time, as whole rows: 910 rows of a 9-column contrast
# table, 8 of a 1 000-treatment covariance table. Its row lists and the text of its numbers
# stay that small however long or wide the table is; the columns do not depend on it. On a
# 10 000-row contrast table 2**13 gave a lower heap peak than 2**12 or 2**14.
_BLOCK_CELLS = 2**13

# Distinct cells of one text column that _read_columns keeps one string of across its
# blocks. A label column (treatments, regions) stays under it, so each label is one string
# however long the table is; a column of ids passes it and starts over, so its dict stays
# near this size. On a 1 000-treatment, 100 000-row contrast table, sharing labels across
# blocks rather than within each took the read's heap peak from 33.0 to 24.8 MB.
_DISTINCT_CELLS = 2**13


@dataclass(frozen=True)
class _Numbers:
    """A numeric column as :func:`_read_columns` reads it: ``values`` in float64, NaN for
    an empty cell, and ``text``, the stripped text of each cell that is not a finite
    number (non-numeric, or ``nan`` or ``inf`` in any spelling) by its position."""

    values: np.ndarray
    text: Mapping[int, str]

    def number(self, k: int, what: str, row_num: int, required: bool = True) -> float | None:
        """:func:`_parse_float` of cell ``k``: of its kept text, ``""`` when empty, else
        of ``repr`` of its value, which ``float`` reads back as that value."""
        value = float(self.values[k])
        if math.isfinite(value):
            return value
        return _parse_float(self.text.get(k, ""), what, row_num, required)


def _float_or_nan(cell: str) -> float:
    """``float()`` of a stripped cell, NaN for an empty one and for one that is no number."""
    try:
        return float(cell or "nan")  # an empty cell, common in ``lower``, raises nothing
    except ValueError:
        return math.nan


def _read_columns(
    source: IO[str] | Iterable[str], mandatory: Sequence[str] = (), numeric: Container[str] = ()
) -> dict[str, list[str] | _Numbers]:
    """The one CSV-reading path for every input table, and the one place a cell is normalized.

    Returns the table as columns: each name of :func:`_read_header`, in header order,
    with the stripped cells of every other row that is not blank, a short row padded
    with ``""``. Row numbers count the header as 1 and skip blank rows, so entry ``k``
    of a column is from row ``k + 2``. A row longer than the header is rejected. The
    rows are read :data:`_BLOCK_CELLS` cells at a time, and a column named in
    ``numeric`` is parsed block by block into a :class:`_Numbers`, which keeps the text
    of a cell only when it is not a finite number. In any other column a repeated cell,
    such as a treatment label, is kept as one string across blocks, up to
    :data:`_DISTINCT_CELLS` distinct cells a column.
    """
    fields, rows = _read_header(source)
    missing = [c for c in mandatory if c not in fields]
    if missing:
        raise DataError(f"missing mandatory column(s): {', '.join(missing)}")
    width, row_num = len(fields), 2
    parsed = [name in numeric for name in fields]
    texts = {j: [] for j, is_number in enumerate(parsed) if not is_number}
    seen = {j: {} for j in texts}  # each text column's strings, one per distinct cell
    kept = [{} for is_number in parsed if is_number]  # each numeric column's text
    blocks = [np.empty((0, len(kept)))]  # per block, its numeric cells' values, row by row
    while block := list(itertools.islice(rows, max(1, _BLOCK_CELLS // width))):
        block = list(itertools.compress(block, map(str.strip, map("".join, block))))
        lengths = list(map(len, block))
        if max(lengths, default=width) > width:
            k = next(k for k, n in enumerate(lengths) if n > width)
            raise DataError(f"row {row_num + k}: expected {width} cells, got {lengths[k]}")
        if min(lengths, default=width) < width:
            block = [cells + [""] * (width - len(cells)) for cells in block]
        cells = list(map(str.strip, itertools.chain.from_iterable(block)))  # row by row
        for j, column in texts.items():
            if len(seen[j]) > _DISTINCT_CELLS:
                seen[j].clear()
            strings = cells[j::width]
            column.extend(map(seen[j].setdefault, strings, strings))
        cells = list(itertools.compress(cells, itertools.cycle(parsed)))
        values = np.fromiter(map(_float_or_nan, cells), float, len(cells))
        for p in np.flatnonzero(~np.isfinite(values)).tolist():
            if cells[p]:
                k, j = divmod(p, len(kept))
                kept[j][row_num - 2 + k] = cells[p]
        blocks.append(values.reshape(len(block), len(kept)))
        row_num += len(block)
    numbers = (_Numbers(np.concatenate([values[:, m] for values in blocks]), text)
               for m, text in enumerate(kept))
    columns = [next(numbers) if is_number else texts[j] for j, is_number in enumerate(parsed)]
    return dict(zip(fields, columns))


def _write_columns(stream: IO[str], header: Sequence[str], columns: Iterable[Iterable]) -> None:
    """The one CSV-writing path for every output table, the inverse of :func:`_read_columns`:
    the ``header`` row, then row ``k`` of the ``columns``. ``csv`` writes ``None`` as an empty
    cell, a float (numpy's too) as its shortest repr and any other value as its ``str()``."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*columns))


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


def _floats(cells: Sequence[str]) -> tuple[list[float | None], int]:
    """A continuous covariate's cells as floats, ``None`` for an empty or ``NA`` cell, and
    the first row :func:`_parse_covariate` may reject: 0 if a cell is no number, else the
    first non-finite value's row, else ``len(cells)``."""
    try:
        values = [None if c in ("", _MISSING) else float(c) for c in cells]
    except ValueError:
        return [None] * len(cells), 0
    bad = (k for k, v in enumerate(values) if v is not None and not math.isfinite(v))
    return values, next(bad, len(cells))


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


def _covariate_schema(
    names: list[str], columns: Mapping[str, Sequence[str]], schema: CovariateSchema | None
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
        cells = set(columns[name]) - {""}
        try:
            numbers = [float(c) for c in cells - {_MISSING}]
        except ValueError:
            numbers = None
        if numbers or not cells:
            inferred[name] = Continuous()
        else:
            inferred[name] = Categorical(levels=tuple(sorted(cells)))
    return inferred


def _study_columns(columns: Mapping[str, Sequence[str]], reserved, schema) -> _Studies:
    """The study columns of a table read by :func:`_read_columns`.

    Every column outside ``reserved`` is a covariate and needs a name; every row needs
    the study and both treatment labels. Each check runs over a whole column; from the
    first row one flags, the per-row checks run again and raise that row's message.
    """
    fields = list(columns)
    names = [f for f in fields if f not in reserved]
    if "" in names:
        raise DataError(
            f"column {fields.index('') + 1} has no header name; name it, or drop it "
            "(in R, write.csv(..., row.names = FALSE))"
        )
    schema = _covariate_schema(names, columns, schema)
    study, t1, t2 = (columns[c] for c in _LABELS)
    suspect = [labels.index("") for labels in (study, t1, t2) if "" in labels]
    covariates = {}
    for name in names:
        cells, kind = columns[name], schema[name]
        if isinstance(kind, Continuous):
            covariates[name], first = _floats(cells)
        else:
            covariates[name] = [c or None for c in cells]
            first = min(map(cells.index, set(cells) - {""} - set(kind.levels)), default=len(cells))
        suspect.append(first)
    for k in range(min(suspect, default=len(study)), len(study)):
        if not (study[k] and t1[k] and t2[k]):
            raise DataError(f"row {k + 2}: study and both treatment labels are required")
        for name in names:
            _parse_covariate(name, schema[name], columns[name][k], k + 2)
    return _Studies(study, t1, t2, _first_seen(zip(t1, t2)), covariates, schema)


def _codes(distinct: Iterable[str], *columns: Sequence[str]) -> list[np.ndarray]:
    """Each column's labels as positions in ``distinct``, which holds each once; -1 if absent."""
    index = defaultdict(lambda: -1, zip(distinct, itertools.count()))
    return [np.fromiter(map(index.__getitem__, c), dtype=np.intp, count=len(c)) for c in columns]


def _repeats(study: Sequence[str], a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Whether each row's study and unordered pair of treatment codes ``a``, ``b``
    (-1 to ``n - 1``, from :func:`_codes`) appeared on an earlier row."""
    (code,) = _codes(dict.fromkeys(study), study)
    key = (code.astype(np.int64) * (n + 1) + np.minimum(a, b) + 1) * (n + 1) + np.maximum(a, b) + 1
    first = np.unique(key, return_index=True)[1]  # the row of each key's first appearance
    return np.bincount(first, minlength=len(key)) == 0


def _check_pairs(treatments: Sequence[str], study: Sequence[str], t1: Sequence[str],
                 t2: Sequence[str]) -> None:
    """The label and repeated-pair checks of a contrast table or a ``Network``: the
    first row whose label is not in ``treatments``, or whose study and unordered pair
    appeared on an earlier row, raises."""
    a, b = _codes(treatments, t1, t2)
    unknown = (a < 0) | (b < 0)
    flagged = unknown | _repeats(study, a, b, len(treatments))
    if flagged.any():  # the first flagged row's error, its checks in the row-wise order
        k = int(np.argmax(flagged))
        if unknown[k]:
            label = t1[k] if a[k] < 0 else t2[k]
            raise DataError(f"treatment {label!r} missing from the treatment set")
        raise DataError(f"duplicate contrast for pair {(t1[k], t2[k])} in study {study[k]!r}")


def _study_effect(labels: Mapping[str, Sequence[str]], numbers: Mapping[str, _Numbers], k: int,
                  scale: str) -> StudyEffect:
    """Row ``k`` of a contrast table read one cell at a time, raising on the first bad one."""
    i = k + 2
    effect = numbers["effect"].number(k, "effect", i)
    se = numbers["se"].number(k, "standard error", i, required=False)
    lower = numbers["lower"].number(k, "lower bound", i, required=False)
    upper = numbers["upper"].number(k, "upper bound", i, required=False)
    if scale == "ratio":
        effect = _log_transform(effect, "effect", i)
        lower = _log_transform(lower, "lower bound", i)
        upper = _log_transform(upper, "upper bound", i)
    ci_level = numbers["ci_level"].number(k, "ci_level", i, required=False)
    if ci_level is not None and 0.0 < ci_level < 1.0 and _unusable_level(ci_level):
        raise DataError(f"row {i}: {_UNUSABLE_LEVEL.format(ci_level)}")
    study, t1, t2 = (labels[c][k] for c in _LABELS)
    return StudyEffect(study, t1, t2, effect, se, lower, upper,
                       _CI_LEVEL if ci_level is None else ci_level)


def _read_contrasts(
    source: IO[str] | Iterable[str], schema: CovariateSchema | None = None, scale: str = "log"
) -> tuple[_Studies, dict[str, np.ndarray]]:
    """The columnar core of :func:`parse_contrast_table`: its checks and its first error,
    with each cell read once and each check run over a whole column. A row whose
    :func:`complete_intervals` is not finite is an error too. The repeated-pair check
    is the caller's: :func:`_check_pairs`, which ``Network`` runs.

    Returns the study columns and an array for each of ``effect``, ``se``, ``lower``,
    ``upper`` (log scale, NaN where absent) and ``ci_level`` (0.95 where absent).
    """
    if scale not in ("log", "ratio"):
        raise DataError(f"scale must be 'log' or 'ratio', got {scale!r}")
    columns = _read_columns(source, _MANDATORY, _NUMBERS)
    has_bounds = "lower" in columns and "upper" in columns
    if "se" not in columns and not has_bounds:
        raise DataError("need an 'se' column or both 'lower' and 'upper' columns")
    studies = _study_columns(columns, {*_LABELS, *_NUMBERS}, schema)
    n = len(studies.study)
    absent = _Numbers(np.full(n, np.nan), {})
    read = {c: columns.get(c, absent) for c in _NUMBERS}
    if not has_bounds:
        read["lower"] = read["upper"] = absent
    numbers, suspect = {}, [n]
    for name, column in read.items():
        values = column.values
        suspect.append(min(column.text, default=n))  # the first cell that is no finite number
        if scale == "ratio" and name in ("effect", "lower", "upper"):
            suspect += np.flatnonzero(values <= 0)[:1].tolist()
            values = np.array([math.log(v) if v > 0 else v for v in values.tolist()])
        numbers[name] = values
    effect, se, lower, upper, ci_level = numbers.values()
    unusable = _unusable_level(ci_level)
    # A row with an unusable level is bad below; the default stands in for it meanwhile.
    numbers["ci_level"] = np.where(np.isnan(ci_level) | unusable, _CI_LEVEL, ci_level)
    same = np.fromiter(map(operator.eq, studies.treat1, studies.treat2), dtype=bool, count=n)
    both = ~np.isnan(lower) & ~np.isnan(upper)
    bad = (np.isnan(effect) | same | unusable | (se < 0)
           | (np.isnan(se) & ~both) | (both & ~((lower <= effect) & (effect <= upper)))
           | ~np.isfinite(_completed(numbers)).all(axis=0))
    for k in range(min(suspect + np.flatnonzero(bad)[:1].tolist()), n):
        complete_intervals(_study_effect(columns, read, k, scale))
    return studies, numbers


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
    studies, numbers = _read_contrasts(source, schema, scale)
    columns = ([None if v != v else v for v in x.tolist()] for x in numbers.values())
    effects = tuple(
        StudyEffect(*row, covariates=covariates)
        for *row, covariates in zip(studies.study, studies.treat1, studies.treat2, *columns,
                                    studies.rows())
    )
    return Network(studies.treatments, effects, studies.schema)


def dump_contrast_table(network: Network, stream: IO[str]) -> None:
    """Serialize a Network back to contrast CSV; inverse of the parser."""
    e, names = network.effects, list(network.covariate_schema)
    fields = ("study_id", "treat_a", "treat_b", "effect", "se", "ci_lower", "ci_upper", "ci_level")
    columns = [[getattr(x, f) for x in e] for f in fields]
    columns += ([x.covariates.get(name) for x in e] for name in names)
    _write_columns(stream, [*_LABELS, *_NUMBERS, *names], columns)


_LEVEL_RANGE = "ci_level must be in (0, 1), got {}"
_UNUSABLE_LEVEL = "ci_level {!r} is too close to 0 or 1: its normal quantile is 0 or infinite"


def _unusable_level(ci_level):
    """Whether ``(1 + ci_level) / 2`` falls outside (0.5, 1), which makes the normal
    quantile of a ``ci_level`` interval 0 or infinite: true of every level outside
    (0, 1) and of those within 2**-53 of its ends. Takes a float or an array (NaN,
    an absent level, counts as usable)."""
    half = (1.0 + ci_level) / 2.0
    return (half <= 0.5) | (half >= 1.0)


@lru_cache(maxsize=64)  # a table has a few distinct levels; bounded for long processes
def _z(ci_level: float) -> float:
    """The normal quantile at ``(1 + ci_level) / 2``: how many standard errors a
    ``ci_level`` interval reaches on either side of its estimate."""
    if not (0.0 < ci_level < 1.0):
        raise DataError(_LEVEL_RANGE.format(ci_level))
    if _unusable_level(ci_level):
        raise DataError(_UNUSABLE_LEVEL.format(ci_level))
    from statistics import NormalDist  # loads fractions and decimal; a cold compare needs none
    return NormalDist().inv_cdf((1.0 + ci_level) / 2.0)


def _check_ratios(mcid=None, roe_lower=None, roe_upper=None) -> None:
    """The checks of the ratio-scale MCID and equivalence bounds; None is not checked."""
    if mcid is not None and not 1.0 < mcid < math.inf:
        raise DataError(f"mcid must be finite and exceed 1 on the ratio scale, got {mcid}")
    for name, bound in (("roe_lower", roe_lower), ("roe_upper", roe_upper)):
        if bound is not None and not 0.0 < bound < math.inf:
            raise DataError(f"{name} must be positive and finite on the ratio scale, got {bound}")


def _check_direction(direction: str) -> None:
    if direction not in (BENEFICIAL, HARMFUL):
        raise DataError(f"direction must be 'beneficial' or 'harmful', got {direction!r}")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise DataError(f"seed must be non-negative, got {seed}")


def _check_nsim(nsim: int) -> None:
    if nsim < 1:
        raise DataError(f"nsim must be positive, got {nsim}")


def _check_contest(known: Container[str], x: str, y: str) -> None:
    """The checks of a contest between ``x`` and ``y``: both in ``known``, and distinct."""
    for label in (x, y):
        if label not in known:
            raise DataError(f"unknown treatment {label!r}")
    if x == y:
        raise DataError(f"need two distinct treatments, got {x!r} twice")


def complete_intervals(e: StudyEffect) -> StudyEffect:
    """Fill missing interval bounds from the SE, or the SE from the bounds.

    With z the normal quantile at ``(1 + ci_level) / 2``, a contrast with an SE
    and a missing bound gets both bounds, effect -/+ z * SE, replacing the bound
    it had; one with both bounds and no SE gets the SE (upper - lower) / (2z); a
    contrast with an SE and both bounds comes back as it is. The result has all
    three, so the operation is idempotent. Bayesian credible intervals are
    accepted verbatim. The rule is :func:`_complete`'s, which
    :func:`_completed` applies to a whole table.
    """
    given = (math.nan if v is None else v for v in (e.se, e.ci_lower, e.ci_upper))
    se, lower, upper = map(float, _complete(e.effect, *given, _z(e.ci_level)))
    if se == e.se and lower == e.ci_lower and upper == e.ci_upper:
        return e
    return replace(e, se=se, ci_lower=lower, ci_upper=upper)


def _complete(effect, se, lower, upper, z):
    """The completion rule on floats or arrays, NaN marking an absent value: the bounds from
    the SE where either is absent, the SE from the bounds where it is absent. A huge SE or
    a wide interval gives inf; a row without an SE or both bounds, NaN."""
    fill = np.isnan(lower) | np.isnan(upper)
    spread = z * se
    return (np.where(np.isnan(se), (upper - lower) / (2.0 * z), se),
            np.where(fill, effect - spread, lower), np.where(fill, effect + spread, upper))


def _completed(numbers: Mapping[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The SE, lower and upper bound that :func:`complete_intervals` gives every row of
    :func:`_read_contrasts`' numbers, with one normal quantile per distinct level."""
    effect, se, lower, upper, ci_level = (numbers[c] for c in _NUMBERS)
    levels, row_level = np.unique(ci_level, return_inverse=True)
    z = np.array([_z(level) for level in levels.tolist()])[row_level]
    with np.errstate(over="ignore", invalid="ignore"):  # float arithmetic warns of neither
        return _complete(effect, se, lower, upper, z)


def _report(studies: _Studies) -> ValidationReport:
    """:func:`validate_network` over study columns."""
    observed = Counter(studies.study)
    arms: dict[str, set[str]] = {}
    for study, a, b in zip(studies.study, studies.treat1, studies.treat2):
        if observed[study] > 1:  # a study of one contrast has both of its arms compared
            arms.setdefault(study, set()).update((a, b))
    expected = {study: len(x) * (len(x) - 1) // 2 for study, x in arms.items()}
    used = set(studies.treat1) | set(studies.treat2)
    return ValidationReport(
        isolated_treatments=tuple(t for t in studies.treatments if t not in used),
        incomplete_studies=tuple(
            (s, observed[s], expected[s]) for s in arms if observed[s] < expected[s]
        ),
        covariates_with_missing=tuple(
            name for name, values in studies.covariates.items() if None in values
        ),
    )


def validate_network(network: Network) -> ValidationReport:
    """Report isolated treatments, incomplete multi-arm studies, and missing covariates."""
    e = network.effects
    schema = network.covariate_schema
    covariates = {name: [x.covariates.get(name) for x in e] for name in schema}
    return _report(_Studies([x.study_id for x in e], [x.treat_a for x in e],
                            [x.treat_b for x in e], network.treatments, covariates, schema))
