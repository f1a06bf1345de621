"""Spans around calls into treatrank's layers, recorded from outside the package.

The package is not edited. Instead, the names that its modules import from one
another (``treatrank.partition.fit_davidson``, ``treatrank.cli.prob_best``, ...)
are rebound at run time to wrappers that record a span per call. Modules look
those names up at call time, so the wrappers see every call made through them.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, job, detail]``
and written out when the run ends; ``parent`` is the index of the enclosing
span or -1. Per-layer metrics are derived from them by :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import re
import statistics
import time

# (module, attribute, span name). A function imported into several modules is
# rebound in each, under one span name.
TRACE_POINTS = (
    ("treatrank.cli", "parse_args", "cli.parse_args"),
    ("treatrank.cli", "run", "cli.run"),
    ("treatrank.cli", "parse_contrast_table", "study_data.parse_contrast_table"),
    ("treatrank.cli", "complete_intervals", "study_data.complete_intervals"),
    ("treatrank.cli", "validate_network", "study_data.validate_network"),
    ("treatrank.cli", "apply_tcc", "tcc.apply_tcc"),
    ("treatrank.cli", "dump_preference_records", "tcc.dump_preference_records"),
    ("treatrank.cli", "parse_preference_records", "tcc.parse_preference_records"),
    ("treatrank.cli", "aggregate_tournament", "tcc.aggregate_tournament"),
    ("treatrank.partition", "aggregate_tournament", "tcc.aggregate_tournament"),
    ("treatrank.cli", "fit_davidson", "davidson.fit_davidson"),
    ("treatrank.partition", "fit_davidson", "davidson.fit_davidson"),
    ("treatrank.davidson", "check_ford", "davidson.check_ford"),
    ("treatrank.cli", "normalized_abilities", "davidson.normalized_abilities"),
    ("treatrank.plot", "normalized_abilities", "davidson.normalized_abilities"),
    ("treatrank.cli", "grow_tree", "partition.grow_tree"),
    ("treatrank.partition", "stability_test", "partition.stability_test"),
    ("treatrank.partition", "best_split", "partition.best_split"),
    ("treatrank.cli", "parse_league_table", "compare.parse_league_table"),
    ("treatrank.cli", "parse_basic_table", "compare.parse_basic_table"),
    ("treatrank.cli", "p_scores", "compare.p_scores"),
    ("treatrank.cli", "p_scores_civ", "compare.p_scores_civ"),
    ("treatrank.cli", "prob_best", "compare.prob_best"),
    ("treatrank.cli", "emit_plot", "plot.emit_plot"),
)

RAISED = "raised"


def _best_split_name(args, kwargs) -> str:
    from treatrank.study_data import Categorical

    kind = kwargs.get("kind", args[2] if len(args) > 2 else None)
    # The partition tree always passes the schema kind; None means inferred.
    suffix = "categorical" if isinstance(kind, Categorical) else "continuous"
    return f"partition.best_split_{suffix}"


def _fit_detail(result):
    return result.iterations


_NAMERS = {"partition.best_split": _best_split_name}
_DETAILS = {"davidson.fit_davidson": _fit_detail}


class Tracer:
    """Records spans while installed; restores the original bindings on removal."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        namer = _NAMERS.get(name)
        detail = _DETAILS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [namer(args, kwargs) if namer else name, 0, 0,
                      stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[2] = clock()
                record[5] = RAISED
                stack.pop()
                raise
            record[2] = clock()
            stack.pop()
            if detail is not None:
                record[5] = detail(result)
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (used for the job's root span)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        if self._saved:
            return
        for module_name, attribute, span_name in TRACE_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self._wrap(span_name, original))

    def remove(self) -> None:
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)


# --- per-layer metrics -----------------------------------------------------------

# Inclusive time per job of each span name, reported as "<name>_s".
TIMED_SPANS = (
    "study_data.parse_contrast_table",
    "study_data.complete_intervals",
    "study_data.validate_network",
    "tcc.apply_tcc",
    "tcc.dump_preference_records",
    "tcc.parse_preference_records",
    "tcc.aggregate_tournament",
    "davidson.fit_davidson",
    "davidson.check_ford",
    "davidson.normalized_abilities",
    "partition.grow_tree",
    "partition.stability_test",
    "partition.best_split_continuous",
    "partition.best_split_categorical",
    "compare.p_scores",
    "compare.p_scores_civ",
    "compare.prob_best",
    "plot.emit_plot",
)
# Calls per job of each span name, reported as "<name>_calls".
COUNTED_SPANS = (
    "study_data.complete_intervals",
    "tcc.aggregate_tournament",
    "davidson.fit_davidson",
    "partition.stability_test",
)
COMPARE_PARSERS = ("compare.parse_league_table", "compare.parse_basic_table")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Median over jobs of each job's per-layer figures."""
    duration = [(s[2] - s[1]) / 1e9 for s in spans]
    children = [0.0] * len(spans)
    for k, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]] += duration[k]

    def under(k: int, prefix: str) -> bool:
        parent = spans[k][3]
        while parent >= 0:
            if spans[parent][0].startswith(prefix):
                return True
            parent = spans[parent][3]
        return False

    jobs: dict[int, list[int]] = {}
    for k, s in enumerate(spans):
        jobs.setdefault(s[4], []).append(k)
    per_job = []
    for indices in jobs.values():
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        cli_self = 0.0
        split_fits = node_fits = iterations = kept = 0
        for k in indices:
            name, detail = spans[k][0], spans[k][5]
            total[name] = total.get(name, 0.0) + duration[k]
            calls[name] = calls.get(name, 0) + 1
            if name.startswith("cli."):
                cli_self += duration[k] - children[k]
            elif name.startswith("partition.best_split") and detail != RAISED:
                kept += 2  # a best_split that returns keeps its winning split's two fits
            elif name == "davidson.fit_davidson":
                if isinstance(detail, int):
                    iterations += detail
                if under(k, "partition.best_split"):
                    split_fits += 1
                elif under(k, "partition.grow_tree"):
                    node_fits += 1
        figures = {f"{name}_s": total.get(name, 0.0) for name in TIMED_SPANS}
        figures.update({f"{name}_calls": calls.get(name, 0) for name in COUNTED_SPANS})
        figures["compare.parse_s"] = sum(total.get(name, 0.0) for name in COMPARE_PARSERS)
        figures["davidson.fit_davidson_iterations"] = iterations
        figures["partition.split_fits"] = split_fits
        figures["partition.node_fits"] = node_fits
        figures["partition.split_fit_yield"] = kept / split_fits if split_fits else 0.0
        figures["cli.self_s"] = cli_self
        per_job.append(figures)
    if not per_job:
        return {}
    return {name: statistics.median(f[name] for f in per_job) for name in per_job[0]}


# --- import breakdown ---------------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")
IMPORT_GROUPS = ("numpy", "scipy", "treatrank")


def import_breakdown(stderr: str) -> dict[str, float]:
    """Self import time per package group from ``python -X importtime`` output.

    A module counts towards the innermost enclosing numpy, scipy or treatrank
    import, so the standard-library modules that scipy pulls in count as scipy.
    """
    entries = []
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            entries.append((int(match.group(1)), len(match.group(3)), match.group(4)))
    totals = dict.fromkeys(IMPORT_GROUPS, 0.0)
    stack: list[tuple[int, str | None]] = []
    # Lines come in post-order (a module after its imports); reversed, every
    # module comes before the modules it imported.
    for self_us, depth, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        group = top if top in totals else (stack[-1][1] if stack else None)
        stack.append((depth, group))
        if group is not None:
            totals[group] += self_us / 1e6
    return totals
