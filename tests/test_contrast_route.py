"""The command line's columnar contrast route against the per-row chain it replaced.

Each generated contrast table goes through ``treatrank`` twice: once as shipped, and
once with the preference input built by ``oracles.per_row_read_preferences`` (parse
one row at a time, ``complete_intervals``, a scalar TCC, a record-by-record tally and
writer). The two runs must leave the same exit code, the same standard error and
byte-identical artifacts, ``error.json`` included.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import tempfile
from pathlib import Path
from statistics import NormalDist
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from treatrank import cli

_TREATMENTS = ("A", "B", "C", "D")
# A bad cell for each per-row check: labels, numbers, ratio-scale values, ci_level, se
# (negative, or so large that the interval it completes overflows) and a continuous
# covariate.
_BAD = (
    [("study", ""), ("treat1", ""), ("treat2", "")]
    + [(c, v) for c in ("effect", "se", "lower", "upper") for v in ("", "abc", "nan", "1e999")]
    + [(c, v) for c in ("effect", "lower", "upper") for v in ("-1", "0")]
    + [("ci_level", v) for v in ("0", "1", "1.5", "abc")]
    + [("se", "-0.5"), ("se", "1e308"), ("age", "inf")]
)
_MCID = 1.2


def _rarely(draw, one_in: int) -> bool:
    # A value inside the range: hypothesis draws the end points far more often.
    return draw(st.integers(0, one_in - 1)) == one_in // 2


@st.composite
def _interval(draw, ratio: bool) -> list[str]:
    """Cells of a lower bound, an effect and an upper bound, in order, often with one
    of them exactly on a default ROE bound or on the null."""
    centre = draw(st.floats(-1.5, 1.5))
    values = [centre - draw(st.floats(0.0, 0.6)), centre, centre + draw(st.floats(0.0, 0.6))]
    values = [math.exp(v) for v in values] if ratio else values
    on_roe = (_MCID, 1 / _MCID, 1.0) if ratio else (math.log(_MCID), -math.log(_MCID), 0.0)
    if draw(st.booleans()):
        values[draw(st.integers(0, 2))] = draw(st.sampled_from(on_roe))
    return [repr(v) for v in sorted(values)]


@st.composite
def _contrast_tables(draw):
    """A contrast table as rows of cells, and whether it is on the ratio scale."""
    ratio = draw(st.booleans())
    columns = ["study", "treat1", "treat2", "effect", "se", "lower", "upper"]
    if not _rarely(draw, 3):
        columns.append("ci_level")
    columns += ["age", "site"]
    rows = []
    for k in range(draw(st.integers(0, 20))):
        if _rarely(draw, 100):
            a = b = draw(st.sampled_from(_TREATMENTS))
        else:
            a, b = draw(st.permutations(_TREATMENTS))[:2]
        lower, effect, upper = draw(_interval(ratio))
        if _rarely(draw, 100):
            lower, upper = upper, lower
        form = draw(st.sampled_from(("se", "bounds", "both", "lower+se", "upper+se", "edge") * 2
                                    + ("edge",) * 3))
        level = draw(st.sampled_from(("", "0.95", "0.9", "0.5", "0.99")))
        se = draw(st.floats(0.0, 0.4)) * (-1 if _rarely(draw, 40) else 1)
        if form == "edge" and not ratio:
            # An effect whose bound, filled in from its se, lands on or next to an ROE
            # bound or the null: the last bit of that bound can decide the verdict.
            written = level if "ci_level" in columns else ""
            z = NormalDist().inv_cdf((1.0 + float(written or 0.95)) / 2.0)
            bound = draw(st.sampled_from((math.log(_MCID), -math.log(_MCID), 0.0)))
            effect = repr(bound + z * se if draw(st.booleans()) else bound - z * se)
        # Mostly one contrast per study; now and then another arm of an earlier study.
        study = f"s{k}" if not rows or not _rarely(draw, 15) else draw(
            st.sampled_from([row["study"] for row in rows]))
        rows.append({
            "study": study,
            "treat1": a,
            "treat2": b,
            "effect": effect,
            "se": "" if form == "bounds" else repr(se),
            "lower": lower if form in ("bounds", "both", "lower+se") else "",
            "upper": upper if form in ("bounds", "both", "upper+se") else "",
            "ci_level": level,
            "age": draw(st.sampled_from(("30", "41.5", "-2e3", "55") * 4 + ("", "NA"))),
            "site": draw(st.sampled_from(("north", "south") * 6 + ("",))),
        })
    # Repeated pairs and bad cells in some tables: the first failing row must be reported.
    for _ in range(draw(st.sampled_from((0, 0, 0, 0, 0, 2, 3))) if len(rows) > 1 else 0):
        first, later = sorted(draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2,
                                            unique_by=id)), key=rows.index)
        later.update(study=first["study"], treat1=first["treat2"], treat2=first["treat1"])
    dropped = draw(st.sampled_from((None,) * 27 + ("se", "lower", "upper")))
    header = [c for c in columns if c != dropped]
    # Each bad cell goes on a drawn row, which is made a row where the cell takes effect:
    # a row with an SE cell completes its bounds from it at the default level, whose
    # quantile lets 1e308 overflow them, and a row with an empty bound has no SE.
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 1, 2, 3))) if rows else 0):
        column, cell = draw(st.sampled_from([bad for bad in _BAD if bad[0] in header]))
        row = draw(st.sampled_from(rows))
        if column == "se":
            row.update(lower="", upper="", ci_level="")
        elif column in ("lower", "upper") and not cell:
            row["se"] = ""
        row[column] = cell
    return header, [[row[c] for c in header] for row in rows], ratio


@st.composite
def _invocations(draw):
    header, rows, ratio = draw(_contrast_tables())
    subcommand = draw(st.sampled_from(("rank", "tcc-dump", "partition")))
    options = ["--dump-records"] if subcommand != "tcc-dump" else []
    if subcommand == "partition":
        options += ["--permutations", "19", "--min-node-size", "2"]
    if ratio:
        options += ["--scale", "ratio"]
    if not _rarely(draw, 30):
        options += ["--mcid", repr(_MCID)]
    options += ["--direction", draw(st.sampled_from(("beneficial", "harmful")))]
    if _rarely(draw, 5):
        options += ["--roe-lower", "0.9", "--roe-upper", "1.05"]
    return header, rows, [subcommand, *options]


def _run(argv, out: Path) -> tuple[int, str, dict[str, bytes]]:
    errors = io.StringIO()
    with contextlib.redirect_stderr(errors):
        code = cli.main([*argv, "--out-dir", str(out)])
    artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return code, errors.getvalue(), artifacts


_Z95, _Z50 = NormalDist().inv_cdf(0.975), NormalDist().inv_cdf(0.75)
# Bounds filled in from se that land exactly on the null or an ROE bound, or one float
# past the null, where one last bit decides the verdict, and a ci_level whose quantile
# turns a tie into a win.
_KNIFE_EDGES = (
    ["study", "treat1", "treat2", "effect", "se", "ci_level"],
    [
        ["s1", "A", "B", repr(_Z95 * 0.2), "0.2", ""],
        ["s2", "B", "C", repr(-(_Z95 * 0.2)), "0.2", "0.95"],
        ["s3", "C", "D", "0.5", "0.3", "0.5"],
        ["s4", "A", "C", repr(math.log(_MCID)), "0.0", ""],
        ["s5", "B", "D", repr(math.nextafter(_Z95 * 0.2, math.inf)), "0.2", ""],
        ["s6", "D", "A", repr(-math.nextafter(_Z95 * 0.2, math.inf)), "0.2", ""],
    ],
    ["tcc-dump", "--mcid", repr(_MCID)],
)

# An SE so large that the bounds completed from it overflow, and bounds so wide that the
# SE completed from them does: both routes reject the row when they read it.
_OVERFLOWS = (
    ["study", "treat1", "treat2", "effect", "se", "lower", "upper"],
    [["s1", "A", "B", "0.0", "", "-1e308", "1e308"], ["s2", "B", "C", "0.0", "1e308", "", ""]],
    ["tcc-dump", "--mcid", repr(_MCID)],
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_invocations())
@example(_KNIFE_EDGES)
@example(_OVERFLOWS)
def test_columnar_route_matches_the_per_row_chain(invocation):
    header, rows, argv = invocation
    with tempfile.TemporaryDirectory() as scratch:
        table = Path(scratch) / "contrasts.csv"
        with open(table, "w", encoding="utf-8", newline="") as stream:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        argv = [argv[0], "--input", str(table), *argv[1:]]
        shipped = _run(argv, Path(scratch) / "shipped")
        with mock.patch.object(cli, "_read_preferences", oracles.per_row_read_preferences):
            reference = _run(argv, Path(scratch) / "reference")
    assert shipped == reference
