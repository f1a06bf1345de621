"""Tests for contrast-table ingestion, interval completion, and validation."""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treatrank import (
    Categorical,
    Continuous,
    DataError,
    Network,
    PreferenceData,
    PreferenceRecord,
    StudyEffect,
    Verdict,
    apply_tcc,
    best_split,
    build_roe,
    complete_intervals,
    dump_contrast_table,
    dump_preference_records,
    parse_basic_table,
    parse_contrast_table,
    parse_covariance_table,
    parse_league_table,
    parse_preference_records,
    partition,
    validate_network,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _csv(text: str) -> io.StringIO:
    return io.StringIO(text.strip() + "\n")


def test_parse_minimal_se_table():
    net = parse_contrast_table(
        _csv(
            """
study,treat1,treat2,effect,se
s1,A,B,0.30,0.10
s2,B,C,-0.05,0.20
"""
        )
    )
    assert net.treatments == ("A", "B", "C")
    assert len(net.effects) == 2
    e = net.effects[0]
    assert (e.study_id, e.treat_a, e.treat_b) == ("s1", "A", "B")
    assert e.effect == 0.30 and e.se == 0.10
    assert e.ci_lower is None and e.ci_upper is None
    assert e.ci_level == 0.95
    assert not e.has_intervals()


def test_parse_interval_table_with_ci_level():
    net = parse_contrast_table(
        _csv(
            """
study,treat1,treat2,effect,lower,upper,ci_level
s1,A,B,0.30,0.10,0.50,0.90
"""
        )
    )
    e = net.effects[0]
    assert e.se is None
    assert e.ci_lower == 0.10 and e.ci_upper == 0.50
    assert e.ci_level == 0.90
    assert e.has_intervals()


def test_parse_ratio_scale_log_transforms_effect_and_bounds_only():
    net = parse_contrast_table(
        _csv(
            """
study,treat1,treat2,effect,se,lower,upper
s1,A,B,1.50,0.10,1.20,1.875
"""
        ),
        scale="ratio",
    )
    e = net.effects[0]
    assert e.effect == pytest.approx(math.log(1.5), abs=1e-15)
    assert e.ci_lower == pytest.approx(math.log(1.2), abs=1e-15)
    assert e.ci_upper == pytest.approx(math.log(1.875), abs=1e-15)
    # The standard error is already on the log scale and passes through as-is.
    assert e.se == 0.10


def test_parse_ratio_scale_rejects_nonpositive_values():
    with pytest.raises(DataError, match="positive"):
        parse_contrast_table(
            _csv("study,treat1,treat2,effect,se\ns1,A,B,-0.5,0.1"), scale="ratio"
        )


def test_parse_rejects_unknown_scale():
    with pytest.raises(DataError, match="scale"):
        parse_contrast_table(_csv("study,treat1,treat2,effect,se\ns1,A,B,0.1,0.1"), scale="odds")


def test_parse_infers_covariate_kinds():
    net = parse_contrast_table(
        _csv(
            """
study,treat1,treat2,effect,se,age,setting
s1,A,B,0.3,0.1,54.0,inpatient
s2,A,C,0.1,0.1,61.5,outpatient
s3,B,C,-0.2,0.1,,inpatient
"""
        )
    )
    assert net.covariate_schema == {
        "age": Continuous(),
        "setting": Categorical(levels=("inpatient", "outpatient")),
    }
    assert net.effects[0].covariates == {"age": 54.0, "setting": "inpatient"}
    assert net.effects[2].covariates["age"] is None


# The two covariate-carrying tables: header prefix, one row's prefix, and how
# to reach the parsed rows' covariates.
_COVARIATE_TABLES = {
    "contrasts": (
        parse_contrast_table, "study,treat1,treat2,effect,se", "A,B,0.3,0.1",
        lambda parsed: [e.covariates for e in parsed.effects],
    ),
    "records": (
        parse_preference_records, "study,treat1,treat2,verdict", "A,B,tie",
        lambda parsed: [r.covariates for r in parsed.records],
    ),
}


def _covariate_table(table, cells, schema=None):
    parse, header, row, covariates = _COVARIATE_TABLES[table]
    lines = [f"{header},year,region"]
    lines += [f"s{k},{row},{year},{region}" for k, (year, region) in enumerate(cells)]
    parsed = parse(_csv("\n".join(lines)), schema=schema)
    return parsed.covariate_schema, covariates(parsed)


@pytest.mark.parametrize("table", sorted(_COVARIATE_TABLES))
def test_na_is_missing_in_a_numeric_covariate_and_a_level_otherwise(table):
    schema, covariates = _covariate_table(table, [("2001", "NA"), ("NA", "EU"), ("", "NA")])
    assert schema == {"year": Continuous(), "region": Categorical(levels=("EU", "NA"))}
    assert [c["year"] for c in covariates] == [2001.0, None, None]
    assert [c["region"] for c in covariates] == ["NA", "EU", "NA"]
    # A column holding nothing but NA cannot be told from a categorical one.
    schema, _ = _covariate_table(table, [("NA", "EU"), ("NA", "EU")])
    assert schema["year"] == Categorical(levels=("NA",))
    # A declared continuous covariate reads NA as missing too.
    declared = {"year": Continuous(), "region": Categorical(levels=("EU",))}
    _, covariates = _covariate_table(table, [("NA", "EU")], schema=declared)
    assert covariates[0]["year"] is None


@pytest.mark.parametrize("table", sorted(_COVARIATE_TABLES))
@pytest.mark.parametrize("cell", ["inf", "nan", "-Infinity"])
def test_non_finite_continuous_covariate_names_row_and_covariate(table, cell):
    with pytest.raises(DataError, match=f"row 3: non-finite covariate 'year' '{cell}'"):
        _covariate_table(table, [("2001", "EU"), (cell, "EU")])


def test_parse_explicit_schema_checks_levels_and_names():
    schema = {"setting": Categorical(levels=("inpatient", "outpatient"))}
    with pytest.raises(DataError, match="unknown level"):
        parse_contrast_table(
            _csv("study,treat1,treat2,effect,se,setting\ns1,A,B,0.3,0.1,home"),
            schema=schema,
        )
    with pytest.raises(DataError, match="not in schema"):
        parse_contrast_table(
            _csv("study,treat1,treat2,effect,se,age\ns1,A,B,0.3,0.1,54"),
            schema=schema,
        )


def test_parse_rejects_missing_mandatory_column():
    with pytest.raises(DataError, match="missing mandatory"):
        parse_contrast_table(_csv("study,treat1,effect,se\ns1,A,0.3,0.1"))


def test_parse_rejects_missing_uncertainty_columns():
    with pytest.raises(DataError, match="'se' column or both"):
        parse_contrast_table(_csv("study,treat1,treat2,effect\ns1,A,B,0.3"))


def test_parse_rejects_empty_input():
    with pytest.raises(DataError, match="no header"):
        parse_contrast_table(io.StringIO(""))


def test_parse_reports_row_number_on_bad_cell():
    with pytest.raises(DataError, match="row 3"):
        parse_contrast_table(
            _csv(
                """
study,treat1,treat2,effect,se
s1,A,B,0.3,0.1
s2,A,C,zero,0.1
"""
            )
        )


def test_parse_rejects_a_row_longer_than_the_header():
    with pytest.raises(DataError, match="row 3: expected 5 cells, got 6"):
        parse_contrast_table(
            _csv("study,treat1,treat2,effect,se\ns1,A,B,0.3,0.1\ns2,A,C,0.1,0.1,x")
        )


def test_parse_rejects_self_comparison():
    with pytest.raises(DataError, match="itself"):
        parse_contrast_table(_csv("study,treat1,treat2,effect,se\ns1,A,A,0.0,0.1"))


def test_parse_rejects_duplicate_pair_within_study():
    with pytest.raises(DataError, match="duplicate contrast"):
        parse_contrast_table(
            _csv(
                """
study,treat1,treat2,effect,se
s1,A,B,0.3,0.1
s1,B,A,-0.3,0.1
"""
            )
        )


def test_study_effect_requires_some_uncertainty():
    with pytest.raises(DataError, match="standard error or both"):
        StudyEffect(study_id="s1", treat_a="A", treat_b="B", effect=0.3)


def test_study_effect_rejects_interval_not_bracketing_estimate():
    with pytest.raises(DataError, match="bracket"):
        StudyEffect(
            study_id="s1", treat_a="A", treat_b="B", effect=0.9, ci_lower=0.1, ci_upper=0.5
        )


def test_study_effect_rejects_negative_se():
    with pytest.raises(DataError, match="negative standard error"):
        StudyEffect(study_id="s1", treat_a="A", treat_b="B", effect=0.3, se=-0.1)


def test_network_rejects_label_outside_treatment_set():
    e = StudyEffect(study_id="s1", treat_a="A", treat_b="B", effect=0.3, se=0.1)
    with pytest.raises(DataError, match="missing from the treatment set"):
        Network(treatments=("A",), effects=(e,))


def test_complete_intervals_fills_bounds_from_se():
    e = StudyEffect(study_id="s1", treat_a="A", treat_b="B", effect=0.3, se=0.1)
    done = complete_intervals(e)
    assert done.ci_lower == pytest.approx(0.3 - 1.959963984540054 * 0.1, abs=1e-12)
    assert done.ci_upper == pytest.approx(0.3 + 1.959963984540054 * 0.1, abs=1e-12)
    assert done.se == 0.1
    assert done.covariates == e.covariates


def test_complete_intervals_fills_se_from_bounds():
    e = StudyEffect(
        study_id="s1", treat_a="A", treat_b="B", effect=0.3, ci_lower=0.1, ci_upper=0.5
    )
    done = complete_intervals(e)
    assert done.se == pytest.approx(0.4 / (2.0 * 1.959963984540054), abs=1e-12)
    assert (done.ci_lower, done.ci_upper) == (0.1, 0.5)


def test_complete_intervals_respects_ci_level():
    e = StudyEffect(
        study_id="s1", treat_a="A", treat_b="B", effect=0.0, se=1.0, ci_level=0.90
    )
    done = complete_intervals(e)
    assert done.ci_upper == pytest.approx(1.6448536269514722, abs=1e-12)


def test_complete_intervals_is_idempotent_and_preserves_given_values():
    e = StudyEffect(
        study_id="s1",
        treat_a="A",
        treat_b="B",
        effect=0.3,
        se=0.2,  # deliberately inconsistent with the bounds below
        ci_lower=0.1,
        ci_upper=0.5,
    )
    done = complete_intervals(e)
    assert done is e  # nothing to fill, nothing recomputed
    filled = complete_intervals(
        StudyEffect(study_id="s1", treat_a="A", treat_b="B", effect=0.3, se=0.1)
    )
    assert complete_intervals(filled) is filled


def test_dump_then_parse_round_trips_exactly():
    rng = np.random.default_rng(7)
    effects = []
    labels = ("A", "B", "C", "D")
    for i in range(25):
        a, b = rng.choice(4, size=2, replace=False)
        effects.append(
            StudyEffect(
                study_id=f"s{i}",
                treat_a=labels[a],
                treat_b=labels[b],
                effect=float(rng.normal()),
                se=float(rng.uniform(0.05, 0.5)),
                covariates={"age": float(rng.uniform(30, 80)), "setting": "inpatient"},
            )
        )
    schema = {"age": Continuous(), "setting": Categorical(levels=("inpatient", "outpatient"))}
    net = Network(treatments=labels, effects=tuple(effects), covariate_schema=schema)
    buf = io.StringIO()
    dump_contrast_table(net, buf)
    again = parse_contrast_table(io.StringIO(buf.getvalue()), schema=schema)
    assert again.effects == net.effects
    assert set(again.treatments) == set(net.treatments)


def test_validate_network_reports_all_finding_kinds():
    schema = {"age": Continuous()}
    effects = (
        StudyEffect(
            study_id="s1", treat_a="A", treat_b="B", effect=0.3, se=0.1, covariates={"age": 50.0}
        ),
        # Three arms but only two contrasts: one short of the complete set.
        StudyEffect(
            study_id="s2", treat_a="A", treat_b="B", effect=0.1, se=0.1, covariates={"age": None}
        ),
        StudyEffect(
            study_id="s2", treat_a="B", treat_b="C", effect=0.2, se=0.1, covariates={"age": None}
        ),
    )
    net = Network(treatments=("A", "B", "C", "D"), effects=effects, covariate_schema=schema)
    report = validate_network(net)
    assert report.isolated_treatments == ("D",)
    assert report.incomplete_studies == (("s2", 2, 3),)
    assert report.covariates_with_missing == ("age",)
    assert not report.is_clean()


def test_validate_network_clean_case():
    effects = (
        StudyEffect(study_id="s1", treat_a="A", treat_b="B", effect=0.3, se=0.1),
    )
    report = validate_network(Network(treatments=("A", "B"), effects=effects))
    assert report.is_clean()


# ---------------------------------------------------------------- treatment order


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tables_list_treatments_in_first_seen_order(seed, monkeypatch):
    # The first treatment is the reference of every fit, whatever the row order.
    rng = np.random.default_rng(seed)

    def shuffled(text):
        header, *rows = text.splitlines()
        return [header, *(rows[k] for k in rng.permutation(len(rows)))]

    def first_seen(lines, columns):
        order = []
        for line in lines[1:]:
            cells = line.split(",")
            for c in columns:
                if cells[c] not in order:
                    order.append(cells[c])
        return tuple(order)

    contrasts = shuffled((FIXTURES / "contrasts.csv").read_text())
    network = parse_contrast_table(contrasts)
    assert network.treatments == first_seen(contrasts, (1, 2))
    league = shuffled((FIXTURES / "league.csv").read_text())
    assert parse_league_table(league).treatments == first_seen(league, (0, 1))

    roe = build_roe(1.2)
    buf = io.StringIO()
    dump_preference_records(
        [apply_tcc(complete_intervals(e), roe) for e in network.effects], buf, ["age"]
    )
    table = shuffled(buf.getvalue())
    data = parse_preference_records(table)
    assert data.treatments == first_seen(table, (1, 2))

    orders = []
    code = partition._code_records
    monkeypatch.setattr(
        partition, "_code_records", lambda records, t: orders.append(tuple(t)) or code(records, t)
    )
    split = best_split(data.records, "age", min_node_size=5)
    assert orders == [data.treatments]
    assert split == best_split(data.records, "age", treatments=data.treatments, min_node_size=5)


# ---------------------------------------------------------------- the table reader

_REPEATED_HEADERS = {
    "contrast": (parse_contrast_table, "study,treat1,treat2,effect,se,se\ns1,A,B,0.1,0.2,0.3\n"),
    "records": (parse_preference_records, "study,treat1,treat2,verdict,se,se\ns1,A,B,tie,1,2\n"),
    "league": (parse_league_table, "treat1,treat2,estimate,se,se\nA,B,0.3,0.1,0.2\n"),
    "basic": (parse_basic_table, "treat,estimate,se,se\nA,0.0,0.0,0.1\nB,0.3,0.1,0.2\n"),
    "covariance": (
        lambda source: parse_covariance_table(source, ("A", "B")),
        ",A,B,se,se\nA,0.04,0.01,0,0\nB,0.01,0.09,0,0\n",
    ),
}


@pytest.mark.parametrize("pad", ["", " "], ids=["same", "same-after-stripping"])
@pytest.mark.parametrize("table", sorted(_REPEATED_HEADERS))
def test_a_repeated_header_name_is_rejected_by_every_parser(table, pad):
    # Reading by name would keep one of the two columns and silently drop the other.
    parse, text = _REPEATED_HEADERS[table]
    text = text.replace(",se\n", f",{pad}se{pad}\n", 1)
    with pytest.raises(DataError, match="column 'se' appears more than once in the header"):
        parse(io.StringIO(text))


def _r_export(text: str) -> str:
    """The table as R's default write.csv writes it: quoted header, row-name column."""
    header, *rows = text.splitlines()
    quoted = ",".join(f'"{name}"' for name in header.split(","))
    return "\n".join([f'"",{quoted}', *(f'"{k}",{row}' for k, row in enumerate(rows, 1))]) + "\n"


def _trailing_comma(text: str) -> str:
    return "".join(line + ",\n" for line in text.splitlines())


_RECORDS = "study,treat1,treat2,verdict,age\ns1,A,B,tie,50\ns2,B,C,first_wins,60\n"


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_contrast_table, (FIXTURES / "contrasts.csv").read_text()),
        (parse_preference_records, _RECORDS),
    ],
    ids=["contrast", "records"],
)
def test_an_unnamed_covariate_column_is_rejected(parse, text):
    width = len(text.splitlines()[0].split(","))
    with pytest.raises(DataError, match=r"column 1 has no header name.*row\.names = FALSE"):
        parse(io.StringIO(_r_export(text)))
    with pytest.raises(DataError, match=f"column {width + 1} has no header name"):
        parse(io.StringIO(_trailing_comma(text)))


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_a_byte_order_mark_before_the_header_is_dropped(quoted):
    # Excel's "CSV UTF-8" export starts with U+FEFF; R's write.csv also quotes the header.
    def league(source):
        table = parse_league_table(source)  # compares by identity
        return table.treatments, table.pairwise

    for parse, name in ((parse_contrast_table, "contrasts.csv"), (league, "league.csv")):
        header, rest = (FIXTURES / name).read_text().split("\n", 1)
        if quoted:
            header = ",".join(f'"{cell}"' for cell in header.split(","))
        text = f"{header}\n{rest}"
        assert parse(io.StringIO("\ufeff" + text)) == parse(io.StringIO(text))


def _league(table):
    return table.treatments, table.pairwise, table.basic  # LeagueTable compares by identity


_PLAIN_TABLES = {
    "contrast": (parse_contrast_table, (FIXTURES / "contrasts.csv").read_text()),
    "records": (parse_preference_records, _RECORDS),
    "league": (
        lambda source: _league(parse_league_table(source)),
        (FIXTURES / "league.csv").read_text(),
    ),
    "basic": (
        lambda source: _league(parse_basic_table(source)),
        "treat,estimate,se\nA,0,0\nB,0.3,0.1\n",
    ),
    "covariance": (
        lambda source: parse_covariance_table(source, ("A", "B")).tolist(),
        ",A,B\nA,0.04,0.01\nB,0.01,0.09\n",
    ),
}


@pytest.mark.parametrize("variant", ["commas", "spaces", "blank-before-header"])
@pytest.mark.parametrize("table", sorted(_PLAIN_TABLES))
def test_rows_of_empty_cells_are_skipped_by_every_parser(table, variant):
    # Excel writes ",,,,,," for a formatted but empty row.
    parse, text = _PLAIN_TABLES[table]
    header, first, rest = text.split("\n", 2)
    if variant == "blank-before-header":
        padded = f"\n{text}"
    else:
        blank = "," * header.count(",") if variant == "commas" else "   "
        padded = f"{header}\n{first}\n{blank}\n{rest}"
    assert parse(io.StringIO(padded)) == parse(io.StringIO(text))


# Cells the CSV writer leaves unquoted, so they can be padded and quoted by hand.
_labels = st.text(alphabet="AbZ09 -_.&é", min_size=1, max_size=5).map(str.strip).filter(bool)
_levels = st.lists(_labels | st.just("NA"), min_size=1, max_size=3, unique=True)
_values = st.floats(-10, 10)


@st.composite
def _table_rows(draw):
    """Treatments, category levels and per row the study id, pair and covariates."""
    treatments = draw(st.lists(_labels, min_size=2, max_size=5, unique=True))
    levels = tuple(sorted(draw(_levels)))
    rows = []
    for k in range(draw(st.integers(1, 8))):
        pair = draw(st.permutations(treatments))[:2]
        covariates = {
            "age": draw(st.none() | st.floats(-1e6, 1e6)),
            "setting": draw(st.none() | st.sampled_from(levels)),
        }
        rows.append((f"{draw(_labels)}#{k}", *pair, covariates))
    schema = {"age": Continuous(), "setting": Categorical(levels=levels)}
    return schema, rows


@st.composite
def _networks(draw):
    schema, rows = draw(_table_rows())
    effects = []
    for study, a, b, covariates in rows:
        effect = draw(_values)
        form = draw(st.sampled_from(("se", "bounds", "both")))
        se = None if form == "bounds" else draw(st.floats(0, 10))
        lower = upper = None
        if form != "se":
            lower, upper = effect - draw(st.floats(0, 10)), effect + draw(st.floats(0, 10))
        effects.append(
            StudyEffect(
                study_id=study, treat_a=a, treat_b=b, effect=effect, se=se, ci_lower=lower,
                ci_upper=upper, ci_level=draw(st.floats(0.01, 0.99)), covariates=covariates,
            )
        )
    treatments = tuple(dict.fromkeys(label for e in effects for label in e.pair))
    return Network(treatments=treatments, effects=tuple(effects), covariate_schema=schema)


@st.composite
def _preference_data(draw):
    schema, rows = draw(_table_rows())
    records = tuple(
        PreferenceRecord(study, a, b, draw(st.sampled_from(Verdict)), covariates)
        for study, a, b, covariates in rows
    )
    treatments = tuple(dict.fromkeys(label for r in records for label in r.pair))
    return PreferenceData(records=records, treatments=treatments, covariate_schema=schema)


def _dumped(table) -> str:
    buf = io.StringIO()
    if isinstance(table, Network):
        dump_contrast_table(table, buf)
    else:
        dump_preference_records(table.records, buf, list(table.covariate_schema))
    return buf.getvalue()


def _parse(table, text: str, schema=None):
    parse = parse_contrast_table if isinstance(table, Network) else parse_preference_records
    return parse(io.StringIO(text), schema=schema)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_networks() | _preference_data())
def test_dump_then_parse_is_the_identity(table):
    assert _parse(table, _dumped(table), table.covariate_schema) == table


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_networks() | _preference_data(), st.data())
def test_padding_blank_lines_and_short_rows_parse_like_the_plain_table(table, data):
    plain = _dumped(table)
    spaces = st.text(alphabet=" \t", max_size=2)
    lines = []
    for k, cells in enumerate(csv.reader(io.StringIO(plain))):
        while k and not cells[-1]:
            cells.pop()
        padded = [data.draw(spaces) + cell + data.draw(spaces) for cell in cells]
        quoted = data.draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
        lines.append(",".join(f'"{c}"' if q else c for c, q in zip(padded, quoted)))
        lines.extend([""] * data.draw(st.integers(0, 2)))
    assert _parse(table, "\n".join(lines) + "\n") == _parse(table, plain)
