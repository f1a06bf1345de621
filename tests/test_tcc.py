"""Tests for the win/tie decision rule and tournament aggregation."""

from __future__ import annotations

import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treatrank import (
    DataError,
    PairCounts,
    PreferenceRecord,
    RoeConfig,
    StudyEffect,
    Tournament,
    Verdict,
    aggregate_tournament,
    apply_tcc,
    build_roe,
    complete_intervals,
    dump_preference_records,
    parse_preference_records,
    tcc_decision,
)
from treatrank.tcc import _Preferences, _tally

from oracles import loop_tally


def _effect(y, lo, hi, study="s1", a="A", b="B"):
    return StudyEffect(
        study_id=study, treat_a=a, treat_b=b, effect=y, ci_lower=lo, ci_upper=hi
    )


def test_build_roe_defaults_are_log_symmetric():
    roe = build_roe(1.20)
    assert roe.roe_upper == pytest.approx(0.1823215567939546, abs=1e-12)
    assert roe.roe_lower == pytest.approx(-0.1823215567939546, abs=1e-12)
    assert roe.roe_lower == -roe.roe_upper
    assert roe.null_effect == 0.0
    assert roe.direction == "beneficial"


def test_build_roe_override_is_read_on_ratio_scale():
    roe = build_roe(1.20, roe_lower=0.83)
    assert roe.roe_lower == pytest.approx(math.log(0.83), abs=1e-12)
    assert roe.roe_upper == pytest.approx(math.log(1.20), abs=1e-12)


def test_build_roe_rejects_degenerate_mcid():
    with pytest.raises(DataError, match="mcid"):
        build_roe(1.0)
    with pytest.raises(DataError, match="mcid"):
        build_roe(0.8)


def test_build_roe_rejects_nonpositive_override():
    with pytest.raises(DataError, match="roe_lower"):
        build_roe(1.2, roe_lower=-0.5)


def test_build_roe_rejects_override_on_wrong_side_of_null():
    # A lower bound above 1 on the ratio scale crosses the null on the log scale.
    with pytest.raises(DataError, match="straddle"):
        build_roe(1.2, roe_lower=1.1)
    with pytest.raises(DataError, match="straddle"):
        build_roe(1.2, roe_upper=0.9)


def test_roe_config_rejects_unknown_direction():
    with pytest.raises(DataError, match="direction"):
        RoeConfig(mcid=1.2, roe_lower=-0.18, roe_upper=0.18, direction="sideways")


def test_decision_win_by_interval_clearing_bound():
    roe = build_roe(1.20)
    d = tcc_decision(_effect(0.30, 0.20, 0.40), roe)
    assert (d.i1, d.i2) == (1, 0)
    assert d.verdict is Verdict.FIRST_WINS


def test_decision_win_by_estimate_with_null_support():
    roe = build_roe(1.20)
    d = tcc_decision(_effect(0.30, 0.05, 0.55), roe)
    assert (d.i1, d.i2) == (1, 0)
    assert d.verdict is Verdict.FIRST_WINS


def test_decision_tie_when_interval_spans_null():
    roe = build_roe(1.20)
    d = tcc_decision(_effect(0.30, -0.05, 0.65), roe)
    assert (d.i1, d.i2) == (0, 0)
    assert d.verdict is Verdict.TIE


def test_decision_tie_when_interval_inside_roe():
    roe = build_roe(1.20)
    d = tcc_decision(_effect(0.00, -0.10, 0.10), roe)
    assert d.verdict is Verdict.TIE


def test_decision_second_wins_mirrors_first():
    roe = build_roe(1.20)
    d = tcc_decision(_effect(-0.30, -0.40, -0.20), roe)
    assert (d.i1, d.i2) == (0, -1)
    assert d.verdict is Verdict.SECOND_WINS


_MIRRORED = {
    Verdict.FIRST_WINS: Verdict.SECOND_WINS,
    Verdict.SECOND_WINS: Verdict.FIRST_WINS,
    Verdict.TIE: Verdict.TIE,
}
_BOUND = st.one_of(st.none(), st.floats(0.5, 2.0))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    st.floats(-3.0, 3.0),
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0),
    st.floats(1.01, 3.0),
    _BOUND,
    _BOUND,
    st.sampled_from(["beneficial", "harmful"]),
)
def test_mirrored_contrasts_get_mirrored_verdicts(y, below, above, mcid, lower, upper, direction):
    assume(lower is None or lower < 1.0)
    assume(upper is None or upper > 1.0)
    roe = build_roe(mcid, lower, upper, direction)
    # Negating the effect, its interval and the equivalence range mirrors the contrast.
    mirror = replace(roe, roe_lower=-roe.roe_upper, roe_upper=-roe.roe_lower)
    d = tcc_decision(_effect(y, y - below, y + above), roe)
    m = tcc_decision(_effect(-y, -(y + above), -(y - below)), mirror)
    assert (m.i1, m.i2) == (-d.i2, -d.i1)
    assert m.verdict is _MIRRORED[d.verdict]
    # The same contrast read from the other arm is the same preference.
    flipped = apply_tcc(_effect(-y, -(y + above), -(y - below), a="B", b="A"), mirror)
    assert (flipped.treat_a, flipped.treat_b, _MIRRORED[flipped.verdict]) == ("B", "A", d.verdict)
    # A harmful outcome swaps the wins and keeps the ties.
    other = replace(roe, direction="harmful" if direction == "beneficial" else "beneficial")
    swapped = tcc_decision(_effect(y, y - below, y + above), other)
    assert (swapped.i1, swapped.i2) == (d.i1, d.i2)
    assert swapped.verdict is _MIRRORED[d.verdict]


def test_decision_boundary_values_do_not_win():
    roe = build_roe(1.20)
    u = roe.roe_upper
    # Estimate and lower bound both exactly on the upper ROE limit: the first
    # clause needs l > U and the second needs y > U, so neither fires.
    assert tcc_decision(_effect(u, u, 0.50), roe).verdict is Verdict.TIE
    # Estimate exactly on the limit with positive lower bound: needs y > U.
    assert tcc_decision(_effect(u, 0.01, 0.40), roe).verdict is Verdict.TIE
    # Lower bound exactly at the null: second clause needs l > 0.
    assert tcc_decision(_effect(0.30, 0.0, 0.60), roe).verdict is Verdict.TIE


def test_decision_requires_completed_intervals():
    roe = build_roe(1.20)
    bare = StudyEffect(study_id="s1", treat_a="A", treat_b="B", effect=0.3, se=0.1)
    with pytest.raises(DataError, match="intervals absent"):
        tcc_decision(bare, roe)
    assert tcc_decision(complete_intervals(bare), roe).verdict is Verdict.FIRST_WINS


def test_decision_harmful_direction_swaps_wins_only():
    beneficial = build_roe(1.20, direction="beneficial")
    harmful = build_roe(1.20, direction="harmful")
    cases = [
        _effect(0.30, 0.20, 0.40),
        _effect(-0.30, -0.40, -0.20),
        _effect(0.05, -0.10, 0.20),
    ]
    swap = {
        Verdict.FIRST_WINS: Verdict.SECOND_WINS,
        Verdict.SECOND_WINS: Verdict.FIRST_WINS,
        Verdict.TIE: Verdict.TIE,
    }
    for e in cases:
        assert tcc_decision(e, harmful).verdict is swap[tcc_decision(e, beneficial).verdict]


def test_decision_trichotomy_and_antisymmetry_hold_randomly():
    roe = build_roe(1.15)
    rng = np.random.default_rng(11)
    swap = {
        Verdict.FIRST_WINS: Verdict.SECOND_WINS,
        Verdict.SECOND_WINS: Verdict.FIRST_WINS,
        Verdict.TIE: Verdict.TIE,
    }
    for _ in range(500):
        y = float(rng.normal(scale=0.4))
        half = float(rng.uniform(0.01, 0.6))
        e = _effect(y, y - half, y + half)
        mirrored = _effect(-y, -y - half, -y + half)
        d = tcc_decision(e, roe)
        assert d.verdict in (Verdict.FIRST_WINS, Verdict.SECOND_WINS, Verdict.TIE)
        assert d.i1 in (0, 1) and d.i2 in (-1, 0)
        assert tcc_decision(mirrored, roe).verdict is swap[d.verdict]


def test_decision_widening_roe_never_creates_a_win():
    rng = np.random.default_rng(23)
    narrow = build_roe(1.10)
    wide = build_roe(1.50)
    for _ in range(500):
        y = float(rng.normal(scale=0.4))
        half = float(rng.uniform(0.01, 0.6))
        e = _effect(y, y - half, y + half)
        if tcc_decision(e, narrow).verdict is Verdict.TIE:
            assert tcc_decision(e, wide).verdict is Verdict.TIE


def test_apply_tcc_carries_identity_and_covariates():
    roe = build_roe(1.20)
    e = StudyEffect(
        study_id="s9",
        treat_a="X",
        treat_b="Y",
        effect=0.3,
        ci_lower=0.2,
        ci_upper=0.4,
        covariates={"age": 54.0},
    )
    r = apply_tcc(e, roe)
    assert r == PreferenceRecord(
        study_id="s9", treat_a="X", treat_b="Y", verdict=Verdict.FIRST_WINS,
        covariates={"age": 54.0},
    )
    assert r.pair == ("X", "Y")


def test_preference_record_rejects_a_self_pair():
    with pytest.raises(DataError, match="study 's1': preference pair members must differ"):
        PreferenceRecord(study_id="s1", treat_a="A", treat_b="A", verdict=Verdict.TIE)


def test_preference_record_rejects_a_verdict_that_is_not_a_verdict():
    # A plain string would reach the tally, the dump and the partition as a raw KeyError.
    with pytest.raises(DataError, match=r"study 's1': verdict must be one of Verdict\.FIRST_WINS, "
                                        r"Verdict\.SECOND_WINS, Verdict\.TIE, got 'tie'"):
        PreferenceRecord(study_id="s1", treat_a="A", treat_b="B", verdict="tie")


def test_aggregate_counts_by_pair():
    records = [
        PreferenceRecord(study_id="s1", treat_a="A", treat_b="B", verdict=Verdict.FIRST_WINS),
        PreferenceRecord(study_id="s2", treat_a="A", treat_b="B", verdict=Verdict.FIRST_WINS),
        PreferenceRecord(study_id="s3", treat_a="A", treat_b="B", verdict=Verdict.TIE),
    ]
    t = aggregate_tournament(records, ("A", "B"))
    assert t.counts == {("A", "B"): PairCounts(2, 0, 1)}
    assert t.total_records == 3


def test_aggregate_orients_pairs_by_treatment_order():
    records = [
        # Stored as (B, A): a win for the first named treatment, B.
        PreferenceRecord(study_id="s1", treat_a="B", treat_b="A", verdict=Verdict.FIRST_WINS),
        PreferenceRecord(study_id="s2", treat_a="A", treat_b="B", verdict=Verdict.FIRST_WINS),
        PreferenceRecord(study_id="s3", treat_a="B", treat_b="A", verdict=Verdict.TIE),
    ]
    t = aggregate_tournament(records, ("A", "B"))
    assert t.counts == {("A", "B"): PairCounts(1, 1, 1)}
    assert t.pair_counts("B", "A") == PairCounts(1, 1, 1)


def test_aggregate_empty_and_multi_arm_cases():
    assert aggregate_tournament([], ("A", "B")).counts == {}
    study = [
        PreferenceRecord(study_id="s1", treat_a="A", treat_b="B", verdict=Verdict.FIRST_WINS),
        PreferenceRecord(study_id="s1", treat_a="A", treat_b="C", verdict=Verdict.TIE),
        PreferenceRecord(study_id="s1", treat_a="B", treat_b="C", verdict=Verdict.TIE),
    ]
    t = aggregate_tournament(study, ("A", "B", "C"))
    assert set(t.counts) == {("A", "B"), ("A", "C"), ("B", "C")}
    assert all(c.total == 1 for c in t.counts.values())
    assert t.total_records == len(study)


@st.composite
def _records_and_order(draw):
    labels = ("A", "B", "C", "D", "E")[: draw(st.integers(2, 5))]
    pair = st.tuples(st.sampled_from(labels), st.sampled_from(labels)).filter(
        lambda p: p[0] != p[1]
    )
    rows = draw(st.lists(st.tuples(pair, st.sampled_from(list(Verdict))), max_size=30))
    records = [
        PreferenceRecord(study_id=f"s{k}", treat_a=a, treat_b=b, verdict=v)
        for k, ((a, b), v) in enumerate(rows)
    ]
    return records, draw(st.permutations(labels))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_records_and_order())
def test_aggregate_matches_a_record_by_record_tally(case):
    # Both record orientations, ties, any treatment order, pairs with no records.
    records, order = case
    t = aggregate_tournament(records, order)
    expected = loop_tally(records, order)
    assert t.treatments == tuple(order)
    assert t.counts == expected
    assert list(t.counts) == list(expected)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_records_and_order())
def test_a_tally_is_the_tournament_of_its_count_arrays(case):
    # _tally builds the Tournament from its arrays, without the checks of __post_init__.
    records, order = case
    t = _tally(tuple(order), *_Preferences.of(records, order).coded())
    expected = Tournament(tuple(order), loop_tally(records, order))
    assert t == expected
    assert list(t.counts) == list(expected.counts)
    assert all(type(c) is PairCounts and all(type(x) is int for x in c)
               for c in t.counts.values())
    for name in ("_i", "_j", "_counts"):
        got, want = getattr(t, name), getattr(expected, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert np.array_equal(got, want), name
    with pytest.raises(TypeError):
        t.counts[("A", "B")] = PairCounts(0, 0, 0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_records_and_order())
def test_a_tally_builds_its_counts_on_first_read(case):
    records, order = case
    t = _tally(tuple(order), *_Preferences.of(records, order).coded())
    expected = Tournament(tuple(order), loop_tally(records, order))
    assert "counts" not in vars(t) and "counts" not in vars(expected)  # either way
    assert repr(t) == repr(expected)  # reads counts, as == and pair_counts do
    assert type(t.counts) is type(expected.counts)
    assert vars(t)["counts"] is t.counts  # built once, then held


def test_aggregate_rejects_unknown_treatment():
    records = [
        PreferenceRecord(study_id="s1", treat_a="A", treat_b="Z", verdict=Verdict.TIE)
    ]
    with pytest.raises(DataError, match="unknown treatment"):
        aggregate_tournament(records, ("A", "B"))


def test_tournament_validates_keys_and_counts():
    with pytest.raises(DataError, match="treatment order"):
        Tournament(treatments=("A", "B"), counts={("B", "A"): PairCounts(1, 0, 0)})
    with pytest.raises(DataError, match="unknown treatment"):
        Tournament(treatments=("A", "B"), counts={("A", "C"): PairCounts(1, 0, 0)})
    for counts in (PairCounts(-1, 0, 0), PairCounts(1.5, 2, 1), PairCounts(math.nan, 0, 1),
                   PairCounts(math.inf, 0, 0), (1, 2), PairCounts(1e19, 0, 0),
                   PairCounts(0, 2**53 + 2, 0)):
        with pytest.raises(DataError, match="three non-negative whole counts"):
            Tournament(treatments=("A", "B"), counts={("A", "B"): counts})
    # Whole numbers of any numeric type are counts: the count-scaling test multiplies them.
    t = Tournament(treatments=("A", "B"), counts={("A", "B"): PairCounts(np.int64(2), 2.0, 0)})
    assert t._counts.tolist() == [[2.0, 2.0, 0.0]]


def test_tournament_keeps_a_read_only_copy_of_its_counts():
    counts = {("A", "B"): PairCounts(3, 1, 2)}
    t = Tournament(treatments=("A", "B"), counts=counts)
    counts[("A", "B")] = PairCounts(0, 9, 0)
    assert t.counts == {("A", "B"): PairCounts(3, 1, 2)}
    assert (t.total_records, t.total_wins, t.total_ties) == (6, 4, 2)
    with pytest.raises(TypeError):
        t.counts[("A", "B")] = PairCounts(0, 0, 0)


def test_a_pair_given_with_zero_counts_is_absent():
    # As in a tally of records: a pair without records has no key, and counts are ints.
    counts = {("A", "B"): PairCounts(0, 0, 0), ("B", "C"): PairCounts(1.0, 0, 0)}
    t = Tournament(("A", "B", "C"), counts)
    record = PreferenceRecord("s", "B", "C", Verdict.FIRST_WINS)
    assert t == aggregate_tournament([record], ("A", "B", "C"))
    assert dict(t.counts) == {("B", "C"): (1, 0, 0)}
    assert [type(v) for v in t.counts[("B", "C")]] == [int, int, int]
    assert t.pair_counts("A", "B") == PairCounts(0, 0, 0)


def test_pair_counts_accessor_flips_orientation():
    t = Tournament(treatments=("A", "B"), counts={("A", "B"): PairCounts(3, 1, 2)})
    assert t.pair_counts("A", "B") == PairCounts(3, 1, 2)
    assert t.pair_counts("B", "A") == PairCounts(1, 3, 2)
    assert t.pair_counts("A", "B").total == 6
    assert (t.total_wins, t.total_ties) == (4, 2)


def test_record_csv_round_trip():
    records = [
        PreferenceRecord(
            study_id="s1", treat_a="A", treat_b="B", verdict=Verdict.FIRST_WINS,
            covariates={"age": 54.0, "setting": "inpatient"},
        ),
        PreferenceRecord(
            study_id="s2", treat_a="B", treat_b="C", verdict=Verdict.TIE,
            covariates={"age": None, "setting": "outpatient"},
        ),
    ]
    buf = io.StringIO()
    dump_preference_records(records, buf, covariate_names=("age", "setting"))
    data = parse_preference_records(io.StringIO(buf.getvalue()))
    assert data.records == tuple(records)
    assert data.treatments == ("A", "B", "C")
    assert set(data.covariate_schema) == {"age", "setting"}


def test_parse_records_rejects_bad_verdict():
    with pytest.raises(DataError, match="verdict"):
        parse_preference_records(
            io.StringIO("study,treat1,treat2,verdict\ns1,A,B,draw\n")
        )


def test_parse_records_requires_mandatory_columns():
    with pytest.raises(DataError, match="missing mandatory"):
        parse_preference_records(io.StringIO("study,treat1,verdict\ns1,A,tie\n"))


def test_parse_records_rejects_a_duplicate_study_pair():
    source = "study,treat1,treat2,verdict\ns1,A,B,tie\ns2,A,B,tie\ns1,B,A,first_wins\n"
    with pytest.raises(DataError, match=r"row 4: duplicate record .* study 's1'"):
        parse_preference_records(io.StringIO(source))
