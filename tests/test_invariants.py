"""Metamorphic invariants of the match decision, through ``group`` and ``match``.

Each property changes a drawn population in a way that must not change
the verdicts (a power-of-two scale, a larger k, a closed boundary, a
copy of a specimen, new names, another row order) and compares the
match graph of ``group`` and the pairs of ``match`` before and after.
"""

import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from strategies import populations

from cabl.cli import main
from cabl.grouping import MODES, group
from cabl.ingest import CSV_HEADER, parse_csv
from cabl.matching import match_table
from cabl.model import Boundary, ElementSeries, series_interval


def graph_edges(result):
    """``group``'s edges as (a, b) id pairs, a < b."""
    return {(a, b) for a, near in result.adjacency.items() for b in near if a < b}


def table_rows(specimens, criterion):
    """``match_table``'s pairs as ``(a, b, overlaps)`` rows, in canonical order."""
    ids, masks, bounds = match_table(specimens, criterion)
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    ends = iter(bounds)
    return [
        (a, b, tuple((next(ends), next(ends)) if mask >> e & 1 else None
                     for e in range(len(criterion.elements))))
        for (a, b), mask in zip(pairs, masks)
    ]


def pair_edges(specimens, criterion):
    """``match``'s matched pairs as (a, b) id pairs, a < b."""
    return {(a, b) for a, b, overlaps in table_rows(specimens, criterion) if None not in overlaps}


def renamed(pairs, rename):
    return {frozenset(map(rename.get, pair)) for pair in pairs}


@settings(max_examples=40, deadline=None)
@given(populations(), st.integers(-40, 40))
def test_power_of_two_scaling(case, j):
    """Rounding commutes with a power of two, so every verdict stays and
    every overlap scales by exactly 2^j."""
    specimens, criterion = case
    scaled = []
    for s in specimens:
        series = {}
        for element, x in s.series.items():
            se = math.ldexp(x.se, j)
            assume(math.ldexp(se, -j) == x.se)  # no se lost to a subnormal
            series[element] = ElementSeries(math.ldexp(x.mean, j), se, x.df, x.n)
        scaled.append(s._replace(series=series))
    for mode in MODES:
        assert group(scaled, criterion, mode) == group(specimens, criterion, mode)
    expected = [
        (a, b, tuple(None if o is None else (math.ldexp(o[0], j), math.ldexp(o[1], j))
                     for o in overlaps))
        for a, b, overlaps in table_rows(specimens, criterion)
    ]
    assert table_rows(scaled, criterion) == expected


@settings(max_examples=40, deadline=None)
@given(populations(), st.data())
def test_edges_grow_with_k_and_with_a_closed_boundary(case, data):
    specimens, criterion = case
    k = data.draw(st.one_of(
        st.just(math.nextafter(criterion.k, math.inf)),
        st.floats(criterion.k, 40.0, exclude_min=True),
    ))
    pairs = [
        (criterion, criterion._replace(k=k)),
        (criterion._replace(boundary=Boundary.OPEN), criterion._replace(boundary=Boundary.CLOSED)),
    ]
    for narrow, wide in pairs:
        assert graph_edges(group(specimens, narrow)) <= graph_edges(group(specimens, wide))
        assert pair_edges(specimens, narrow) <= pair_edges(specimens, wide)


@settings(max_examples=40, deadline=None)
@given(populations(), st.data())
def test_a_copy_matches_its_original(case, data):
    """Unbiased, a copy under a new id matches its original and joins its
    component; under an open boundary only where every interval has width."""
    specimens, criterion = case
    original = data.draw(st.sampled_from(specimens))
    copy = original._replace(id=original.id + "+copy")  # drawn ids use no '+'
    for boundary in Boundary:
        rule = criterion._replace(bias=None, boundary=boundary)
        widths = [series_interval(original.series[e], rule.k) for e in rule.elements]
        if boundary is Boundary.OPEN and any(lo == hi for lo, hi in widths):
            continue
        result = group(specimens + [copy], rule)
        assert copy.id in result.adjacency[original.id]
        assert any({original.id, copy.id} <= set(g) for g in result.groups)
        assert (original.id, copy.id) in pair_edges(specimens + [copy], rule)


@settings(max_examples=40, deadline=None)
@given(populations(), st.randoms(use_true_random=False))
def test_names_do_not_decide(case, rng):
    """Unbiased, the pair verdict is symmetric: new names in a new order give
    the same groups and edges, up to the renaming."""
    specimens, criterion = case
    rule = criterion._replace(bias=None)
    names = [f"s{i:02d}" for i in range(len(specimens))]
    rng.shuffle(names)
    rename = {s.id: name for s, name in zip(specimens, names)}
    relabelled = [s._replace(id=rename[s.id]) for s in specimens]
    rng.shuffle(relabelled)
    for mode in MODES:
        before, after = group(specimens, rule, mode), group(relabelled, rule, mode)
        assert renamed(before.groups, rename) == set(map(frozenset, after.groups))
        assert renamed(graph_edges(before), rename) == set(map(frozenset, graph_edges(after)))
    assert renamed(pair_edges(specimens, rule), rename) == set(
        map(frozenset, pair_edges(relabelled, rule))
    )


@settings(max_examples=40, deadline=None)
@given(populations(), st.randoms(use_true_random=False))
def test_csv_row_order_does_not_decide(case, rng):
    """The same rows in another order give the same report, bias included."""
    specimens, criterion = case
    rows = [
        f"{s.id},bullet,{s.lot or ''},,{e.value},{x.mean!r},{x.se!r},poisson_single"
        for s in specimens
        for e, x in s.series.items()
    ]
    shuffled = list(rows)
    rng.shuffle(shuffled)
    header = ",".join(CSV_HEADER)
    first, second = (parse_csv("\n".join([header, *r])) for r in (rows, shuffled))
    for mode in MODES:
        assert group(second, criterion, mode) == group(first, criterion, mode)
    assert table_rows(second, criterion) == table_rows(first, criterion)


@pytest.mark.parametrize(
    "flag, one, other",
    [("--elements", "Sb,Ag", "Ag,Sb"), ("--bias", "Sb=0.02:0.054,Ag=0.055", "Ag=0.055,Sb=0.02:0.054")],
)
def test_panel_order_leaves_match_bytes(capsys, flag, one, other):
    outputs = []
    for value in (one, other):
        assert main(["match", "--fixture", "table1", flag, value, "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["pairs_total"] == 10
