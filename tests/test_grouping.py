import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import populations, spread_populations

from cabl.errors import IncompletePanelError
from cabl.grouping import _maximal_cliques, group, within_box_match_rate
from cabl.ingest import Dataset, fixture
from cabl.matching import match_specimens
from cabl.model import (
    Boundary,
    Element,
    ElementSeries,
    Kind,
    MatchCriterion,
    Specimen,
    criterion_preset,
    series_interval,
)

GUINN4 = criterion_preset("guinn4")
OPEN4 = MatchCriterion(k=4.0, elements=(Element.SB, Element.AG), boundary=Boundary.OPEN)


def specimen(sid, sb, ag=None, lot=None):
    series = {Element.SB: ElementSeries(sb[0], sb[1])}
    if ag is not None:
        series[Element.AG] = ElementSeries(ag[0], ag[1])
    return Specimen(id=sid, kind=Kind.BULLET, lot=lot, series=series)


@pytest.fixture(scope="module")
def table1():
    return fixture("table1")


class TestGroup:
    def test_guinn_two_groups(self, table1):
        result = group(table1, GUINN4)
        assert result.groups == (
            ("CE 399", "CE 842"),
            ("CE 567", "CE 840", "CE 843"),
        )
        assert result.nontransitive_triples == ()

    def test_single_specimen(self):
        only = specimen("solo", (100.0, 1.0), (10.0, 0.5))
        result = group([only], GUINN4)
        assert result.groups == (("solo",),)

    def test_open_boundary_same_components_with_witness(self, table1):
        result = group(table1, OPEN4)
        assert result.groups == (
            ("CE 399", "CE 842"),
            ("CE 567", "CE 840", "CE 843"),
        )
        assert result.nontransitive_triples == (("CE 567", "CE 843", "CE 840"),)

    def test_input_order_invariance(self, table1):
        reordered = Dataset(
            specimens=tuple(reversed(table1.specimens)), provenance="shuffled"
        )
        assert group(reordered, GUINN4).groups == group(table1, GUINN4).groups
        assert group(reordered, OPEN4).nontransitive_triples == group(
            table1, OPEN4
        ).nontransitive_triples

    def test_cliques_refine_components(self, table1):
        for criterion in (GUINN4, OPEN4):
            components = group(table1, criterion).groups
            cliques = group(table1, criterion, mode="maximal_cliques").groups
            for clique in cliques:
                containers = [c for c in components if set(clique) <= set(c)]
                assert len(containers) == 1

    def test_transitive_relation_gives_identical_partitions(self, table1):
        # huge k: everything matches, one group either way
        everything = MatchCriterion(k=1000.0, elements=(Element.SB, Element.AG))
        cc = group(table1, everything).groups
        cliques = group(table1, everything, mode="maximal_cliques").groups
        assert cc == cliques == (tuple(sorted(s.id for s in table1)),)
        # tiny k on distinct means: all singletons in both modes
        nothing = MatchCriterion(k=1e-9, elements=(Element.SB,))
        assert group(table1, nothing).groups == group(
            table1, nothing, mode="maximal_cliques"
        ).groups

    def test_raising_k_never_splits_components(self, table1):
        previous = None
        for k in (0.5, 1.0, 2.0, 4.0, 6.0, 10.0):
            criterion = MatchCriterion(k=k, elements=(Element.SB, Element.AG))
            count = len(group(table1, criterion).groups)
            if previous is not None:
                assert count <= previous
            previous = count

    def test_open_clique_mode_groups(self, table1):
        result = group(table1, OPEN4, mode="maximal_cliques")
        assert result.groups == (
            ("CE 399", "CE 842"),
            ("CE 567", "CE 843"),
            ("CE 840", "CE 843"),
        )

    def test_unknown_mode(self, table1):
        with pytest.raises(ValueError):
            group(table1, GUINN4, mode="kmeans")

    def test_duplicate_ids_rejected(self):
        a = specimen("dup", (100.0, 1.0), (10.0, 0.5))
        with pytest.raises(ValueError):
            group([a, a], GUINN4)

    def test_adjacency_is_symmetric(self, table1):
        result = group(table1, GUINN4)
        for sid, neighbors in result.adjacency.items():
            for other in neighbors:
                assert sid in result.adjacency[other]


class TestWithinBoxMatchRate:
    def test_two_matched(self):
        a = specimen("a", (100.0, 5.0), lot="6000")
        b = specimen("b", (102.0, 5.0), lot="6000")
        criterion = MatchCriterion(k=4.0, elements=(Element.SB,))
        rate = within_box_match_rate([a, b], group([a, b], criterion))
        assert (rate.pairs_total, rate.pairs_matched, rate.rate) == (1, 1, 1.0)

    def test_two_unmatched(self):
        a = specimen("a", (100.0, 1.0), lot="6000")
        b = specimen("b", (200.0, 1.0), lot="6000")
        criterion = MatchCriterion(k=4.0, elements=(Element.SB,))
        rate = within_box_match_rate([a, b], group([a, b], criterion))
        assert (rate.pairs_total, rate.pairs_matched, rate.rate) == (2 - 1, 0, 0.0)

    def test_different_lots_contribute_no_pairs(self):
        a = specimen("a", (100.0, 5.0), lot="6000")
        b = specimen("b", (100.0, 5.0), lot="6003")
        criterion = MatchCriterion(k=4.0, elements=(Element.SB,))
        assert within_box_match_rate([a, b], group([a, b], criterion)).pairs_total == 0

    def test_table3_whole_bullets(self):
        # brute-force oracle: check all 6 pairs by direct interval arithmetic
        whole = [s for s in fixture("table3") if s.kind is Kind.BULLET]
        assert len(whole) == 4
        rate = within_box_match_rate(whole, group(whole, GUINN4))
        assert rate.pairs_total == 6

        def overlaps(sa, sb):
            a_lo, a_hi = series_interval(sa, 4.0)
            b_lo, b_hi = series_interval(sb, 4.0)
            return max(a_lo, b_lo) <= min(a_hi, b_hi)

        expected = 0
        specimens = list(whole)
        for i, a in enumerate(specimens):
            for b in specimens[i + 1 :]:
                if overlaps(a.series[Element.SB], b.series[Element.SB]) and overlaps(
                    a.series[Element.AG], b.series[Element.AG]
                ):
                    expected += 1
        assert expected == 0
        assert rate.pairs_matched == 0
        assert rate.rate == 0.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            within_box_match_rate([], group([], GUINN4))

    def test_grouping_of_other_specimens_rejected(self):
        a = specimen("a", (100.0, 5.0), lot="6000")
        b = specimen("b", (102.0, 5.0), lot="6000")
        criterion = MatchCriterion(k=4.0, elements=(Element.SB,))
        for others in ([a], [a, b, b._replace(id="c")], [a, b, b]):
            with pytest.raises(ValueError, match="same specimens"):
                within_box_match_rate(others, group([a, b], criterion))


# ------------------------------------------------------------------------
# The grouping engine against the scalar rule: grouping sweeps to its
# adjacency, match_specimens decides one pair; both must agree exactly.


def scalar_adjacency(specimens, criterion):
    ordered = sorted(specimens, key=lambda s: s.id)
    adjacency = {s.id: set() for s in ordered}
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            if match_specimens(a, b, criterion).matched:
                adjacency[a.id].add(b.id)
                adjacency[b.id].add(a.id)
    return adjacency


def sorted_neighbors(adjacency):
    return {sid: tuple(sorted(v)) for sid, v in adjacency.items()}


def engine_adjacency(specimens, criterion):
    return dict(group(specimens, criterion).adjacency)


def engine_lot_rate(specimens, criterion):
    rate = within_box_match_rate(specimens, group(specimens, criterion))
    return rate.pairs_total, rate.pairs_matched


def scalar_components(adjacency):
    parent = {v: v for v in adjacency}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, neighbors in adjacency.items():
        for b in neighbors:
            parent[root(a)] = root(b)
    groups = {}
    for v in adjacency:
        groups.setdefault(root(v), []).append(v)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def scalar_cliques(adjacency):
    cliques = []

    def extend(r, p, x):
        if not p and not x:
            cliques.append(tuple(sorted(r)))
        for v in sorted(p):
            extend(r | {v}, p & adjacency[v], x & adjacency[v])
            p = p - {v}
            x = x | {v}

    extend(set(), set(adjacency), set())
    return tuple(sorted(cliques))


def scalar_triples(adjacency):
    # every wedge a - b - c whose ends a < c do not match, in sorted order
    return tuple(
        (a, b, c)
        for a in sorted(adjacency)
        for b in sorted(adjacency[a])
        for c in sorted(adjacency[b])
        if a < c and c not in adjacency[a]
    )


def scalar_lot_rate(specimens, criterion):
    ordered = sorted(specimens, key=lambda s: s.id)
    total = matched = 0
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            if a.lot is not None and a.lot == b.lot:
                total += 1
                matched += match_specimens(a, b, criterion).matched
    return total, matched


def outcome(fn, *args):
    """A result, or the identity of the panel error raised instead."""
    try:
        return fn(*args)
    except IncompletePanelError as exc:
        return ("IncompletePanelError", exc.specimen_id, exc.element)


class TestArrayEngineAgainstScalarRule:
    @settings(max_examples=150, deadline=None)
    @given(populations())
    def test_group_matches_brute_force(self, case):
        specimens, criterion = case
        adjacency = scalar_adjacency(specimens, criterion)
        cc = group(specimens, criterion)
        cliques = group(specimens, criterion, mode="maximal_cliques")
        expected = sorted_neighbors(adjacency)
        assert dict(cc.adjacency) == dict(cliques.adjacency) == expected
        assert cc.groups == scalar_components(adjacency)
        assert cliques.groups == scalar_cliques(adjacency)
        triples = scalar_triples(adjacency)
        assert cc.nontransitive_triples == cliques.nontransitive_triples == triples

    @settings(max_examples=100, deadline=None)
    @given(spread_populations())
    def test_spread_values_match_brute_force(self, case):
        specimens, criterion = case
        adjacency = scalar_adjacency(specimens, criterion)
        result = group(specimens, criterion)
        assert dict(result.adjacency) == sorted_neighbors(adjacency)
        assert result.groups == scalar_components(adjacency)
        assert result.nontransitive_triples == scalar_triples(adjacency)
        assert engine_lot_rate(specimens, criterion) == scalar_lot_rate(specimens, criterion)

    @settings(max_examples=100, deadline=None)
    @given(populations())
    def test_lot_rate_matches_brute_force(self, case):
        specimens, criterion = case
        assert engine_lot_rate(specimens, criterion) == scalar_lot_rate(specimens, criterion)

    @settings(max_examples=100, deadline=None)
    @given(populations(complete=False))
    def test_incomplete_panels_raise_what_the_scalar_rule_raises(self, case):
        specimens, criterion = case
        assert outcome(engine_adjacency, specimens, criterion) == outcome(
            lambda *args: sorted_neighbors(scalar_adjacency(*args)), specimens, criterion
        )


def recursive_cliques(adjacency):
    """Bron–Kerbosch as a recursion, one call a clique member: the clique
    search's earlier form, which a 1,000-member clique took past Python's
    recursion limit."""
    cliques = []

    def extend(r, p, x):
        if not p and not x:
            cliques.append(set(r))
            return
        pivot = max(p | x, key=lambda v: len(adjacency[v]))
        for v in sorted(p - adjacency[pivot]):
            extend(r | {v}, p & adjacency[v], x & adjacency[v])
            p = p - {v}
            x = x | {v}

    extend(set(), set(range(len(adjacency))), set())
    return cliques


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 30))
    adjacency = [set() for _ in range(n)]
    nodes = st.integers(0, max(n - 1, 0))
    for a, b in draw(st.lists(st.tuples(nodes, nodes), max_size=250)):
        if a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    return adjacency


class TestMaximalCliques:
    @settings(max_examples=200, deadline=None)
    @given(graphs())
    def test_same_cliques_in_the_same_order_as_the_recursion(self, adjacency):
        assert _maximal_cliques(adjacency) == recursive_cliques(adjacency)

    def test_complete_graph_beyond_the_recursion_limit_is_one_clique(self):
        n = 1200
        adjacency = [set(range(n)) - {v} for v in range(n)]
        assert _maximal_cliques(adjacency) == [set(range(n))]


def lot_population(seed, n, log_span, per_lot, lot_spread, rel_se):
    """``n`` Sb/Ag specimens in lots around log-uniform centres; ids are
    drawn at random, so id order is not lot order."""
    rng = random.Random(seed)
    ids = rng.sample(range(10 * n), n)
    specimens = []
    while len(specimens) < n:
        lot = f"L{len(specimens):03d}"
        centres = {e: math.exp(rng.uniform(*log_span)) for e in (Element.SB, Element.AG)}
        for _ in range(min(rng.randint(1, 2 * per_lot), n - len(specimens))):
            series = {}
            for e, centre in centres.items():
                mean = centre * (1.0 + rng.gauss(0.0, lot_spread))
                series[e] = ElementSeries(mean, mean * rng.uniform(*rel_se))
            sid = f"s{ids[len(specimens)]:04d}"
            specimens.append(Specimen(id=sid, kind=Kind.BULLET, lot=lot, series=series))
    return specimens


# well separated lots of about 8, and small lots whose intervals chain
SHAPES = {
    "sparse": dict(log_span=(0.0, 6.0), per_lot=8, lot_spread=0.004, rel_se=(0.008, 0.015)),
    "dense": dict(log_span=(3.0, 5.0), per_lot=3, lot_spread=0.02, rel_se=(0.01, 0.03)),
}


class TestSweepAtScale:
    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("preset", ["guinn4", "nrc2"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_group_matches_brute_force(self, shape, preset, boundary):
        specimens = lot_population(11, 300, **SHAPES[shape])
        criterion = criterion_preset(preset)._replace(boundary=boundary)
        adjacency = scalar_adjacency(specimens, criterion)
        result = group(specimens, criterion)
        assert dict(result.adjacency) == sorted_neighbors(adjacency)
        assert result.groups == scalar_components(adjacency)
        triples = scalar_triples(adjacency)
        assert result.nontransitive_triples == triples
        assert engine_lot_rate(specimens, criterion) == scalar_lot_rate(specimens, criterion)
        # not a graph without edges; dense lots chain into witnesses
        assert len(result.groups) < len(specimens)
        assert triples or shape == "sparse"


class TestIncompletePanels:
    def test_error_names_first_failing_pair(self):
        full = [specimen(sid, (100.0, 1.0), (10.0, 0.5)) for sid in ("a", "c", "e")]
        # "d" lacks silver; the scalar rule first meets it in the pair (a, d)
        lacking = specimen("d", (100.0, 1.0))
        with pytest.raises(IncompletePanelError) as caught:
            group(full + [lacking], GUINN4)
        assert (caught.value.specimen_id, caught.value.element) == ("d", "Ag")
        with pytest.raises(IncompletePanelError) as caught:
            match_specimens(full[0], lacking, GUINN4)
        assert (caught.value.specimen_id, caught.value.element) == ("d", "Ag")

    def test_single_incomplete_specimen_still_groups(self):
        lone = specimen("solo", (100.0, 1.0))
        result = group([lone], GUINN4)
        assert result.groups == (("solo",),)
        assert result.nontransitive_triples == ()
