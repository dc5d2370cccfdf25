import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import populations, spread_populations

from cabl.errors import DomainError, IncompletePanelError
from cabl.grouping import group
from cabl.ingest import fixture
import cabl.matching
from cabl.matching import match_specimens, match_table
from cabl.model import (
    BiasCorrection,
    Boundary,
    Element,
    ElementSeries,
    Kind,
    MatchCriterion,
    PRESET_NAMES,
    Specimen,
    criterion_preset,
    series_interval,
)

SB_BIAS = BiasCorrection(0.02, 0.054)
AG_BIAS = BiasCorrection(0.055, 0.055)


def series(mean, se, n=1):
    df = None if n == 1 else n - 1
    return ElementSeries(mean=mean, se=se, df=df, n=n)


def matches(a, b, k, boundary=Boundary.CLOSED, bias=None):
    """``match_specimens`` on two Sb-only specimens carrying series a and b.

    ``bias`` corrects the first side, a, as a criterion's bias table does.
    """
    criterion = MatchCriterion(
        k=k,
        elements=(Element.SB,),
        bias=None if bias is None else {Element.SB: bias},
        boundary=boundary,
    )
    first = Specimen(id="a", kind=Kind.FRAGMENT, series={Element.SB: a})
    second = Specimen(id="b", kind=Kind.FRAGMENT, series={Element.SB: b})
    return match_specimens(first, second, criterion).matched


@pytest.fixture(scope="module")
def table1():
    return fixture("table1")


@pytest.fixture(scope="module")
def table2():
    return fixture("table2")


class TestMatchElement:
    def test_touching_intervals_match_closed(self, table1):
        a = table1.get("CE 567").series[Element.SB]
        b = table1.get("CE 840").series[Element.SB]
        assert matches(a, b, 4) is True

    def test_touching_intervals_fail_open(self, table1):
        a = table1.get("CE 567").series[Element.SB]
        b = table1.get("CE 840").series[Element.SB]
        assert matches(a, b, 4, Boundary.OPEN) is False

    def test_disjoint_intervals(self, table1):
        a = table1.get("CE 842").series[Element.SB]
        b = table1.get("CE 840").series[Element.SB]
        assert matches(a, b, 4) is False

    def test_reflexive(self, table1):
        s = table1.get("CE 399").series[Element.AG]
        for k in (0.5, 2, 4, 10):
            assert matches(s, s, k) is True

    @given(
        m1=st.floats(1.0, 1e4),
        s1=st.floats(0.0, 50.0),
        m2=st.floats(1.0, 1e4),
        s2=st.floats(0.0, 50.0),
        k=st.floats(0.1, 20.0),
    )
    def test_symmetric(self, m1, s1, m2, s2, k):
        a, b = series(m1, s1), series(m2, s2)
        assert matches(a, b, k) == matches(b, a, k)

    @given(
        m1=st.floats(1.0, 1e4),
        s1=st.floats(0.0, 50.0),
        m2=st.floats(1.0, 1e4),
        s2=st.floats(0.0, 50.0),
        k=st.floats(0.1, 20.0),
        extra=st.floats(0.0, 20.0),
    )
    def test_monotone_in_k_closed(self, m1, s1, m2, s2, k, extra):
        a, b = series(m1, s1), series(m2, s2)
        if matches(a, b, k):
            assert matches(a, b, k + extra)


class TestMatchElementBiased:
    def test_combined_antimony_matches_ce567_at_k2(self, table1, table2):
        combined = table2.get("bullet-1").series[Element.SB]
        ce567 = table1.get("CE 567").series[Element.SB]
        assert matches(combined, ce567, 2, bias=SB_BIAS) is True

    def test_combined_silver_fails_at_k2(self, table1, table2):
        combined = table2.get("bullet-1").series[Element.AG]
        ce567 = table1.get("CE 567").series[Element.AG]
        # corrected hull tops out at 6.77, below CE 567's 6.90 floor
        assert matches(combined, ce567, 2, bias=AG_BIAS) is False

    def test_middle_silver_passes_at_k2(self, table1, table2):
        middle = table2.get("bullet-1-middle").series[Element.AG]
        ce567 = table1.get("CE 567").series[Element.AG]
        assert matches(middle, ce567, 2, bias=AG_BIAS) is True

    def test_all_labeled_sections_match_antimony_at_k2(self, table1, table2):
        ce567 = table1.get("CE 567").series[Element.SB]
        for sid in ("bullet-1-outer", "bullet-1-middle", "bullet-1-inner", "bullet-1"):
            section = table2.get(sid).series[Element.SB]
            assert matches(section, ce567, 2, bias=SB_BIAS) is True

    def test_only_labeled_sections_match_silver_at_k2(self, table1, table2):
        ce567 = table1.get("CE 567").series[Element.AG]
        outcomes = {
            sid: matches(table2.get(sid).series[Element.AG], ce567, 2, bias=AG_BIAS)
            for sid in ("bullet-1-outer", "bullet-1-middle", "bullet-1-inner", "bullet-1")
        }
        assert outcomes == {
            "bullet-1-outer": True,
            "bullet-1-middle": True,
            "bullet-1-inner": True,
            "bullet-1": False,
        }

    @given(
        m1=st.floats(1.0, 1e4),
        s1=st.floats(0.0, 50.0),
        m2=st.floats(1.0, 1e4),
        s2=st.floats(0.0, 50.0),
        k=st.floats(0.1, 20.0),
    )
    def test_zero_bias_equals_unbiased(self, m1, s1, m2, s2, k):
        a, b = series(m1, s1), series(m2, s2)
        zero = BiasCorrection(0.0, 0.0)
        assert matches(a, b, k, bias=zero) == matches(a, b, k)


class TestMatchSpecimens:
    def test_ce399_ce842_match(self, table1):
        result = match_specimens(
            table1.get("CE 399"), table1.get("CE 842"), criterion_preset("guinn4")
        )
        assert result.matched is True
        # the panel runs Ag, Sb
        assert result.overlaps[1] == (797.0, 825.0)

    def test_ce399_ce567_do_not_match(self, table1):
        result = match_specimens(
            table1.get("CE 399"), table1.get("CE 567"), criterion_preset("guinn4")
        )
        assert result.matched is False
        ag, sb = result.overlaps
        assert sb is None
        assert ag is not None

    def test_self_match(self, table1):
        s = table1.get("CE 840")
        assert match_specimens(s, s, criterion_preset("guinn4")).matched is True

    def test_matched_is_conjunction(self, table1):
        criterion = criterion_preset("guinn4")
        for a in table1:
            for b in table1:
                result = match_specimens(a, b, criterion)
                assert result.matched == all(o is not None for o in result.overlaps)

    def test_shrinking_panel_preserves_matches(self, table1):
        full = criterion_preset("guinn4")
        for panel in ((Element.SB,), (Element.AG,)):
            sub = MatchCriterion(k=4.0, elements=panel)
            for a in table1:
                for b in table1:
                    if match_specimens(a, b, full).matched:
                        assert match_specimens(a, b, sub).matched

    def test_missing_element_names_it(self, table1):
        bare = Specimen(id="bare", kind=table1.get("CE 399").kind, series={})
        with pytest.raises(IncompletePanelError, match="Ag|Sb"):
            match_specimens(bare, table1.get("CE 399"), criterion_preset("guinn4"))

    def test_first_missing_element_raises_for_a_then_b(self):
        ag, sb = series(5.0, 1.0), series(500.0, 5.0)
        only_ag = Specimen(id="only-ag", kind=Kind.FRAGMENT, series={Element.AG: ag})
        only_sb = Specimen(id="only-sb", kind=Kind.FRAGMENT, series={Element.SB: sb})
        # the panel runs Ag, Sb: Ag is checked on both sides before Sb
        with pytest.raises(IncompletePanelError) as raised:
            match_specimens(only_ag, only_sb, criterion_preset("guinn4"))
        assert (raised.value.specimen_id, raised.value.element) == ("only-sb", "Ag")
        # both sides lack Sb: a is named
        twin = Specimen(id="twin", kind=Kind.FRAGMENT, series={Element.AG: ag})
        with pytest.raises(IncompletePanelError) as raised:
            match_specimens(only_ag, twin, criterion_preset("guinn4"))
        assert (raised.value.specimen_id, raised.value.element) == ("only-ag", "Sb")

    def test_verdicts_derive_from_overlaps(self, table1, table2):
        specimens = [*table1, *table2]
        for preset in PRESET_NAMES:
            for boundary in Boundary:
                criterion = criterion_preset(preset)._replace(boundary=boundary)
                panel = criterion.elements
                for a, b in itertools.product(specimens, repeat=2):
                    if any(e not in s.series for s in (a, b) for e in panel):
                        continue
                    result = match_specimens(a, b, criterion)
                    expected = []
                    for element in panel:
                        bias = criterion.bias_for(element)
                        a_lo, a_hi = series_interval(a.series[element], criterion.k, bias)
                        b_lo, b_hi = series_interval(b.series[element], criterion.k)
                        lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
                        expected.append((lo, hi) if boundary.admits(lo, hi) else None)
                    assert result.overlaps == tuple(expected)
                    assert result.matched is (None not in expected)
        with pytest.raises(AttributeError):
            result.overlaps = ()
        with pytest.raises(TypeError):
            result.overlaps[0] = None

    def test_criterion_bias_applies_to_first_specimen(self, table1, table2):
        nrc2 = criterion_preset("nrc2")
        result = match_specimens(table2.get("bullet-1"), table1.get("CE 567"), nrc2)
        ag, sb = result.overlaps
        assert sb is not None
        assert ag is None
        assert result.matched is False
        # uncorrected, or with the sides swapped, Sb does not match
        for a, b, criterion in (
            (table2.get("bullet-1"), table1.get("CE 567"), nrc2._replace(bias=None)),
            (table1.get("CE 567"), table2.get("bullet-1"), nrc2),
        ):
            assert match_specimens(a, b, criterion).overlaps[1] is None

    def test_equal_ends_keep_the_first_specimens(self):
        # a's corrected lower end underflows to -0.0, b's is 0.0: the two are
        # equal, the overlap keeps a's, and the JSON report prints it as -0.0
        a = Specimen("a", Kind.FRAGMENT, series={Element.SB: ElementSeries(5e-324, 1e-323)})
        b = Specimen("b", Kind.FRAGMENT, series={Element.SB: ElementSeries(5e-324, 5e-324)})
        criterion = MatchCriterion(
            k=1.0, elements=(Element.SB,), bias={Element.SB: BiasCorrection(-0.6, -0.6)}
        )
        ((lo, hi),) = match_specimens(a, b, criterion).overlaps
        assert (repr(lo), repr(hi)) == ("-0.0", "5e-324")


def scalar_table(specimens, criterion):
    """``match_specimens`` over every canonical pair, as ``match_table``'s
    masks and bounds, with the bounds' text, as -0.0 and 0.0 are equal."""
    ordered = sorted(specimens, key=lambda s: s.id)
    masks, bounds = [], []
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            overlaps = match_specimens(a, b, criterion).overlaps
            masks.append(sum(1 << e for e, o in enumerate(overlaps) if o is not None))
            bounds += [repr(x) for o in overlaps if o is not None for x in o]
    return [s.id for s in ordered], masks, bounds


def table(specimens, criterion):
    ids, masks, bounds = match_table(specimens, criterion)
    return ids, list(masks), list(map(repr, bounds))


class TestMatchTable:
    """``match_table`` is ``match_specimens`` on every pair, though it runs
    it only where two specimens' interval hulls meet."""

    # panels of one to seven elements, with and without a bias table, either
    # boundary; small integer means and errors make zero-se series and
    # exactly touching intervals common
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(populations(), spread_populations()))
    def test_table_is_the_scalar_rule_on_every_pair(self, case):
        specimens, criterion = case
        assert table(specimens, criterion) == scalar_table(specimens, criterion)

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("bias", [None, SB_BIAS, BiasCorrection(-0.1, 0.1)])
    def test_touching_and_zero_se_intervals(self, boundary, bias):
        # k=1: [9, 11], [11, 13] and [13, 13] touch end to end, and
        # a zero-se series touches itself
        specimens = [
            Specimen(sid, Kind.FRAGMENT, series={Element.SB: series(mean, se)})
            for sid, mean, se in (("a", 10.0, 1.0), ("b", 12.0, 1.0), ("c", 13.0, 0.0),
                                  ("d", 13.0, 0.0), ("e", 50.0, 0.0))
        ]
        criterion = MatchCriterion(
            k=1.0,
            elements=(Element.SB,),
            bias=None if bias is None else {Element.SB: bias},
            boundary=boundary,
        )
        assert table(specimens, criterion) == scalar_table(specimens, criterion)

    def test_scalar_rule_runs_only_where_hulls_meet(self, monkeypatch):
        calls = []

        def counted(a, b, criterion):
            calls.append((a.id, b.id))
            return match_specimens(a, b, criterion)

        monkeypatch.setattr(cabl.matching, "match_specimens", counted)
        # the Ag hulls of a and b meet, and the Sb hulls of b and c
        means = {"a": (10.0, 100.0), "b": (11.0, 500.0), "c": (90.0, 501.0)}
        specimens = [
            Specimen(sid, Kind.FRAGMENT, series={Element.AG: series(ag, 0.5),
                                                 Element.SB: series(sb, 0.5)})
            for sid, (ag, sb) in means.items()
        ]
        criterion = MatchCriterion(k=1.0, elements=(Element.AG, Element.SB))
        ids, masks, bounds = match_table(specimens, criterion)
        # (a, b) overlaps on Ag alone, (b, c) on Sb alone, (a, c) on neither
        assert calls == [("a", "b"), ("b", "c")]
        assert (ids, list(masks), list(bounds)) == (
            ["a", "b", "c"], [1, 0, 2], [10.5, 10.5, 500.5, 500.5]
        )

    def test_duplicate_ids_are_refused_as_group_refuses_them(self):
        twins = [Specimen("a", Kind.FRAGMENT, series={Element.SB: series(mean, 1.0)})
                 for mean in (10.0, 50.0)]
        criterion = MatchCriterion(k=1.0, elements=(Element.SB,))
        messages = set()
        for engine in (match_table, group):
            with pytest.raises(ValueError) as refused:
                engine(twins, criterion)
            messages.add(str(refused.value))
        assert messages == {"specimen ids must be unique"}


@pytest.mark.parametrize("k", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_k_refused(k):
    s = series(100.0, 1.0)
    with pytest.raises(DomainError, match="k must be finite"):
        series_interval(s, k)
    with pytest.raises(DomainError, match="k must be finite"):
        series_interval(s, k, SB_BIAS)
    with pytest.raises(DomainError, match="k must be finite"):
        MatchCriterion(k=k, elements=(Element.SB,))

