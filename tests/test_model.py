import copy
import inspect
import pickle
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cabl.errors import DomainError
from cabl.evidence import BoxModel
from cabl.model import (
    Basis,
    BiasCorrection,
    Boundary,
    Element,
    ElementSeries,
    Kind,
    Location,
    MatchCriterion,
    Specimen,
    criterion_preset,
    series_interval,
)
from cabl.stats.manova import FactorialObservation
from cabl.stats.ttest import TwoSampleInput
from cabl.uncertainty import AttenuationEntry, DecaySchedule


def series(mean, se, n=1):
    df = None if n == 1 else n - 1
    return ElementSeries(mean=mean, se=se, df=df, n=n)


VOCABULARY = (Element, Location, Basis, Kind, Boundary)


class TestElement:
    def test_from_symbol(self):
        assert Element("Sb") is Element.SB
        assert Element("Cd") is Element.CD

    def test_unknown_symbol(self):
        with pytest.raises(ValueError, match=r"unknown element 'Pb' \(have: Sb, Ag, As, Cu, Bi, Sn, Cd\)"):
            Element("Pb")

    def test_panel_is_seven_elements(self):
        assert len(Element) == 7


class TestVocabulary:
    @pytest.mark.parametrize("cls", VOCABULARY)
    def test_every_member_round_trips_through_its_text(self, cls):
        for member in cls:
            assert str(member) == member.value
            assert cls(str(member)) is member

    @pytest.mark.parametrize("cls", VOCABULARY)
    def test_unknown_token_names_the_enum(self, cls):
        name = cls.__name__.lower()
        # a member's Python name (SB, OUTER, ...) is not its text value
        for token in ("nope", "", list(cls)[0].name):
            with pytest.raises(ValueError, match=f"^unknown {name} {token!r} \\(have: "):
                cls(token)


class TestSeriesInterval:
    def test_ce567_antimony(self):
        assert series_interval(series(602.0, 4.0), 4) == (586.0, 618.0)

    def test_ce840_antimony(self):
        assert series_interval(series(642.0, 6.0, n=3), 4) == (618.0, 666.0)

    def test_zero_width(self):
        assert series_interval(series(10.0, 0.0), 7.0) == (10.0, 10.0)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            series_interval(series(10.0, 1.0), 0.0)

    @pytest.mark.parametrize(
        "s, k, bias",
        [
            (series(100.0, 9.0), 1e308, None),  # k * se overflows
            (series(1e308, 1e308), 4.0, None),  # mean +/- k * se overflows
            (series(1e308, 0.0), 1.0, BiasCorrection(0.5, 1.0)),  # only the bias hull does
        ],
    )
    def test_endpoint_beyond_float_range_refused(self, s, k, bias):
        message = f"k={k!r} and se={s.se!r} put an interval endpoint beyond the float range"
        with pytest.raises(DomainError, match=re.escape(message)):
            series_interval(s, k, bias)

    @given(
        mean=st.floats(0.01, 1e5),
        se=st.floats(0.0, 1e3),
        k=st.floats(0.01, 50.0),
        k2=st.floats(0.01, 50.0),
    )
    def test_width_and_symmetry(self, mean, se, k, k2):
        lo, hi = series_interval(series(mean, se), k)
        # width is 2*k*se exactly, up to cancellation at the mean's ulp scale
        assert hi - lo == pytest.approx(2 * k * se, rel=1e-12, abs=4e-12 * mean)
        assert (lo + hi) / 2 == pytest.approx(mean, rel=1e-9)
        lo2, hi2 = series_interval(series(mean, se), max(k, k2))
        assert lo2 <= lo + 1e-12 * max(1.0, abs(lo)) or k >= k2
        assert hi2 - lo2 >= hi - lo - 1e-9

    @given(
        mean=st.floats(1.0, 1e4),
        se=st.floats(0.0, 500.0),
        k=st.floats(0.1, 20.0),
        c_lo=st.floats(-0.5, 0.5),
        width=st.floats(0.0, 0.5),
        t=st.floats(0.0, 1.0),
    )
    def test_biased_interval_is_the_union_of_corrections(self, mean, se, k, c_lo, width, t):
        s = series(mean, se)
        bias = BiasCorrection(c_lo, c_lo + width)
        lo, hi = series_interval(s, k)
        hull_lo, hull_hi = series_interval(s, k, bias)
        # contains the interval corrected by any c in the range
        c = min(max(bias.c_lo + t * (bias.c_hi - bias.c_lo), bias.c_lo), bias.c_hi)
        assert hull_lo <= (1.0 + c) * lo
        assert (1.0 + c) * hi <= hull_hi
        # and its ends are ends of the intervals corrected by c_lo and c_hi
        ends_lo = ((1.0 + bias.c_lo) * lo, (1.0 + bias.c_hi) * lo)
        ends_hi = ((1.0 + bias.c_lo) * hi, (1.0 + bias.c_hi) * hi)
        assert (hull_lo, hull_hi) == (min(ends_lo), max(ends_hi))


class TestBoundary:
    PAIRS = [(1.0, 2.0), (2.0, 2.0), (3.0, 2.0), (-1.0, -1.0), (0.0, 5e-324)]

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_scalars_and_arrays_agree(self, boundary):
        lo = np.array([p[0] for p in self.PAIRS])
        hi = np.array([p[1] for p in self.PAIRS])
        elementwise = boundary.admits(lo, hi)
        assert elementwise.dtype == bool
        assert elementwise.tolist() == [boundary.admits(a, b) for a, b in self.PAIRS]

    def test_touching_counts_only_when_closed(self):
        assert Boundary.CLOSED.admits(618.0, 618.0) is True
        assert Boundary.OPEN.admits(618.0, 618.0) is False
        assert Boundary.OPEN.admits(617.0, 618.0) is True
        assert Boundary.CLOSED.admits(619.0, 618.0) is False


class TestValidation:
    def test_series_mean_positive(self):
        with pytest.raises(ValueError):
            ElementSeries(mean=0.0, se=1.0)

    def test_series_negative_se(self):
        with pytest.raises(ValueError):
            ElementSeries(mean=1.0, se=-0.1)

    def test_series_df_must_match_n(self):
        with pytest.raises(ValueError):
            ElementSeries(mean=1.0, se=0.1, df=3, n=3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_refused(self, bad):
        with pytest.raises(DomainError):
            series(bad, 1.0)
        with pytest.raises(DomainError):
            series(100.0, bad)
        with pytest.raises(DomainError):
            BiasCorrection(bad, 0.1)
        with pytest.raises(DomainError):
            BiasCorrection(0.0, bad)
        with pytest.raises(DomainError):
            MatchCriterion(k=bad, elements=(Element.SB,))

    def test_bias_range_ordering(self):
        with pytest.raises(ValueError):
            BiasCorrection(0.06, 0.02)

    def test_specimen_equality_by_value(self):
        def build(**changes):
            fields = dict(
                id="x",
                kind=Kind.BULLET,
                lot="L1",
                series={
                    Element.SB: series(100.0, 1.0),
                    Element.AG: series(20.0, 0.5),
                },
                location=Location.OUTER,
            )
            fields.update(changes)
            return Specimen(**fields)

        assert build() == build()
        assert build() != build(series={Element.SB: series(100.0, 1.5)})
        assert build() != build(lot="L2")
        assert build() != build(location=Location.INNER)
        with pytest.raises(TypeError):
            hash(build())


class TestCriterion:
    def test_panel_sorted_and_deduped(self):
        c = MatchCriterion(k=2, elements=(Element.SB, Element.AG, Element.SB))
        assert c.elements == (Element.AG, Element.SB)

    def test_empty_panel_rejected(self):
        with pytest.raises(ValueError):
            MatchCriterion(k=2, elements=())
        # an empty panel given to a preset is refused, not replaced by its default
        with pytest.raises(ValueError, match="element panel must be nonempty"):
            criterion_preset("nrc2")._replace(elements=())

    def test_guinn4_preset(self):
        c = criterion_preset("guinn4")
        assert c.k == 4.0
        assert c.bias is None
        assert c.boundary is Boundary.CLOSED
        assert set(c.elements) == {Element.SB, Element.AG}

    def test_nrc2_preset_carries_bias(self):
        c = criterion_preset("nrc2")
        assert c.k == 2.0
        assert c.bias_for(Element.SB).c_hi == 0.054
        assert c.bias_for(Element.AG).c_lo == 0.055

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            criterion_preset("fbi7")

    def test_empty_bias_table_is_no_table(self):
        # one rule, one form: an empty table is stored as None
        assert criterion_preset("nrc2")._replace(bias={}).bias is None
        assert MatchCriterion(k=2, elements=(Element.SB,), bias={}).bias is None


# checked type -> (a valid value, field changes its constructor refuses)
CHECKED = {
    "AttenuationEntry": (AttenuationEntry(511.0, 1.78), {"mu_linear_per_cm": float("nan")}),
    "BiasCorrection": (BiasCorrection(0.02, 0.054), {"c_lo": 0.06}),
    "BoxModel": (BoxModel((6, 4)), {"group_sizes": (6, 0)}),
    "DecaySchedule": (DecaySchedule(24.0, 60.0, 30.0, 180.0), {"t_decay": 0.0}),
    "ElementSeries": (ElementSeries(100.0, 1.0), {"se": -1.0}),
    "FactorialObservation": (FactorialObservation("b1", "outer", (1.0,)), {"responses": ()}),
    "MatchCriterion": (criterion_preset("guinn4"), {"k": -1.0}),
    "Specimen": (Specimen("x", Kind.BULLET), {"id": ""}),
    "TwoSampleInput": (TwoSampleInput(10.0, 1.0, 4), {"n": 1}),
}


# more field changes the constructors refuse, checked types only
REFUSED = [
    ("TwoSampleInput", {"mean": float("nan")}, DomainError),
    ("TwoSampleInput", {"mean": float("inf")}, DomainError),
    ("TwoSampleInput", {"se": float("inf")}, DomainError),
    ("BoxModel", {"group_sizes": (True, 2)}, ValueError),  # True is no group of one
    ("MatchCriterion", {"bias": 0}, TypeError),  # only an empty table reads as no bias
]


@pytest.mark.parametrize("name, changes, error", REFUSED)
def test_constructor_refuses(name, changes, error):
    value, _ = CHECKED[name]
    with pytest.raises(error):
        type(value)(**{**value._asdict(), **changes})
    with pytest.raises(error):
        value._replace(**changes)


class TestOneClass:
    """Each checked type is one named tuple class that declares its fields once."""

    @pytest.mark.parametrize("name", sorted(CHECKED))
    def test_signature_is_the_fields(self, name):
        cls = type(CHECKED[name][0])
        assert cls.__bases__ == (tuple,)
        parameters = inspect.signature(cls).parameters
        assert tuple(parameters) == cls._fields
        defaults = {k: p.default for k, p in parameters.items() if p.default is not p.empty}
        assert defaults == cls._field_defaults

    def test_arguments_bind_as_the_fields(self):
        full = ElementSeries(100.0, 1.0, 2, 3)
        assert full == ElementSeries(mean=100.0, se=1.0, n=3, df=2) == ElementSeries(100.0, 1.0, 2, n=3)
        assert ElementSeries(100.0, 1.0) == (100.0, 1.0, None, 1)
        for args, kwargs in (((100.0, 1.0, 2, 3), {"n": 3}), ((100.0, 1.0, 2, 3, 4), {}), ((), {})):
            with pytest.raises(TypeError):
                ElementSeries(*args, **kwargs)

    @pytest.mark.parametrize("name", sorted(CHECKED))
    def test_copies_and_unpickling_check(self, name):
        value, changes = CHECKED[name]
        cls = type(value)
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
        fields = {**value._asdict(), **changes}
        with pytest.raises(Exception) as built:
            cls(**fields)
        # the refused fields in a tuple made without the constructor, as
        # a pickle written by other code could hold
        forged = tuple.__new__(cls, [fields[f] for f in cls._fields])
        for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            with pytest.raises(type(built.value)) as cloned:
                clone(forged)
            assert str(cloned.value) == str(built.value)

    def test_copies_keep_tables_read_only(self):
        specimen = Specimen("x", Kind.BULLET, series={Element.SB: series(1.0, 0.1)})
        criterion = criterion_preset("nrc2")
        for value, table in ((specimen, "series"), (criterion, "bias")):
            for clone in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
                assert clone == value
                with pytest.raises(TypeError):
                    getattr(clone, table)[Element.AG] = None


class TestCheckedReplace:
    @pytest.mark.parametrize("name", sorted(CHECKED))
    def test_replace_checks_as_the_constructor(self, name):
        value, changes = CHECKED[name]
        assert type(value).__name__ == name
        with pytest.raises(Exception) as built:
            type(value)(**{**value._asdict(), **changes})
        with pytest.raises(type(built.value)) as replaced:
            value._replace(**changes)
        assert str(replaced.value) == str(built.value)

    def test_replace_normalises_as_the_constructor(self):
        criterion = criterion_preset("guinn4")._replace(
            elements=(Element.SB, Element.AG, Element.SB), bias={Element.SB: BiasCorrection(0, 0)}
        )
        assert criterion.elements == (Element.AG, Element.SB)
        specimen = Specimen("x", Kind.BULLET)._replace(series={Element.SB: series(1.0, 0.1)})
        for table in (criterion.bias, specimen.series):
            with pytest.raises(TypeError):
                table[Element.AG] = None

    def test_values_are_tuples_without_attributes_of_their_own(self):
        value = ElementSeries(100.0, 1.0)
        assert value == (100.0, 1.0, None, 1)
        mean, se, df, n = value
        assert (value[0], value.se) == (mean, se)
        assert value._asdict() == {"mean": 100.0, "se": 1.0, "df": None, "n": 1}
        with pytest.raises(AttributeError):
            value.note = "x"
