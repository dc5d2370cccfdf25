"""Hypothesis strategies for specimen populations and match criteria.

``populations`` and ``spread_populations`` draw ``(specimens, criterion)``
cases: specimens over one panel of one to seven elements, and a criterion
on that panel with any k, either boundary, and an optional bias table.
"""

from hypothesis import strategies as st

from cabl.model import (
    BiasCorrection,
    Boundary,
    Element,
    ElementSeries,
    Kind,
    MatchCriterion,
    Specimen,
)

# small integers make exactly touching intervals common
_values = st.one_of(st.integers(1, 12).map(float), st.floats(1.0, 1000.0))
_errors = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 50.0))


@st.composite
def criteria(draw, panel):
    bias = {}
    for e in draw(st.lists(st.sampled_from(panel), unique=True)):
        c_lo = draw(st.one_of(st.sampled_from([-0.5, 0.0, 0.25]), st.floats(-0.5, 0.5)))
        width = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3)))
        bias[e] = BiasCorrection(c_lo, c_lo + width)
    return MatchCriterion(
        k=draw(st.one_of(st.sampled_from([1.0, 2.0, 4.0]), st.floats(0.01, 20.0))),
        elements=tuple(panel),
        bias=draw(st.sampled_from([None, bias])),
        boundary=draw(st.sampled_from(list(Boundary))),
    )


_ids = st.lists(st.text("abxyz", min_size=1, max_size=3), min_size=2, max_size=30, unique=True)
_lots = st.sampled_from([None, "L1", "L2", "L3"])


@st.composite
def populations(draw, complete=True):
    panel = draw(st.lists(st.sampled_from(list(Element)), min_size=1, max_size=7, unique=True))
    specimens = []
    for sid in draw(_ids):
        elements = panel if complete else draw(st.lists(st.sampled_from(panel), unique=True))
        series = {e: ElementSeries(draw(_values), draw(_errors)) for e in elements}
        specimens.append(Specimen(id=sid, kind=Kind.BULLET, lot=draw(_lots), series=series))
    return specimens, draw(criteria(panel))


@st.composite
def spread_populations(draw):
    """Values spread over six decades, so most hulls lie apart and sweep
    windows close early, on every panel element but the first, which
    barely separates anyone: the most selective element is not first."""
    panel = draw(st.lists(st.sampled_from(list(Element)), min_size=2, max_size=4, unique=True))
    specimens = []
    for sid in draw(_ids):
        near = 100.0 + draw(_values) % 3
        series = {panel[0]: ElementSeries(near, draw(_errors))}
        for e in panel[1:]:
            mean = 10.0 ** draw(st.floats(0.0, 6.0))
            series[e] = ElementSeries(mean, mean * draw(st.floats(0.0, 0.1)))
        specimens.append(Specimen(id=sid, kind=Kind.BULLET, lot=draw(_lots), series=series))
    return specimens, draw(criteria(panel))
