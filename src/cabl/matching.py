"""Deciding whether specimens are analytically indistinguishable.

A per-element match means the two ``mean +/- k*se`` intervals
intersect; a specimen-level match conjoins that over the criterion's
element panel.  Bias-corrected matching asks whether any correction in
the stated range produces an overlap; because a correction rescales
both interval endpoints monotonically, the union of corrected intervals
is exactly the hull spanned by the range endpoints, so the hull test is
exact rather than an approximation.

:func:`match_specimens` reports one pair in detail; grouping asks for
every pair at once through ``grouping._match_matrix``, which takes its
endpoints from the same ``_hull`` and ``series_interval`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from .errors import ElementMismatchError, IncompletePanelError
from .model import (
    BiasCorrection,
    Boundary,
    Element,
    ElementSeries,
    MatchCriterion,
    Specimen,
    series_interval,
)


def _intervals_overlap(
    a: tuple[float, float], b: tuple[float, float], boundary: Boundary
) -> Optional[tuple[float, float]]:
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    if boundary is Boundary.CLOSED:
        return (lo, hi) if lo <= hi else None
    return (lo, hi) if lo < hi else None


def _hull(s: ElementSeries, k: float, bias: Optional[BiasCorrection]) -> tuple[float, float]:
    lo, hi = series_interval(s, k)
    if bias is None:
        return (lo, hi)
    return ((1.0 + bias.c_lo) * lo, (1.0 + bias.c_hi) * hi)


def match_element(
    a: ElementSeries,
    b: ElementSeries,
    k: float,
    boundary: Boundary = Boundary.CLOSED,
) -> bool:
    """True when the two k-standard-error intervals intersect.

    Closed boundary counts intervals that merely touch; open does not.
    Symmetric in (a, b), and monotone in k under the closed boundary.
    """
    return match_element_biased(a, b, k, boundary=boundary)


def match_element_biased(
    a: ElementSeries,
    b: ElementSeries,
    k: float,
    bias_a: Optional[BiasCorrection] = None,
    bias_b: Optional[BiasCorrection] = None,
    boundary: Boundary = Boundary.CLOSED,
) -> bool:
    """True when some correction in each range produces an interval match.

    With both biases absent this is exactly :func:`match_element`.
    """
    if a.element is not b.element:
        raise ElementMismatchError(
            f"cannot compare {a.element.value} against {b.element.value}"
        )
    return _intervals_overlap(_hull(a, k, bias_a), _hull(b, k, bias_b), boundary) is not None


@dataclass(frozen=True)
class PerElementMatch:
    """Outcome of one elemental comparison."""

    matched: bool
    overlap: Optional[tuple[float, float]]
    bias_used: Optional[tuple[float, float]]


@dataclass(frozen=True)
class MatchResult:
    """Specimen-level outcome: the conjunction over the element panel."""

    matched: bool
    per_element: Mapping[Element, PerElementMatch]
    criterion: MatchCriterion

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_element", MappingProxyType(dict(self.per_element)))


def match_specimens(a: Specimen, b: Specimen, criterion: MatchCriterion) -> MatchResult:
    """Compare two specimens under a criterion, element by element.

    When the criterion carries a bias table, corrections apply to the
    first (questioned) specimen ``a``; the reference specimen ``b`` is
    taken as measured.  Both specimens must carry every panel element.
    """
    per_element: dict[Element, PerElementMatch] = {}
    for element in criterion.elements:
        if element not in a.series:
            raise IncompletePanelError(a.id, element.value)
        if element not in b.series:
            raise IncompletePanelError(b.id, element.value)
    all_matched = True
    for element in criterion.elements:
        bias = criterion.bias_for(element)
        hull_a = _hull(a.series[element], criterion.k, bias)
        hull_b = series_interval(b.series[element], criterion.k)
        overlap = _intervals_overlap(hull_a, hull_b, criterion.boundary)
        matched = overlap is not None
        all_matched = all_matched and matched
        per_element[element] = PerElementMatch(
            matched=matched,
            overlap=overlap,
            bias_used=(bias.c_lo, bias.c_hi) if bias is not None else None,
        )
    return MatchResult(matched=all_matched, per_element=per_element, criterion=criterion)
