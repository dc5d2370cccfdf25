"""Deciding whether specimens are analytically indistinguishable.

A per-element match means the two ``mean +/- k*se`` intervals
intersect; a specimen-level match conjoins that over the criterion's
element panel.  Bias-corrected matching asks whether any correction in
the stated range produces an overlap; ``series_interval`` widens the
corrected side to the union of its corrected intervals, so the test is
exact rather than an approximation.

:func:`match_specimens` reports one pair in detail; grouping asks for
every pair at once through ``grouping._match_matrix``, which takes its
endpoints from the same ``series_interval`` calls and its closed/open
test from the same ``Boundary.admits``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from .errors import IncompletePanelError
from .model import Boundary, Element, MatchCriterion, Specimen, series_interval


def _intervals_overlap(
    a: tuple[float, float], b: tuple[float, float], boundary: Boundary
) -> Optional[tuple[float, float]]:
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    return (lo, hi) if boundary.admits(lo, hi) else None


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
        overlap = _intervals_overlap(
            series_interval(a.series[element], criterion.k, bias),
            series_interval(b.series[element], criterion.k),
            criterion.boundary,
        )
        matched = overlap is not None
        all_matched = all_matched and matched
        per_element[element] = PerElementMatch(
            matched=matched,
            overlap=overlap,
            bias_used=(bias.c_lo, bias.c_hi) if bias is not None else None,
        )
    return MatchResult(matched=all_matched, per_element=per_element, criterion=criterion)
