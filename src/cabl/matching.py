"""Deciding whether specimens are analytically indistinguishable.

A verdict is its overlap: two elements match when their ``mean +/- k*se``
intervals intersect under the boundary rule, and that intersection is
the one stored fact; two specimens match when every panel element does.
Bias-corrected matching asks whether any correction in the stated range
produces an overlap; ``series_interval`` widens the corrected side to
the union of its corrected intervals, so the test is exact.

:func:`match_specimens` reports one pair in detail; grouping decides
every pair its sweep meets through ``grouping._neighbours``, which takes
its endpoints from the same ``series_interval`` calls and its closed/open
test from the same ``Boundary.admits``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from .errors import IncompletePanelError
from .model import Element, MatchCriterion, Specimen, series_interval


@dataclass(frozen=True)
class PerElementMatch:
    """Outcome of one elemental comparison: the overlap, if it counts."""

    overlap: Optional[tuple[float, float]]
    bias_used: Optional[tuple[float, float]]

    @property
    def matched(self) -> bool:
        return self.overlap is not None


@dataclass(frozen=True)
class MatchResult:
    """Specimen-level outcome: the conjunction over the element panel."""

    per_element: Mapping[Element, PerElementMatch]

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_element", MappingProxyType(dict(self.per_element)))

    @property
    def matched(self) -> bool:
        return all(per.matched for per in self.per_element.values())


def match_specimens(a: Specimen, b: Specimen, criterion: MatchCriterion) -> MatchResult:
    """Compare two specimens under a criterion, element by element.

    When the criterion carries a bias table, corrections apply to the
    first (questioned) specimen ``a``; the reference specimen ``b`` is
    taken as measured.  Both specimens must carry every panel element:
    the first missing one raises ``IncompletePanelError``, for ``a``
    before ``b``.
    """
    k, admits = criterion.k, criterion.boundary.admits
    first_series, second_series = a.series, b.series
    per_element: dict[Element, PerElementMatch] = {}
    for element in criterion.elements:
        first = first_series.get(element)
        if first is None:
            raise IncompletePanelError(a.id, element.value)
        second = second_series.get(element)
        if second is None:
            raise IncompletePanelError(b.id, element.value)
        bias = criterion.bias_for(element)
        a_lo, a_hi = series_interval(first, k, bias)
        b_lo, b_hi = series_interval(second, k)
        # max and min keep the first of two equal endpoints, as 0.0 and -0.0 print apart
        lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
        per_element[element] = PerElementMatch(
            overlap=(lo, hi) if admits(lo, hi) else None,
            bias_used=(bias.c_lo, bias.c_hi) if bias is not None else None,
        )
    return MatchResult(per_element)
