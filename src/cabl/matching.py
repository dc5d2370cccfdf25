"""Deciding whether specimens are analytically indistinguishable.

A verdict is its overlap: two elements match when their ``mean +/- k*se``
intervals intersect under the boundary rule, and that intersection is
the one stored fact; two specimens match when every panel element does.
Bias-corrected matching asks whether any correction in the stated range
produces an overlap; ``series_interval`` widens the corrected side to
the union of its corrected intervals, so the test is exact.

:func:`match_specimens` reports one pair as a :class:`MatchResult`, the
tuple of its overlaps in panel order; the bias range behind each is the
criterion's (``criterion.bias_for``), not the pair's.  Grouping decides
every pair its sweep meets through ``grouping._neighbours``, which takes
its endpoints from the same ``series_interval`` calls and its closed/open
test from the same ``Boundary.admits``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import IncompletePanelError
from .model import MatchCriterion, Specimen, series_interval


class MatchResult(NamedTuple):
    """Specimen-level outcome: each panel element's overlap.

    ``overlaps[i]`` is the ``(lo, hi)`` overlap on ``criterion.elements[i]``,
    or None where that element does not match.
    """

    overlaps: tuple[Optional[tuple[float, float]], ...]

    @property
    def matched(self) -> bool:
        return None not in self.overlaps


def match_specimens(a: Specimen, b: Specimen, criterion: MatchCriterion) -> MatchResult:
    """Compare two specimens under a criterion, element by element.

    When the criterion carries a bias table, corrections apply to the
    first (questioned) specimen ``a``; the reference specimen ``b`` is
    taken as measured.  Both specimens must carry every panel element:
    the first missing one raises ``IncompletePanelError``, for ``a``
    before ``b``.
    """
    k, admits, bias = criterion.k, criterion.boundary.admits, criterion.bias
    first_series, second_series = a.series, b.series
    overlaps = []
    for element in criterion.elements:
        first = first_series.get(element)
        if first is None:
            raise IncompletePanelError(a.id, element.value)
        second = second_series.get(element)
        if second is None:
            raise IncompletePanelError(b.id, element.value)
        a_lo, a_hi = series_interval(first, k, None if bias is None else bias.get(element))
        b_lo, b_hi = series_interval(second, k)
        # max and min written out (a builtin call per element shows in time);
        # of two equal ends the first is kept, as 0.0 and -0.0 print apart
        lo = a_lo if a_lo >= b_lo else b_lo
        hi = a_hi if a_hi <= b_hi else b_hi
        overlaps.append((lo, hi) if admits(lo, hi) else None)
    return MatchResult(tuple(overlaps))
