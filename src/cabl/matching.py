"""Deciding whether specimens are analytically indistinguishable.

The pair rule is written here alone.  Two elements match when their
``mean +/- k*se`` intervals intersect under the boundary rule, and that
overlap is the one stored fact; two specimens match when every panel
element does.  Pairs come in canonical order: ids sorted, the smaller id
first.  Under a bias table the first specimen of a pair is the corrected
side, which ``series_interval`` widens to the union of its corrected
intervals, so asking whether any correction in range overlaps is exact.

:func:`match_specimens` reports one pair as a :class:`MatchResult`, the
tuple of its overlaps in panel order; the bias range behind each is the
criterion's (``criterion.bias_for``), not the pair's.  :func:`match_pairs`
reports every pair of a set, for ``match``; :func:`match_graph` builds
``group``'s match graph, each specimen's sorted neighbour list, by a
sort-and-sweep over interval hulls, with the same ``series_interval``
endpoints and ``Boundary.admits`` test.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, NamedTuple, Optional

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


def _canonical(specimens: Iterable[Specimen]) -> list[Specimen]:
    """Specimens sorted by id: of each pair ``i < j``, ``i`` is the corrected side."""
    return sorted(specimens, key=lambda s: s.id)


def match_pairs(specimens: Iterable[Specimen], criterion: MatchCriterion) -> Iterator[tuple]:
    """``(a.id, b.id, overlaps)`` for every pair, in canonical order."""
    ordered = _canonical(specimens)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            yield a.id, b.id, match_specimens(a, b, criterion).overlaps


def match_graph(
    specimens: Iterable[Specimen], criterion: MatchCriterion
) -> tuple[list[str], list[list[int]]]:
    """The sorted ids of ``specimens`` and each one's sorted neighbour indices.

    Ids must be unique.  Index ``i`` names ``ids[i]`` and ids are in
    canonical order, so specimen ``i`` is the first (corrected) side of
    each pair ``i < j``.  The endpoints come from the
    ``series_interval`` calls ``match_specimens`` makes, biased for the
    first side and plain for the other, once per specimen and element.  A
    matching pair's hulls (the union of both intervals) meet on every
    element, so a sweep over sorted hull starts on the element with the
    fewest meeting pairs finds every match, and each gets the scalar overlap
    and ``Boundary.admits``.  A missing panel element raises what the scalar
    rule raises on its first failing pair.
    """
    specimens = _canonical(specimens)
    ids = [s.id for s in specimens]
    if len(set(ids)) != len(ids):
        raise ValueError("specimen ids must be unique within a grouping run")
    n = len(specimens)
    around: list[list[int]] = [[] for _ in range(n)]
    if n < 2:
        return ids, around
    for i, s in enumerate(specimens):
        if any(e not in s.series for e in criterion.elements):
            # pairs run (0, 1), (0, 2), ...: the first to fail holds 0 and i
            match_specimens(specimens[0], specimens[max(i, 1)], criterion)
    panel = []
    for element in criterion.elements:
        bias = criterion.bias_for(element)
        series = [s.series[element] for s in specimens]
        first_lo, first_hi = zip(*(series_interval(s, criterion.k, bias) for s in series))
        lo, hi = zip(*(series_interval(s, criterion.k) for s in series))
        hull_lo, hull_hi = list(map(min, first_lo, lo)), list(map(max, first_hi, hi))
        order = sorted(range(n), key=hull_lo.__getitem__)
        starts = [hull_lo[i] for i in order]
        # the sweep from order[p] meets the hulls of order[p + 1 : stops[p]]
        stops = [bisect_right(starts, hull_hi[i]) for i in order]
        panel.append((sum(stops) - n * (n + 1) // 2, order, stops, (first_lo, first_hi, lo, hi)))
    (_, order, stops, swept), *others = sorted(panel, key=lambda column: column[0])
    # candidates' hulls meet on the swept element, so test the others first;
    # max and min are written out, as a builtin call per test shows in time
    checks = [column[3] for column in others] + [swept]
    admits = criterion.boundary.admits
    for p, i in enumerate(order):
        for j in order[p + 1 : stops[p]]:
            a, b = (i, j) if i < j else (j, i)
            for first_lo, first_hi, lo, hi in checks:
                low, high = first_lo[a], first_hi[a]
                if not admits(low if low > lo[b] else lo[b], high if high < hi[b] else hi[b]):
                    break
            else:
                around[a].append(b)
                around[b].append(a)
    for near in around:
        near.sort()
    return ids, around
