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
criterion's (``criterion.bias_for``), not the pair's.  The two all-pairs
engines build each element's interval hulls once per specimen, in
``_hull_sweeps``: a specimen's hull spans the intervals it takes as a
first and as a second side, so two specimens' intervals can meet only
where their hulls do.  :func:`match_table` reports every pair, for
``match``: it runs ``match_specimens`` on each pair whose hulls meet on
some panel element, and gives every other pair no overlap, which is
exact, as each interval lies inside its hull.  :func:`match_graph`
builds ``group``'s match graph, each specimen's sorted neighbour list,
from the pairs whose hulls meet on the element where fewest do, with
the same ``series_interval`` endpoints and ``Boundary.admits`` test.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import chain, repeat
from typing import Iterable, NamedTuple, Optional

from .errors import DomainError, IncompletePanelError
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


def _hull_sweeps(specimens: list[Specimen], criterion: MatchCriterion) -> list[tuple]:
    """Each panel element's ``(meeting, order, stops, columns)``, for two or
    more specimens in canonical order.

    ``columns`` are ``(first_lo, first_hi, lo, hi)``, each specimen's
    interval as the first (corrected) side and as the second side, from
    the ``series_interval`` calls ``match_specimens`` makes.  The first
    specimen is never a second side nor the last a first, so those two
    intervals are not built and each column holds the other one there.
    A specimen's hull spans its two intervals; with the hulls sorted by
    their lower end, the one at ``order[p]`` meets those at
    ``order[p + 1 : stops[p]]`` and no other above it, and ``meeting``
    counts the pairs whose hulls meet.  Where an interval cannot be
    built, a missing panel element or an endpoint beyond the float range,
    this raises what ``match_specimens`` raises on the first failing pair.
    """
    k, n = criterion.k, len(specimens)
    sweeps = []
    for element in criterion.elements:
        try:
            series = [s.series[element] for s in specimens]
            firsts = [series_interval(x, k, criterion.bias_for(element)) for x in series[:-1]]
            seconds = [series_interval(x, k) for x in series[1:]]
        except (KeyError, DomainError):
            # the scalar rule meets every specimen in the pairs (0, j), and
            # each later first side in (i, i + 1): run it there to its error
            first = specimens[0]
            for a, b in chain(zip(repeat(first), specimens[1:]), zip(specimens[1:], specimens[2:])):
                match_specimens(a, b, criterion)
            raise
        columns = (*zip(*firsts, seconds[-1]), *zip(firsts[0], *seconds))
        first_lo, first_hi, lo, hi = columns
        hull_lo, hull_hi = list(map(min, first_lo, lo)), list(map(max, first_hi, hi))
        order = sorted(range(n), key=hull_lo.__getitem__)
        starts = [hull_lo[i] for i in order]
        stops = [bisect_right(starts, hull_hi[i]) for i in order]
        sweeps.append((sum(stops) - n * (n + 1) // 2, order, stops, columns))
    return sweeps


def match_table(
    specimens: Iterable[Specimen], criterion: MatchCriterion
) -> tuple[list[str], bytearray, array]:
    """Every pair's verdict: ``(ids, masks, bounds)``.

    ``ids`` are the specimens' ids in canonical order, and ``masks`` holds
    one byte a pair ``i < j`` of them, row by row: (0, 1), (0, 2), ...,
    (1, 2), ....  Bit ``e`` of a byte is set when panel element ``e``
    overlaps (a panel has at most seven elements), and ``bounds`` holds
    the ``lo, hi`` of every overlap, in pair and panel order.  They are
    what ``match_specimens`` gives on each pair.  It runs on each pair
    whose hulls meet on some panel element; every other pair keeps byte
    0, as each interval lies inside its specimen's hull.  A missing panel
    element or an endpoint beyond the float range raises what the scalar
    rule raises on its first failing pair.
    """
    specimens = _canonical(specimens)
    ids = [s.id for s in specimens]
    n = len(specimens)
    masks, bounds = bytearray(n * (n - 1) // 2), array("d")
    if n < 2:
        return ids, masks, bounds
    # the pair (i, j), i < j, is byte row[i] + j
    row = [i * (2 * n - i - 3) // 2 - 1 for i in range(n)]
    flagged = bytearray(len(masks))
    for _, order, stops, _ in _hull_sweeps(specimens, criterion):
        for p, i in enumerate(order):
            for j in order[p + 1 : stops[p]]:
                flagged[row[i] + j if i < j else row[j] + i] = 1
    add_bounds = bounds.extend
    for i, a in enumerate(specimens[:-1]):
        start, end = row[i] + i + 1, row[i] + n
        at = flagged.find(1, start, end)
        while at >= 0:
            result = match_specimens(a, specimens[at - row[i]], criterion)
            mask = 0
            for bit, overlap in enumerate(result.overlaps):
                if overlap is not None:
                    mask |= 1 << bit
                    add_bounds(overlap)
            masks[at] = mask
            at = flagged.find(1, at + 1, end)
    return ids, masks, bounds


def match_graph(
    specimens: Iterable[Specimen], criterion: MatchCriterion
) -> tuple[list[str], list[list[int]]]:
    """The sorted ids of ``specimens`` and each one's sorted neighbour indices.

    Ids must be unique.  Index ``i`` names ``ids[i]`` and ids are in
    canonical order, so specimen ``i`` is the first (corrected) side of
    each pair ``i < j``.  A matching pair's hulls (see ``_hull_sweeps``)
    meet on every element, so the pairs whose hulls meet on the element
    where fewest do hold every match, and each gets the scalar overlap
    and ``Boundary.admits``.  A missing panel element or an endpoint
    beyond the float range raises what the scalar rule raises on its
    first failing pair.
    """
    specimens = _canonical(specimens)
    ids = [s.id for s in specimens]
    if len(set(ids)) != len(ids):
        raise ValueError("specimen ids must be unique within a grouping run")
    n = len(specimens)
    around: list[list[int]] = [[] for _ in range(n)]
    if n < 2:
        return ids, around
    sweeps = sorted(_hull_sweeps(specimens, criterion), key=lambda sweep: sweep[0])
    (_, order, stops, swept), *others = sweeps
    # candidates' hulls meet on the swept element, so test the others first;
    # max and min are written out, as a builtin call per test shows in time
    checks = [sweep[3] for sweep in others] + [swept]
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
