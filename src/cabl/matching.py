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
engines start from one table, ``_table``: it sorts the specimens, refuses
duplicate ids, and builds every specimen's interval as a first and as a
second side (one interval where the element has no bias range), so an
interval that cannot be built is refused wherever its specimen's id
sorts, and a lone specimen's too.  A specimen's hull spans its two
intervals, so two specimens' intervals can meet only where their hulls
do.  :func:`match_table` reports every pair, for ``match``: bit 7 of a
pair's verdict byte marks it a candidate where the hulls meet on some
panel element, it runs ``match_specimens`` on each candidate, and every
other pair has no overlap, which is exact, as each interval lies inside
its hull.
:func:`match_graph` builds ``group``'s match graph, each specimen's
sorted neighbour list, from the pairs whose hulls meet on the element
where fewest do, with the same ``series_interval`` endpoints and
``Boundary.admits`` test.
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


def _table(specimens: Iterable[Specimen], criterion: MatchCriterion) -> tuple:
    """``(ids, specimens, sweeps)``: the specimens in canonical order, their
    unique ids, and for one or more, each panel element's ``(order, stops,
    columns)``.

    ``columns`` are ``(first_lo, first_hi, lo, hi)``, every specimen's
    interval as the first (corrected) side and as the second, from the
    ``series_interval`` calls ``match_specimens`` makes; without a bias
    range for the element, the plain interval serves both.  With the
    hulls of each specimen's two intervals sorted by their lower end, the
    one at ``order[p]`` meets those at ``order[p + 1 : stops[p]]`` and no
    other above it.  An interval that cannot be built, for a missing
    panel element or an endpoint beyond the float range, raises what
    ``match_specimens`` raises on the first failing pair (a lone
    specimen's pair has it on both sides), or its own error where no
    pair fails (as for the last specimen's corrected one).
    """
    specimens = sorted(specimens, key=lambda s: s.id)
    ids = [s.id for s in specimens]
    if len(set(ids)) != len(ids):
        raise ValueError("specimen ids must be unique")
    k, n = criterion.k, len(specimens)
    sweeps = []
    for element in criterion.elements if n else ():
        bias = criterion.bias_for(element)
        try:
            series = [s.series[element] for s in specimens]
            lo, hi = zip(*[series_interval(x, k) for x in series])
            first_lo, first_hi = (lo, hi) if bias is None else zip(
                *[series_interval(x, k, bias) for x in series]
            )
        except (KeyError, DomainError):
            # the scalar rule meets every specimen in the pairs (0, j), and
            # each later first side in (i, i + 1): run it there to its error;
            # a lone specimen meets it as both sides of its pair with itself
            first = specimens[0]
            pairs = chain(zip(repeat(first), specimens[1:]), zip(specimens[1:], specimens[2:]))
            for a, b in pairs if n > 1 else [(first, first)]:
                match_specimens(a, b, criterion)
            raise
        hull_lo, hull_hi = list(map(min, first_lo, lo)), list(map(max, first_hi, hi))
        order = sorted(range(n), key=hull_lo.__getitem__)
        starts = [hull_lo[i] for i in order]
        stops = [bisect_right(starts, hull_hi[i]) for i in order]
        sweeps.append((order, stops, (first_lo, first_hi, lo, hi)))
    return ids, specimens, sweeps


def match_table(
    specimens: Iterable[Specimen], criterion: MatchCriterion
) -> tuple[list[str], bytearray, array]:
    """Every pair's verdict: ``(ids, masks, bounds)``.

    ``ids`` are the specimens' ids in canonical order, and must be
    unique.  ``masks`` holds one byte a pair ``i < j`` of them, row by
    row: (0, 1), (0, 2), ..., (1, 2), ....  Bit ``e`` of a byte is set
    when panel element ``e`` overlaps (a panel has at most seven
    elements), and ``bounds`` holds the ``lo, hi`` of every overlap, in
    pair and panel order.  They are what ``match_specimens`` gives on
    each pair.  Bit 7 first marks each pair whose hulls (see ``_table``)
    meet on some panel element, and ``match_specimens`` runs on those
    alone; every other pair keeps byte 0, as each interval lies inside
    its specimen's hull.  An interval that cannot be built, for a missing
    panel element or an endpoint beyond the float range, is refused as
    ``_table`` says.
    """
    ids, specimens, sweeps = _table(specimens, criterion)
    n = len(ids)
    masks, bounds = bytearray(n * (n - 1) // 2), array("d")
    # the pair (i, j), i < j, is byte row[i] + j
    row = [i * (2 * n - i - 3) // 2 - 1 for i in range(n)]
    for order, stops, _ in sweeps:
        for p, i in enumerate(order):
            for j in order[p + 1 : stops[p]]:
                masks[row[i] + j if i < j else row[j] + i] = 0x80
    add_bounds = bounds.extend
    for i, a in enumerate(specimens[:-1]):
        start, end = row[i] + i + 1, row[i] + n
        at = masks.find(0x80, start, end)
        while at >= 0:
            result = match_specimens(a, specimens[at - row[i]], criterion)
            mask = 0
            for bit, overlap in enumerate(result.overlaps):
                if overlap is not None:
                    mask |= 1 << bit
                    add_bounds(overlap)
            masks[at] = mask
            at = masks.find(0x80, at + 1, end)
    return ids, masks, bounds


def match_graph(
    specimens: Iterable[Specimen], criterion: MatchCriterion
) -> tuple[list[str], list[list[int]]]:
    """The sorted ids of ``specimens`` and each one's sorted neighbour indices.

    Ids must be unique.  Index ``i`` names ``ids[i]`` and ids are in
    canonical order, so specimen ``i`` is the first (corrected) side of
    each pair ``i < j``.  A matching pair's hulls (see ``_table``) meet on
    every element, so the pairs whose hulls meet on the element where
    fewest do hold every match, and each gets the scalar overlap and
    ``Boundary.admits``.  An interval that cannot be built is refused as
    ``_table`` says.
    """
    ids, _, sweeps = _table(specimens, criterion)
    around: list[list[int]] = [[] for _ in ids]
    if not sweeps:
        return ids, around
    sweeps.sort(key=lambda sweep: sum(sweep[1]))
    (order, stops, swept), *others = sweeps
    # candidates' hulls meet on the swept element, so test the others first;
    # max and min are written out, as a builtin call per test shows in time
    checks = [sweep[2] for sweep in others] + [swept]
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
