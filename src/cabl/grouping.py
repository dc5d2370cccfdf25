"""Partitioning specimens into compositional groups.

The pairwise match relation is not transitive (intervals can chain), so
two grouping modes exist: connected components of the match graph,
which reproduces the published two-group classification, and maximal
cliques, which surface the chaining artifacts.  Every output is
deterministically ordered, and each nontransitive triple (a matched to
b, b matched to c, a unmatched to c) is reported as a witness.

The match graph is built as neighbour sets over the specimens in
sorted-id order by a sort-and-sweep over interval hulls, and each pair
the sweep meets gets ``match_specimens``' verdict from the same interval
endpoints; under a bias table the smaller id of each pair is the
corrected side.  That sweep decides each pair once: witnesses walk the
neighbours of each middle specimen, and the within-lot rate counts edges.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

from .matching import match_specimens
from .model import MatchCriterion, Specimen, series_interval

MODES = ("connected_components", "maximal_cliques")


class GroupingResult(NamedTuple):
    """Groups, the match adjacency, and non-transitivity witnesses.

    In ``connected_components`` mode the groups partition the specimen
    set; in ``maximal_cliques`` mode they may overlap, and that overlap
    is itself informative.
    """

    groups: tuple[tuple[str, ...], ...]
    adjacency: Mapping[str, tuple[str, ...]]
    mode: str
    nontransitive_triples: tuple[tuple[str, str, str], ...]

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "groups": self.groups,
            "adjacency": self.adjacency,
            "nontransitive_triples": self.nontransitive_triples,
        }


def _neighbours(specimens: Sequence[Specimen], criterion: MatchCriterion) -> list[set[int]]:
    """Neighbour index sets of the match graph over ``specimens``.

    ``specimens`` must be in sorted-id order: for ``i < j`` specimen ``i``
    is the first (bias-corrected) side, as in canonical pair order.  The
    endpoints come from the ``series_interval`` calls ``match_specimens``
    makes, biased for the first side and plain for the other, once per
    specimen and element.  A matching pair's hulls (the union of both
    intervals) meet on every element, so a sweep over sorted hull starts
    on the element with the fewest meeting pairs finds every match, and
    each gets the scalar overlap and ``Boundary.admits``.  A missing
    panel element raises what the scalar rule raises on its first
    failing pair.
    """
    n = len(specimens)
    neighbours: list[set[int]] = [set() for _ in range(n)]
    if n < 2:
        return neighbours
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
                neighbours[a].add(b)
                neighbours[b].add(a)
    return neighbours


def _connected_components(adjacency: list[set[int]]) -> list[set[int]]:
    seen: set[int] = set()
    components = []
    for start in range(len(adjacency)):
        if start in seen:
            continue
        stack = [start]
        component = set()
        while stack:
            node = stack.pop()
            if node in component:
                continue
            component.add(node)
            stack.extend(adjacency[node] - component)
        seen |= component
        components.append(component)
    return components


def _maximal_cliques(adjacency: list[set[int]]) -> list[set[int]]:
    """Bron–Kerbosch with the pivot of largest degree, on an explicit stack.

    A frame is ``[r, p, x, branches]``: the clique so far, its candidates,
    its exclusions, and the branch vertices left, popped in sorted order.
    A frame leaves the stack as its last branch opens, so a run of single
    branches, as down one large clique, holds one frame at a time where
    the recursion held one call a member.
    """
    cliques: list[set[int]] = []
    frames: list[list] = []

    def enter(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            cliques.append(r)
            return
        pivot = max(p | x, key=lambda v: len(adjacency[v]))
        branches = sorted(p - adjacency[pivot], reverse=True)
        if branches:
            frames.append([r, p, x, branches])

    enter(set(), set(range(len(adjacency))), set())
    while frames:
        frame = frames[-1]
        r, p, x, branches = frame
        v = branches.pop()
        if branches:
            frame[1], frame[2] = p - {v}, x | {v}
        else:
            frames.pop()
        enter(r | {v}, p & adjacency[v], x & adjacency[v])
    return cliques


def _nontransitive_triples(
    ids: list[str], adjacency: list[set[int]], around: list[list[int]]
) -> tuple[tuple[str, str, str], ...]:
    # wedges a - b - c around each middle b whose ends a < c do not match;
    # b rises and then c within each a's bucket, so the buckets are sorted
    buckets: list[list[tuple[str, str, str]]] = [[] for _ in ids]
    for b, ends in enumerate(around):
        middle = ids[b]
        for x, a in enumerate(ends):
            near, first = adjacency[a], ids[a]
            buckets[a] += [(first, middle, ids[c]) for c in ends[x + 1 :] if c not in near]
    return tuple(chain.from_iterable(buckets))


def group(
    specimens: Iterable[Specimen],
    criterion: MatchCriterion,
    mode: str = "connected_components",
) -> GroupingResult:
    """Group specimens by the pairwise match relation.

    Groups are ordered by their smallest member id and each group's
    members are sorted, so results are independent of input order.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    # canonical pair order (smaller id first) keeps biased criteria deterministic
    ordered = sorted(specimens, key=lambda s: s.id)
    ids = [s.id for s in ordered]
    if len(set(ids)) != len(ids):
        raise ValueError("specimen ids must be unique within a grouping run")
    adjacency = _neighbours(ordered, criterion)
    if mode == "connected_components":
        raw_groups = _connected_components(adjacency)
    else:
        raw_groups = _maximal_cliques(adjacency)
    # index order is id order, so sorted indices name sorted ids
    groups = tuple(sorted(tuple(ids[i] for i in sorted(g)) for g in raw_groups))
    around = [sorted(near) for near in adjacency]
    return GroupingResult(
        groups=groups,
        adjacency={sid: tuple(ids[j] for j in ends) for sid, ends in zip(ids, around)},
        mode=mode,
        nontransitive_triples=_nontransitive_triples(ids, adjacency, around),
    )


class MatchRate(NamedTuple):
    """Within-lot pairwise match summary."""

    pairs_total: int
    pairs_matched: int

    @property
    def rate(self) -> float:
        return self.pairs_matched / self.pairs_total if self.pairs_total else 0.0


def within_box_match_rate(specimens: Iterable[Specimen], grouping: GroupingResult) -> MatchRate:
    """Fraction of same-lot unordered pairs that match, read off the adjacency of
    ``grouping``, ``group``'s result over the same specimens: no pair is decided
    here.  Specimens without a lot contribute no pairs."""
    spec_list = list(specimens)
    if not spec_list:
        raise ValueError("need at least one specimen")
    if sorted(s.id for s in spec_list) != sorted(grouping.adjacency):
        raise ValueError("grouping must come from a group run over the same specimens")
    lots = {s.id: s.lot for s in spec_list if s.lot is not None}
    # each edge is listed at both ends; count it at its smaller id
    matched = sum(a < b and lots.get(b) == lots[a] for a in lots for b in grouping.adjacency[a])
    return MatchRate(sum(n * (n - 1) // 2 for n in Counter(lots.values()).values()), matched)
