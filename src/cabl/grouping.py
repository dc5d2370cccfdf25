"""Partitioning specimens into compositional groups.

The pairwise match relation is not transitive (intervals can chain), so
two grouping modes exist: connected components of the match graph,
which reproduces the published two-group classification, and maximal
cliques, which surface the chaining artifacts.  Every output is
deterministically ordered.  Every nontransitive triple (a matched to
b, b matched to c, a unmatched to c) is counted exactly, and the first
of them, up to a caller's limit, are listed as witnesses.

The match graph is ``matching.match_graph``'s, which holds the pair
rule, orders the vertices by id, decides each pair once and gives each
specimen's sorted neighbour list.  Every step reads those lists: the
components and witnesses walk them, the cliques and the triple count
build their sets and bitmasks from them, and the within-lot rate counts
edges.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import islice
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from .matching import match_graph
from .model import MatchCriterion, Specimen

MODES = ("connected_components", "maximal_cliques")


class GroupingResult(NamedTuple):
    """Groups, the match adjacency, and non-transitivity witnesses.

    In ``connected_components`` mode the groups partition the specimen
    set; in ``maximal_cliques`` mode they may overlap, and that overlap
    is itself informative.  ``nontransitive_total`` counts every
    nontransitive triple; ``nontransitive_triples`` lists the first of
    them in (a, b, c) order, as many as ``group``'s ``witnesses`` asked.
    """

    groups: tuple[tuple[str, ...], ...]
    adjacency: Mapping[str, tuple[str, ...]]
    mode: str
    nontransitive_triples: tuple[tuple[str, str, str], ...]
    nontransitive_total: int

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "groups": self.groups,
            "adjacency": self.adjacency,
            "nontransitive_triples": self.nontransitive_triples,
            "nontransitive_triples_total": self.nontransitive_total,
        }


def _connected_components(around: list[list[int]]) -> list[list[int]]:
    """Breadth-first search from each vertex not yet reached."""
    seen = bytearray(len(around))
    components = []
    for start in range(len(around)):
        if seen[start]:
            continue
        seen[start] = 1
        component = [start]
        for node in component:
            for near in around[node]:
                if not seen[near]:
                    seen[near] = 1
                    component.append(near)
        components.append(component)
    return components


def _maximal_cliques(around: list[list[int]]) -> list[set[int]]:
    """Bron–Kerbosch with the pivot of largest degree, on an explicit stack.

    A frame is ``[r, p, x, branches]``: the clique so far, its candidates,
    its exclusions, and the branch vertices left, popped in sorted order.
    A frame leaves the stack as its last branch opens, so a run of single
    branches, as down one large clique, holds one frame at a time where
    the recursion held one call a member.
    """
    adjacency = list(map(set, around))
    cliques: list[set[int]] = []
    frames: list[list] = []
    degree = list(map(len, around))

    def enter(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            cliques.append(r)
            return
        pivot = max(p | x, key=degree.__getitem__)
        branches = sorted(p - adjacency[pivot], reverse=True)
        if branches:
            frames.append([r, p, x, branches])

    enter(set(), set(range(len(around))), set())
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


_BIT = (1).__lshift__


def _nontransitive(
    ids: list[str], around: list[list[int]], limit: Optional[int]
) -> tuple[int, tuple[tuple[str, str, str], ...]]:
    """The number of nontransitive triples and the first ``limit`` of them
    (all of them when ``limit`` is None).

    A triple is a wedge a - b - c around a middle b whose ends a < c do not
    match, listed by a, then b, then c.  Each b is the middle of
    C(deg b, 2) wedges, and the closed ones, whose ends match, are the
    common neighbours of each edge, so the count is their difference
    (Chiba & Nishizeki, *Arboricity and subgraph listing algorithms*,
    1985).  The common neighbours are read off neighbour bitmasks, bit j
    of ``masks[i]`` set when i and j match, one n-bit AND an edge; the n
    masks take up to n^2/8 bytes.
    """
    masks = [sum(map(_BIT, ends)) for ends in around]
    wedges = sum(len(ends) * (len(ends) - 1) // 2 for ends in around)
    closed = 0
    for u, ends in enumerate(around):
        below = map(masks.__getitem__, ends[: bisect_left(ends, u)])
        closed += sum(map(int.bit_count, map(masks[u].__and__, below)))
    total = wedges - closed
    room = total if limit is None else min(limit, total)
    return total, tuple(islice(_witnesses(ids, around), room))


def _witnesses(ids: list[str], around: list[list[int]]) -> Iterator[tuple]:
    """Every nontransitive triple in (a, b, c) order: for each a and each of
    its neighbours b, the neighbours c of b above a that a does not match."""
    for a, ends in enumerate(around):
        near, first = set(ends), ids[a]
        for b in ends:
            beyond, middle = around[b], ids[b]
            for c in beyond[bisect_right(beyond, a) :]:
                if c not in near:
                    yield first, middle, ids[c]


def group(
    specimens: Iterable[Specimen],
    criterion: MatchCriterion,
    mode: str = "connected_components",
    witnesses: Optional[int] = None,
) -> GroupingResult:
    """Group specimens by the pairwise match relation.

    Groups are ordered by their smallest member id and each group's
    members are sorted, so results are independent of input order.  Every
    nontransitive triple is counted; the first ``witnesses`` of them are
    listed, or all of them when ``witnesses`` is None.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if witnesses is not None and (type(witnesses) is not int or witnesses < 0):
        raise ValueError(f"witnesses must be None or an integer >= 0, got {witnesses!r}")
    ids, around = match_graph(specimens, criterion)
    if mode == "connected_components":
        raw_groups = _connected_components(around)
    else:
        raw_groups = _maximal_cliques(around)
    # index order is id order, so sorted indices name sorted ids
    groups = tuple(sorted(tuple(ids[i] for i in sorted(g)) for g in raw_groups))
    total, triples = _nontransitive(ids, around, witnesses)
    return GroupingResult(
        groups=groups,
        adjacency={sid: tuple(map(ids.__getitem__, ends)) for sid, ends in zip(ids, around)},
        mode=mode,
        nontransitive_triples=triples,
        nontransitive_total=total,
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
