"""Partitioning specimens into compositional groups.

The pairwise match relation is not transitive (intervals can chain), so
two grouping modes exist: connected components of the match graph,
which reproduces the published two-group classification, and maximal
cliques, which surface the chaining artifacts.  Every output is
deterministically ordered, and each nontransitive triple (a matched to
b, b matched to c, a unmatched to c) is reported as a witness.

The match graph is computed as one boolean array over the specimens in
sorted-id order from the interval endpoints ``match_specimens`` uses, so
each pair gets its verdict by construction; under a bias table the
smaller id of each pair is the corrected side.
Witnesses are found by walking the neighbours of each middle specimen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .matching import match_specimens
from .model import MatchCriterion, Specimen, series_interval

MODES = ("connected_components", "maximal_cliques")


@dataclass(frozen=True)
class GroupingResult:
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


# Rows of the match matrix computed at once; bounds the float temporaries
# to O(_BLOCK_ROWS * n) whatever the number of specimens.
_BLOCK_ROWS = 256


def _match_matrix(specimens: Sequence[Specimen], criterion: MatchCriterion) -> np.ndarray:
    """Symmetric n x n boolean matrix of ``match_specimens`` outcomes.

    ``specimens`` must be in sorted-id order: for ``i < j`` specimen ``i``
    is the first (bias-corrected) side, as in canonical pair order.  The
    endpoints come from the ``series_interval`` calls ``match_specimens``
    makes, biased for the first side and plain for the other, once per
    specimen and element; only the overlap test runs on arrays, through
    the same ``Boundary.admits``, so every entry equals the scalar
    verdict.  A missing panel element raises the error the scalar rule
    raises on its first failing pair.
    """
    n = len(specimens)
    upper = np.zeros((n, n), dtype=bool)
    if n < 2:
        return upper
    for i, s in enumerate(specimens):
        if any(e not in s.series for e in criterion.elements):
            # pairs run (0, 1), (0, 2), ...: the first to fail holds 0 and i
            match_specimens(specimens[0], specimens[max(i, 1)], criterion)
    panel = []
    for element in criterion.elements:
        bias = criterion.bias_for(element)
        series = [s.series[element] for s in specimens]
        first_lo, first_hi = np.array([series_interval(s, criterion.k, bias) for s in series]).T
        lo, hi = np.array([series_interval(s, criterion.k) for s in series]).T
        panel.append((first_lo, first_hi, lo, hi))
    for r0 in range(0, n - 1, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, n)
        block = np.ones((r1 - r0, n - r0), dtype=bool)
        for first_lo, first_hi, lo, hi in panel:
            low = np.maximum(first_lo[r0:r1, None], lo[None, r0:])
            high = np.minimum(first_hi[r0:r1, None], hi[None, r0:])
            block &= criterion.boundary.admits(low, high)
        # row i is the corrected side only against j > i
        upper[r0:r1, r0:] = np.triu(block, 1)
    return upper | upper.T


def _match_adjacency(ids: list[str], matrix: np.ndarray) -> dict[str, set[str]]:
    return {sid: {ids[j] for j in row.nonzero()[0].tolist()} for sid, row in zip(ids, matrix)}


def _connected_components(adjacency: dict[str, set[str]]) -> list[set[str]]:
    seen: set[str] = set()
    components = []
    for start in sorted(adjacency):
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


def _maximal_cliques(adjacency: dict[str, set[str]]) -> list[set[str]]:
    cliques: list[set[str]] = []

    def extend(r: set[str], p: set[str], x: set[str]) -> None:
        if not p and not x:
            cliques.append(set(r))
            return
        pivot = max(p | x, key=lambda v: len(adjacency[v]))
        for v in sorted(p - adjacency[pivot]):
            extend(r | {v}, p & adjacency[v], x & adjacency[v])
            p = p - {v}
            x = x | {v}

    extend(set(), set(adjacency), set())
    return cliques


def _nontransitive_triples(
    ids: list[str], matrix: np.ndarray
) -> tuple[tuple[str, str, str], ...]:
    # wedges a - b - c around each middle b whose ends a < c do not match
    wedges = []
    for b, row in enumerate(matrix):
        around = row.nonzero()[0]
        ends = np.triu(~matrix[np.ix_(around, around)], 1).nonzero()
        if len(ends[0]):
            a, c = around[ends[0]], around[ends[1]]
            wedges.append((a, np.full_like(a, b), c))
    if not wedges:
        return ()
    a, b, c = (np.concatenate(column) for column in zip(*wedges))
    # index order is id order, so this is the sorted order of the id triples
    order = np.lexsort((c, b, a))
    names = np.array(ids, dtype=object)
    return tuple(zip(names[a[order]], names[b[order]], names[c[order]]))


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
    matrix = _match_matrix(ordered, criterion)
    adjacency = _match_adjacency(ids, matrix)
    if mode == "connected_components":
        raw_groups = _connected_components(adjacency)
    else:
        raw_groups = _maximal_cliques(adjacency)
    groups = tuple(sorted(tuple(sorted(g)) for g in raw_groups))
    return GroupingResult(
        groups=groups,
        adjacency={sid: tuple(sorted(adjacency[sid])) for sid in ids},
        mode=mode,
        nontransitive_triples=_nontransitive_triples(ids, matrix),
    )


@dataclass(frozen=True)
class MatchRate:
    """Within-lot pairwise match summary."""

    pairs_total: int
    pairs_matched: int

    @property
    def rate(self) -> float:
        return self.pairs_matched / self.pairs_total if self.pairs_total else 0.0


def within_box_match_rate(
    specimens: Iterable[Specimen], criterion: MatchCriterion
) -> MatchRate:
    """Fraction of same-lot unordered pairs that match the criterion.

    Specimens without a lot never share one and contribute no pairs.
    """
    spec_list = sorted(specimens, key=lambda s: s.id)
    if not spec_list:
        raise ValueError("need at least one specimen")
    # lots in order of their smallest id: the first to hold an incomplete
    # panel also holds the first failing same-lot pair in id order
    lots: dict[str, list[Specimen]] = {}
    for s in spec_list:
        if s.lot is not None:
            lots.setdefault(s.lot, []).append(s)
    total = 0
    matched = 0
    for members in lots.values():
        total += len(members) * (len(members) - 1) // 2
        matched += int(np.count_nonzero(_match_matrix(members, criterion))) // 2
    return MatchRate(pairs_total=total, pairs_matched=matched)
