"""Deciding whether specimens are analytically indistinguishable.

A per-element match means the two ``mean +/- k*se`` intervals
intersect; a specimen-level match conjoins that over the criterion's
element panel.  Bias-corrected matching asks whether any correction in
the stated range produces an overlap; because a correction rescales
both interval endpoints monotonically, the union of corrected intervals
is exactly the hull spanned by the range endpoints, so the hull test is
exact rather than an approximation.

:func:`match_specimens` reports one pair in detail; grouping asks for
every pair at once through ``_match_matrix``, which applies the same
arithmetic to whole arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

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
    if a.element is not b.element:
        raise ElementMismatchError(
            f"cannot compare {a.element.value} against {b.element.value}"
        )
    return _intervals_overlap(series_interval(a, k), series_interval(b, k), boundary) is not None


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


# Rows of the match matrix computed at once; bounds the float temporaries
# to O(_BLOCK_ROWS * n) whatever the number of specimens.
_BLOCK_ROWS = 256


def _match_matrix(specimens: Sequence[Specimen], criterion: MatchCriterion) -> np.ndarray:
    """Symmetric n x n boolean matrix of :func:`match_specimens` outcomes.

    ``specimens`` must be in sorted-id order: for ``i < j`` specimen ``i``
    is the first (bias-corrected) side, as in canonical pair order.  The
    interval arithmetic is that of :func:`series_interval` and
    :func:`_hull`, elementwise, so every entry equals the scalar verdict.
    A missing panel element raises the error the scalar rule raises on
    its first failing pair.
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
        mean = np.array([s.series[element].mean for s in specimens])
        half = criterion.k * np.array([s.series[element].se for s in specimens])
        lo, hi = mean - half, mean + half
        bias = criterion.bias_for(element)
        if bias is None:
            panel.append((lo, hi, lo, hi))
        else:
            panel.append(((1.0 + bias.c_lo) * lo, (1.0 + bias.c_hi) * hi, lo, hi))
    overlaps = np.less_equal if criterion.boundary is Boundary.CLOSED else np.less
    for r0 in range(0, n - 1, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, n)
        block = np.ones((r1 - r0, n - r0), dtype=bool)
        for first_lo, first_hi, lo, hi in panel:
            low = np.maximum(first_lo[r0:r1, None], lo[None, r0:])
            high = np.minimum(first_hi[r0:r1, None], hi[None, r0:])
            block &= overlaps(low, high)
        # row i is the corrected side only against j > i
        upper[r0:r1, r0:] = np.triu(block, 1)
    return upper | upper.T
