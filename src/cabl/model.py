"""Core domain types for comparative bullet lead analysis.

Concentrations are plain ppm throughout; there is no unit-conversion
layer.  Every type here is an immutable value object, safe to share
between threads: one ``typing.NamedTuple`` class.  A type with checks
is decorated with :func:`checked` (defined in ``errors``, so modules
with checked types of their own need not load this one) and defines
``_checked``, which runs on every value built, whether by the
constructor, ``_make``, ``_replace``, copying or unpickling.
"""

from __future__ import annotations

import enum
import math
import operator
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .errors import DomainError, checked, require_finite


class _Token(enum.Enum):
    """A vocabulary enum, read from and printed as its text value.

    ``Element("Sb")`` is the Sb member; an unknown text raises
    ``ValueError`` naming the enum and listing the valid values.
    """

    # members are singletons, so identity hashing agrees with equality and
    # runs in C (``Enum.__hash__`` is Python); no token set is iterated unsorted
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value

    @classmethod
    def _missing_(cls, value: object):
        have = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown {cls.__name__.lower()} {value!r} (have: {have})")


class Element(_Token):
    """The seven-element panel used for bullet lead comparisons."""

    SB = "Sb"
    AG = "Ag"
    AS = "As"
    CU = "Cu"
    BI = "Bi"
    SN = "Sn"
    CD = "Cd"


class Location(_Token):
    """Radial sampling location of a measurement within a bullet."""

    OUTER = "outer"
    MIDDLE = "middle"
    INNER = "inner"
    UNLABELED = "unlabeled"


class Basis(_Token):
    """How a measurement's uncertainty arises."""

    POISSON_SINGLE = "poisson_single"
    REPLICATE_MEMBER = "replicate_member"


class Kind(_Token):
    """What physical object a specimen is."""

    FRAGMENT = "fragment"
    BULLET = "bullet"
    BULLET_SECTION = "bullet_section"


class Boundary(_Token):
    """Whether touching intervals count as overlapping."""

    CLOSED = "closed"
    OPEN = "open"

    @property
    def admits(self):
        """The test ``admits(lo, hi)``: whether an overlap from ``lo`` to
        ``hi`` counts as a match.

        ``lo <= hi`` when closed, so touching intervals match; ``lo < hi``
        when open.  It is a builtin comparison, so a caller that tests
        many pairs can bind it once.
        """
        return operator.le if self is Boundary.CLOSED else operator.lt


@checked
class ElementSeries(NamedTuple):
    """Summary of one element's measurements on one specimen.

    ``se`` is the standard error of the mean.  ``df`` is ``n - 1`` for
    replicate-based series and ``None`` for the single-observation
    counting-statistics case, which has no traditional degrees of
    freedom; tests that need df must refuse such series rather than
    invent them.  The element is the key the series is stored under in
    :attr:`Specimen.series`.
    """

    mean: float
    se: float
    df: Optional[int] = None
    n: int = 1

    def _checked(self):
        mean, se, df, n = self
        if not (math.isfinite(mean) and math.isfinite(se)):
            raise DomainError(f"mean and se must be finite, got {mean} and {se}")
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        if se < 0:
            raise ValueError(f"se must be >= 0, got {se}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if df is not None and df != n - 1:
            raise ValueError(f"df must be n-1 or None, got df={df} n={n}")


def series_interval(
    s: ElementSeries, k: float, bias: Optional[BiasCorrection] = None
) -> tuple[float, float]:
    """Return the ``mean +/- k*se`` interval of a series, in ppm.

    The interval is symmetric about the mean with width exactly
    ``2*k*se``.  With a bias range ``[c_lo, c_hi]`` it is the union of
    the corrected intervals ``(1+c) * (mean +/- k*se)`` over the range:
    each endpoint moves monotonically with ``c``, so the union is the
    hull of the intervals corrected by ``c_lo`` and by ``c_hi``.  An
    endpoint beyond the float range raises ``DomainError``.
    """
    if not 0.0 < k < math.inf:  # one comparison on the path every pair takes
        require_finite(k=k)
        raise ValueError(f"k must be > 0, got {k}")
    half = k * s.se
    lo, hi = s.mean - half, s.mean + half
    if bias is not None:
        # hi > 0 is highest at c_hi; a lower end below zero is lowest there too
        c_low = bias.c_lo if lo >= 0 else bias.c_hi
        lo, hi = (1.0 + c_low) * lo, (1.0 + bias.c_hi) * hi
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(
            f"k={k!r} and se={s.se!r} put an interval endpoint beyond the float range"
        )
    return (lo, hi)


@checked
class Specimen(NamedTuple):
    """A fragment, bullet or bullet section with its per-element series.

    ``location`` is set when every underlying row shares one labeled
    radial location (it drives location-based selection, e.g. comparing
    outer against middle sections); it is ``None`` for whole objects
    and mixed/unlabeled data.  ``series`` is a read-only copy of the
    mapping given.
    """

    id: str
    kind: Kind
    lot: Optional[str] = None
    series: Mapping[Element, ElementSeries] = MappingProxyType({})
    location: Optional[Location] = None

    def _checked(self):
        id, kind, lot, series, location = self
        if not id:
            raise ValueError("specimen id must be nonempty")
        return id, kind, lot, MappingProxyType(dict(series)), location


@checked
class BiasCorrection(NamedTuple):
    """A relative correction range ``[c_lo, c_hi]`` for one element.

    A correction ``c`` rescales a series by ``(1 + c)``; the range
    expresses that the true correction is only known to an interval.
    The element is the key the correction is stored under in a bias
    table.
    """

    c_lo: float
    c_hi: float

    def _checked(self):
        c_lo, c_hi = self
        if not (math.isfinite(c_lo) and math.isfinite(c_hi)):
            raise DomainError(f"corrections must be finite, got [{c_lo}, {c_hi}]")
        if c_lo > c_hi:
            raise ValueError(f"c_lo {c_lo} > c_hi {c_hi}")
        if c_lo <= -1:
            raise ValueError("corrections must stay > -1")


#: Default corrections: antimony measurements read low by 2% to 5.4%
#: against certified standards; silver by a flat 5.5%.
DEFAULT_BIAS: Mapping[Element, BiasCorrection] = MappingProxyType(
    {
        Element.SB: BiasCorrection(0.02, 0.054),
        Element.AG: BiasCorrection(0.055, 0.055),
    }
)


@checked
class MatchCriterion(NamedTuple):
    """A configured indistinguishability rule.

    Two specimens match when, for every element of the panel, their
    ``mean +/- k*se`` intervals intersect.  ``closed`` boundary counts
    exactly touching intervals as a match; ``open`` does not.  When a
    bias table is present, the corrections are applied to the first
    (questioned) specimen of a comparison.  The panel is stored sorted
    by symbol without repeats, and a bias table as a read-only copy (an
    empty one as None, the same rule).
    """

    k: float
    elements: tuple[Element, ...]
    bias: Optional[Mapping[Element, BiasCorrection]] = None
    boundary: Boundary = Boundary.CLOSED

    def _checked(self):
        k, elements, bias, boundary = self
        require_finite(k=k)
        if k <= 0:
            raise ValueError(f"k must be > 0, got {k}")
        if not elements:
            raise ValueError("element panel must be nonempty")
        ordered = tuple(sorted(set(elements), key=lambda e: e.value))
        table = None if bias is None else MappingProxyType(dict(bias))
        return k, ordered, table or None, boundary

    def bias_for(self, element: Element) -> Optional[BiasCorrection]:
        if self.bias is None:
            return None
        return self.bias.get(element)


_PRESETS = {
    "guinn4": MatchCriterion(k=4.0, elements=(Element.SB, Element.AG)),
    "nrc2": MatchCriterion(k=2.0, elements=(Element.SB, Element.AG), bias=DEFAULT_BIAS),
}
PRESET_NAMES = tuple(_PRESETS)


def criterion_preset(name: str) -> MatchCriterion:
    """The named criterion preset, a fixed value.

    ``guinn4``: +/- 4 standard errors, no bias correction.  ``nrc2``:
    +/- 2 standard errors, bias correction by :data:`DEFAULT_BIAS`.  Both
    take the silver/antimony panel and a closed boundary.  A variant is
    the preset's ``_replace`` copy, checked as every criterion is:
    ``criterion_preset("nrc2")._replace(k=3.0)``.
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r} (have: {', '.join(PRESET_NAMES)})")
    return _PRESETS[name]
