"""Core domain types for comparative bullet lead analysis.

Concentrations are plain ppm throughout; there is no unit-conversion
layer.  Every type here is an immutable value object, safe to share
between threads.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

from .errors import DomainError


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


@dataclass(frozen=True)
class ElementSeries:
    """Summary of one element's measurements on one specimen.

    ``se`` is the standard error of the mean.  ``df`` is ``n - 1`` for
    replicate-based series and ``None`` for the single-observation
    counting-statistics case, which has no traditional degrees of
    freedom; tests that need df must refuse such series rather than
    invent them.
    """

    element: Element
    mean: float
    se: float
    df: Optional[int] = None
    n: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.se)):
            raise DomainError(f"mean and se must be finite, got {self.mean} and {self.se}")
        if self.mean <= 0:
            raise ValueError(f"mean must be > 0, got {self.mean}")
        if self.se < 0:
            raise ValueError(f"se must be >= 0, got {self.se}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.df is not None and self.df != self.n - 1:
            raise ValueError(f"df must be n-1 or None, got df={self.df} n={self.n}")


def series_interval(
    s: ElementSeries, k: float, bias: Optional[BiasCorrection] = None
) -> tuple[float, float]:
    """Return the ``mean +/- k*se`` interval of a series, in ppm.

    The interval is symmetric about the mean with width exactly
    ``2*k*se``.  With a bias range ``[c_lo, c_hi]`` it is the union of
    the corrected intervals ``(1+c) * (mean +/- k*se)`` over the range:
    each endpoint moves monotonically with ``c``, so the union is the
    hull of the intervals corrected by ``c_lo`` and by ``c_hi``.
    """
    if not math.isfinite(k):
        raise DomainError(f"k must be finite, got {k}")
    if k <= 0:
        raise ValueError(f"k must be > 0, got {k}")
    half = k * s.se
    lo, hi = s.mean - half, s.mean + half
    if bias is None:
        return (lo, hi)
    # hi > 0 is highest at c_hi; a lower end below zero is lowest there too
    c_low = bias.c_lo if lo >= 0 else bias.c_hi
    return ((1.0 + c_low) * lo, (1.0 + bias.c_hi) * hi)


@dataclass(frozen=True)
class Specimen:
    """A fragment, bullet or bullet section with its per-element series.

    ``location`` is set when every underlying row shares one labeled
    radial location (it drives location-based selection, e.g. comparing
    outer against middle sections); it is ``None`` for whole objects
    and mixed/unlabeled data.
    """

    id: str
    kind: Kind
    lot: Optional[str] = None
    series: Mapping[Element, ElementSeries] = field(default_factory=dict)
    location: Optional[Location] = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("specimen id must be nonempty")
        for element, s in self.series.items():
            if s.element is not element:
                raise ValueError(
                    f"series keyed {element.value} carries element {s.element.value}"
                )
        object.__setattr__(self, "series", MappingProxyType(dict(self.series)))


@dataclass(frozen=True)
class BiasCorrection:
    """A relative correction range ``[c_lo, c_hi]`` for one element.

    A correction ``c`` rescales a series by ``(1 + c)``; the range
    expresses that the true correction is only known to an interval.
    """

    element: Element
    c_lo: float
    c_hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c_lo) and math.isfinite(self.c_hi)):
            raise DomainError(f"corrections must be finite, got [{self.c_lo}, {self.c_hi}]")
        if self.c_lo > self.c_hi:
            raise ValueError(f"c_lo {self.c_lo} > c_hi {self.c_hi}")
        if self.c_lo <= -1:
            raise ValueError("corrections must stay > -1")


#: Default corrections: antimony measurements read low by 2% to 5.4%
#: against certified standards; silver by a flat 5.5%.
DEFAULT_BIAS: Mapping[Element, BiasCorrection] = MappingProxyType(
    {
        Element.SB: BiasCorrection(Element.SB, 0.02, 0.054),
        Element.AG: BiasCorrection(Element.AG, 0.055, 0.055),
    }
)


@dataclass(frozen=True)
class MatchCriterion:
    """A configured indistinguishability rule.

    Two specimens match when, for every element of the panel, their
    ``mean +/- k*se`` intervals intersect.  ``closed`` boundary counts
    exactly touching intervals as a match; ``open`` does not.  When a
    bias table is present, the corrections are applied to the first
    (questioned) specimen of a comparison.
    """

    k: float
    elements: tuple[Element, ...]
    bias: Optional[Mapping[Element, BiasCorrection]] = None
    boundary: Boundary = Boundary.CLOSED

    def __post_init__(self) -> None:
        if not math.isfinite(self.k):
            raise DomainError(f"k must be finite, got {self.k}")
        if self.k <= 0:
            raise ValueError(f"k must be > 0, got {self.k}")
        if not self.elements:
            raise ValueError("element panel must be nonempty")
        ordered = tuple(sorted(set(self.elements), key=lambda e: e.value))
        object.__setattr__(self, "elements", ordered)
        if self.bias is not None:
            for element, corr in self.bias.items():
                if corr.element is not element:
                    raise ValueError(
                        f"bias keyed {element.value} is for {corr.element.value}"
                    )
            object.__setattr__(self, "bias", MappingProxyType(dict(self.bias)))

    def bias_for(self, element: Element) -> Optional[BiasCorrection]:
        if self.bias is None:
            return None
        return self.bias.get(element)


PRESET_NAMES = ("guinn4", "nrc2")


def criterion_preset(
    name: str,
    elements: tuple[Element, ...] | None = None,
    bias: Mapping[Element, BiasCorrection] | None = None,
) -> MatchCriterion:
    """Build one of the named criterion presets.

    ``guinn4``: +/- 4 standard errors, no bias correction unless one is
    given, closed boundary.  ``nrc2``: +/- 2 standard errors, bias
    correction on (defaults to :data:`DEFAULT_BIAS`), closed boundary.
    The panel is configurable and defaults to silver/antimony when not
    given; an empty panel is refused.
    """
    panel = (Element.SB, Element.AG) if elements is None else elements
    if name == "guinn4":
        return MatchCriterion(k=4.0, elements=panel, bias=bias)
    if name == "nrc2":
        return MatchCriterion(k=2.0, elements=panel, bias=bias or DEFAULT_BIAS)
    raise ValueError(f"unknown preset {name!r} (have: {', '.join(PRESET_NAMES)})")
