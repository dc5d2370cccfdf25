"""Core domain types for comparative bullet lead analysis.

Concentrations are plain ppm throughout; there is no unit-conversion
layer.  Every type here is an immutable value object, safe to share
between threads: a named tuple, whose constructor checks its fields
where the type has checks (see :class:`Checked`).
"""

from __future__ import annotations

import enum
import math
import operator
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .errors import DomainError


class Checked:
    """Base for a named tuple whose ``__new__`` checks its fields.

    ``_make``, and so ``_replace``, goes through the constructor, so a
    replaced field is checked as a constructed one is.  A checked type
    is ``class T(Checked, _TFields)`` with ``__slots__ = ()`` and a
    ``__new__`` that checks and then calls ``super().__new__``.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


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


class _SeriesFields(NamedTuple):
    mean: float
    se: float
    df: Optional[int] = None
    n: int = 1


class ElementSeries(Checked, _SeriesFields):
    """Summary of one element's measurements on one specimen.

    ``se`` is the standard error of the mean.  ``df`` is ``n - 1`` for
    replicate-based series and ``None`` for the single-observation
    counting-statistics case, which has no traditional degrees of
    freedom; tests that need df must refuse such series rather than
    invent them.  The element is the key the series is stored under in
    :attr:`Specimen.series`.
    """

    __slots__ = ()

    def __new__(cls, mean: float, se: float, df: Optional[int] = None, n: int = 1):
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
        return super().__new__(cls, mean, se, df, n)


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
    if not math.isfinite(k):
        raise DomainError(f"k must be finite, got {k}")
    if k <= 0:
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


class _SpecimenFields(NamedTuple):
    id: str
    kind: Kind
    lot: Optional[str] = None
    series: Mapping[Element, ElementSeries] = MappingProxyType({})
    location: Optional[Location] = None


class Specimen(Checked, _SpecimenFields):
    """A fragment, bullet or bullet section with its per-element series.

    ``location`` is set when every underlying row shares one labeled
    radial location (it drives location-based selection, e.g. comparing
    outer against middle sections); it is ``None`` for whole objects
    and mixed/unlabeled data.  ``series`` is a read-only copy of the
    mapping given.
    """

    __slots__ = ()

    def __new__(
        cls,
        id: str,
        kind: Kind,
        lot: Optional[str] = None,
        series: Mapping[Element, ElementSeries] = MappingProxyType({}),
        location: Optional[Location] = None,
    ):
        if not id:
            raise ValueError("specimen id must be nonempty")
        return super().__new__(cls, id, kind, lot, MappingProxyType(dict(series)), location)


class _BiasFields(NamedTuple):
    c_lo: float
    c_hi: float


class BiasCorrection(Checked, _BiasFields):
    """A relative correction range ``[c_lo, c_hi]`` for one element.

    A correction ``c`` rescales a series by ``(1 + c)``; the range
    expresses that the true correction is only known to an interval.
    The element is the key the correction is stored under in a bias
    table.
    """

    __slots__ = ()

    def __new__(cls, c_lo: float, c_hi: float):
        if not (math.isfinite(c_lo) and math.isfinite(c_hi)):
            raise DomainError(f"corrections must be finite, got [{c_lo}, {c_hi}]")
        if c_lo > c_hi:
            raise ValueError(f"c_lo {c_lo} > c_hi {c_hi}")
        if c_lo <= -1:
            raise ValueError("corrections must stay > -1")
        return super().__new__(cls, c_lo, c_hi)


#: Default corrections: antimony measurements read low by 2% to 5.4%
#: against certified standards; silver by a flat 5.5%.
DEFAULT_BIAS: Mapping[Element, BiasCorrection] = MappingProxyType(
    {
        Element.SB: BiasCorrection(0.02, 0.054),
        Element.AG: BiasCorrection(0.055, 0.055),
    }
)


class _CriterionFields(NamedTuple):
    k: float
    elements: tuple[Element, ...]
    bias: Optional[Mapping[Element, BiasCorrection]] = None
    boundary: Boundary = Boundary.CLOSED


class MatchCriterion(Checked, _CriterionFields):
    """A configured indistinguishability rule.

    Two specimens match when, for every element of the panel, their
    ``mean +/- k*se`` intervals intersect.  ``closed`` boundary counts
    exactly touching intervals as a match; ``open`` does not.  When a
    bias table is present, the corrections are applied to the first
    (questioned) specimen of a comparison.  The panel is stored sorted
    by symbol without repeats, and a bias table as a read-only copy.
    """

    __slots__ = ()

    def __new__(
        cls,
        k: float,
        elements: tuple[Element, ...],
        bias: Optional[Mapping[Element, BiasCorrection]] = None,
        boundary: Boundary = Boundary.CLOSED,
    ):
        if not math.isfinite(k):
            raise DomainError(f"k must be finite, got {k}")
        if k <= 0:
            raise ValueError(f"k must be > 0, got {k}")
        if not elements:
            raise ValueError("element panel must be nonempty")
        ordered = tuple(sorted(set(elements), key=lambda e: e.value))
        if bias is not None:
            bias = MappingProxyType(dict(bias))
        return super().__new__(cls, k, ordered, bias, boundary)

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
