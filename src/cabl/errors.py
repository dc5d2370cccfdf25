"""Exception hierarchy shared across the package, :func:`checked`, the
decorator of every value type that checks its fields, and
:func:`require_finite`, the finiteness check those types share."""

from __future__ import annotations

import functools
import math
from types import MappingProxyType


class CablError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(CablError):
    """Malformed input file (CSV schema violation, bad field value)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConflictError(CablError):
    """Rows that contradict each other (duplicate or inconsistent data)."""


class DomainError(CablError):
    """A value outside its physical domain (negative concentration, ...)."""


class UnknownSpecimenError(CablError, KeyError):
    """A specimen id the dataset does not hold."""

    # KeyError's __str__ would print the message in quotes
    __str__ = CablError.__str__


class IncompletePanelError(CablError):
    """A specimen lacks an element required by the match criterion."""

    def __init__(self, specimen_id: str, element: str):
        self.specimen_id = specimen_id
        self.element = element
        super().__init__(f"specimen {specimen_id!r} has no {element} series")


class DegreesOfFreedomError(CablError):
    """A test requiring degrees of freedom was given a single-count series."""


class DesignError(CablError):
    """A factorial layout the analysis cannot handle (empty cell, rank)."""


class FitError(CablError):
    """Distribution fitting or goodness-of-fit could not proceed."""


def require_finite(**values: float) -> None:
    """Refuse each named value that is not finite with ``DomainError``."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def checked(cls):
    """Make every value of the named tuple ``cls`` pass ``cls._checked``.

    ``_checked(self)`` raises on bad fields, or returns the normalised
    fields, or ``None`` when the fields stand as given.  The wrapped
    ``__new__`` keeps the fields' signature and defaults; ``_make``,
    hence ``_replace``, calls the constructor, and so do copying and
    unpickling, which pass a read-only table on as a plain dict.
    """
    make, width = cls.__new__, len(cls._fields)

    @functools.wraps(make)
    def __new__(cls, *args, **kwargs):
        whole = len(args) == width and not kwargs  # every field in order: no default to fill
        self = tuple.__new__(cls, args) if whole else make(cls, *args, **kwargs)
        fields = self._checked()
        return self if fields is None else tuple.__new__(cls, fields)

    cls.__new__ = __new__
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    cls.__getnewargs__ = lambda self: tuple(
        dict(f) if isinstance(f, MappingProxyType) else f for f in self
    )
    return cls
