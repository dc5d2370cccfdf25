"""Exception hierarchy shared across the package."""

from __future__ import annotations


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
