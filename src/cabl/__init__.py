"""Comparative bullet lead analysis.

Measurement ingestion with counting-statistics uncertainties,
k-standard-error interval match criteria with bias correction,
compositional grouping, hypergeometric likelihood-ratio evidence,
heterogeneity tests, distribution-fit ranking, and activation-analysis
measurement reduction.
"""

from .errors import (
    CablError,
    ConflictError,
    DegreesOfFreedomError,
    DesignError,
    DomainError,
    ElementMismatchError,
    FitError,
    IncompletePanelError,
    ParseError,
)
from .evidence import BoxModel, EvidenceResult, likelihood_ratio, p_span_at_least, posterior_odds
from .ingest import Dataset, fixture, parse_csv
from .matching import (
    MatchResult,
    PerElementMatch,
    match_element,
    match_element_biased,
    match_specimens,
)
from .model import (
    DEFAULT_BIAS,
    Basis,
    BiasCorrection,
    Boundary,
    Element,
    ElementSeries,
    Kind,
    Location,
    MatchCriterion,
    Specimen,
    criterion_preset,
    series_interval,
)
from .uncertainty import (
    DEFAULT_ATTENUATION,
    AttenuationEntry,
    DecaySchedule,
    comparator_concentration,
    decay_factor,
    replicate_summary,
    self_absorption_loss,
)

__version__ = "0.1.0"

# The grouping engine works on numpy arrays.  It loads on first use of one
# of its names, so that importing the package does not load numpy.
_GROUPING_NAMES = ("GroupingResult", "MatchRate", "group", "within_box_match_rate")


def __getattr__(name: str):
    if name in _GROUPING_NAMES:
        from . import grouping

        return getattr(grouping, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CablError",
    "ConflictError",
    "DegreesOfFreedomError",
    "DesignError",
    "DomainError",
    "ElementMismatchError",
    "FitError",
    "IncompletePanelError",
    "ParseError",
    "BoxModel",
    "EvidenceResult",
    "likelihood_ratio",
    "p_span_at_least",
    "posterior_odds",
    "GroupingResult",
    "MatchRate",
    "group",
    "within_box_match_rate",
    "Dataset",
    "fixture",
    "parse_csv",
    "MatchResult",
    "PerElementMatch",
    "match_element",
    "match_element_biased",
    "match_specimens",
    "DEFAULT_BIAS",
    "Basis",
    "BiasCorrection",
    "Boundary",
    "Element",
    "ElementSeries",
    "Kind",
    "Location",
    "MatchCriterion",
    "Specimen",
    "criterion_preset",
    "series_interval",
    "DEFAULT_ATTENUATION",
    "AttenuationEntry",
    "DecaySchedule",
    "comparator_concentration",
    "decay_factor",
    "replicate_summary",
    "self_absorption_loss",
    "__version__",
]
