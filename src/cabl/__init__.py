"""Comparative bullet lead analysis.

Measurement ingestion with counting-statistics uncertainties,
k-standard-error interval match criteria with bias correction,
compositional grouping, hypergeometric likelihood-ratio evidence,
heterogeneity tests, distribution-fit ranking, and activation-analysis
measurement reduction.
"""

import importlib

__version__ = "0.1.0"

# Public names by defining module.  Each name loads its module on first
# use (PEP 562), so importing the package loads no submodule.  None of
# them needs a package outside the standard library.
_EXPORTS = {
    "errors": (
        "CablError",
        "ConflictError",
        "DegreesOfFreedomError",
        "DesignError",
        "DomainError",
        "FitError",
        "IncompletePanelError",
        "ParseError",
        "UnknownSpecimenError",
    ),
    "evidence": (
        "BoxModel",
        "EvidenceResult",
        "likelihood_ratio",
        "p_span_at_least",
        "posterior_odds",
    ),
    "grouping": ("GroupingResult", "MatchRate", "group", "within_box_match_rate"),
    "ingest": ("Dataset", "fixture", "parse_csv"),
    "matching": ("MatchResult", "match_specimens"),
    "model": (
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
    ),
    "uncertainty": (
        "DEFAULT_ATTENUATION",
        "AttenuationEntry",
        "DecaySchedule",
        "comparator_concentration",
        "decay_factor",
        "replicate_summary",
        "self_absorption_loss",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return __all__
