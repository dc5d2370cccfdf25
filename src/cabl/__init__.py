"""Comparative bullet lead analysis.

Measurement ingestion with counting-statistics uncertainties,
k-standard-error interval match criteria with bias correction,
compositional grouping, hypergeometric likelihood-ratio evidence,
heterogeneity tests, distribution-fit ranking, and activation-analysis
measurement reduction.
"""

import importlib

__version__ = "0.1.0"


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]]) -> tuple:
    """``__all__``, ``__getattr__`` and ``__dir__`` of ``package``, whose
    public names are listed in ``exports`` by defining module.

    Each name loads its module on first use (PEP 562), so importing the
    package loads no submodule.
    """
    module_of = {name: module for module, names in exports.items() for name in names}
    names = list(module_of)

    def __getattr__(name: str):
        if name not in module_of:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f".{module_of[name]}", package), name)

    def __dir__() -> list[str]:
        return names

    return names, __getattr__, __dir__


# Public names by defining module.  None of them needs a package outside
# the standard library.
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
    "ingest": ("Dataset", "fixture", "parse_csv", "replicate_summary"),
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
        "self_absorption_loss",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__.append("__version__")
