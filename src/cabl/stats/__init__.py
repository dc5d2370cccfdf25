"""Statistical engine: special functions, t-tests, MANOVA, fitting."""

import importlib

# Public names by defining module.  Each name loads its module on first
# use (PEP 562), so a job loads only the statistics it runs.
_EXPORTS = {
    "fitting": (
        "FAMILIES",
        "FitFailure",
        "FitReport",
        "FittedDistribution",
        "GofResult",
        "chi2_gof",
        "fit_distribution",
        "rank_families",
    ),
    "manova": ("EffectTest", "FactorialObservation", "manova_two_way"),
    "ttest": ("TTestResult", "TwoSampleInput", "pooled_t_test"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return __all__
