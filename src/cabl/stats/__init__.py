"""Statistical engine: special functions, t-tests, MANOVA, fitting."""

from .fitting import (
    FAMILIES,
    FitFailure,
    FitReport,
    FittedDistribution,
    GofResult,
    chi2_gof,
    fit_distribution,
    rank_families,
)
from .ttest import TTestResult, TwoSampleInput, pooled_t_test

# MANOVA works on numpy arrays.  It loads on first use of one of its names,
# so that the fitting and t-test modules load without numpy.
_MANOVA_NAMES = ("EffectTest", "FactorialObservation", "manova_two_way")


def __getattr__(name: str):
    if name in _MANOVA_NAMES:
        from . import manova

        return getattr(manova, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FAMILIES",
    "FitFailure",
    "FitReport",
    "FittedDistribution",
    "GofResult",
    "chi2_gof",
    "fit_distribution",
    "rank_families",
    "EffectTest",
    "FactorialObservation",
    "manova_two_way",
    "TTestResult",
    "TwoSampleInput",
    "pooled_t_test",
]
