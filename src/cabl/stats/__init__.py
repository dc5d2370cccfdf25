"""Statistical engine: special functions, t-tests, MANOVA, fitting."""

from .. import _lazy_exports

# Public names by defining module, each loaded on first use, so a job
# loads only the statistics it runs.
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

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
