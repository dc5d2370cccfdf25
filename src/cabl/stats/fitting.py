"""Maximum-likelihood fitting, goodness of fit, and family ranking.

Eight candidate families are supported; the family table ``_FAMILIES``
holds each one's support (x > 0) and spread (not all equal) rules.
Parameters are closed-form where they exist (exponential, lognormal,
normal) and otherwise (gamma, Weibull, Gumbel, chi-squared) come from
``_root``, the one bracket-and-bisect root step.  The triangular family
is profiled over its mode with the support pinned to the data extremes,
observations sitting exactly on the extremes being excluded from every
candidate's likelihood so the profiles stay comparable.  Each candidate
mode c is scored in O(log n) from prefix sums of log(2(v-a)) and suffix
sums of log(2(b-v)) over the sorted interior, split at c by bisection,
so the whole profile costs O(n log n); candidates within 1e-9
(relative) of the best score are re-scored by the direct per-point sum,
which keeps the first strict maximum in ascending c.

Goodness of fit is a chi-squared test on equal-probability bins under
the fitted distribution (``max(5, n // 5)`` bins, built by binning the
fitted-CDF transforms of the data, so no inverse CDFs are needed), with
``df = bins - 1 - #params``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Mapping, NamedTuple, Sequence, Union

from ..errors import FitError
from .special import chi2_sf, digamma, gammainc_p, normal_cdf


class FittedDistribution(NamedTuple):
    """A family name with its fitted parameters."""

    family: str
    params: Mapping[str, float]

    def cdf(self, x: float) -> float:
        rules = _FAMILIES[self.family]
        return 0.0 if rules.positive and x <= 0 else rules.cdf(self.params, x)


class GofResult(NamedTuple):
    stat: float
    df: int
    p: float


class FitReport(NamedTuple):
    """One family's fit and its goodness-of-fit score."""

    family: str
    params: Mapping[str, float]
    gof_stat: float
    gof_df: int
    p_value: float


class FitFailure(NamedTuple):
    """A family that could not be fitted, kept in the ranking output."""

    family: str
    error: str


def _root(f: Callable[[float], float], lo: float, hi: float, what: str) -> float:
    """Root of an increasing f: widen [lo, hi] until f(lo) < 0 < f(hi), then bisect."""
    # each f call is an O(n) pass: evaluate only the end that moved
    flo, fhi = f(lo), f(hi)
    for _ in range(200):
        if flo < 0.0 < fhi:
            break
        if flo >= 0.0:
            lo /= 2.0
            flo = f(lo)
        if fhi <= 0.0:
            hi *= 2.0
            fhi = f(hi)
    else:
        raise FitError(f"could not bracket the {what} likelihood equation")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or (hi - lo) <= 1e-14 * max(1.0, abs(mid)):
            return mid
        if fmid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _fit_exponential(x: Sequence[float]) -> dict:
    return {"rate": len(x) / math.fsum(x)}


def _fit_normal(x: Sequence[float]) -> dict:
    mu = math.fsum(x) / len(x)
    sigma = math.sqrt(math.fsum((v - mu) * (v - mu) for v in x) / len(x))
    return {"mu": mu, "sigma": sigma}


def _fit_lognormal(x: Sequence[float]) -> dict:
    return _fit_normal([math.log(v) for v in x])


def _fit_gamma(x: Sequence[float]) -> dict:
    mean = math.fsum(x) / len(x)
    mean_log = math.fsum(math.log(v) for v in x) / len(x)
    s = math.log(mean) - mean_log
    if s <= 0:
        raise FitError("gamma likelihood equation degenerate (no spread in logs)")

    def f(shape: float) -> float:
        return math.log(shape) - digamma(shape) - s

    # f decreases from +inf to 0 as shape grows; standard starting guess
    guess = (3.0 - s + math.sqrt((s - 3.0) * (s - 3.0) + 24.0 * s)) / (12.0 * s)
    shape = _root(lambda k: -f(k), guess / 8.0, guess * 8.0, "gamma")
    return {"shape": shape, "scale": mean / shape}


def _fit_weibull(x: Sequence[float]) -> dict:
    n = len(x)
    top = max(x)
    scaled = [v / top for v in x]
    logs = [math.log(v) for v in x]
    mean_log = math.fsum(logs) / n

    def f(k: float) -> float:
        wk = [u**k for u in scaled]
        num = math.fsum(w * lg for w, lg in zip(wk, logs))
        den = math.fsum(wk)
        return num / den - 1.0 / k - mean_log

    shape = _root(f, 1.0, 2.0, "weibull")
    scale = top * (math.fsum(u**shape for u in scaled) / n) ** (1.0 / shape)
    return {"shape": shape, "scale": scale}


def _fit_gumbel(x: Sequence[float]) -> dict:
    n = len(x)
    mean = math.fsum(x) / n
    low = min(x)
    sd = math.sqrt(math.fsum((v - mean) * (v - mean) for v in x) / (n - 1))
    if sd == math.inf:  # the squared deviations overflow; no bracket would hold
        raise FitError(f"gumbel fit overflows: sd = {sd}")
    start = sd * math.sqrt(6.0) / math.pi

    def f(beta: float) -> float:
        weights = [math.exp(-(v - low) / beta) for v in x]
        weighted = math.fsum(v * w for v, w in zip(x, weights)) / math.fsum(weights)
        return beta - mean + weighted

    scale = _root(f, start / 8.0, start * 8.0, "gumbel")
    total = math.fsum(math.exp(-(v - low) / scale) for v in x)
    loc = low - scale * (math.log(total) - math.log(n))
    return {"loc": loc, "scale": scale}


def _fit_chi_squared(x: Sequence[float]) -> dict:
    mean_log = math.fsum(math.log(v) for v in x) / len(x)

    def f(df: float) -> float:
        return digamma(df / 2.0) + math.log(2.0) - mean_log

    return {"df": _root(f, 1.0, 2.0, "chi-squared")}


def _triangular_loglik(interior: Sequence[float], a: float, c: float, b: float) -> float:
    span = b - a
    total = 0.0
    for v in interior:
        if v < c:
            total += math.log(2.0 * (v - a)) - math.log(span) - math.log(c - a)
        elif v > c:
            total += math.log(2.0 * (b - v)) - math.log(span) - math.log(b - c)
        else:
            total += math.log(2.0) - math.log(span)
    return total


def _fit_triangular(x: Sequence[float]) -> dict:
    a, b = min(x), max(x)
    if not math.isfinite(b - a):
        raise FitError(f"triangular needs a finite data range; b - a overflows for [{a!r}, {b!r}]")
    interior = [v for v in x if a < v < b]
    if not interior:
        raise FitError("triangular needs observations strictly inside the data range")
    ordered = sorted(interior)
    m = len(ordered)
    # left[i]: sum of log(2(v-a)) over the i smallest interior values;
    # right[i]: sum of log(2(b-v)) over the i largest
    left = [0.0]
    for v in ordered:
        left.append(left[-1] + math.log(2.0 * (v - a)))
    right = [0.0]
    for v in reversed(ordered):
        right.append(right[-1] + math.log(2.0 * (b - v)))
    log_span = math.log(b - a)

    def profile(c: float) -> float:
        below = bisect_left(ordered, c)
        above = m - bisect_right(ordered, c)
        ll = left[below] + right[above] - m * log_span
        ll += (m - below - above) * math.log(2.0)
        if below:
            ll -= below * math.log(c - a)
        if above:
            ll -= above * math.log(b - c)
        return ll

    # the profile log-likelihood is maximized at a data value
    candidates = sorted(set(x))
    fast = [profile(c) for c in candidates]
    top = max(fast)
    # prefix sums round differently from the per-point sum, so settle
    # near-ties with the direct sum over the data order (the order sets
    # the last bit of a tie): first strict maximum in ascending c
    near = top - 1e-9 * max(1.0, abs(top))
    best_c = None
    best_ll = -math.inf
    for c, score in zip(candidates, fast):
        if score >= near:
            ll = _triangular_loglik(interior, a, c, b)
            if ll > best_ll:
                best_ll, best_c = ll, c
    if best_c is None:
        # 2(v - a) or 2(b - v) can overflow where b - a does not
        raise FitError("triangular: no candidate mode has a finite log-likelihood")
    return {"a": a, "c": best_c, "b": b}


def _cdf_exponential(p: Mapping[str, float], x: float) -> float:
    return -math.expm1(-p["rate"] * x)


def _cdf_weibull(p: Mapping[str, float], x: float) -> float:
    return -math.expm1(-((x / p["scale"]) ** p["shape"]))


def _cdf_gamma(p: Mapping[str, float], x: float) -> float:
    return gammainc_p(p["shape"], x / p["scale"])


def _cdf_lognormal(p: Mapping[str, float], x: float) -> float:
    return normal_cdf((math.log(x) - p["mu"]) / p["sigma"])


def _cdf_gumbel(p: Mapping[str, float], x: float) -> float:
    return math.exp(-math.exp(-(x - p["loc"]) / p["scale"]))


def _cdf_triangular(p: Mapping[str, float], x: float) -> float:
    a, c, b = p["a"], p["c"], p["b"]
    if x <= a:
        return 0.0
    if x >= b:
        return 1.0
    if x <= c:
        return (x - a) * (x - a) / ((b - a) * (c - a))
    return 1.0 - (b - x) * (b - x) / ((b - a) * (b - c))


def _cdf_chi_squared(p: Mapping[str, float], x: float) -> float:
    return gammainc_p(p["df"] / 2.0, x / 2.0)


def _cdf_normal(p: Mapping[str, float], x: float) -> float:
    return normal_cdf(x, p["mu"], p["sigma"])


class _Family(NamedTuple):
    fit: Callable[[Sequence[float]], dict]
    cdf: Callable[[Mapping[str, float], float], float]
    positive: bool  # support is x > 0: the fit refuses x <= 0, the CDF is 0 there
    spread: bool  # the fit refuses data whose values are all equal


_FAMILIES: Mapping[str, _Family] = {
    "chi_squared": _Family(_fit_chi_squared, _cdf_chi_squared, True, True),
    "exponential": _Family(_fit_exponential, _cdf_exponential, True, False),
    "gamma": _Family(_fit_gamma, _cdf_gamma, True, True),
    "gumbel": _Family(_fit_gumbel, _cdf_gumbel, False, True),
    "lognormal": _Family(_fit_lognormal, _cdf_lognormal, True, True),
    "normal": _Family(_fit_normal, _cdf_normal, False, True),
    "triangular": _Family(_fit_triangular, _cdf_triangular, False, True),
    "weibull": _Family(_fit_weibull, _cdf_weibull, True, True),
}

FAMILIES = tuple(_FAMILIES)

#: Parameters that must come out > 0; underflow can leave them at 0.
_POSITIVE_PARAMS = frozenset({"rate", "shape", "scale", "sigma", "df"})


def fit_distribution(data: Sequence[float], family: str) -> FittedDistribution:
    """Maximum-likelihood fit of one family to the data (n >= 8)."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r} (have: {', '.join(FAMILIES)})")
    if len(data) < 8:
        raise ValueError(f"need at least 8 observations, got {len(data)}")
    rules = _FAMILIES[family]
    if rules.positive and min(data) <= 0:
        raise FitError(f"{family} requires strictly positive data")
    if rules.spread and min(data) == max(data):
        raise FitError(f"{family} requires data with spread; all values are equal")
    try:
        params = rules.fit(data)
    except OverflowError as exc:  # math.fsum, exp or a power beyond the float range
        raise FitError(f"{family} fit overflows: {exc}") from None
    for name, value in params.items():
        if not math.isfinite(value):
            raise FitError(f"{family} fit overflows: {name} = {value}")
        if name in _POSITIVE_PARAMS and value <= 0:
            raise FitError(f"{family} fit degenerates: {name} = {value} is not > 0")
    return FittedDistribution(family=family, params=params)


def chi2_gof(data: Sequence[float], fitted: FittedDistribution) -> GofResult:
    """Equal-probability-bin chi-squared goodness of fit."""
    n = len(data)
    if n < 8:
        raise ValueError(f"need at least 8 observations, got {n}")
    bins = max(5, n // 5)
    # no family has more than 3 parameters, so df >= 1
    df = bins - 1 - len(fitted.params)
    counts = [0] * bins
    for v in data:
        u = fitted.cdf(v)
        if u != u:  # nan, as inf / inf in the triangular CDF
            raise FitError(f"{fitted.family} goodness of fit overflows: the CDF is nan at {v!r}")
        u = min(max(u, 0.0), 1.0)
        counts[min(int(u * bins), bins - 1)] += 1
    expected = n / bins
    stat = math.fsum((c - expected) * (c - expected) / expected for c in counts)
    return GofResult(stat=stat, df=df, p=chi2_sf(stat, df))


RankEntry = Union[FitReport, FitFailure]


def rank_families(
    data: Sequence[float], families: Sequence[str] = FAMILIES
) -> list[RankEntry]:
    """Fit and score each family; best-fitting (highest p) first.

    Ties break alphabetically by family name.  Families that fail to
    fit are kept at the end of the list as failure markers rather than
    silently dropped.
    """
    if len(data) < 8:
        raise ValueError(f"need at least 8 observations, got {len(data)}")
    reports: list[FitReport] = []
    failures: list[FitFailure] = []
    for family in families:
        try:
            fitted = fit_distribution(data, family)
            gof = chi2_gof(data, fitted)
        except FitError as exc:
            failures.append(FitFailure(family, str(exc)))
        except ArithmeticError as exc:
            error = f"numeric overflow or underflow in the {family} fit or its goodness of fit: {exc}"
            failures.append(FitFailure(family, error))
        else:
            reports.append(FitReport(*fitted, *gof))
    reports.sort(key=lambda r: (-r.p_value, r.family))
    failures.sort(key=lambda f: f.family)
    return [*reports, *failures]
