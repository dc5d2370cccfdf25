"""Pooled two-sample t-test from summary statistics."""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from ..errors import DomainError, checked
from .special import t_two_sided_p


@checked
class TwoSampleInput(NamedTuple):
    """One sample, as mean / standard error of the mean / n.

    Reported standard errors convert to sample standard deviations via
    ``sd = se * sqrt(n)``.
    """

    mean: float
    se: float
    n: int
    label: Optional[str] = None

    def _checked(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.se)):
            raise DomainError(f"mean and se must be finite, got {self.mean} and {self.se}")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.se < 0:
            raise ValueError(f"se must be >= 0, got {self.se}")

    @property
    def sd(self) -> float:
        return self.se * math.sqrt(self.n)


class TTestResult(NamedTuple):
    t: float
    df: int
    p_two_sided: float


def pooled_t_test(a: TwoSampleInput, b: TwoSampleInput) -> TTestResult:
    """Classic pooled-variance two-sample t-test, two-sided p.

    Swapping the samples flips the sign of t and leaves p unchanged.
    Two zero-spread samples give t = 0, p = 1 when their means agree;
    when the means differ t would be infinite, and the test is refused
    with a DomainError, as it is when the pooled variance or the t
    statistic is beyond the float range.
    """
    df = a.n + b.n - 2  # each n >= 2
    try:
        pooled_var = ((a.n - 1) * a.sd**2 + (b.n - 1) * b.sd**2) / df
    except OverflowError:  # refused below
        pooled_var = math.inf
    se_diff = math.sqrt(pooled_var * (1.0 / a.n + 1.0 / b.n))
    diff = a.mean - b.mean
    names = f"samples {a.label or 'a'} and {b.label or 'b'}"
    if se_diff == 0.0:
        if diff != 0.0:
            raise DomainError(
                f"{names} both have zero spread and different means; the t statistic is infinite"
            )
        return TTestResult(t=0.0, df=df, p_two_sided=1.0)
    t = diff / se_diff
    if not (math.isfinite(se_diff) and math.isfinite(t)):
        raise DomainError(f"{names}: the pooled variance or the t statistic overflows")
    return TTestResult(t=t, df=df, p_two_sided=t_two_sided_p(t, df))
