"""Pooled two-sample t-test from summary statistics."""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from ..errors import DomainError
from ..model import Checked
from .special import t_two_sided_p


class _SampleFields(NamedTuple):
    mean: float
    se: float
    n: int
    label: Optional[str] = None


class TwoSampleInput(Checked, _SampleFields):
    """One sample, as mean / standard error of the mean / n.

    Reported standard errors convert to sample standard deviations via
    ``sd = se * sqrt(n)``.
    """

    __slots__ = ()

    def __new__(cls, mean: float, se: float, n: int, label: Optional[str] = None):
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        if se < 0:
            raise ValueError(f"se must be >= 0, got {se}")
        return super().__new__(cls, mean, se, n, label)

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
    with a DomainError.
    """
    df = a.n + b.n - 2
    if df <= 0:
        raise ValueError(f"pooled df must be > 0, got {df}")
    pooled_var = ((a.n - 1) * a.sd**2 + (b.n - 1) * b.sd**2) / df
    se_diff = math.sqrt(pooled_var * (1.0 / a.n + 1.0 / b.n))
    diff = a.mean - b.mean
    if se_diff == 0.0:
        if diff != 0.0:
            raise DomainError(
                f"samples {a.label or 'a'} and {b.label or 'b'} both have zero spread "
                "and different means; the t statistic is infinite"
            )
        return TTestResult(t=0.0, df=df, p_two_sided=1.0)
    t = diff / se_diff
    return TTestResult(t=t, df=df, p_two_sided=t_two_sided_p(t, df))
