"""Special functions backing the statistical tests.

Regularized incomplete gamma and beta functions (series plus modified
Lentz continued fractions), digamma, and the distribution functions
built on them.  Target accuracy is 1e-10 absolute or better on [0, 1];
the test suite pins them against high-precision reference fixtures.
"""

from __future__ import annotations

import math

_EPS = 3.0e-16
_FPMIN = 1.0e-300
_MAX_ITER = 500


def gammainc_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x)."""
    return _gammainc(a, x, upper=False)


def gammainc_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    return _gammainc(a, x, upper=True)


def _gammainc(a: float, x: float, upper: bool) -> float:
    """P(a, x), or Q(a, x) when ``upper``.  The series gives P below
    ``x = a + 1`` and the continued fraction gives Q above it; the other
    tail is one minus that."""
    if a <= 0:
        raise ValueError(f"a must be > 0, got {a}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0.0:
        return 1.0 if upper else 0.0
    series = x < a + 1.0
    tail = _gamma_series(a, x) if series else _gamma_cont_fraction(a, x)
    return 1.0 - tail if series == upper else tail


def _gamma_prefactor(a: float, x: float) -> float:
    # exp(-x + a ln x - ln Gamma(a)), guarded against underflow
    logpre = -x + a * math.log(x) - math.lgamma(a)
    if logpre < -745.0:
        return 0.0
    return math.exp(logpre)


def _gamma_series(a: float, x: float) -> float:
    ap = a
    total = 1.0 / a
    term = total
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * _gamma_prefactor(a, x)
    raise ArithmeticError(f"incomplete gamma series failed for a={a}, x={x}")


def _gamma_cont_fraction(a: float, x: float) -> float:
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * _gamma_prefactor(a, x)
    raise ArithmeticError(f"incomplete gamma fraction failed for a={a}, x={x}")


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError(f"a and b must be > 0, got a={a}, b={b}")
    if x < 0 or x > 1:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    logbt = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    bt = math.exp(logbt) if logbt > -745.0 else 0.0
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _beta_cont_fraction(a, b, x) / a
    return 1.0 - bt * _beta_cont_fraction(b, a, 1.0 - x) / b


def _beta_cont_fraction(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):  # one modified Lentz step each
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta fraction failed for a={a}, b={b}, x={x}")


# digamma asymptotic coefficients: -B_2k / (2k) for 2k = 2, 4, ..., 12
_DIGAMMA_TAIL = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
)


def digamma(x: float) -> float:
    """Digamma function for x > 0 (recurrence plus asymptotic series)."""
    if x <= 0:
        raise ValueError(f"x must be > 0, got {x}")
    result = 0.0
    while x < 10.0:
        result -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    power = inv2
    for coeff in _DIGAMMA_TAIL:
        tail += coeff * power
        power *= inv2
    return result + math.log(x) - 0.5 / x + tail


def normal_cdf(z: float, mu: float = 0.0, sigma: float = 1.0) -> float:
    """Normal distribution function."""
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    return 0.5 * math.erfc(-(z - mu) / (sigma * math.sqrt(2.0)))


def t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for a Student t variable."""
    if df <= 0:
        raise ValueError(f"df must be > 0, got {df}")
    if t == 0.0:
        return 1.0
    return betainc(df / 2.0, 0.5, df / (df + t * t))


def chi2_sf(x: float, df: float) -> float:
    """Chi-squared upper tail."""
    if df <= 0:
        raise ValueError(f"df must be > 0, got {df}")
    if x <= 0:
        return 1.0
    return gammainc_q(df / 2.0, x / 2.0)


def f_sf(x: float, df1: float, df2: float) -> float:
    """F upper tail, computed without cancellation."""
    if df1 <= 0 or df2 <= 0:
        raise ValueError(f"degrees of freedom must be > 0, got {df1}, {df2}")
    if x <= 0:
        return 1.0
    return betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * x))
