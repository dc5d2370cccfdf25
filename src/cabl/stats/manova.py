"""Two-way fixed-effects MANOVA with interaction, in exact arithmetic.

With every cell filled, the two-way model with interaction is saturated
in the cell means, so each Type III (sum-to-zero) hypothesis has a
closed form in them (the cell-means model; Searle, *Linear Models for
Unbalanced Data*, 1987) and no design matrix is built.  For cell (i, j)
of a bullets by b locations, with mean μᵢⱼ of its nᵢⱼ observations:

* E, the within-cell matrix, is Σ (y − μᵢⱼ)(y − μᵢⱼ)ᵀ over observations.
* H for bullet tests that the unweighted row means uᵢ = (1/b)·Σⱼ μᵢⱼ
  agree.  Each has variance wᵢ = (1/b²)·Σⱼ 1/nᵢⱼ (times the error
  covariance), so H = Σᵢ (uᵢ − ū)(uᵢ − ū)ᵀ / wᵢ, where ū is their
  1/wᵢ-weighted mean.  H for location swaps the factors.
* H for the interaction is Σᵢⱼ nᵢⱼ rᵢⱼ rᵢⱼᵀ, where rᵢⱼ are the residuals
  of the nᵢⱼ-weighted additive fit αᵢ + βⱼ to the cell means.

For balanced layouts these are exactly the classical sums of squares
and cross products.  Each response is read exactly (``Fraction(float)``),
so Wilks' lambda det E / det(E + H) and the Hotelling-Lawley trace
tr(E⁻¹H) are exact rationals, each rounded once to the nearest float:
the same observations give the same lambda and trace on every platform.
Wilks' lambda is converted to an F statistic by Rao's approximation
(exact for one or two responses) and the Hotelling-Lawley trace by its
standard F approximation.  Adding a constant to every response leaves
all statistics unchanged, and for a single response the Wilks F reduces
exactly to the classical two-way ANOVA F.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from ..errors import DesignError, DomainError, checked
from .special import f_sf

Matrix = list[list[Fraction]]


@checked
class FactorialObservation(NamedTuple):
    """One multivariate observation in the bullet-by-location layout."""

    bullet: str
    location: str
    responses: tuple[float, ...]

    def _checked(self):
        if not self.responses:
            raise ValueError("responses must be nonempty")
        if not all(map(math.isfinite, self.responses)):
            raise DomainError(f"responses must be finite, got {self.responses}")


class EffectTest(NamedTuple):
    """Multivariate test statistics for one model effect."""

    wilks_lambda: float
    wilks_f: float
    wilks_df: tuple[float, float]
    wilks_p: float
    hotelling_lawley: float
    hl_f: float
    hl_df: tuple[float, float]
    hl_p: float


def _wilks_f(lmbda: float, p: int, q: float, v: float) -> tuple[float, tuple[float, float], float]:
    if p * p + q * q - 5 > 0:
        t = math.sqrt((p * p * q * q - 4.0) / (p * p + q * q - 5.0))
    else:
        t = 1.0
    w = v + q - (p + q + 1.0) / 2.0
    df1 = p * q
    df2 = w * t - (p * q - 2.0) / 2.0
    if df2 <= 0:
        raise DesignError(f"not enough error df for Wilks approximation (df2={df2})")
    root = lmbda ** (1.0 / t)
    f = ((1.0 - root) / root) * (df2 / df1)
    return f, (df1, df2), f_sf(f, df1, df2)


def _hotelling_f(trace: float, p: int, q: float, v: float) -> tuple[float, tuple[float, float], float]:
    s = min(p, q)
    m = (abs(p - q) - 1.0) / 2.0
    n = (v - p - 1.0) / 2.0
    df1 = s * (2.0 * m + s + 1.0)
    df2 = 2.0 * (s * n + 1.0)
    if df2 <= 0:
        raise DesignError(f"not enough error df for Hotelling-Lawley (df2={df2})")
    f = trace * (2.0 * (s * n + 1.0)) / (s * s * (2.0 * m + s + 1.0))
    return f, (df1, df2), f_sf(f, df1, df2)


def _sscp(vectors: Sequence[Sequence[Fraction]], weights: Sequence[Fraction]) -> Matrix:
    """Σ w·d dᵀ over the vectors d and their weights w."""
    p = len(vectors[0])
    out = [[0] * p for _ in range(p)]
    for k in range(p):
        for l in range(k + 1):
            out[k][l] = out[l][k] = sum(w * d[k] * d[l] for w, d in zip(weights, vectors))
    return out


def _gauss_jordan(m: Matrix, rhs: Matrix) -> tuple[Fraction, Matrix]:
    """det(m) and m⁻¹·rhs by exact elimination; the solution is [] when det(m) is 0.

    m is symmetric positive semidefinite (E, E + H, the interaction's reduced normal
    matrix), and so is each Schur complement elimination leaves, whose zero diagonal
    entries have only zeros beneath: a zero pivot means m is singular, never a row exchange.
    """
    n = len(m)
    rows = [[*m[i], *rhs[i]] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        lead = rows[col][col]
        if not lead:
            return Fraction(0), []
        det *= lead
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det, [row[n:] for row in rows]


def _factor_h(means: list[list[list[Fraction]]], counts: list[list[int]]) -> Matrix:
    """H for the factor indexing the rows of ``means``: Σᵢ (uᵢ − ū)(uᵢ − ū)ᵀ / wᵢ."""
    b = len(counts[0])
    u = [[sum(column) / b for column in zip(*row)] for row in means]
    inv_w = [b * b / sum(Fraction(1, n) for n in row) for row in counts]
    u_bar = [sum(iw * x for iw, x in zip(inv_w, column)) / sum(inv_w) for column in zip(*u)]
    return _sscp([[x - m for x, m in zip(ui, u_bar)] for ui in u], inv_w)


def _interaction_h(means: list[list[list[Fraction]]], counts: list[list[int]]) -> Matrix:
    """H for the interaction: Σ nᵢⱼ rᵢⱼ rᵢⱼᵀ over the additive fit's residuals."""
    a, b, p = len(counts), len(counts[0]), len(means[0][0])
    row_n = [sum(row) for row in counts]
    # The row equations of the weighted least squares give
    # αᵢ = m̄ᵢ − Σⱼ nᵢⱼ βⱼ / nᵢ, with m̄ᵢ the nᵢⱼ-weighted mean of row i of
    # the cell means.  Put into the column equations, they leave c·β = d,
    # of rank b − 1; fixing the last β at 0 leaves every αᵢ + βⱼ the same.
    row_mean = [
        [sum(n * m[k] for n, m in zip(counts[i], means[i])) / row_n[i] for k in range(p)]
        for i in range(a)
    ]
    c = [
        [
            (sum(row[j] for row in counts) if j == l else 0)
            - sum(Fraction(counts[i][j] * counts[i][l], row_n[i]) for i in range(a))
            for l in range(b - 1)
        ]
        for j in range(b - 1)
    ]
    d = [
        [sum(counts[i][j] * (means[i][j][k] - row_mean[i][k]) for i in range(a)) for k in range(p)]
        for j in range(b - 1)
    ]
    beta = _gauss_jordan(c, d)[1] + [[0] * p]
    alpha = [
        [
            m - sum(n * bj[k] for n, bj in zip(counts[i], beta)) / row_n[i]
            for k, m in enumerate(row_mean[i])
        ]
        for i in range(a)
    ]
    resid = [
        [means[i][j][k] - alpha[i][k] - beta[j][k] for k in range(p)]
        for i in range(a)
        for j in range(b)
    ]
    return _sscp(resid, [n for row in counts for n in row])


def manova_two_way(
    observations: Sequence[FactorialObservation],
) -> Mapping[str, EffectTest]:
    """Test bullet, location, and their interaction.

    Requires at least two levels per factor, every cell filled with at
    least two replicates, and a nonsingular within-cell covariance.
    Returns tests keyed ``"bullet"``, ``"location"``, ``"interaction"``.
    """
    if not observations:
        raise DesignError("no observations")
    p = len(observations[0].responses)
    if any(len(o.responses) != p for o in observations):
        raise ValueError("all response vectors must have the same length")
    bullets = sorted({o.bullet for o in observations})
    locations = sorted({o.location for o in observations})
    a, b = len(bullets), len(locations)
    if a < 2 or b < 2:
        raise DesignError("each factor needs at least 2 levels")
    # Each response is an integer over a power of two, so times the largest
    # such denominator every response is an integer.  E and each H scale by
    # its square, which leaves lambda and the trace unchanged.
    exact = [[Fraction(x) for x in o.responses] for o in observations]
    scale = max(x.denominator for y in exact for x in y)
    cells: dict[tuple[str, str], list[list[int]]] = {
        (bl, loc): [] for bl in bullets for loc in locations
    }
    for o, y in zip(observations, exact):
        cells[(o.bullet, o.location)].append([int(x * scale) for x in y])
    lacking = [cell for cell, ys in cells.items() if len(ys) < 2]
    if lacking:
        raise DesignError(f"cells need >= 2 replicates, lacking: {sorted(lacking)}")

    # every cell holds at least two observations, so v >= a*b
    v = len(observations) - a * b
    effects = {"bullet": a - 1, "location": b - 1, "interaction": (a - 1) * (b - 1)}

    if all(o.responses == observations[0].responses for o in observations):
        # no variation anywhere: every effect is trivially null
        null_test = EffectTest(
            wilks_lambda=1.0,
            wilks_f=0.0,
            wilks_df=(0.0, float(v)),
            wilks_p=1.0,
            hotelling_lawley=0.0,
            hl_f=0.0,
            hl_df=(0.0, float(v)),
            hl_p=1.0,
        )
        return {name: null_test for name in effects}

    grid = [[cells[(bl, loc)] for loc in locations] for bl in bullets]
    counts = [[len(ys) for ys in row] for row in grid]
    means = [[[Fraction(sum(c), len(ys)) for c in zip(*ys)] for ys in row] for row in grid]
    # E = Σ yyᵀ − Σ nᵢⱼ μᵢⱼ μᵢⱼᵀ, the first sum (over observations) in integers
    scaled = [y for ys in cells.values() for y in ys]
    totals = _sscp(scaled, [1] * len(scaled))
    fitted = _sscp([m for row in means for m in row], [n for row in counts for n in row])
    e = [[t - f for t, f in zip(*rows)] for rows in zip(totals, fitted)]
    det_e, e_inv = _gauss_jordan(e, [[int(k == l) for l in range(p)] for k in range(p)])
    if det_e == 0:
        raise DesignError("singular within-cell covariance; responses not full rank")

    hypotheses = {
        "bullet": _factor_h(means, counts),
        "location": _factor_h([list(c) for c in zip(*means)], [list(c) for c in zip(*counts)]),
        "interaction": _interaction_h(means, counts),
    }
    results: dict[str, EffectTest] = {}
    for name, q in effects.items():
        h = hypotheses[name]
        det_eh, _ = _gauss_jordan([[x + y for x, y in zip(*rows)] for rows in zip(e, h)], [[]] * p)
        # the floor keeps Rao's F finite where lambda underflows
        lmbda = max(float(det_e / det_eh), 1e-300)
        trace = float(sum(e_inv[k][l] * h[l][k] for k in range(p) for l in range(p)))
        wf, wdf, wp = _wilks_f(lmbda, p, q, v)
        hf, hdf, hp = _hotelling_f(trace, p, q, v)
        results[name] = EffectTest(
            wilks_lambda=lmbda,
            wilks_f=wf,
            wilks_df=wdf,
            wilks_p=wp,
            hotelling_lawley=trace,
            hl_f=hf,
            hl_df=hdf,
            hl_p=hp,
        )
    return results
