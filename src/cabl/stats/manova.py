"""Two-way fixed-effects MANOVA with interaction.

Fits a multivariate linear model with sum-to-zero (effect) coding and
tests each effect's coefficient block, which for balanced layouts is
exactly the classical sum-of-squares-and-cross-products decomposition.
Wilks' lambda is converted to an F statistic by Rao's approximation
(exact for one or two responses) and the Hotelling-Lawley trace by its
standard F approximation.  Adding a constant to every response leaves
all statistics unchanged, and for a single response the Wilks F reduces
exactly to the classical two-way ANOVA F.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from ..errors import DesignError
from ..model import Checked
from .special import f_sf


class _ObservationFields(NamedTuple):
    bullet: str
    location: str
    responses: tuple[float, ...]


class FactorialObservation(Checked, _ObservationFields):
    """One multivariate observation in the bullet-by-location layout."""

    __slots__ = ()

    def __new__(cls, bullet: str, location: str, responses: tuple[float, ...]):
        if not responses:
            raise ValueError("responses must be nonempty")
        return super().__new__(cls, bullet, location, responses)


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


def _effect_columns(levels: int) -> np.ndarray:
    """Sum-to-zero coding matrix, one row per level, levels-1 columns."""
    out = np.zeros((levels, levels - 1))
    out[: levels - 1, :] = np.eye(levels - 1)
    out[levels - 1, :] = -1.0
    return out


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
    cell_counts = {(bl, loc): 0 for bl in bullets for loc in locations}
    for o in observations:
        cell_counts[(o.bullet, o.location)] += 1
    lacking = [cell for cell, count in cell_counts.items() if count < 2]
    if lacking:
        raise DesignError(f"cells need >= 2 replicates, lacking: {sorted(lacking)}")

    n_obs = len(observations)
    y = np.array([o.responses for o in observations], dtype=float)
    rows_a = _effect_columns(a)
    rows_b = _effect_columns(b)
    a_index = {level: i for i, level in enumerate(bullets)}
    b_index = {level: i for i, level in enumerate(locations)}

    n_cols = 1 + (a - 1) + (b - 1) + (a - 1) * (b - 1)
    x = np.zeros((n_obs, n_cols))
    x[:, 0] = 1.0
    for row, o in enumerate(observations):
        ca = rows_a[a_index[o.bullet]]
        cb = rows_b[b_index[o.location]]
        x[row, 1 : a] = ca
        x[row, a : a + b - 1] = cb
        x[row, a + b - 1 :] = np.outer(ca, cb).ravel()

    xtx = x.T @ x
    xtx_inv = np.linalg.inv(xtx)
    beta = xtx_inv @ (x.T @ y)
    resid = y - x @ beta
    e = resid.T @ resid
    v = n_obs - n_cols
    if v <= 0:
        raise DesignError(f"no error degrees of freedom (n={n_obs}, model={n_cols})")

    slices = {
        "bullet": slice(1, a),
        "location": slice(a, a + b - 1),
        "interaction": slice(a + b - 1, n_cols),
    }

    centered = y - y.mean(axis=0)
    if float(np.abs(centered).max(initial=0.0)) == 0.0:
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
        return {name: null_test for name in slices}

    det_e = np.linalg.det(e)
    if not np.isfinite(det_e) or det_e <= 0:
        raise DesignError("singular within-cell covariance; responses not full rank")
    results: dict[str, EffectTest] = {}
    for name, block in slices.items():
        idx = np.arange(n_cols)[block]
        q = len(idx)
        lb = beta[idx, :]
        m = xtx_inv[np.ix_(idx, idx)]
        h = lb.T @ np.linalg.solve(m, lb)
        lmbda = det_e / np.linalg.det(e + h)
        lmbda = min(max(float(lmbda), 1e-300), 1.0)
        trace = float(np.trace(np.linalg.solve(e, h)))
        trace = max(trace, 0.0)
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
