"""Reference two-way MANOVAs that ``cabl.stats.manova`` is tested against.

Both fit the multivariate linear model on the full n×ab design matrix X
in sum-to-zero (effect) coding and test each effect's coefficient block
L·B with H = (L·B)ᵀ [L (XᵀX)⁻¹ Lᵀ]⁻¹ (L·B), the Type III test:

* ``numpy_manova`` in floating point, returning an ``EffectTest`` per
  effect (the regression cabl ran before its cell-means form);
* ``exact_regression`` in ``Fraction`` arithmetic, returning each
  effect's exact Wilks' lambda and Hotelling-Lawley trace;
* ``exact_wilks``, each effect's Wilks F, its dfs and p from that exact
  lambda rounded once, where the float regression's ``1 - lambda``
  cancels for a lambda near 1.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from cabl.errors import DesignError
from cabl.stats.manova import EffectTest, _hotelling_f, _wilks_f


def _effect_rows(levels: int) -> list[list[int]]:
    """Sum-to-zero coding, one row per level, levels-1 columns."""
    return [[int(i == k) for k in range(levels - 1)] for i in range(levels - 1)] + [
        [-1] * (levels - 1)
    ]


def _design(observations):
    """(x, y, blocks): integer design rows, responses, and each effect's columns."""
    bullets = sorted({o.bullet for o in observations})
    locations = sorted({o.location for o in observations})
    a, b = len(bullets), len(locations)
    rows_a, rows_b = _effect_rows(a), _effect_rows(b)
    x = []
    for o in observations:
        ca = rows_a[bullets.index(o.bullet)]
        cb = rows_b[locations.index(o.location)]
        x.append([1, *ca, *cb, *(i * j for i in ca for j in cb)])
    n_cols = len(x[0])
    blocks = {
        "bullet": range(1, a),
        "location": range(a, a + b - 1),
        "interaction": range(a + b - 1, n_cols),
    }
    return x, [list(o.responses) for o in observations], blocks


def numpy_manova(observations) -> dict[str, EffectTest]:
    """Wilks and Hotelling-Lawley tests from the floating-point regression."""
    x_rows, y_rows, blocks = _design(observations)
    x = np.array(x_rows, dtype=float)
    y = np.array(y_rows, dtype=float)
    p = y.shape[1]
    xtx_inv = np.linalg.inv(x.T @ x)
    beta = xtx_inv @ (x.T @ y)
    resid = y - x @ beta
    e = resid.T @ resid
    v = x.shape[0] - x.shape[1]
    det_e = np.linalg.det(e)
    if not np.isfinite(det_e) or det_e <= 0:
        raise DesignError("singular within-cell covariance; responses not full rank")
    results = {}
    for name, block in blocks.items():
        idx = list(block)
        lb = beta[idx, :]
        h = lb.T @ np.linalg.solve(xtx_inv[np.ix_(idx, idx)], lb)
        lmbda = min(max(float(det_e / np.linalg.det(e + h)), 1e-300), 1.0)
        trace = max(float(np.trace(np.linalg.solve(e, h))), 0.0)
        q = len(idx)
        wf, wdf, wp = _wilks_f(lmbda, p, q, v)
        hf, hdf, hp = _hotelling_f(trace, p, q, v)
        results[name] = EffectTest(lmbda, wf, wdf, wp, trace, hf, hdf, hp)
    return results


def _solve(m, rhs):
    """det(m) and m⁻¹·rhs over Fractions, by Gauss-Jordan elimination."""
    n = len(m)
    rows = [[Fraction(v) for v in (*m[i], *rhs[i])] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col:
                rows[r] = [v - rows[r][col] * w for v, w in zip(rows[r], rows[col])]
    return det, [row[n:] for row in rows]


def _matmul(m, n):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*n)] for row in m]


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _identity(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def exact_regression(observations) -> dict[str, tuple[Fraction, Fraction]]:
    """Each effect's (Wilks' lambda, Hotelling-Lawley trace) as exact rationals."""
    x, y_rows, blocks = _design(observations)
    y = [[Fraction(v) for v in row] for row in y_rows]
    xt = _transpose(x)
    _, xtx_inv = _solve(_matmul(xt, x), _identity(len(xt)))
    beta = _matmul(xtx_inv, _matmul(xt, y))
    fitted = _matmul(x, beta)
    resid = [[v - f for v, f in zip(*rows)] for rows in zip(y, fitted)]
    e = _matmul(_transpose(resid), resid)
    det_e, e_inv = _solve(e, _identity(len(e)))
    results = {}
    for name, block in blocks.items():
        lb = [beta[i] for i in block]
        m = [[xtx_inv[i][j] for j in block] for i in block]
        h = _matmul(_transpose(lb), _solve(m, lb)[1])
        det_eh, _ = _solve([[u + w for u, w in zip(*rows)] for rows in zip(e, h)], [[]] * len(e))
        trace = sum(_matmul(e_inv, h)[k][k] for k in range(len(e)))
        results[name] = (det_e / det_eh, trace)
    return results


def exact_wilks(observations) -> dict[str, tuple[float, tuple[float, float], float]]:
    """Each effect's Wilks ``(F, (df1, df2), p)`` from the exact lambda rounded once."""
    x, y_rows, blocks = _design(observations)
    p, v = len(y_rows[0]), len(x) - len(x[0])
    return {
        name: _wilks_f(float(lmbda), p, len(blocks[name]), v)
        for name, (lmbda, _) in exact_regression(observations).items()
    }
