"""Evidence evaluation for "how many bullets" questions.

A box of cartridges is modeled as disjoint compositional groups; the
probability that m bullets drawn uniformly without replacement span at
least g distinct groups follows the multivariate hypergeometric law.
The number of draws touching exactly j groups is a coefficient of a
bivariate generating function, expanded group by group in polynomial
time (G groups, m draws: O(G^2 * m * max group size) integer steps),
and divided by C(total, m).  The likelihood ratio compares that span
probability under the competing draw counts, and posterior odds are
prior odds times the ratio.

All probabilities are exact rationals (Python integers make this cheap
at any box size), so the published 53.3%/80% figures are reproduced
without tolerance questions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import DomainError, checked


@checked
class BoxModel(NamedTuple):
    """Compositional group sizes within one box of cartridges."""

    group_sizes: tuple[int, ...]

    def _checked(self):
        if not self.group_sizes:
            raise ValueError("need at least one group")
        # a bool is an int, but True is not a group of one
        if any(type(s) is not int or s <= 0 for s in self.group_sizes):
            raise ValueError(f"group sizes must be positive integers, got {self.group_sizes}")

    @property
    def total(self) -> int:
        return sum(self.group_sizes)

    @property
    def n_groups(self) -> int:
        return len(self.group_sizes)


def _span_counts(sizes: tuple[int, ...], draws: int) -> tuple[int, ...]:
    """Number of draw-subsets touching exactly j groups, for j = 0..G.

    count(draws, j) is the coefficient of x^draws y^j in
    prod_i (1 + y((1+x)^s_i - 1)): a group either stays untouched or
    gives up k >= 1 of its s_i bullets in C(s_i, k) ways.  Coefficient d
    of ``rows[j]`` counts the d-draws from the groups multiplied in so
    far that touch exactly j of them, cut at d = ``draws``; each group
    costs O(G * draws * s_i) big-int steps.
    """
    rows = [[1] + [0] * draws]
    for size in sizes:
        # terms (k, C(size, k)) of (1+x)^size - 1 up to degree draws
        grow = [(k, math.comb(size, k)) for k in range(1, min(size, draws) + 1)]
        rows.append([0] * (draws + 1))
        # descending j reads rows[j - 1] before this group updates it
        for j in range(len(rows) - 1, 0, -1):
            below, row = rows[j - 1], rows[j]
            # j - 1 touched groups hold at least j - 1 drawn bullets
            for d in range(j - 1, draws):
                c = below[d]
                if c:
                    for k, ways in grow:
                        if d + k > draws:
                            break
                        row[d + k] += c * ways
    return tuple(row[draws] for row in rows)


def p_span_at_least(box: BoxModel, draws: int, min_groups: int) -> Fraction:
    """P(an m-draw without replacement touches >= g distinct groups).

    Exact: the count of m-subsets touching at least g groups, from the
    generating-function expansion in ``_span_counts``, over C(total, m).
    Nondecreasing in ``draws`` and nonincreasing in ``min_groups``;
    equal to 1 whenever g = 1.
    """
    if draws < 1 or draws > box.total:
        raise ValueError(f"draws must be in [1, {box.total}], got {draws}")
    if min_groups < 1 or min_groups > box.n_groups:
        raise ValueError(
            f"min_groups must be in [1, {box.n_groups}], got {min_groups}"
        )
    if min_groups == 1:
        return Fraction(1)
    favorable = sum(_span_counts(box.group_sizes, draws)[min_groups:])
    return Fraction(favorable, math.comb(box.total, draws))


class EvidenceResult(NamedTuple):
    """Span probabilities, their ratio, and optional posterior odds."""

    p_given_t: Fraction
    p_given_not_t: Fraction
    likelihood_ratio: Fraction
    posterior_odds: Optional[Fraction] = None

    def as_dict(self) -> dict:
        out = {}
        for name, value in self._asdict().items():
            if value is not None:
                try:
                    out[name] = float(value)
                except OverflowError:
                    raise DomainError(f"{name} exceeds the float range") from None
                out[f"{name}_exact"] = str(value)
        return out


def likelihood_ratio(
    box: BoxModel, observed_groups: int, draws_t: int, draws_not_t: int
) -> EvidenceResult:
    """Ratio of span probabilities under the two draw-count hypotheses.

    ``draws_t`` bullets under the hypothesis T, ``draws_not_t`` under
    its complement; the evidence is "the draw spans at least
    ``observed_groups`` groups".
    """
    p_t = p_span_at_least(box, draws_t, observed_groups)
    p_not_t = p_span_at_least(box, draws_not_t, observed_groups)
    if p_not_t == 0:
        raise ValueError(
            "likelihood ratio undefined: evidence has zero probability under not-T"
        )
    return EvidenceResult(
        p_given_t=p_t, p_given_not_t=p_not_t, likelihood_ratio=p_t / p_not_t
    )


def posterior_odds(lr: Fraction | float, prior_odds: Fraction | float) -> Fraction:
    """Posterior odds = likelihood ratio times prior odds."""
    lr = Fraction(lr)
    prior = Fraction(prior_odds)
    if lr <= 0 or prior <= 0:
        raise ValueError("likelihood ratio and prior odds must be > 0")
    return lr * prior
