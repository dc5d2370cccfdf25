import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cabl.errors import DomainError
from cabl.evidence import (
    BoxModel,
    EvidenceResult,
    _span_counts,
    likelihood_ratio,
    p_span_at_least,
    posterior_odds,
)


def brute_force_span(sizes, draws, min_groups):
    """Enumerate every draw of labeled balls and count group spans."""
    balls = [g for g, size in enumerate(sizes) for _ in range(size)]
    favorable = sum(
        1 for chosen in combinations(range(len(balls)), draws)
        if len({balls[i] for i in chosen}) >= min_groups
    )
    return Fraction(favorable, math.comb(len(balls), draws))


@lru_cache(maxsize=4096)
def _subset_sums_by_cardinality(sizes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Member totals of every group subset, bucketed by subset size."""
    n_groups = len(sizes)
    buckets: list[list[int]] = [[] for _ in range(n_groups + 1)]
    for mask in range(1 << n_groups):
        members = sum(sizes[i] for i in range(n_groups) if mask >> i & 1)
        buckets[mask.bit_count()].append(members)
    return tuple(tuple(b) for b in buckets)


def subset_span_counts(sizes: tuple[int, ...], draws: int) -> tuple[int, ...]:
    """Inclusion-exclusion over all 2^G group subsets (exponential oracle).

    Mobius inversion of the "draw stays inside subset S" counts
    C(members(S), draws), aggregated by subset cardinality: a subset T
    of size u lies under C(G-u, j-u) supersets of size j, with sign
    (-1)^(j-u).
    """
    n_groups = len(sizes)
    inside = [
        sum(math.comb(members, draws) for members in bucket)
        for bucket in _subset_sums_by_cardinality(sizes)
    ]
    return tuple(
        sum(
            (-1) ** (j - u) * math.comb(n_groups - u, j - u) * inside[u]
            for u in range(j + 1)
        )
        for j in range(n_groups + 1)
    )


boxes = st.lists(st.integers(1, 6), min_size=1, max_size=4).filter(
    lambda sizes: sum(sizes) <= 12
)


class TestSpanProbability:
    def test_box_6_4_two_draws(self):
        assert p_span_at_least(BoxModel((6, 4)), 2, 2) == Fraction(24, 45)

    def test_box_6_4_three_draws(self):
        assert p_span_at_least(BoxModel((6, 4)), 3, 2) == Fraction(4, 5)

    def test_single_draw_cannot_span_two(self):
        assert p_span_at_least(BoxModel((6, 4)), 1, 2) == 0

    def test_three_equal_groups(self):
        assert p_span_at_least(BoxModel((3, 3, 3)), 3, 3) == Fraction(27, 84)

    def test_min_groups_one_is_certain(self):
        for m in range(1, 11):
            assert p_span_at_least(BoxModel((6, 4)), m, 1) == 1

    def test_draws_beyond_total_rejected(self):
        with pytest.raises(ValueError):
            p_span_at_least(BoxModel((6, 4)), 11, 2)

    def test_min_groups_beyond_count_rejected(self):
        with pytest.raises(ValueError):
            p_span_at_least(BoxModel((6, 4)), 2, 3)

    def test_group_sizes_validated(self):
        with pytest.raises(ValueError):
            BoxModel((6, 0))
        with pytest.raises(ValueError):
            BoxModel(())

    @settings(max_examples=60, deadline=None)
    @given(sizes=boxes, draws=st.integers(1, 12), min_groups=st.integers(1, 4))
    def test_matches_brute_force(self, sizes, draws, min_groups):
        box = BoxModel(tuple(sizes))
        draws = min(draws, box.total)
        min_groups = min(min_groups, box.n_groups)
        assert p_span_at_least(box, draws, min_groups) == brute_force_span(
            sizes, draws, min_groups
        )

    @settings(max_examples=40, deadline=None)
    @given(sizes=boxes, draws=st.integers(1, 11))
    def test_monotone_in_draws(self, sizes, draws):
        box = BoxModel(tuple(sizes))
        if box.total < 2 or box.n_groups < 2:
            return
        draws = min(draws, box.total - 1)
        assert p_span_at_least(box, draws, 2) <= p_span_at_least(box, draws + 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(sizes=boxes, min_groups=st.integers(1, 3))
    def test_monotone_in_min_groups(self, sizes, min_groups):
        box = BoxModel(tuple(sizes))
        if box.n_groups < 2:
            return
        min_groups = min(min_groups, box.n_groups - 1)
        m = box.total
        assert p_span_at_least(box, m, min_groups) >= p_span_at_least(box, m, min_groups + 1)

    def test_invariant_under_group_reordering(self):
        for sizes in ((6, 4), (4, 6), (1, 2, 3), (3, 2, 1), (2, 3, 1)):
            assert p_span_at_least(BoxModel(sizes), 3, 2) == p_span_at_least(
                BoxModel(tuple(sorted(sizes))), 3, 2
            )


class TestSpanCounts:
    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=12))
    def test_matches_subset_formula(self, sizes):
        sizes = tuple(sizes)
        for draws in range(sum(sizes) + 1):
            assert _span_counts(sizes, draws) == subset_span_counts(sizes, draws)

    def test_forty_groups_partition_all_draws(self):
        # 2^40 subsets: out of reach for the subset formula
        sizes = tuple(1 + i % 6 for i in range(40))
        total = sum(sizes)
        for draws in (0, 1, 2, 39, 40, total // 2, total - 1, total):
            counts = _span_counts(sizes, draws)
            assert len(counts) == 41
            assert sum(counts) == math.comb(total, draws)
            # j touched groups need at least j draws
            assert all(c == 0 for c in counts[draws + 1:])
        assert _span_counts(sizes, 1)[1] == total
        assert _span_counts(sizes, total)[-1] == 1


class TestLikelihoodRatio:
    def test_published_ratio(self):
        result = likelihood_ratio(BoxModel((6, 4)), 2, draws_t=2, draws_not_t=3)
        assert result.p_given_t == Fraction(24, 45)
        assert result.p_given_not_t == Fraction(4, 5)
        assert result.likelihood_ratio == Fraction(2, 3)
        assert result.likelihood_ratio < 1

    def test_single_group_box(self):
        result = likelihood_ratio(BoxModel((10,)), 1, draws_t=2, draws_not_t=3)
        assert result.likelihood_ratio == 1

    def test_five_five_box(self):
        result = likelihood_ratio(BoxModel((5, 5)), 2, draws_t=2, draws_not_t=3)
        assert result.p_given_t == Fraction(25, 45)
        assert result.p_given_not_t == Fraction(5, 6)
        assert result.likelihood_ratio == Fraction(2, 3)

    def test_fewer_t_draws_gives_lr_below_one(self):
        for sizes in ((6, 4), (5, 5), (7, 3), (4, 4, 2)):
            result = likelihood_ratio(BoxModel(sizes), 2, draws_t=2, draws_not_t=3)
            assert result.likelihood_ratio < 1

    def test_undefined_ratio(self):
        with pytest.raises(ValueError, match="undefined"):
            likelihood_ratio(BoxModel((6, 4)), 2, draws_t=2, draws_not_t=1)


class TestPosteriorOdds:
    def test_indifferent_prior(self):
        assert posterior_odds(Fraction(2, 3), 1) == Fraction(2, 3)

    def test_unit_ratio(self):
        assert posterior_odds(1, Fraction(3, 7)) == Fraction(3, 7)

    def test_product(self):
        assert posterior_odds(Fraction(2, 3), 3) == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            posterior_odds(0, 1)
        with pytest.raises(ValueError):
            posterior_odds(Fraction(2, 3), -1)


class TestEvidenceResult:
    def test_as_dict_keeps_exact_values(self):
        result = EvidenceResult(Fraction(8, 15), Fraction(4, 5), Fraction(2, 3), Fraction(4, 9))
        out = result.as_dict()
        assert out["posterior_odds_exact"] == "4/9"
        assert out["likelihood_ratio"] == 2 / 3

    def test_float_overflow_names_the_field(self):
        huge = Fraction(10**400)
        with pytest.raises(DomainError, match="likelihood_ratio exceeds the float range"):
            EvidenceResult(Fraction(1), Fraction(1, 10**400), huge).as_dict()
