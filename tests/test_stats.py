import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from manova_reference import exact_regression, exact_wilks, numpy_manova

from cabl.errors import DesignError, DomainError
from cabl.stats import (
    FactorialObservation,
    TwoSampleInput,
    manova_two_way,
    pooled_t_test,
)
from cabl.stats.manova import _gauss_jordan
from cabl.ingest import replicate_summary


class TestPooledTTest:
    def test_identical_samples(self):
        a = TwoSampleInput(mean=10.0, se=0.5, n=5)
        result = pooled_t_test(a, a)
        assert result.t == 0.0
        assert result.p_two_sided == pytest.approx(1.0, abs=1e-12)

    def test_table2_silver_outer_vs_middle(self):
        # frozen from a high-precision evaluation of the pooled statistic
        outer = TwoSampleInput(mean=6.30, se=0.13, n=4)
        middle = TwoSampleInput(mean=6.66, se=0.05, n=3)
        result = pooled_t_test(outer, middle)
        assert result.t == pytest.approx(-2.2583963760295228, abs=1e-12)
        assert result.df == 5
        assert result.p_two_sided == pytest.approx(0.07349924037670497, abs=1e-12)

    def test_separated_means(self):
        a = TwoSampleInput(mean=0.0, se=1.0 / math.sqrt(10), n=10)
        b = TwoSampleInput(mean=10.0, se=1.0 / math.sqrt(10), n=10)
        assert pooled_t_test(a, b).p_two_sided < 1e-8

    @given(
        ma=st.floats(1.0, 100.0),
        mb=st.floats(1.0, 100.0),
        sa=st.floats(0.01, 5.0),
        sb=st.floats(0.01, 5.0),
        na=st.integers(2, 30),
        nb=st.integers(2, 30),
    )
    def test_antisymmetric_under_swap(self, ma, mb, sa, sb, na, nb):
        a = TwoSampleInput(ma, sa, na)
        b = TwoSampleInput(mb, sb, nb)
        fwd = pooled_t_test(a, b)
        rev = pooled_t_test(b, a)
        assert fwd.t == pytest.approx(-rev.t, rel=1e-12, abs=1e-12)
        assert fwd.p_two_sided == pytest.approx(rev.p_two_sided, rel=1e-12)

    def test_from_values(self):
        summary = replicate_summary([1.0, 2.0, 3.0])
        sample = TwoSampleInput(summary.mean, summary.se, summary.n)
        assert sample.mean == 2.0
        assert sample.se == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
        assert sample.n == 3
        assert sample.sd == pytest.approx(1.0, abs=1e-12)

    def test_zero_spread_equal_means(self):
        a = TwoSampleInput(mean=5.0, se=0.0, n=4)
        result = pooled_t_test(a, a)
        assert result.t == 0.0 and result.p_two_sided == 1.0

    def test_zero_spread_different_means_refused(self):
        a = TwoSampleInput(mean=5.0, se=0.0, n=4, label="left")
        b = TwoSampleInput(mean=6.0, se=0.0, n=3, label="right")
        with pytest.raises(DomainError, match="left and right both have zero spread"):
            pooled_t_test(a, b)

    def test_requires_two_observations(self):
        with pytest.raises(ValueError):
            TwoSampleInput(mean=1.0, se=0.1, n=1)

    def test_overflowing_pooled_variance_refused(self):
        # each squared sd is finite, their pooled sum is not; t would read 0
        a = TwoSampleInput(mean=3.25e153, se=3.25e153, n=4, label="left")
        b = TwoSampleInput(mean=3.0e153, se=3.0e153, n=4, label="right")
        with pytest.raises(DomainError, match="left and right: the pooled variance"):
            pooled_t_test(a, b)

    def test_overflowing_squared_sd_refused(self):
        # sd = 2e200, and a float ** that leaves the range raises OverflowError
        a = TwoSampleInput(mean=1.0, se=1e200, n=4, label="left")
        b = TwoSampleInput(mean=2.0, se=1.0, n=4, label="right")
        with pytest.raises(OverflowError):
            a.sd**2
        for first, second in ((a, b), (b, a)):
            with pytest.raises(DomainError, match="the pooled variance or the t statistic overflows"):
                pooled_t_test(first, second)

    @pytest.mark.parametrize(
        "means, se",
        [((1e308, -1e308), 1.0), ((1e300, 2e300), 1e-150)],
        ids=["mean_difference", "ratio"],
    )
    def test_overflowing_t_refused(self, means, se):
        a, b = (TwoSampleInput(mean=m, se=se, n=4) for m in means)
        with pytest.raises(DomainError, match="a and b: .* the t statistic overflows"):
            pooled_t_test(a, b)


def build_design(effect_b=(0.55, 0.35), seed=0, a=2, b=3, r=3):
    rng = np.random.default_rng(seed)
    bullets = np.repeat(np.arange(a), b * r)
    locs = np.tile(np.repeat(np.arange(b), r), a)
    effect = np.zeros((a, 2))
    effect[1] = effect_b
    y = rng.normal(0.0, 1.0, size=(a * b * r, 2)) + effect[bullets]
    obs = [
        FactorialObservation(str(bullets[i]), str(locs[i]), tuple(y[i]))
        for i in range(len(y))
    ]
    return obs, y, bullets, locs


@st.composite
def unbalanced_designs(draw, max_cells=20):
    """Observations of an a×b design with 2-4 replicates a cell and 1-3 responses."""
    a = draw(st.integers(2, 5 if max_cells >= 10 else max_cells // 2))
    b = draw(st.integers(2, min(4, max_cells // a)))
    p = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(2, 4), min_size=a * b, max_size=a * b))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = rng.normal(0.0, draw(st.sampled_from([0.0, 0.3, 2.0])), size=(a, b, p))
    return [
        FactorialObservation(f"b{i}", f"l{j}", tuple(map(float, y)))
        for (i, j), n in zip(np.ndindex(a, b), counts)
        for y in 2.0 + offsets[i, j] + rng.normal(0.0, 1.0, (n, p))
    ]


class TestManova:
    @settings(max_examples=60, deadline=None)
    @given(unbalanced_designs())
    def test_agrees_with_numpy_regression(self, obs):
        got, want, wilks = manova_two_way(obs), numpy_manova(obs), exact_wilks(obs)
        assert got.keys() == want.keys() == wilks.keys()
        for name, test in got.items():
            assert test.wilks_df == want[name].wilks_df and test.hl_df == want[name].hl_df
            for field in ("wilks_lambda", "hotelling_lawley", "hl_f", "hl_p"):
                assert getattr(test, field) == pytest.approx(
                    getattr(want[name], field), rel=1e-10, abs=1e-300
                ), (name, field)
            # Wilks' F and p rest on 1 - lambda, which the float regression
            # loses to cancellation when lambda is near 1: they are checked
            # against the exact regression's lambda instead
            f, df, p = wilks[name]
            assert test.wilks_df == df
            for field, value in (("wilks_f", f), ("wilks_p", p)):
                assert getattr(test, field) == pytest.approx(value, rel=1e-10, abs=1e-300), (
                    name, field
                )

    @settings(max_examples=25, deadline=None)
    @given(unbalanced_designs(max_cells=9))
    def test_lambda_and_trace_are_the_exact_regression_rounded_once(self, obs):
        got = manova_two_way(obs)
        for name, (lmbda, trace) in exact_regression(obs).items():
            assert got[name].wilks_lambda == float(lmbda)
            assert got[name].hotelling_lawley == float(trace)

    def test_no_variation_is_trivially_null(self):
        # twelve 0.1s do not sum to exactly 1.2 in floats; no variation is exact
        for responses in ((3.0, 7.0), (0.1, 0.7)):
            obs = [
                FactorialObservation(str(bl), str(loc), responses)
                for bl in range(2)
                for loc in range(3)
                for _ in range(2)
            ]
            for effect in manova_two_way(obs).values():
                assert effect.wilks_lambda == 1.0
                assert effect.wilks_p == 1.0
                assert effect.hotelling_lawley == 0.0
                assert effect.hl_p == 1.0

    def test_matches_reference_implementation(self):
        # frozen from statsmodels MANOVA (sum-coded, Type III) on this design
        obs, *_ = build_design(seed=0)
        results = manova_two_way(obs)
        bullet = results["bullet"]
        assert bullet.wilks_lambda == pytest.approx(0.5887576472, abs=1e-9)
        assert bullet.wilks_f == pytest.approx(3.8417045648, abs=1e-9)
        assert bullet.wilks_p == pytest.approx(0.0542814057, abs=1e-9)
        assert bullet.hotelling_lawley == pytest.approx(0.6984917391, abs=1e-9)
        location = results["location"]
        assert location.wilks_lambda == pytest.approx(0.5293401942, abs=1e-9)
        assert location.wilks_f == pytest.approx(2.0595379797, abs=1e-9)
        assert location.wilks_p == pytest.approx(0.1208540811, abs=1e-9)
        assert location.hotelling_lawley == pytest.approx(0.7505245029, abs=1e-9)
        interaction = results["interaction"]
        assert interaction.wilks_lambda == pytest.approx(0.6824026455, abs=1e-9)
        assert interaction.wilks_p == pytest.approx(0.3561129071, abs=1e-9)
        assert interaction.hotelling_lawley == pytest.approx(0.4249024968, abs=1e-9)

    def test_univariate_reduces_to_classical_anova(self):
        rng = np.random.default_rng(42)
        a, b, r = 2, 3, 3
        bullets = np.repeat(np.arange(a), b * r)
        locs = np.tile(np.repeat(np.arange(b), r), a)
        y = rng.normal(0.0, 1.0, a * b * r) + 0.8 * bullets
        obs = [
            FactorialObservation(str(bullets[i]), str(locs[i]), (float(y[i]),))
            for i in range(len(y))
        ]
        result = manova_two_way(obs)["bullet"]

        # independent classical two-way ANOVA on the balanced layout
        grand = y.mean()
        ss_a = sum(
            b * r * (y[bullets == lvl].mean() - grand) ** 2 for lvl in range(a)
        )
        cell_means = {
            (i, j): y[(bullets == i) & (locs == j)].mean()
            for i in range(a)
            for j in range(b)
        }
        ss_e = sum(
            (y[k] - cell_means[(bullets[k], locs[k])]) ** 2 for k in range(len(y))
        )
        f_classical = (ss_a / (a - 1)) / (ss_e / (a * b * (r - 1)))
        assert result.wilks_f == pytest.approx(f_classical, rel=1e-10)
        assert result.wilks_df == (1.0, float(a * b * (r - 1)))

    def test_location_invariance(self):
        obs, y, bullets, locs = build_design(seed=3)
        shifted = [
            FactorialObservation(o.bullet, o.location, (o.responses[0] + 250.0, o.responses[1] - 77.0))
            for o in obs
        ]
        base = manova_two_way(obs)
        moved = manova_two_way(shifted)
        for name in base:
            assert moved[name].wilks_lambda == pytest.approx(
                base[name].wilks_lambda, rel=1e-9
            )
            assert moved[name].hotelling_lawley == pytest.approx(
                base[name].hotelling_lawley, rel=1e-9
            )

    def test_needs_two_levels(self):
        obs = [
            FactorialObservation("b0", str(loc), (1.0 * loc, 2.0))
            for loc in range(3)
            for _ in range(2)
        ]
        with pytest.raises(DesignError):
            manova_two_way(obs)

    def test_needs_filled_cells(self):
        obs, *_ = build_design(seed=1)
        # drop one whole cell
        gutted = [o for o in obs if not (o.bullet == "1" and o.location == "2")]
        with pytest.raises(DesignError):
            manova_two_way(gutted)

    def test_singular_responses_rejected(self):
        obs, y, bullets, locs = build_design(seed=2)
        doubled = [
            FactorialObservation(o.bullet, o.location, (o.responses[0], 2.0 * o.responses[0]))
            for o in obs
        ]
        with pytest.raises(DesignError, match="singular|rank"):
            manova_two_way(doubled)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_response_refused(self, bad):
        with pytest.raises(DomainError, match="responses must be finite"):
            FactorialObservation("b0", "outer", (1.0, bad))

    def test_response_length_must_agree(self):
        obs, *_ = build_design(seed=4)
        broken = obs[:-1] + [
            FactorialObservation(obs[-1].bullet, obs[-1].location, (1.0,))
        ]
        with pytest.raises(ValueError):
            manova_two_way(broken)


def leibniz_det(m):
    """det(m) as the signed sum over permutations, in exact arithmetic."""
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


@st.composite
def gram_matrices(draw):
    """AᵀA for a small integer A; with fewer rows than columns it is singular."""
    p = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 5))
    a = draw(st.lists(st.lists(st.integers(-3, 3), min_size=p, max_size=p),
                      min_size=rows, max_size=rows))
    return [[Fraction(sum(r[k] * r[l] for r in a)) for l in range(p)] for k in range(p)]


class TestGaussJordan:
    """The MANOVA's elimination on the positive semidefinite matrices it receives."""

    @settings(max_examples=300, deadline=None)
    @given(gram_matrices())
    def test_det_and_inverse_of_gram_matrix(self, m):
        p = len(m)
        identity = [[int(k == l) for l in range(p)] for k in range(p)]
        det, inverse = _gauss_jordan(m, identity)
        assert det == leibniz_det(m)
        if det == 0:
            assert inverse == []
        else:
            product = [[sum(m[k][j] * inverse[j][l] for j in range(p)) for l in range(p)]
                       for k in range(p)]
            assert product == identity
