import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cabl.errors import FitError
from cabl.stats import FAMILIES, FitFailure, FitReport, chi2_gof, fit_distribution, rank_families
from cabl.stats.fitting import _cdf_triangular, _triangular_loglik


def ranked_families(entries):
    return [e.family for e in entries if isinstance(e, FitReport)]


POSITIVE = {"chi_squared", "exponential", "gamma", "lognormal", "weibull"}


class TestFitters:
    def test_exponential_closed_form(self):
        data = [1.0, 3.0, 2.0, 2.0, 1.5, 2.5, 2.0, 2.0]  # mean exactly 2
        assert fit_distribution(data, "exponential").params["rate"] == 0.5

    def test_lognormal_recovers_parameters(self):
        rng = np.random.default_rng(8)
        data = np.exp(rng.normal(0.0, 1.0, 400)).tolist()
        params = fit_distribution(data, "lognormal").params
        bound = 3.0 / math.sqrt(400)
        assert abs(params["mu"]) < bound
        assert abs(params["sigma"] - 1.0) < bound

    def test_gamma_recovers_shape(self):
        rng = np.random.default_rng(7)
        data = rng.gamma(3.0, 2.0, 500).tolist()
        params = fit_distribution(data, "gamma").params
        assert abs(params["shape"] - 3.0) / 3.0 < 0.15

    def test_weibull_recovers_shape(self):
        rng = np.random.default_rng(9)
        data = (3.0 * rng.weibull(2.5, 500)).tolist()
        params = fit_distribution(data, "weibull").params
        assert abs(params["shape"] - 2.5) / 2.5 < 0.10
        assert abs(params["scale"] - 3.0) / 3.0 < 0.10

    def test_gumbel_recovers_parameters(self):
        rng = np.random.default_rng(10)
        data = rng.gumbel(4.0, 1.5, 500).tolist()
        params = fit_distribution(data, "gumbel").params
        assert abs(params["loc"] - 4.0) < 0.2
        assert abs(params["scale"] - 1.5) / 1.5 < 0.10

    def test_chi_squared_recovers_df(self):
        rng = np.random.default_rng(12)
        data = rng.chisquare(4.0, 600).tolist()
        params = fit_distribution(data, "chi_squared").params
        assert abs(params["df"] - 4.0) / 4.0 < 0.15

    def test_normal_mle(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        params = fit_distribution(data, "normal").params
        assert params["mu"] == 4.5
        assert params["sigma"] == pytest.approx(math.sqrt(5.25), abs=1e-12)

    def test_triangular_support_and_mode(self):
        data = [1.0, 2.0, 2.5, 3.0, 3.0, 3.2, 4.0, 6.0]
        params = fit_distribution(data, "triangular").params
        assert params["a"] == 1.0
        assert params["b"] == 6.0
        assert params["c"] in set(data)

    def test_triangular_profile_matches_direct_scan(self):
        # independent check: profile the interior likelihood by hand
        data = [1.0, 1.5, 2.0, 2.2, 2.4, 3.0, 3.5, 5.0]
        a, b = min(data), max(data)
        interior = [v for v in data if a < v < b]

        def loglik(c):
            total = 0.0
            for v in interior:
                if v < c:
                    total += math.log(2 * (v - a) / ((b - a) * (c - a)))
                elif v > c:
                    total += math.log(2 * (b - v) / ((b - a) * (b - c)))
                else:
                    total += math.log(2 / (b - a))
            return total

        best = max(sorted(set(data)), key=lambda c: (loglik(c), -c))
        assert fit_distribution(data, "triangular").params["c"] == best

    # mode -> the CDF at 1, 2 and 3 on [0, 4]: x^2 / 4c up to c, 1 - (4-x)^2 / 4(4-c) above
    @pytest.mark.parametrize(
        "c, cdf",
        [(0.0, (7 / 16, 12 / 16, 15 / 16)), (1.0, (1 / 4, 8 / 12, 11 / 12)),
         (4.0, (1 / 16, 4 / 16, 9 / 16))],
    )
    def test_triangular_cdf_with_the_mode_anywhere(self, c, cdf):
        p = {"a": 0.0, "c": c, "b": 4.0}
        assert [_cdf_triangular(p, x) for x in (-1.0, 0.0, 4.0, 5.0)] == [0.0, 0.0, 1.0, 1.0]
        assert [_cdf_triangular(p, x) for x in (1.0, 2.0, 3.0)] == pytest.approx(cdf, abs=1e-15)

    def test_degenerate_data_rejected(self):
        with pytest.raises(FitError):
            fit_distribution([2.0] * 10, "normal")
        with pytest.raises(FitError):
            fit_distribution([2.0] * 10, "triangular")
        with pytest.raises(FitError):
            fit_distribution([2.0] * 10, "weibull")

    def test_triangular_overflowing_range_rejected(self):
        # b - a is inf, so no candidate mode has a finite profile score
        data = [-1e308, 1e308, *(float(i) for i in range(8))]
        with pytest.raises(FitError, match="finite data range"):
            fit_distribution(data, "triangular")
        entries = rank_families(data)
        assert sorted(e.family for e in entries) == sorted(FAMILIES)
        assert any(isinstance(e, FitFailure) and e.family == "triangular" for e in entries)

    def test_triangular_overflowing_doubled_distance_rejected(self):
        # b - a is finite, but 2(b - v) overflows, so no mode scores finite
        data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 1e308]
        with pytest.raises(FitError, match="no candidate mode has a finite log-likelihood"):
            fit_distribution(data, "triangular")
        entries = rank_families(data)
        assert sorted(e.family for e in entries) == sorted(FAMILIES)
        failed = {e.family for e in entries if isinstance(e, FitFailure)}
        assert "triangular" in failed
        assert ranked_families(entries)

    def test_overflowing_parameter_rejected(self):
        # the sum of these finite values overflows, so neither the normal
        # mean nor the exponential rate can be formed
        data = [1.0e308 + i * 0.1e308 for i in range(8)]
        with pytest.raises(FitError, match="^normal fit overflows: intermediate overflow in fsum$"):
            fit_distribution(data, "normal")
        entries = rank_families(data)
        failures = {e.family: e.error for e in entries if isinstance(e, FitFailure)}
        assert failures["normal"] == "normal fit overflows: intermediate overflow in fsum"
        assert failures["exponential"] == "exponential fit overflows: intermediate overflow in fsum"
        assert failures["triangular"].startswith("triangular goodness of fit overflows")
        assert set(ranked_families(entries)) == {"lognormal", "weibull"}

    @pytest.mark.parametrize("family", ["normal", "gumbel"])
    def test_overflowing_spread_is_a_fit_error(self, family):
        # the squared deviations of +-1e308 overflow, in the fit itself
        data = [-1e308, 1e308, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.raises(FitError, match=f"^{family} fit overflows: s(igma|d) = inf$"):
            fit_distribution(data, family)

    def test_positive_support_families_reject_nonpositive(self):
        data = [-1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        for family in ("exponential", "weibull", "gamma", "lognormal", "chi_squared"):
            with pytest.raises(FitError):
                fit_distribution(data, family)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_all_equal_data_refused_once_support_holds(self, family):
        if family == "exponential":
            assert fit_distribution([2.0] * 10, family).params == {"rate": 0.5}
            return
        message = f"^{family} requires data with spread; all values are equal$"
        with pytest.raises(FitError, match=message):
            fit_distribution([2.0] * 10, family)
        if family in POSITIVE:
            # the support rule is checked first
            with pytest.raises(FitError, match=f"^{family} requires strictly positive data$"):
                fit_distribution([-2.0] * 10, family)

    @pytest.mark.parametrize("family", sorted(POSITIVE))
    def test_positive_family_cdf_is_zero_off_support(self, family):
        fitted = fit_distribution([1.0 + i / 4 for i in range(12)], family)
        assert [fitted.cdf(x) for x in (-math.inf, -2.0, -0.0, 0.0)] == [0.0] * 4
        assert 0.0 < fitted.cdf(1.0) < fitted.cdf(3.0) < 1.0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            fit_distribution([1.0] * 8, "cauchy")

    def test_needs_eight_observations(self):
        with pytest.raises(ValueError):
            fit_distribution([1.0, 2.0, 3.0], "normal")


def scanned_triangular_mode(data):
    """Quadratic profile scan: the first strict maximum in ascending c."""
    a, b = min(data), max(data)
    interior = [v for v in data if a < v < b]
    best_c, best_ll = None, -math.inf
    for c in sorted(set(data)):
        ll = _triangular_loglik(interior, a, c, b)
        if ll > best_ll:
            best_ll, best_c = ll, c
    return best_c


def triangular_mode(data):
    return fit_distribution(data, "triangular").params["c"]


class TestTriangularProfile:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 400),
        sampler=st.sampled_from(["triangular", "normal", "exponential", "uniform"]),
    )
    def test_matches_quadratic_scan_on_seeded_data(self, seed, n, sampler):
        rng = np.random.default_rng(seed)
        data = {
            "triangular": lambda: rng.triangular(10.0, rng.uniform(10.0, 30.0), 30.0, n),
            "normal": lambda: rng.normal(0.0, 1.0, n),
            "exponential": lambda: rng.exponential(2.0, n),
            "uniform": lambda: rng.uniform(-1.0, 1.0, n),
        }[sampler]().tolist()
        assert triangular_mode(data) == scanned_triangular_mode(data)

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(st.integers(0, 6), min_size=8, max_size=80),
        base=st.sampled_from([0.0, 1.0, 1e6]),
        scale=st.sampled_from([1e-12, 1e-9, 1e-3, 1.0]),
    )
    # modes 2 and 3 tie up to the last bit, which the data order sets
    @example(steps=[0, 1, 2, 2, 3, 3, 3, 5, 1, 3], base=0.0, scale=1.0)
    # the prefix sums alone would rank this near-tie the other way
    @example(steps=[7, 3, 1, 5, 1, 4, 1, 8, 8], base=1.0, scale=1e-3)
    def test_matches_quadratic_scan_on_near_equal_values(self, steps, base, scale):
        data = [base + k * scale for k in steps]
        a, b = min(data), max(data)
        assume(any(a < v < b for v in data))
        assert triangular_mode(data) == scanned_triangular_mode(data)

    def test_mode_on_support_ends(self):
        # interior values within rounding of a: c = a ties with the
        # smallest interior value and, coming first, wins
        low = [0.0, 1.0, *(k * 1e-20 for k in range(1, 11))]
        assert triangular_mode(low) == scanned_triangular_mode(low) == 0.0
        # the mirror image: c = b ties with the largest interior value,
        # which comes first, so a mode never lands on b
        high = [-v for v in low]
        assert triangular_mode(high) == scanned_triangular_mode(high) == -1e-20


PARAM_COUNTS = {
    "chi_squared": 1,
    "exponential": 1,
    "gamma": 2,
    "gumbel": 2,
    "lognormal": 2,
    "normal": 2,
    "triangular": 3,
    "weibull": 2,
}


class TestChi2Gof:
    def test_families_sorted(self):
        assert FAMILIES == tuple(sorted(PARAM_COUNTS))

    @pytest.mark.parametrize("family", sorted(PARAM_COUNTS))
    def test_stat_nonnegative_and_df_rule(self, family):
        rng = np.random.default_rng(5)
        data = rng.exponential(1.0, 100).tolist()
        fitted = fit_distribution(data, family)
        result = chi2_gof(data, fitted)
        assert result.stat >= 0.0
        assert result.df == max(5, 100 // 5) - 1 - PARAM_COUNTS[family]
        assert 0.0 <= result.p <= 1.0

    def test_minimum_bin_count(self):
        rng = np.random.default_rng(6)
        data = rng.normal(10.0, 2.0, 8).tolist()
        fitted = fit_distribution(data, "normal")
        result = chi2_gof(data, fitted)
        assert result.df == 5 - 1 - 2

    def test_self_fit_sanity_ten_seeds(self):
        samplers = {
            "exponential": lambda rng: rng.exponential(2.0, 120),
            "weibull": lambda rng: 2.0 * rng.weibull(1.7, 120),
            "gamma": lambda rng: rng.gamma(3.0, 2.0, 120),
            "lognormal": lambda rng: rng.lognormal(0.3, 0.8, 120),
            "gumbel": lambda rng: rng.gumbel(5.0, 2.0, 120),
            "normal": lambda rng: rng.normal(10.0, 2.0, 120),
            "chi_squared": lambda rng: rng.chisquare(4.0, 120),
            "triangular": lambda rng: rng.triangular(0.0, 2.0, 5.0, 120),
        }
        runs = list(samplers.items()) + [
            ("normal", samplers["normal"]),
            ("gamma", samplers["gamma"]),
        ]
        assert len(runs) == 10
        for seed, (family, sampler) in enumerate(runs, start=41):
            rng = np.random.default_rng(seed)
            data = sampler(rng).tolist()
            fitted = fit_distribution(data, family)
            assert chi2_gof(data, fitted).p >= 0.001, f"{family} seed {seed}"

    def test_misfit_detected(self):
        rng = np.random.default_rng(31)
        data = rng.exponential(1.0, 500).tolist()
        fitted = fit_distribution(data, "gumbel")
        assert chi2_gof(data, fitted).p < 0.01


class TestRankFamilies:
    def test_lognormal_sample_ranks_lognormal_top(self):
        rng = np.random.default_rng(11)
        data = np.exp(rng.normal(0.0, 1.0, 200)).tolist()
        names = ranked_families(rank_families(data))
        assert "lognormal" in names[:2]

    def test_exponential_sample_ranks_exponential_or_gamma_first(self):
        rng = np.random.default_rng(23)
        data = rng.exponential(2.0, 200).tolist()
        names = ranked_families(rank_families(data))
        assert names[0] in ("exponential", "gamma")

    def test_single_family(self):
        rng = np.random.default_rng(2)
        data = rng.normal(5.0, 1.0, 50).tolist()
        entries = rank_families(data, ["normal"])
        assert len(entries) == 1
        assert entries[0].family == "normal"

    def test_failures_are_marked_not_dropped(self):
        rng = np.random.default_rng(3)
        data = rng.normal(0.0, 1.0, 60).tolist()  # straddles zero
        entries = rank_families(data)
        families = [e.family for e in entries]
        assert sorted(families) == sorted(FAMILIES)
        failures = {e.family for e in entries if isinstance(e, FitFailure)}
        assert failures == {"chi_squared", "exponential", "gamma", "lognormal", "weibull"}
        # failures trail the ranking
        kinds = [isinstance(e, FitFailure) for e in entries]
        assert kinds == sorted(kinds)

    def test_ranking_sorted_by_p_desc(self):
        rng = np.random.default_rng(4)
        data = rng.gamma(2.0, 1.0, 150).tolist()
        reports = [e for e in rank_families(data) if isinstance(e, FitReport)]
        ps = [r.p_value for r in reports]
        assert ps == sorted(ps, reverse=True)
