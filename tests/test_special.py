"""Special functions against high-precision reference fixtures.

Reference values live in ``data/special_reference.json`` and were
computed with mpmath at 50 digits (see ``data/gen_special_reference.py``).
"""

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cabl.stats import special as sp

REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "special_reference.json").read_text()
)


class TestReferenceFixtures:
    """The tail functions against the complements of the reference CDFs."""

    def test_t_cdf_20_points(self):
        assert len(REFERENCE["t_cdf"]) == 20
        for t, df, expected in REFERENCE["t_cdf"]:
            tail = min(expected, 1.0 - expected)
            assert 0.5 * sp.t_two_sided_p(t, df) == pytest.approx(tail, abs=1e-10)

    def test_chi2_cdf_20_points(self):
        assert len(REFERENCE["chi2_cdf"]) == 20
        for x, df, expected in REFERENCE["chi2_cdf"]:
            assert sp.chi2_sf(x, df) == pytest.approx(1.0 - expected, abs=1e-10)

    def test_f_cdf_20_points(self):
        assert len(REFERENCE["f_cdf"]) == 20
        for x, d1, d2, expected in REFERENCE["f_cdf"]:
            assert sp.f_sf(x, d1, d2) == pytest.approx(1.0 - expected, abs=1e-10)

    def test_regularized_incomplete_gamma(self):
        for a, x, expected in REFERENCE["gammainc_p"]:
            assert sp.gammainc_p(a, x) == pytest.approx(expected, abs=1e-10)
            assert sp.gammainc_q(a, x) == pytest.approx(1.0 - expected, abs=1e-10)

    def test_regularized_incomplete_beta(self):
        for a, b, x, expected in REFERENCE["betainc"]:
            assert sp.betainc(a, b, x) == pytest.approx(expected, abs=1e-10)

    def test_digamma(self):
        for x, expected in REFERENCE["digamma"]:
            assert sp.digamma(x) == pytest.approx(expected, abs=1e-10)


class TestIdentities:
    @given(a=st.floats(0.05, 200.0), x=st.floats(0.0, 400.0))
    def test_gamma_pq_sum_to_one(self, a, x):
        assert sp.gammainc_p(a, x) + sp.gammainc_q(a, x) == pytest.approx(1.0, abs=1e-12)

    @given(
        a=st.floats(0.05, 80.0),
        b=st.floats(0.05, 80.0),
        # representing 1-x itself costs ~ulp(1)/x relative error, so keep x
        # away from the endpoints; true accuracy is pinned by the fixtures
        x=st.floats(1e-6, 1.0 - 1e-6),
    )
    def test_beta_reflection(self, a, b, x):
        assert sp.betainc(a, b, x) == pytest.approx(
            1.0 - sp.betainc(b, a, 1.0 - x), abs=1e-10
        )

    @given(t=st.floats(-30.0, 30.0), df=st.floats(0.5, 200.0))
    def test_t_symmetry(self, t, df):
        assert sp.t_two_sided_p(t, df) == pytest.approx(sp.t_two_sided_p(-t, df), abs=1e-12)

    @given(t=st.floats(0.01, 20.0), df=st.integers(1, 100))
    def test_f_is_squared_t(self, t, df):
        assert sp.f_sf(t * t, 1, df) == pytest.approx(sp.t_two_sided_p(t, df), abs=1e-11)

    @given(x=st.floats(0.0, 200.0), df=st.floats(0.5, 100.0))
    def test_chi2_cdf_sf_sum(self, x, df):
        cdf = sp.gammainc_p(df / 2.0, x / 2.0)
        assert cdf + sp.chi2_sf(x, df) == pytest.approx(1.0, abs=1e-12)

    def test_two_sided_t_matches_tails(self):
        # both tails are one less the central mass P(|T| < t)
        for t, df in ((0.5, 3), (2.2584, 5), (4.5, 17)):
            central = sp.betainc(0.5, df / 2.0, t * t / (df + t * t))
            assert sp.t_two_sided_p(t, df) == pytest.approx(1.0 - central, abs=1e-12)

    def test_normal_cdf_known_points(self):
        assert sp.normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert sp.normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)
        assert sp.normal_cdf(10.0, mu=10.0, sigma=2.0) == pytest.approx(0.5, abs=1e-15)


class TestDomains:
    def test_gamma_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sp.gammainc_p(0.0, 1.0)
        with pytest.raises(ValueError):
            sp.gammainc_q(1.0, -0.5)

    def test_beta_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sp.betainc(1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            sp.betainc(-1.0, 1.0, 0.5)

    def test_distribution_functions_reject_bad_df(self):
        with pytest.raises(ValueError):
            sp.t_two_sided_p(1.0, 0.0)
        with pytest.raises(ValueError):
            sp.chi2_sf(1.0, -2.0)
        with pytest.raises(ValueError):
            sp.f_sf(1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            sp.digamma(0.0)

    def test_edge_values(self):
        assert sp.gammainc_p(3.0, 0.0) == 0.0
        assert sp.gammainc_q(3.0, 0.0) == 1.0
        assert sp.betainc(2.0, 3.0, 0.0) == 0.0
        assert sp.betainc(2.0, 3.0, 1.0) == 1.0
        assert sp.chi2_sf(0.0, 4.0) == 1.0
        assert sp.f_sf(0.0, 2.0, 5.0) == 1.0
        assert sp.t_two_sided_p(0.0, 7.0) == 1.0
