import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cabl.errors import ConflictError, DomainError, ParseError
from cabl.ingest import parse_attenuation_csv, replicate_summary
from cabl.model import ElementSeries
from cabl.uncertainty import (
    DEFAULT_ATTENUATION,
    AttenuationEntry,
    DecaySchedule,
    comparator_concentration,
    decay_factor,
    self_absorption_loss,
)

SILVER_SCHEDULE = DecaySchedule(half_life=24.0, t_irradiate=60.0, t_decay=30.0, t_count=180.0)


class TestReplicateSummary:
    def test_constant(self):
        s = replicate_summary([5.0, 5.0, 5.0])
        assert (s.mean, s.se, s.df, s.n) == (5.0, 0.0, 2, 3)

    def test_one_two_three(self):
        s = replicate_summary([1.0, 2.0, 3.0])
        assert s.mean == 2.0
        assert s.se == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
        assert s.df == 2

    def test_silver_replicates(self):
        # hand check: mean 19.31/3, sample sd 0.1950215, se sd/sqrt(3)
        s = replicate_summary([6.30, 6.66, 6.35])
        assert s.mean == pytest.approx(6.436666666666667, abs=1e-12)
        assert s.se == pytest.approx(0.11259563836036371, abs=1e-9)
        assert s.df == 2

    def test_needs_two(self):
        with pytest.raises(ValueError):
            replicate_summary([1.0])

    def test_is_an_element_series(self):
        assert replicate_summary([4.0, 6.0]) == ElementSeries(5.0, 1.0, df=1, n=2)
        assert type(replicate_summary([4.0, 6.0])) is ElementSeries

    @pytest.mark.parametrize(
        "values, error",
        [
            ([1e200, 1e-300], DomainError),  # the squared spread overflows
            ([1.5e308, 1.5e308], DomainError),  # the sum overflows
            ([-1.0, 0.5], ValueError),  # mean <= 0, as ElementSeries refuses
        ],
    )
    def test_refuses_what_the_series_refuses(self, values, error):
        with pytest.raises(error):
            replicate_summary(values)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(5e-324, 1e150), min_size=2, max_size=12).flatmap(
            lambda values: st.tuples(st.just(values), st.permutations(values))
        )
    )
    def test_any_order_gives_one_series_with_the_exact_mean(self, pair):
        values, shuffled = pair
        summary = replicate_summary(values)
        assert replicate_summary(shuffled) == summary
        # the exactly rounded sum, divided once
        assert summary.mean == float(sum(map(Fraction, values))) / len(values)

    @given(
        values=st.lists(st.floats(1.0, 100.0), min_size=10, max_size=20),
        repeats=st.integers(2, 5),
    )
    def test_se_shrinks_like_root_n(self, values, repeats):
        base = replicate_summary(values)
        repeated = replicate_summary(values * repeats)
        if base.se == 0.0:
            assert repeated.se == 0.0
            return
        ratio = repeated.se / (base.se / math.sqrt(repeats))
        # exact factor sqrt(m(n-1)/(mn-1)) -> 1 as n grows
        n = len(values)
        expected = math.sqrt(repeats * (n - 1) / (repeats * n - 1))
        assert ratio == pytest.approx(expected, rel=1e-9)
        assert 0.8 < ratio <= 1.0


class TestDecayFactor:
    def test_silver_schedule(self):
        # direct evaluation of the stated formula at the silver protocol
        lam = math.log(2.0) / 24.0
        oracle = (
            (1.0 - math.exp(-lam * 60.0))
            * math.exp(-lam * 30.0)
            * (1.0 - math.exp(-lam * 180.0))
            / lam
        )
        value = decay_factor(SILVER_SCHEDULE)
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value == pytest.approx(11.918185218927765, abs=1e-9)

    def test_long_delay_kills_factor(self):
        d = DecaySchedule(24.0, 60.0, 1e6, 180.0)
        assert 0.0 <= decay_factor(d) < 1e-12

    def test_short_half_life_kills_factor(self):
        d = DecaySchedule(1e-6, 60.0, 30.0, 180.0)
        assert decay_factor(d) < 1e-12

    @given(td=st.floats(1.0, 500.0), bump=st.floats(0.1, 500.0))
    def test_strictly_decreasing_in_delay(self, td, bump):
        base = decay_factor(DecaySchedule(24.0, 60.0, td, 180.0))
        later = decay_factor(DecaySchedule(24.0, 60.0, td + bump, 180.0))
        assert later < base
        assert base > 0.0

    def test_rejects_nonpositive_durations(self):
        with pytest.raises(ValueError):
            DecaySchedule(24.0, 0.0, 30.0, 180.0)


class TestComparatorConcentration:
    def test_mass_ratio_case(self):
        # identical schedules and equal counts: 2 ug into 20 mg is 100 ppm
        ppm = comparator_concentration(
            sample_counts=5000.0,
            sample_mass_mg=20.0,
            std_counts=5000.0,
            std_mass_ug=2.0,
            sample_schedule=SILVER_SCHEDULE,
            std_schedule=SILVER_SCHEDULE,
        )
        assert ppm == pytest.approx(100.0, rel=1e-12)

    def test_zero_sample_counts(self):
        ppm = comparator_concentration(
            0.0, 20.0, 5000.0, 2.0, SILVER_SCHEDULE, SILVER_SCHEDULE
        )
        assert ppm == 0.0

    def test_linear_in_sample_counts(self):
        one = comparator_concentration(1000.0, 20.0, 5000.0, 2.0, SILVER_SCHEDULE, SILVER_SCHEDULE)
        two = comparator_concentration(2000.0, 20.0, 5000.0, 2.0, SILVER_SCHEDULE, SILVER_SCHEDULE)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    @given(scale=st.floats(0.01, 1e3))
    def test_invariant_under_shared_count_scaling(self, scale):
        base = comparator_concentration(800.0, 15.0, 4000.0, 6.0, SILVER_SCHEDULE, SILVER_SCHEDULE)
        scaled = comparator_concentration(
            800.0 * scale, 15.0, 4000.0 * scale, 6.0, SILVER_SCHEDULE, SILVER_SCHEDULE
        )
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_zero_standard_counts(self):
        with pytest.raises(ValueError, match="standard counts must be > 0"):
            comparator_concentration(100.0, 20.0, 0.0, 2.0, SILVER_SCHEDULE, SILVER_SCHEDULE)

    def test_different_schedules_normalize(self):
        # a faster-decaying standard schedule must raise the inferred ppm
        slow = SILVER_SCHEDULE
        fast_decay = DecaySchedule(24.0, 60.0, 120.0, 180.0)
        base = comparator_concentration(1000.0, 20.0, 1000.0, 2.0, slow, slow)
        boosted = comparator_concentration(1000.0, 20.0, 1000.0, 2.0, slow, fast_decay)
        assert boosted < base


class TestSelfAbsorption:
    def test_vanishes_with_mu(self):
        tiny = AttenuationEntry(600.0, 1e-9)
        assert self_absorption_loss(0.4, tiny) == pytest.approx(0.0, abs=1e-9)

    def test_default_table_band_at_04mm(self):
        losses = {
            e.energy_kev: self_absorption_loss(0.4, e)
            for e in DEFAULT_ATTENUATION
            if e.energy_kev in (559.0, 564.0, 657.0)
        }
        assert len(losses) == 3
        for loss in losses.values():
            assert 0.020 <= loss <= 0.040
        average = sum(losses.values()) / len(losses)
        assert 0.0247 <= average <= 0.0334

    @given(dim=st.floats(0.05, 3.0), bump=st.floats(0.01, 3.0))
    def test_strictly_increasing_in_dimension(self, dim, bump):
        entry = DEFAULT_ATTENUATION[0]
        assert self_absorption_loss(dim + bump, entry) > self_absorption_loss(dim, entry)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            self_absorption_loss(0.0, DEFAULT_ATTENUATION[0])


class TestAttenuationCsv:
    def test_parse(self):
        entries = parse_attenuation_csv(
            "energy_kev,mu_linear_per_cm\n657,1.271831\n559,1.5652\n"
        )
        assert entries[0].energy_kev == 657.0
        assert entries[1].mu_linear_per_cm == 1.5652

    def test_header_required(self):
        with pytest.raises(ParseError):
            parse_attenuation_csv("kev,mu\n657,1.27\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_attenuation_csv("energy_kev,mu_linear_per_cm\n657,1.27\n559,zero\n")

    def test_repeated_energy_is_a_conflict(self):
        with pytest.raises(ConflictError, match="lines 2 and 4 both give energy 657 keV"):
            parse_attenuation_csv("energy_kev,mu_linear_per_cm\n657,1.27\n559,1.5\n657.0,1.3\n")
