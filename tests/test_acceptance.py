"""End-to-end acceptance criteria.

One test per criterion, at its stated tolerance; the conftest hook runs
these after the unit suite and prints one PASS/FAIL line per criterion.
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import conftest
from cabl.cli import main
from cabl.evidence import BoxModel, likelihood_ratio, p_span_at_least
from cabl.grouping import group
from cabl.ingest import fixture
from cabl.matching import match_specimens
from cabl.model import (
    BiasCorrection,
    Boundary,
    Element,
    MatchCriterion,
    criterion_preset,
    series_interval,
)
from cabl.stats import (
    FactorialObservation,
    TwoSampleInput,
    chi2_gof,
    fit_distribution,
    manova_two_way,
    pooled_t_test,
    rank_families,
)
from cabl.stats import special as sp
from cabl.stats.fitting import FitReport
from cabl.uncertainty import DEFAULT_ATTENUATION, DecaySchedule, decay_factor, self_absorption_loss

pytestmark = pytest.mark.acceptance

REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "special_reference.json").read_text()
)


def test_criterion_01_guinn_grouping(capsys):
    """group --fixture table1 --criterion guinn4 reproduces the two groups, < 1 s."""
    start = time.perf_counter()
    result = group(fixture("table1"), criterion_preset("guinn4"))
    elapsed = time.perf_counter() - start
    assert result.groups == (("CE 399", "CE 842"), ("CE 567", "CE 840", "CE 843"))
    assert elapsed < 1.0
    # and through the CLI surface
    code = main(["group", "--fixture", "table1", "--criterion", "guinn4", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["groups"] == [["CE 399", "CE 842"], ["CE 567", "CE 840", "CE 843"]]


def test_criterion_02_touching_interval_case():
    """CE 567 vs CE 840 antimony at k=4: closed matches, open does not, boundary 618."""
    table1 = fixture("table1")
    ce567, ce840 = table1.get("CE 567"), table1.get("CE 840")
    assert series_interval(ce567.series[Element.SB], 4.0)[1] == 618.0  # 602 + 4*4, exact
    assert series_interval(ce840.series[Element.SB], 4.0)[0] == 618.0  # 642 - 4*6, exact

    def antimony_matches(boundary):
        criterion = MatchCriterion(k=4.0, elements=(Element.SB,), boundary=boundary)
        return match_specimens(ce567, ce840, criterion).matched

    assert antimony_matches(Boundary.CLOSED) is True
    assert antimony_matches(Boundary.OPEN) is False


def _partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def test_criterion_03_hypergeometric_numbers():
    """Box (6,4) exact span probabilities and LR; brute-force equality, total <= 12."""
    box = BoxModel((6, 4))
    assert p_span_at_least(box, 2, 2) == Fraction(24, 45)
    assert p_span_at_least(box, 3, 2) == Fraction(4, 5)
    result = likelihood_ratio(box, 2, draws_t=2, draws_not_t=3)
    assert result.likelihood_ratio == Fraction(2, 3)
    assert result.likelihood_ratio < 1

    for total in range(1, 13):
        for sizes in _partitions(total):
            model = BoxModel(sizes)
            group_masks = []
            offset = 0
            for size in sizes:
                group_masks.append(((1 << size) - 1) << offset)
                offset += size
            # enumerate every subset of the box as a bitmask
            tally = [[0] * (len(sizes) + 1) for _ in range(total + 1)]
            for mask in range(1 << total):
                span = sum(1 for gm in group_masks if gm & mask)
                tally[mask.bit_count()][span] += 1
            for draws in range(1, total + 1):
                denom = math.comb(total, draws)
                assert sum(tally[draws]) == denom
                for min_groups in range(1, len(sizes) + 1):
                    expected = Fraction(sum(tally[draws][min_groups:]), denom)
                    assert p_span_at_least(model, draws, min_groups) == expected


def test_criterion_04_bias_corrected_match():
    """Lot 6003 bullet 1 vs CE 567 at k=2 with the published bias ranges."""
    table1, table2 = fixture("table1"), fixture("table2")
    ce567 = table1.get("CE 567")

    def biased_match(lot_sid, bias):
        # the bias corrects the first side of the pair: the lot bullet
        criterion = MatchCriterion(k=2.0, elements=(bias.element,), bias={bias.element: bias})
        return match_specimens(table2.get(lot_sid), ce567, criterion).matched

    sb_bias = BiasCorrection(Element.SB, 0.02, 0.054)
    ag_bias = BiasCorrection(Element.AG, 0.055, 0.055)
    assert biased_match("bullet-1", sb_bias) is True
    assert biased_match("bullet-1", ag_bias) is False
    assert biased_match("bullet-1-middle", ag_bias) is True


def test_criterion_05_heterogeneity_t_test():
    """Table 2 silver outer vs middle: two-sided p in [0.06, 0.08], |t| in [2.1, 2.4]."""
    table2 = fixture("table2")
    outer = table2.get("bullet-1-outer").series[Element.AG]
    middle = table2.get("bullet-1-middle").series[Element.AG]
    result = pooled_t_test(
        TwoSampleInput(outer.mean, outer.se, outer.n),
        TwoSampleInput(middle.mean, middle.se, middle.n),
    )
    assert 0.06 <= result.p_two_sided <= 0.08
    assert 2.1 <= abs(result.t) <= 2.4
    assert result.df == 5


def test_criterion_06_self_absorption_band():
    """Losses at 0.4 mm for 559/564/657 keV within bands, per the published table."""
    by_energy = {e.energy_kev: e for e in DEFAULT_ATTENUATION}
    losses = {
        kev: self_absorption_loss(0.4, by_energy[kev]) for kev in (559.0, 564.0, 657.0)
    }
    for kev, loss in losses.items():
        assert 0.020 <= loss <= 0.040, f"{kev} keV loss {loss} outside [0.020, 0.040]"
    average = sum(losses.values()) / len(losses)
    assert 0.0247 <= average <= 0.0334


def test_criterion_07_decay_factor():
    """Silver schedule factor within +/- 0.05 of its direct evaluation.

    Direct evaluation of the activate-decay-count formula at half-life
    24 s, 60/30/180 s gives 11.9182 (the spec sheet's printed 11.80 is
    an arithmetic slip; the formula it states cannot produce it).
    """
    lam = math.log(2.0) / 24.0
    oracle = (
        (1.0 - math.exp(-lam * 60.0))
        * math.exp(-lam * 30.0)
        * (1.0 - math.exp(-lam * 180.0))
        / lam
    )
    assert oracle == pytest.approx(11.918185218927765, abs=1e-9)
    value = decay_factor(DecaySchedule(24.0, 60.0, 30.0, 180.0))
    assert abs(value - oracle) <= 0.05
    assert value == pytest.approx(oracle, rel=1e-12)


def test_criterion_08a_special_function_fixtures():
    """t / chi-squared / F distribution functions within 1e-9 at 20 points each."""
    assert len(REFERENCE["t_cdf"]) == 20
    assert len(REFERENCE["chi2_cdf"]) == 20
    assert len(REFERENCE["f_cdf"]) == 20
    for t, df, expected in REFERENCE["t_cdf"]:
        assert sp.t_cdf(t, df) == pytest.approx(expected, abs=1e-9)
    for x, df, expected in REFERENCE["chi2_cdf"]:
        assert sp.chi2_cdf(x, df) == pytest.approx(expected, abs=1e-9)
    for x, d1, d2, expected in REFERENCE["f_cdf"]:
        assert sp.f_cdf(x, d1, d2) == pytest.approx(expected, abs=1e-9)


def test_criterion_08b_manova_vs_permutation_oracle():
    """Wilks p for the seeded 2x3x3 design agrees with a 1e5-shuffle oracle within 0.02."""
    rng = np.random.default_rng(0)
    a, b, r = 2, 3, 3
    bullets = np.repeat(np.arange(a), b * r)
    locs = np.tile(np.repeat(np.arange(b), r), a)
    effect = np.array([[0.0, 0.0], [0.55, 0.35]])
    y = rng.normal(0.0, 1.0, size=(a * b * r, 2)) + effect[bullets]
    obs = [
        FactorialObservation(str(bullets[i]), str(locs[i]), tuple(y[i]))
        for i in range(len(y))
    ]
    parametric = manova_two_way(obs)["bullet"]

    # independently coded oracle: balanced SSCP decomposition, free shuffles
    def wilks_bullet(data):
        grand = data.mean(axis=0)
        h = np.zeros((2, 2))
        for level in range(a):
            d = (data[bullets == level].mean(axis=0) - grand).reshape(-1, 1)
            h += b * r * (d @ d.T)
        e = np.zeros((2, 2))
        for i in range(a):
            for j in range(b):
                cell = data[(bullets == i) & (locs == j)]
                d = cell - cell.mean(axis=0)
                e += d.T @ d
        return np.linalg.det(e) / np.linalg.det(e + h)

    observed = wilks_bullet(y)
    assert observed == pytest.approx(parametric.wilks_lambda, abs=1e-10)

    n_shuffles = 100_000
    perm_rng = np.random.default_rng(1000)
    order = np.argsort(perm_rng.random((n_shuffles, len(y))), axis=1)
    yp = y[order]  # (B, n, 2)
    onehot_a = (bullets[:, None] == np.arange(a)[None, :]).astype(float)
    onehot_cell = np.zeros((len(y), a * b))
    for i in range(len(y)):
        onehot_cell[i, bullets[i] * b + locs[i]] = 1.0
    grand = yp.mean(axis=1)
    mean_a = np.einsum("bnp,na->bap", yp, onehot_a) / (b * r)
    da = mean_a - grand[:, None, :]
    h = r * b * np.einsum("bap,baq->bpq", da, da)
    mean_cell = np.einsum("bnp,nc->bcp", yp, onehot_cell) / r
    resid = yp - np.einsum("bcp,nc->bnp", mean_cell, onehot_cell)
    e = np.einsum("bnp,bnq->bpq", resid, resid)

    def det2(m):
        return m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]

    lam = det2(e) / det2(e + h)
    p_perm = (np.sum(lam <= observed) + 1) / (n_shuffles + 1)
    assert abs(p_perm - parametric.wilks_p) < 0.02


def test_criterion_08c_distfit_rankings():
    """Seeded lognormal ranks lognormal in top 2; seeded exponential ranks exp/gamma first."""
    rng = np.random.default_rng(11)
    lognormal_data = np.exp(rng.normal(0.0, 1.0, 200)).tolist()
    names = [e.family for e in rank_families(lognormal_data) if isinstance(e, FitReport)]
    assert "lognormal" in names[:2]

    rng = np.random.default_rng(23)
    exponential_data = rng.exponential(2.0, 200).tolist()
    names = [e.family for e in rank_families(exponential_data) if isinstance(e, FitReport)]
    assert names[0] in ("exponential", "gamma")


def test_criterion_08d_gof_self_fit_sanity():
    """Ten seeded self-fit runs all keep p >= 0.001."""
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


def test_criterion_09_nontransitivity_witness():
    """Open-boundary k=4 antimony reports (CE 567, CE 843, CE 840) as nontransitive."""
    criterion = MatchCriterion(k=4.0, elements=(Element.SB,), boundary=Boundary.OPEN)
    result = group(fixture("table1"), criterion)
    assert ("CE 567", "CE 843", "CE 840") in result.nontransitive_triples


def test_criterion_10_suite_runtime():
    """The whole suite stays under 60 s (this test runs last)."""
    assert conftest.session_elapsed() < 60.0
