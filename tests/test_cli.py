import ast
import collections
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cabl
import cabl.cli
import cabl.stats
from cabl.cli import main, render_json
from cabl.ingest import CSV_HEADER

HEADER = ",".join(CSV_HEADER)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out), out


class TestMatchCommand:
    def test_table1_guinn4(self, capsys):
        payload, _ = run_json(capsys, "match", "--fixture", "table1", "--criterion", "guinn4")
        assert payload["pairs_total"] == 10
        assert payload["pairs_matched"] == 4
        matched = {(p["a"], p["b"]) for p in payload["pairs"] if p["matched"]}
        assert matched == {
            ("CE 399", "CE 842"),
            ("CE 567", "CE 840"),
            ("CE 567", "CE 843"),
            ("CE 840", "CE 843"),
        }

    def test_antimony_only_panel(self, capsys):
        payload, _ = run_json(capsys, "match", "--fixture", "table1", "--elements", "Sb", "--k", "4")
        for pair in payload["pairs"]:
            assert list(pair["per_element"]) == ["Sb"]
        assert payload["criterion"]["elements"] == ["Sb"]

    def test_bad_flag_exits_2(self, capsys):
        code, _, _ = run(capsys, "match", "--bogus")
        assert code == 2

    def test_unknown_element_exits_2(self, capsys):
        code, _, err = run(capsys, "match", "--fixture", "table1", "--elements", "Pb")
        assert code == 2
        assert "unknown element" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "match", "--input", "/nonexistent/x.csv")
        assert code == 2

    def test_input_required(self, capsys):
        code, _, err = run(capsys, "match")
        assert code == 2
        assert "input" in err


@pytest.mark.parametrize("command", ["match", "group", "report"])
@pytest.mark.parametrize(
    "option, first, second",
    [("--fixture", "table1", "table2"), ("--input", "a.csv", "b.csv")],
    ids=["fixture", "input"],
)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_repeated_input_option_exits_2(capsys, command, option, first, second, fmt):
    # one run reads one source; a second one would be dropped without a word
    code, out, err = run(capsys, command, option, first, option, second, "--format", fmt)
    assert code == 2
    assert out == ""
    assert f"argument {option}: given more than once" in err


class TestGroupCommand:
    def test_guinn_grouping(self, capsys):
        payload, _ = run_json(capsys, "group", "--fixture", "table1", "--criterion", "guinn4")
        assert payload["groups"] == [
            ["CE 399", "CE 842"],
            ["CE 567", "CE 840", "CE 843"],
        ]

    def test_clique_mode_reports_triples(self, capsys):
        payload, _ = run_json(
            capsys,
            "group", "--fixture", "table1", "--criterion", "guinn4",
            "--boundary", "open", "--mode", "clique",
        )
        assert payload["mode"] == "maximal_cliques"
        assert ["CE 567", "CE 843", "CE 840"] in payload["nontransitive_triples"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["match", "group", "report"])
    def test_empty_dataset_exits_2(self, capsys, tmp_path, command, fmt):
        # a CSV of its header alone holds no specimens
        empty = tmp_path / "empty.csv"
        empty.write_text(HEADER + "\n")
        assert run(capsys, command, "--input", str(empty), "--format", fmt) == (
            2, "", "error: dataset has no specimens\n"
        )

    # case -> (the lone specimen's rows, flags, the refusal)
    LONE_CASES = {
        "no_ag": (["Sb,100,1"], [], "specimen 'a' has no Ag series"),
        "overflow": (["Sb,1.5e308,1"], ["--elements", "Sb", "--bias", "Sb=0.2"],
                     "k=4.0 and se=1.0 put an interval endpoint beyond the float range"),
    }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["match", "group", "report"])
    @pytest.mark.parametrize("case", sorted(LONE_CASES))
    def test_lone_specimen_is_refused_as_beside_another(
        self, capsys, tmp_path, case, command, fmt
    ):
        rows, flags, message = self.LONE_CASES[case]
        lone = [f"a,bullet,,,{row},poisson_single" for row in rows]
        complete = [f"b,bullet,,,{row},poisson_single" for row in ("Sb,100,1", "Ag,10,1")]
        for name, lines in (("lone", lone), ("beside", lone + complete)):
            path = tmp_path / f"{name}.csv"
            path.write_text("\n".join([HEADER, *lines]) + "\n")
            argv = (command, "--input", str(path), *flags, "--format", fmt)
            assert run(capsys, *argv) == (2, "", f"error: {message}\n"), name

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "group", "--fixture", "table1", "--criterion", "guinn4")
        assert code == 0
        assert "CE 399, CE 842" in out
        assert "CE 567, CE 840, CE 843" in out
        assert "nontransitive" not in out


# sixty Sb specimens 1 ppm apart, each matching those within 2 ppm: a
# middle with four neighbours has three pairs of ends 3 or 4 ppm apart,
# and the second and second-last specimens one each, 56 * 3 + 2 in all
CHAIN_CSV = HEADER + "\n" + "".join(
    f"s{i:02d},bullet,6003,outer,Sb,{100 + i},0.3,poisson_single\n" for i in range(60)
)
CHAIN_TOTAL = 170
HEADING = "nontransitive triples (a-b and b-c match, a-c does not)"


class TestWitnessLimit:
    @pytest.fixture
    def chain(self, tmp_path):
        path = tmp_path / "chain.csv"
        path.write_text(CHAIN_CSV)
        return ["--input", str(path), "--elements", "Sb", "--k", "4"]

    @staticmethod
    def grouping(payload):
        return payload.get("grouping", payload)

    @pytest.mark.parametrize("command", ["group", "report"])
    def test_default_lists_the_first_100(self, capsys, chain, command):
        capped, _ = run_json(capsys, command, *chain)
        full, _ = run_json(capsys, command, *chain, "--witnesses", "all")
        capped, full = self.grouping(capped), self.grouping(full)
        assert capped["nontransitive_triples_total"] == full["nontransitive_triples_total"]
        assert full["nontransitive_triples_total"] == CHAIN_TOTAL
        assert len(full["nontransitive_triples"]) == CHAIN_TOTAL
        assert capped["nontransitive_triples"] == full["nontransitive_triples"][:100]

    @pytest.mark.parametrize("command", ["group", "report"])
    def test_zero_lists_none(self, capsys, chain, command):
        payload, _ = run_json(capsys, command, *chain, "--witnesses", "0")
        grouping = self.grouping(payload)
        assert grouping["nontransitive_triples"] == []
        assert grouping["nontransitive_triples_total"] == CHAIN_TOTAL
        code, out, _ = run(capsys, command, *chain, "--witnesses", "0")
        assert code == 0
        lines = out.splitlines()
        assert f"{HEADING}: {CHAIN_TOTAL} in all, 0 listed" in lines
        assert not [line for line in lines if line.count(" - ") == 2]

    def test_text_lists_what_it_counts(self, capsys, chain):
        code, out, _ = run(capsys, "group", *chain, "--witnesses", "3")
        assert code == 0
        tail = out.splitlines()[-4:]
        assert tail == [
            f"{HEADING}: {CHAIN_TOTAL} in all, 3 listed",
            "  s00 - s01 - s03",
            "  s00 - s02 - s03",
            "  s00 - s02 - s04",
        ]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("value", ["-1", "1.5", "x", "", "All", "+5", "1_0", " 5", "\u0665"])
    @pytest.mark.parametrize("command", ["group", "report"])
    def test_bad_value_exits_2(self, capsys, command, value, fmt):
        code, out, err = run(
            capsys, command, "--fixture", "table1", "--witnesses", value, "--format", fmt
        )
        assert (code, out) == (2, "")
        assert "argument --witnesses: expected an integer >= 0 or 'all'" in err


class TestEvidenceCommand:
    def test_published_numbers(self, capsys):
        payload, _ = run_json(
            capsys,
            "evidence", "--box", "6,4", "--draws-t", "2", "--draws-not-t", "3",
            "--groups-observed", "2",
        )
        assert payload["p_given_t_exact"] == "8/15"
        assert payload["p_given_not_t_exact"] == "4/5"
        assert payload["likelihood_ratio_exact"] == "2/3"
        assert payload["likelihood_ratio"] == pytest.approx(2 / 3, abs=1e-15)

    def test_single_group_box(self, capsys):
        payload, _ = run_json(
            capsys,
            "evidence", "--box", "10", "--draws-t", "2", "--draws-not-t", "3",
            "--groups-observed", "1",
        )
        assert payload["likelihood_ratio_exact"] == "1"

    def test_posterior_odds(self, capsys):
        payload, _ = run_json(
            capsys,
            "evidence", "--box", "6,4", "--draws-t", "2", "--draws-not-t", "3",
            "--groups-observed", "2", "--prior-odds", "1.0",
        )
        assert payload["posterior_odds"] == pytest.approx(2 / 3, abs=1e-15)

    def test_invalid_box_exits_2(self, capsys):
        code, _, _ = run(
            capsys,
            "evidence", "--box", "0,4", "--draws-t", "2", "--draws-not-t", "3",
            "--groups-observed", "2",
        )
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_float_overflow_exits_2(self, capsys, fmt):
        code, out, err = run(
            capsys,
            "evidence", "--box", "6,4", "--draws-t", "2", "--draws-not-t", "3",
            "--groups-observed", "2", "--prior-odds", "1e400", "--format", fmt,
        )
        assert (code, out) == (2, "")
        assert "posterior_odds exceeds the float range" in err


def raw_replicates_csv(tmp_path, bullets, seed):
    """Write Ag and As replicate rows, three per (bullet, location) cell."""
    rng = np.random.default_rng(seed)
    lines = [HEADER]
    for bullet in bullets:
        for location in ("outer", "middle", "inner"):
            for _ in range(3):
                ag = rng.lognormal(1.9, 0.05)
                asv = rng.lognormal(1.2, 0.05)
                lines.append(f"{bullet},bullet,6003,{location},Ag,{ag},,replicate_member")
                lines.append(f"{bullet},bullet,6003,{location},As,{asv},,replicate_member")
    path = tmp_path / "raw.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestHeteroCommand:
    def test_table2_silver_outer_middle(self, capsys):
        payload, _ = run_json(
            capsys,
            "hetero", "--fixture", "table2", "--element", "Ag",
            "--locations", "outer,middle",
        )
        assert abs(payload["t"]) == pytest.approx(2.2583963760295228, abs=1e-9)
        assert payload["df"] == 5
        assert payload["p_two_sided"] == pytest.approx(0.07349924037670497, abs=1e-9)

    def test_ids_selection(self, capsys):
        payload, _ = run_json(
            capsys,
            "hetero", "--fixture", "table2", "--element", "Sb",
            "--ids", "bullet-1-outer,bullet-1-inner",
        )
        assert payload["samples"][0]["id"] == "bullet-1-outer"

    def test_unknown_id_exits_2(self, capsys):
        code, out, err = run(
            capsys, "hetero", "--fixture", "table2", "--element", "Ag", "--ids", "nope,x"
        )
        assert (code, out) == (2, "")
        assert err == "error: no specimen 'nope' in fixture:table2\n"

    def test_ambiguous_location_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "hetero", "--fixture", "table3", "--element", "Ag",
            "--locations", "outer,middle",
        )
        assert code == 2
        assert "ambiguous" in err

    def test_single_count_series_exits_2(self, capsys):
        code, out, err = run(
            capsys,
            "hetero", "--fixture", "table1", "--element", "Ag",
            "--ids", "CE 399,CE 842",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: specimen 'CE 399' Ag is a single-count series; "
            "the pooled t-test needs replicate-based sides\n"
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "flag, value, sid",
        [("--ids", "bullet-1,bullet-1", "bullet-1"),
         ("--locations", "outer,outer", "bullet-1-outer")],
    )
    def test_one_specimen_twice_exits_2(self, capsys, fmt, flag, value, sid):
        code, out, err = run(
            capsys, "hetero", "--fixture", "table2", "--element", "Ag", flag, value, "--format", fmt
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: both sides are specimen {sid!r}; the t-test needs two different specimens\n"
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_zero_spread_different_means_exits_2(self, capsys, tmp_path, fmt):
        path = tmp_path / "flat.csv"
        path.write_text(
            f"{HEADER}\n"
            + "".join(f"{sid},bullet,L1,,Ag,{v},,replicate_member\n"
                      for sid, v in (("x5", 5.0), ("x5", 5.0), ("x6", 6.0), ("x6", 6.0)))
        )
        code, out, err = run(
            capsys,
            "hetero", "--input", str(path), "--element", "Ag", "--ids", "x5,x6", "--format", fmt,
        )
        assert (code, out) == (2, "")
        assert "x5 and x6 both have zero spread" in err

    def test_manova_on_raw_rows(self, capsys, tmp_path):
        path = raw_replicates_csv(tmp_path, ("b1", "b2"), seed=0)
        payload, _ = run_json(
            capsys,
            "hetero", "--manova", "--input", str(path), "--responses", "Ag,As",
        )
        assert payload["n_observations"] == 18
        assert set(payload["effects"]) == {"bullet", "location", "interaction"}
        for effect in payload["effects"].values():
            assert 0.0 < effect["wilks_lambda"] <= 1.0
            assert 0.0 <= effect["wilks_p"] <= 1.0

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("repeated, once", [("Ag,Ag", "Ag"), ("Ag,As,Ag", "Ag,As")])
    def test_manova_repeated_response_counts_once(self, capsys, tmp_path, fmt, repeated, once):
        path = raw_replicates_csv(tmp_path, ("b1", "b2", "b3"), seed=1)
        argv = ("hetero", "--manova", "--input", str(path), "--format", fmt, "--responses")
        code, out, err = run(capsys, *argv, repeated)
        assert (code, err) == (0, "")
        assert run(capsys, *argv, once) == (0, out, "")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_manova_excludes_unlabeled_rows(self, capsys, tmp_path, fmt):
        # unequal Ag and As counts, and a third bullet, that would each
        # change the test if unlabeled rows were counted
        unlabeled = "".join(
            f"{bullet},bullet,6003,,{element},{value},,replicate_member\n"
            for bullet, element, value in (
                ("b1", "Ag", 9.5), ("b1", "Ag", 9.7), ("b1", "As", 1.1),
                ("b2", "As", 5.0), ("b3", "Ag", 6.0), ("b3", "As", 3.0),
            )
        )
        plain, extra = tmp_path / "plain.csv", tmp_path / "extra.csv"
        plain.write_text(MANOVA_CSV)
        extra.write_text(MANOVA_CSV + unlabeled)
        argv = ("hetero", "--manova", "--responses", "Ag,As", "--format", fmt, "--input")
        code, out, err = run(capsys, *argv, str(plain))
        assert (code, err) == (0, "")
        assert run(capsys, *argv, str(extra)) == (0, out, "")


class TestDistfitCommand:
    def test_ranking_shape(self, capsys, tmp_path):
        rng = np.random.default_rng(11)
        values = np.exp(rng.normal(0.0, 1.0, 200))
        path = tmp_path / "vals.csv"
        path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
        payload, _ = run_json(capsys, "distfit", "--input", str(path), "--families", "all")
        assert len(payload["ranking"]) == 8
        top_two = [e["family"] for e in payload["ranking"][:2]]
        assert "lognormal" in top_two

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_comments_and_blank_lines_are_skipped(self, capsys, tmp_path, monkeypatch, fmt):
        values = [str(1 + i % 7 / 3) for i in range(20)]
        texts = (
            "\n".join(values) + "\n",
            "# fragment masses\n\n"
            + "\n".join(f"{v}  # row {i}" if i % 3 else f"{v}\n   " for i, v in enumerate(values))
            + "\n\n# end\n",
        )
        reports = []
        # the same relative path in two folders, since JSON names the input
        for folder, text in enumerate(texts):
            (tmp_path / str(folder)).mkdir()
            (tmp_path / str(folder) / "values.txt").write_text(text)
            monkeypatch.chdir(tmp_path / str(folder))
            reports.append(run(capsys, "distfit", "--input", "values.txt", "--format", fmt))
        assert reports[0][0] == 0, reports[0][2]
        assert reports[1] == reports[0]

    def test_unknown_family_exits_2(self, capsys, tmp_path):
        path = tmp_path / "vals.csv"
        path.write_text("\n".join(str(float(i + 1)) for i in range(10)) + "\n")
        code, _, err = run(capsys, "distfit", "--input", str(path), "--families", "cauchy")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_duplicate_families_rank_once(self, capsys, tmp_path, fmt):
        path = tmp_path / "vals.csv"
        path.write_text("\n".join(str(float(i + 1)) for i in range(10)) + "\n")
        once, twice = (
            run(capsys, "distfit", "--input", str(path), "--families", families, "--format", fmt)
            for families in ("gamma,normal", "gamma, normal,gamma,normal")
        )
        assert once[0] == 0
        assert twice == once
        if fmt == "json":
            ranking = json.loads(once[1])["ranking"]
            assert sorted(e["family"] for e in ranking) == ["gamma", "normal"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("families", [",", " , ,"])
    def test_empty_family_list_exits_2(self, capsys, tmp_path, fmt, families):
        path = tmp_path / "vals.csv"
        path.write_text("\n".join(str(float(i + 1)) for i in range(10)) + "\n")
        code, out, err = run(
            capsys, "distfit", "--input", str(path), "--families", families, "--format", fmt
        )
        assert (code, out, err) == (2, "", "error: --families must name at least one family\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_exits_2(self, capsys, tmp_path, fmt, bad):
        path = tmp_path / "vals.csv"
        path.write_text("\n".join(["1.5", "2.5", bad, *(str(float(i)) for i in range(3, 10))]) + "\n")
        code, out, err = run(capsys, "distfit", "--input", str(path), "--format", fmt)
        assert (code, out) == (2, "")
        assert f"{path}:3: value must be finite, got '{bad}'" in err

    @pytest.mark.parametrize(
        "values, failed, ranked",
        [
            # the normal mean overflows; the triangular CDF overflows in the
            # GOF; the exponential rate underflows to 0
            ([1.0e308 + i * 0.1e308 for i in range(8)],
             {"normal": "overflow", "triangular": "overflow",
              "exponential": "rate = 0.0 is not > 0"},
             {"lognormal", "weibull"}),
            # the squared deviations of gumbel's and normal's spread overflow
            ([-1e308, 1e308, *range(8)], {"gumbel": "overflow", "normal": "overflow"}, set()),
            # subnormal data: the exponential rate overflows and the normal
            # sigma underflows to 0, which must not cost the whole ranking
            ([5e-324] * 4 + [1e-323] * 4,
             {"exponential": "overflow", "normal": "sigma = 0.0 is not > 0"},
             {"chi_squared", "gamma", "lognormal", "weibull"}),
            # b - a is finite but 2(b - v) overflows: no triangular mode
            # scores finite, and the other families still rank
            ([*range(1, 8), 1e308], {"triangular": "finite log-likelihood"},
             {"chi_squared", "exponential", "lognormal", "weibull"}),
        ],
        ids=["near-max", "wide", "tiny", "one-huge"],
    )
    def test_values_near_double_limit(self, capsys, tmp_path, values, failed, ranked):
        path = tmp_path / "vals.csv"
        path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
        payload, _ = run_json(capsys, "distfit", "--input", str(path), "--families", "all")
        assert len(payload["ranking"]) == 8
        errors = {e["family"]: e["error"] for e in payload["ranking"] if "error" in e}
        for family, reason in failed.items():
            assert family in errors[family] and reason in errors[family]
        assert ranked.isdisjoint(errors)
        code, out, err = run(capsys, "distfit", "--input", str(path), "--families", "all")
        assert code == 0, err
        lines = out.splitlines()
        for entry in payload["ranking"]:
            assert any(line.startswith(f"  {entry['family']:<12} ") for line in lines)
        for family, error in errors.items():
            assert f"  {family:<12} FAILED: {error}" in lines
        assert out.count("FAILED") == len(errors)


class TestNaaCommand:
    def test_decay_factor(self, capsys):
        payload, _ = run_json(
            capsys,
            "naa", "decay", "--half-life", "24s", "--ti", "60", "--td", "30", "--tc", "180",
        )
        assert payload["decay_factor_s"] == pytest.approx(11.918185218927765, abs=1e-9)

    def test_duration_units(self, capsys):
        payload, _ = run_json(
            capsys,
            "naa", "decay", "--half-life", "0.4m", "--ti", "1m", "--td", "30s", "--tc", "3m",
        )
        assert payload["decay_factor_s"] == pytest.approx(11.918185218927765, abs=1e-9)

    def test_comparator_concentration(self, capsys):
        payload, _ = run_json(
            capsys,
            "naa", "conc", "--sample-counts", "5000", "--sample-mass-mg", "20",
            "--std-counts", "5000", "--std-mass-ug", "2",
            "--half-life", "24s", "--ti", "60", "--td", "30", "--tc", "180",
        )
        assert payload["concentration_ppm"] == pytest.approx(100.0, rel=1e-12)

    def test_selfabs_three_energies(self, capsys):
        payload, _ = run_json(
            capsys,
            "naa", "selfabs", "--dimension-mm", "0.4", "--energies", "559,564,657",
        )
        assert set(payload["losses"]) == {"559", "564", "657"}
        assert 0.0247 <= payload["average_loss"] <= 0.0334

    def test_selfabs_unknown_energy_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "naa", "selfabs", "--dimension-mm", "0.4", "--energies", "700"
        )
        assert code == 2

    def test_selfabs_custom_table(self, capsys, tmp_path):
        table = tmp_path / "mu.csv"
        table.write_text("energy_kev,mu_linear_per_cm\n600,1.4165\n")
        payload, _ = run_json(
            capsys,
            "naa", "selfabs", "--dimension-mm", "0.4", "--table", str(table),
        )
        assert list(payload["losses"]) == ["600"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_selfabs_energies_printing_alike_exit_2(self, capsys, tmp_path, fmt):
        table = tmp_path / "mu.csv"
        table.write_text(
            "energy_kev,mu_linear_per_cm\n600,1.4165\n600.0000001,0.9\n"
        )
        code, out, err = run(
            capsys,
            "naa", "selfabs", "--dimension-mm", "0.4", "--table", str(table),
            "--format", fmt,
        )
        assert code == 2
        assert out == ""
        assert "600.0" in err and "600.0000001" in err


class TestReportCommand:
    def test_full_pipeline(self, capsys):
        payload, _ = run_json(capsys, "report", "--fixture", "table1", "--criterion", "guinn4")
        assert payload["grouping"]["groups"] == [
            ["CE 399", "CE 842"],
            ["CE 567", "CE 840", "CE 843"],
        ]
        assert len(payload["specimens"]) == 5
        assert payload["within_lot"]["pairs_total"] == 0  # table1 has no lots
        assert "boundary_note" in payload["decisions"]

    def test_table3_notes_semantics(self, capsys):
        payload, _ = run_json(capsys, "report", "--fixture", "table3", "--criterion", "guinn4")
        assert "table3_semantics" in payload["decisions"]
        assert payload["within_lot"]["pairs_total"] == 16 * 15 // 2

    def test_report_sweeps_once(self, capsys, monkeypatch):
        # the within-lot count is read off group's adjacency, not swept per lot
        import cabl.grouping

        calls = []
        sweep = cabl.grouping.match_graph

        def counted(*args):
            calls.append(len(args[0]))
            return sweep(*args)

        monkeypatch.setattr(cabl.grouping, "match_graph", counted)
        payload, _ = run_json(capsys, "report", "--fixture", "table3", "--criterion", "guinn4")
        assert calls == [len(payload["specimens"])]
        assert payload["within_lot"]["pairs_matched"] == 24

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_lotless_incomplete_panel_exits_2(self, capsys, tmp_path, fmt):
        # the questioned fragment shares no lot, yet group refuses it first
        rows = [
            f"{sid},bullet,L1,,{element},{value},{sigma},poisson_single"
            for sid in ("a", "b")
            for element, value, sigma in (("Sb", 100.0, 1.0), ("Ag", 10.0, 0.5))
        ]
        path = tmp_path / "lotless.csv"
        path.write_text("\n".join([HEADER, *rows, "c,fragment,,,Sb,100.0,1.0,poisson_single"]))
        code, out, err = run(capsys, "report", "--input", str(path), "--format", fmt)
        assert (code, out) == (2, "")
        assert "specimen 'c' has no Ag series" in err


# (bullet, element) -> nine replicates: three outer, three middle, three inner
MANOVA_VALUES = {
    ("b1", "Ag"): (6.1, 6.3, 6.2, 6.6, 6.4, 6.5, 6.0, 6.2, 6.1),
    ("b1", "As"): (3.1, 3.3, 3.0, 3.2, 3.4, 3.3, 3.0, 3.1, 3.2),
    ("b2", "Ag"): (7.0, 7.2, 6.9, 7.4, 7.1, 7.3, 6.8, 7.0, 7.1),
    ("b2", "As"): (3.6, 3.5, 3.8, 3.7, 3.9, 3.6, 3.5, 3.4, 3.6),
}
MANOVA_CSV = HEADER + "\n" + "".join(
    f"{bullet},bullet,6003,{('outer', 'middle', 'inner')[i // 3]},{element},{v},,replicate_member\n"
    for (bullet, element), values in MANOVA_VALUES.items()
    for i, v in enumerate(values)
)

# JSON stdout, byte for byte: the match report's bias_used and overlap
# arrays and null overlaps; the group report's groups, adjacency and
# witness triple; the MANOVA report's statistics, whose lambda and trace
# are exact rationals rounded once, so they are the same on every platform.
MATCH_NRC2_JSON = """\
{
  "command": "match",
  "criterion": {
    "bias": {
      "Ag": [
        0.055,
        0.055
      ],
      "Sb": [
        0.02,
        0.054
      ]
    },
    "boundary": "closed",
    "elements": [
      "Ag",
      "Sb"
    ],
    "k": 2.0
  },
  "dataset": "fixture:table1",
  "decisions": {
    "bias_note": "criterion bias corrections apply to the first specimen of each pair",
    "boundary_note": "closed boundary counts exactly touching intervals as a match"
  },
  "pairs": [
    {
      "a": "CE 399",
      "b": "CE 567",
      "matched": false,
      "per_element": {
        "Ag": {
          "bias_used": [
            0.055,
            0.055
          ],
          "matched": true,
          "overlap": [
            8.229000000000001,
            9.299999999999999
          ]
        },
        "Sb": {
          "bias_used": [
            0.02,
            0.054
          ],
          "matched": false,
          "overlap": null
        }
      }
    },
    {
      "a": "CE 399",
      "b": "CE 840",
      "matched": false,
      "per_element": {
        "Ag": {
          "bias_used": [
            0.055,
            0.055
          ],
          "matched": true,
          "overlap": [
            8.229000000000001,
            9.0
          ]
        },
        "Sb": {
          "bias_used": [
            0.02,
            0.054
          ],
          "matched": false,
          "overlap": null
        }
      }
    },
    {
      "a": "CE 399",
      "b": "CE 842",
      "matched": false,
      "per_element": {
        "Ag": {
          "bias_used": [
            0.055,
            0.055
          ],
          "matched": true,
          "overlap": [
            8.8,
            10.339
          ]
        },
        "Sb": {
          "bias_used": [
            0.02,
            0.054
          ],
          "matched": false,
          "overlap": null
        }
      }
    },
    {
      "a": "CE 399",
      "b": "CE 843",
      "matched": false,
      "per_element": {
        "Ag": {
          "bias_used": [
            0.055,
            0.055
          ],
          "matched": true,
          "overlap": [
            8.229000000000001,
            8.5
          ]
        },
        "Sb": {
          "bias_used": [
            0.02,
            0.054
          ],
          "matched": false,
          "overlap": null
        }
      }
    },
    {
      "a": "CE 567",
      "b": "CE 840",
      "matched": true,
      "per_element": {
        "Ag": {
          "bias_used": [
            0.055,
            0.055
          ],
          "matched": true,
          "overlap": [
            7.3999999999999995,
            9.0
          ]
        },
        "Sb": {
          "bias_used": [
            0.02,
            0.054
          ],
          "matched": true,
          "overlap": [
            630.0,
            642.94
          ]
        }
      }
    },
    {
      "a": "CE 567",
      "b": "CE 842",
      "matched": false,
      "per_element": {
        "Ag": {
          "bias_used": [
            0.055,
            0.055
          ],
          "matched": true,
          "overlap": [
            8.8,
            9.811499999999999
          ]
        },
        "Sb": {
          "bias_used": [
            0.02,
            0.054
          ],
          "matched": false,
          "overlap": null
        }
      }
    },
    {
      "a": "CE 567",
      "b": "CE 843",
      "matched": true,
      "per_element": {
        "Ag": {
          "bias_used": [
            0.055,
            0.055
          ],
          "matched": true,
          "overlap": [
            7.300000000000001,
            8.5
          ]
        },
        "Sb": {
          "bias_used": [
            0.02,
            0.054
          ],
          "matched": true,
          "overlap": [
            613.0,
            629.0
          ]
        }
      }
    },
    {
      "a": "CE 840",
      "b": "CE 842",
      "matched": false,
      "per_element": {
        "Ag": {
          "bias_used": [
            0.055,
            0.055
          ],
          "matched": true,
          "overlap": [
            8.8,
            9.495
          ]
        },
        "Sb": {
          "bias_used": [
            0.02,
            0.054
          ],
          "matched": false,
          "overlap": null
        }
      }
    },
    {
      "a": "CE 840",
      "b": "CE 843",
      "matched": false,
      "per_element": {
        "Ag": {
          "bias_used": [
            0.055,
            0.055
          ],
          "matched": true,
          "overlap": [
            7.806999999999999,
            8.5
          ]
        },
        "Sb": {
          "bias_used": [
            0.02,
            0.054
          ],
          "matched": false,
          "overlap": null
        }
      }
    },
    {
      "a": "CE 842",
      "b": "CE 843",
      "matched": false,
      "per_element": {
        "Ag": {
          "bias_used": [
            0.055,
            0.055
          ],
          "matched": false,
          "overlap": null
        },
        "Sb": {
          "bias_used": [
            0.02,
            0.054
          ],
          "matched": false,
          "overlap": null
        }
      }
    }
  ],
  "pairs_matched": 2,
  "pairs_total": 10
}
"""

GROUP_CLIQUE_JSON = """\
{
  "adjacency": {
    "CE 399": [
      "CE 842"
    ],
    "CE 567": [
      "CE 843"
    ],
    "CE 840": [
      "CE 843"
    ],
    "CE 842": [
      "CE 399"
    ],
    "CE 843": [
      "CE 567",
      "CE 840"
    ]
  },
  "command": "group",
  "criterion": {
    "bias": null,
    "boundary": "open",
    "elements": [
      "Ag",
      "Sb"
    ],
    "k": 4.0
  },
  "dataset": "fixture:table1",
  "decisions": {
    "boundary_note": "closed boundary counts exactly touching intervals as a match",
    "grouping_note": "groups ordered by smallest member id"
  },
  "groups": [
    [
      "CE 399",
      "CE 842"
    ],
    [
      "CE 567",
      "CE 843"
    ],
    [
      "CE 840",
      "CE 843"
    ]
  ],
  "mode": "maximal_cliques",
  "nontransitive_triples": [
    [
      "CE 567",
      "CE 843",
      "CE 840"
    ]
  ],
  "nontransitive_triples_total": 1
}
"""

HETERO_MANOVA_JSON = """\
{
  "command": "hetero",
  "decisions": {
    "log_note": "responses are natural-log concentrations",
    "pairing_note": "replicates pair by row order within each (bullet, location) cell; unlabeled rows are excluded"
  },
  "effects": {
    "bullet": {
      "hl_df": [
        2.0,
        11.0
      ],
      "hl_f": 141.8803369137014,
      "hl_p": 1.3982257462806006e-08,
      "hotelling_lawley": 25.796424893400257,
      "wilks_df": [
        2,
        11.0
      ],
      "wilks_f": 141.8803369137014,
      "wilks_lambda": 0.037318411093201165,
      "wilks_p": 1.3982257462806006e-08
    },
    "interaction": {
      "hl_df": [
        4.0,
        20.0
      ],
      "hl_f": 0.334666218185346,
      "hl_p": 0.8513467104445467,
      "hotelling_lawley": 0.13386648727413838,
      "wilks_df": [
        4,
        22.0
      ],
      "wilks_f": 0.3653236708525154,
      "wilks_lambda": 0.8793087861997615,
      "wilks_p": 0.830641124242124
    },
    "location": {
      "hl_df": [
        4.0,
        20.0
      ],
      "hl_f": 9.012925826092806,
      "hl_p": 0.00024860489171680004,
      "hotelling_lawley": 3.6051703304371223,
      "wilks_df": [
        4,
        22.0
      ],
      "wilks_f": 6.344135700384116,
      "wilks_lambda": 0.21563469055730453,
      "wilks_p": 0.001492096492663327
    }
  },
  "n_observations": 18,
  "responses": [
    "Ag",
    "As"
  ],
  "test": "manova_two_way"
}
"""

# 40 positive values on which all eight families fit: every parameter,
# statistic and p-value to the last digit
DISTFIT_VALUES = "".join(f"{0.5 + (i * 37) % 101 / 17:.4f}\n" for i in range(1, 41))
# From Python 3.12 on, sum() adds floats with compensation, so these
# eight figures read differently in their last digits there.
DISTFIT_ALL_312 = (
    ('"gof_stat": 1.5999999999999999', '"gof_stat": 1.6'),
    ('"mu": 3.529407499999999', '"mu": 3.5294075'),
    ('"scale": 1.0011960343397361', '"scale": 1.001196034339738'),
    ('"shape": 3.52519125021061', '"shape": 3.5251912502106046'),
    ('"loc": 2.695703124809814', '"loc": 2.695703124809813'),
    ('"gof_stat": 7.6,', '"gof_stat": 7.6000000000000005,'),
    ('"sigma": 0.5932071094636822', '"sigma": 0.593207109463682'),
    ('"rate": 0.2833336756948582', '"rate": 0.2833336756948581'),
)
DISTFIT_ALL_JSON = """\
{
  "command": "distfit",
  "decisions": {
    "gof_note": "chi-squared on max(5, n//5) equal-probability bins; df = bins - 1 - #params"
  },
  "input": "values40.txt",
  "n": 40,
  "ranking": [
    {
      "family": "normal",
      "gof_df": 5,
      "gof_stat": 1.5999999999999999,
      "p_value": 0.9012493445012737,
      "params": {
        "mu": 3.529407499999999,
        "sigma": 1.6753400292757736
      }
    },
    {
      "family": "gamma",
      "gof_df": 5,
      "gof_stat": 3.2,
      "p_value": 0.6691829020332434,
      "params": {
        "scale": 1.0011960343397361,
        "shape": 3.52519125021061
      }
    },
    {
      "family": "gumbel",
      "gof_df": 5,
      "gof_stat": 3.2,
      "p_value": 0.6691829020332434,
      "params": {
        "loc": 2.695703124809814,
        "scale": 1.5157593966936505
      }
    },
    {
      "family": "weibull",
      "gof_df": 5,
      "gof_stat": 3.2,
      "p_value": 0.6691829020332434,
      "params": {
        "scale": 3.9882753091500334,
        "shape": 2.258392360452749
      }
    },
    {
      "family": "chi_squared",
      "gof_df": 6,
      "gof_stat": 8.4,
      "p_value": 0.21023798702309748,
      "params": {
        "df": 3.989808818597492
      }
    },
    {
      "family": "lognormal",
      "gof_df": 5,
      "gof_stat": 7.6,
      "p_value": 0.17970193899600076,
      "params": {
        "mu": 1.1126399382910432,
        "sigma": 0.5932071094636822
      }
    },
    {
      "family": "triangular",
      "gof_df": 4,
      "gof_stat": 14.4,
      "p_value": 0.00612200362868877,
      "params": {
        "a": 0.6765,
        "b": 6.3824,
        "c": 3.2647
      }
    },
    {
      "family": "exponential",
      "gof_df": 6,
      "gof_stat": 22.8,
      "p_value": 0.0008663066171196867,
      "params": {
        "rate": 0.2833336756948582
      }
    }
  ]
}
"""

if sys.version_info >= (3, 12):
    for before, after in DISTFIT_ALL_312:
        assert DISTFIT_ALL_JSON.count(before) == 1, before
        DISTFIT_ALL_JSON = DISTFIT_ALL_JSON.replace(before, after)

# Literal stdout, one case per report shape.  Paths in argv are
# relative to a temporary directory holding the files named in the case.
TEXT_CASES = {
    "group-cc": (
        ["group", "--fixture", "table1", "--criterion", "guinn4"],
        {},
        """\
2 group(s), mode=connected_components
  group 1: CE 399, CE 842
  group 2: CE 567, CE 840, CE 843
""",
    ),
    "group-clique": (
        ["group", "--fixture", "table1", "--criterion", "guinn4",
         "--boundary", "open", "--mode", "clique"],
        {},
        """\
3 group(s), mode=maximal_cliques
  group 1: CE 399, CE 842
  group 2: CE 567, CE 843
  group 3: CE 840, CE 843
nontransitive triples (a-b and b-c match, a-c does not): 1 in all, 1 listed
  CE 567 - CE 843 - CE 840
""",
    ),
    "match-json": (
        ["match", "--fixture", "table1", "--criterion", "nrc2", "--format", "json"],
        {},
        MATCH_NRC2_JSON,
    ),
    "group-clique-json": (
        ["group", "--fixture", "table1", "--criterion", "guinn4",
         "--boundary", "open", "--mode", "clique", "--format", "json"],
        {},
        GROUP_CLIQUE_JSON,
    ),
    "hetero-manova-json": (
        ["hetero", "--manova", "--input", "raw.csv", "--responses", "Ag,As", "--format", "json"],
        {"raw.csv": MANOVA_CSV},
        HETERO_MANOVA_JSON,
    ),
    "distfit-all-json": (
        ["distfit", "--input", "values40.txt", "--families", "all", "--format", "json"],
        {"values40.txt": DISTFIT_VALUES},
        DISTFIT_ALL_JSON,
    ),
    "match": (
        ["match", "--fixture", "table1", "--criterion", "guinn4"],
        {},
        """\
pairwise matches under k=4.0 panel={Ag,Sb} boundary=closed
  CE 399           vs CE 567           no match (Ag ok; Sb fails)
  CE 399           vs CE 840           no match (Ag ok; Sb fails)
  CE 399           vs CE 842           match    (Ag ok; Sb ok)
  CE 399           vs CE 843           no match (Ag ok; Sb fails)
  CE 567           vs CE 840           match    (Ag ok; Sb ok)
  CE 567           vs CE 842           no match (Ag ok; Sb fails)
  CE 567           vs CE 843           match    (Ag ok; Sb ok)
  CE 840           vs CE 842           no match (Ag ok; Sb fails)
  CE 840           vs CE 843           match    (Ag ok; Sb ok)
  CE 842           vs CE 843           no match (Ag ok; Sb fails)
4 of 10 pairs matched
""",
    ),
    "report": (
        ["report", "--fixture", "table3", "--criterion", "guinn4"],
        {},
        """\
dataset: fixture:table3 (16 specimens)
  bullet-1-outer     bullet_section lot 6003: Sb 578 +/- 19.5, Ag 6.3 +/- 0.26
  bullet-1-middle    bullet_section lot 6003: Sb 585 +/- 12.1, Ag 6.66 +/- 0.09
  bullet-1-inner     bullet_section lot 6003: Sb 581 +/- 15.1, Ag 6.35 +/- 0.27
  bullet-1           bullet lot 6003: Sb 576 +/- 3.47, Ag 6.3 +/- 0.06
  bullet-8-outer     bullet_section lot 6003: Sb 957 +/- 4.86, Ag 6.9 +/- 0.14
  bullet-8-middle    bullet_section lot 6003: Sb 952 +/- 17.4, Ag 6.79 +/- 0.16
  bullet-8-inner     bullet_section lot 6003: Sb 963 +/- 16.3, Ag 6.73 +/- 0.18
  bullet-8           bullet lot 6003: Sb 966 +/- 7.32, Ag 6.81 +/- 0.04
  bullet-9-outer     bullet_section lot 6003: Sb 1829 +/- 61.4, Ag 8.71 +/- 0.38
  bullet-9-middle    bullet_section lot 6003: Sb 1806 +/- 18.1, Ag 8.51 +/- 0.28
  bullet-9-inner     bullet_section lot 6003: Sb 1869 +/- 13.4, Ag 8.68 +/- 0.42
  bullet-9           bullet lot 6003: Sb 1834 +/- 14.3, Ag 8.66 +/- 0.08
  bullet-10-outer    bullet_section lot 6003: Sb 260 +/- 10, Ag 5.04 +/- 0.25
  bullet-10-middle   bullet_section lot 6003: Sb 262 +/- 0.18, Ag 5.21 +/- 0.09
  bullet-10-inner    bullet_section lot 6003: Sb 258 +/- 4.69, Ag 5.14 +/- 0.16
  bullet-10          bullet lot 6003: Sb 260 +/- 1.93, Ag 5.04 +/- 0.05
groups under k=4.0:
  group 1: bullet-1, bullet-1-inner, bullet-1-middle, bullet-1-outer
  group 2: bullet-10, bullet-10-inner, bullet-10-middle, bullet-10-outer
  group 3: bullet-8, bullet-8-inner, bullet-8-middle, bullet-8-outer
  group 4: bullet-9, bullet-9-inner, bullet-9-middle, bullet-9-outer
within-lot pairs matched: 24/120 (rate 0.200)
""",
    ),
    "evidence": (
        ["evidence", "--box", "6,4", "--draws-t", "2", "--draws-not-t", "3",
         "--groups-observed", "2", "--prior-odds", "2/3"],
        {},
        """\
box groups (6, 4), evidence: >= 2 group(s) spanned
  P(E | 2 bullets)  = 8/15 = 0.533333
  P(E | 3 bullets)  = 4/5 = 0.800000
  likelihood ratio = 2/3 = 0.666667
  posterior odds   = 4/9 = 0.444444
""",
    ),
    "evidence-one-group": (
        ["evidence", "--box", "10", "--draws-t", "2", "--draws-not-t", "3",
         "--groups-observed", "1"],
        {},
        """\
box groups (10,), evidence: >= 1 group(s) spanned
  P(E | 2 bullets)  = 1 = 1.000000
  P(E | 3 bullets)  = 1 = 1.000000
  likelihood ratio = 1 = 1.000000
""",
    ),
    "hetero-ttest": (
        ["hetero", "--fixture", "table2", "--element", "Ag", "--locations", "outer,middle"],
        {},
        """\
  bullet-1-outer     6.3 +/- 0.13 (n=4)
  bullet-1-middle    6.66 +/- 0.05 (n=3)
t = -2.2584, df = 5, two-sided p = 0.0735
""",
    ),
    "hetero-manova": (
        ["hetero", "--manova", "--input", "raw.csv", "--responses", "Ag,As"],
        {"raw.csv": MANOVA_CSV},
        """\
  bullet       Wilks=0.0373 F=141.880 p=0.0000 | Hotelling-Lawley=25.7964 p=0.0000
  location     Wilks=0.2156 F=6.344 p=0.0015 | Hotelling-Lawley=3.6052 p=0.0002
  interaction  Wilks=0.8793 F=0.365 p=0.8306 | Hotelling-Lawley=0.1339 p=0.8513
""",
    ),
    "distfit": (
        ["distfit", "--input", "values.txt"],
        {"values.txt": "3\n4\n5\n5\n6\n7\n7\n8\n9\n12\n-1\n2\n"},
        """\
12 values; families ranked by goodness-of-fit p
  gumbel       p=0.7788 stat=0.500 df=2 (loc=3.92987, scale=3.25199)
  normal       p=0.7788 stat=0.500 df=2 (mu=5.58333, sigma=3.27766)
  triangular   p=0.4795 stat=0.500 df=1 (a=-1, b=12, c=5)
  chi_squared  FAILED: chi_squared requires strictly positive data
  exponential  FAILED: exponential requires strictly positive data
  gamma        FAILED: gamma requires strictly positive data
  lognormal    FAILED: lognormal requires strictly positive data
  weibull      FAILED: weibull requires strictly positive data
""",
    ),
    "naa-decay": (
        ["naa", "decay", "--half-life", "24s", "--ti", "60", "--td", "30", "--tc", "180"],
        {},
        "decay factor = 11.9182 s\n",
    ),
    "naa-conc": (
        ["naa", "conc", "--sample-counts", "5000", "--sample-mass-mg", "20",
         "--std-counts", "4000", "--std-mass-ug", "2",
         "--half-life", "24s", "--ti", "60", "--td", "30", "--tc", "180"],
        {},
        "concentration = 125 ppm\n",
    ),
    "naa-selfabs": (
        ["naa", "selfabs", "--dimension-mm", "0.4"],
        {},
        """\
     511 keV: loss 3.491%
     559 keV: loss 3.082%
     564 keV: loss 3.044%
     657 keV: loss 2.512%
  average: 3.032%
""",
    ),
}


@pytest.mark.parametrize("case", sorted(TEXT_CASES))
def test_text_report_literal(capsys, tmp_path, monkeypatch, case):
    argv, files, expected = TEXT_CASES[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == expected


class TestExitCodes:
    def test_internal_failure_exits_1(self, capsys, monkeypatch):
        import cabl.grouping

        def boom(*_args, **_kwargs):
            raise RuntimeError("synthetic crash")

        # cmd_group imports group from its defining module at call time
        monkeypatch.setattr(cabl.grouping, "group", boom)
        code, _, err = run(capsys, "group", "--fixture", "table1")
        assert code == 1
        assert "internal error" in err

    def test_stray_key_error_exits_1(self, capsys, monkeypatch):
        import cabl.grouping

        def lookup(*_args, **_kwargs):
            return {}["missing"]

        # a KeyError that escapes a command is a bug, not bad input
        monkeypatch.setattr(cabl.grouping, "group", lookup)
        code, _, err = run(capsys, "group", "--fixture", "table1")
        assert code == 1
        assert "internal error" in err

    def test_stray_zero_division_exits_1(self, capsys, monkeypatch):
        import cabl.grouping

        def divide(*_args, **_kwargs):
            return 1.0 / 0.0

        # a ZeroDivisionError that escapes a command is a bug, not bad input
        monkeypatch.setattr(cabl.grouping, "group", divide)
        code, _, err = run(capsys, "group", "--fixture", "table1")
        assert code == 1
        assert "internal error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("evidence", "--box", "6,4", "--draws-t", "2", "--draws-not-t", "3",
             "--groups-observed", "2"),
            ("hetero", "--fixture", "table2", "--element", "Ag", "--locations", "outer,middle"),
            ("distfit", "--input", "values.txt"),
            ("naa", "decay", "--half-life", "24s", "--ti", "60", "--td", "30", "--tc", "180"),
            ("naa", "conc", "--sample-counts", "5000", "--sample-mass-mg", "20",
             "--std-counts", "4000", "--std-mass-ug", "2",
             "--half-life", "24s", "--ti", "60", "--td", "30", "--tc", "180"),
        ],
    )
    def test_config_only_where_read(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--config", "x")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --config x" in err

    def test_bad_config_attenuation_exits_2(self, capsys, tmp_path):
        # the attenuation table is configured by --table alone
        table = tmp_path / "mu.csv"
        table.write_text("energy_kev,mu_linear_per_cm\n559\n")
        code, out, err = run(
            capsys, "naa", "selfabs", "--dimension-mm", "0.4", "--table", str(table)
        )
        assert (code, out, err) == (2, "", "error: line 2: expected 2 columns, got 1\n")

    # case -> (--table text, error message)
    ATTENUATION_CASES = {
        "empty_list": ("energy_kev,mu_linear_per_cm\n", "no attenuation entries selected"),
        "empty_object": ("{}\n", "header must be energy_kev,mu_linear_per_cm, got {}"),
        "bool_energy": ("energy_kev,mu_linear_per_cm\ntrue,1.271831\n",
                        "line 2: could not convert string to float: 'true'"),
        "string_energy": ("energy_kev,mu_linear_per_cm\n657 keV,1.271831\n",
                          "line 2: could not convert string to float: '657 keV'"),
        # a report keyed by energy would show one of the two losses
        "repeated_energy": ("energy_kev,mu_linear_per_cm\n511,1.7\n511,2.5\n",
                            "lines 2 and 3 both give energy 511 keV"),
    }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("attenuation", sorted(ATTENUATION_CASES))
    def test_malformed_config_attenuation_exits_2(self, capsys, tmp_path, fmt, attenuation):
        text, message = self.ATTENUATION_CASES[attenuation]
        table = tmp_path / "mu.csv"
        table.write_text(text)
        argv = ("naa", "selfabs", "--dimension-mm", "0.4", "--format", fmt)
        code, out, err = run(capsys, *argv, "--table", str(table))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_success_exits_0(self, capsys):
        code, _, _ = run(capsys, "group", "--fixture", "table1")
        assert code == 0


class TestOneCommandParser:
    """``main`` builds only the named command's arguments (``build_parser(argv)``),
    and gives what the full parser, ``build_parser()``, gives."""

    # each command's and naa subcommand's help, and the top level's
    HELPS = [
        [*command, "--help"] for command in (
            ["match"], ["group"], ["evidence"], ["hetero"], ["distfit"], ["naa"],
            ["naa", "decay"], ["naa", "conc"], ["naa", "selfabs"], ["report"], [],
        )
    ]
    # a refusal of each, a missing required option or a bad choice; no
    # command, an unknown command, and an unknown option before a command
    REFUSALS = [
        ["match", "--fixture", "table1", "--criterion", "guinn5"],
        ["group", "--fixture", "table1", "--criterion", "guinn5"],
        ["evidence", "--box", "6,4", "--draws-t", "2", "--draws-not-t", "3"],
        ["hetero", "--fixture", "table4", "--element", "Ag"],
        ["distfit", "--families", "all"],
        ["naa"],
        ["naa", "decay", "--half-life", "24s", "--ti", "60", "--td", "30"],
        ["naa", "conc", "--sample-counts", "5000", "--half-life", "24s"],
        ["naa", "conc"],
        ["naa", "bogus"],
        ["naa", "selfabs", "--energies", "all"],
        ["report", "--fixture", "table1", "--criterion", "guinn5"],
        [],
        ["bogus", "--help"],
        ["--json", "match", "--fixture", "table1"],
    ]

    @pytest.mark.parametrize(
        "argv, code", [(argv, 0) for argv in HELPS] + [(argv, 2) for argv in REFUSALS],
        ids=lambda value: " ".join(value) if isinstance(value, list) else None,
    )
    def test_gives_what_the_full_parser_gives(self, capsys, monkeypatch, argv, code):
        one_command = run(capsys, *argv)
        assert one_command[0] == code
        full = cabl.cli.build_parser
        monkeypatch.setattr(cabl.cli, "build_parser", lambda argv=None: full())
        assert run(capsys, *argv) == one_command

    def test_builds_only_the_named_command(self):
        def has_arguments(argv):
            # the subparsers action is the last the top level adds; a parser
            # without arguments holds its -h action alone
            commands = cabl.cli.build_parser(argv)._actions[-1].choices
            return {name: len(parser._actions) > 1 for name, parser in commands.items()}

        named = has_arguments(["--format", "json", "evidence", "match"])
        assert named == {name: name == "evidence" for name in cabl.cli._COMMANDS}
        for argv in (None, [], ["bogus"]):
            assert all(has_arguments(argv).values())

    # each command that runs, naa's subcommands in naa's place
    LEAVES = [
        [name, *sub]
        for name, (_, arguments) in cabl.cli._COMMANDS.items()
        for sub in ([[s] for s in arguments] if isinstance(arguments, dict) else [[]])
    ]

    @pytest.mark.parametrize("command", LEAVES, ids=" ".join)
    def test_every_command_takes_format_once(self, capsys, command):
        code, out, err = run(capsys, *command, "--format", "xml")
        assert (code, out) == (2, "")
        usage, _, error = err.partition(f"\ncabl {' '.join(command)}: error: ")
        assert error.startswith("argument --format: invalid choice: 'xml'")
        # --format ends the usage, after the command's own arguments
        assert usage.count("--format") == 1
        assert usage.endswith(" [--format {json,text}]")

    def test_builds_only_the_named_naa_subcommand(self):
        def naa_has_arguments(argv):
            naa = cabl.cli.build_parser(argv)._actions[-1].choices["naa"]
            return {name: len(parser._actions) > 1
                    for name, parser in naa._actions[-1].choices.items()}

        named = naa_has_arguments(["naa", "conc", "--half-life", "decay"])
        assert named == {"decay": False, "conc": True, "selfabs": False}
        for argv in (None, ["naa"], ["naa", "--help"], ["naa", "bogus"]):
            assert all(naa_has_arguments(argv).values())


# Commands that must run without numpy; the last exits 2 on a bad header.
NO_NUMPY_CASES = {
    "naa-decay": ["naa", "decay", "--half-life", "24s", "--ti", "60", "--td", "30", "--tc", "180"],
    "naa-conc": ["naa", "conc", "--sample-counts", "5000", "--sample-mass-mg", "20",
                 "--std-counts", "4000", "--std-mass-ug", "2",
                 "--half-life", "24s", "--ti", "60", "--td", "30", "--tc", "180"],
    "naa-selfabs": ["naa", "selfabs", "--dimension-mm", "0.4", "--format", "json"],
    "evidence": ["evidence", "--box", "6,4", "--draws-t", "2", "--draws-not-t", "3",
                 "--groups-observed", "2", "--format", "json"],
    "distfit": ["distfit", "--input", "values.txt", "--families", "all"],
    "hetero-ttest": ["hetero", "--fixture", "table2", "--element", "Ag",
                     "--locations", "outer,middle", "--format", "json"],
    "hetero-manova": ["hetero", "--manova", "--input", "raw.csv", "--responses", "Ag,As"],
    "match": ["match", "--fixture", "table1", "--criterion", "guinn4"],
    "group": ["group", "--fixture", "table1", "--criterion", "guinn4", "--format", "json"],
    "group-clique": ["group", "--fixture", "table1", "--mode", "clique", "--boundary", "open"],
    "group-nrc2": ["group", "--fixture", "table1", "--criterion", "nrc2", "--format", "json"],
    "report": ["report", "--fixture", "table1", "--criterion", "guinn4", "--format", "json"],
    "group-bad-input": ["group", "--input", "bad.csv", "--criterion", "guinn4"],
}

# None in sys.modules makes every later `import numpy` raise ImportError,
# which main reports as an internal error (exit 1)
_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
from cabl.cli import main
sys.exit(main(sys.argv[1:]))
"""


# What a job leaves loaded, as the last line of stderr: exit code, the
# sorted cabl modules, and which of the watched stdlib modules are loaded.
# The probe itself imports no module but sys, so it loads none of them.
_LOADED = """
import sys
from cabl.cli import main
code = main(sys.argv[1:])
cabl = sorted(m for m in sys.modules if m.split(".")[0] == "cabl")
watched = [m for m in ("csv", "dataclasses", "json", "json.decoder", "json.scanner")
           if m in sys.modules]
print(repr([code, cabl, watched]), file=sys.stderr)
"""

_CLI_MODULES = ["cabl", "cabl.cli", "cabl.errors"]
_INGEST = ["cabl.ingest", "cabl.model"]
_STATS = ["cabl.stats", "cabl.stats.special"]
_GROUPING = ["cabl.grouping", "cabl.matching"]
# case -> the modules its command loads beyond those of `import cabl.cli`
LOADS = {
    "naa-decay": ["cabl.uncertainty"],
    "naa-conc": ["cabl.uncertainty"],
    "naa-selfabs": ["cabl.uncertainty"],
    "evidence": ["cabl.evidence"],
    "distfit": [*_STATS, "cabl.stats.fitting"],
    "hetero-ttest": [*_INGEST, *_STATS, "cabl.stats.ttest"],
    "hetero-manova": [*_INGEST, *_STATS, "cabl.stats.manova"],
    "match": [*_INGEST, "cabl.matching"],
    "group": [*_INGEST, *_GROUPING],
    "group-clique": [*_INGEST, *_GROUPING],
    "group-nrc2": [*_INGEST, *_GROUPING],
    "report": [*_INGEST, *_GROUPING],
    "group-bad-input": _INGEST,
}
# the cases that read no CSV, and so load no csv module
_NO_CSV = {"evidence", "distfit", "naa-decay", "naa-conc", "naa-selfabs"}


def _write_inputs(folder: Path) -> None:
    """The files NO_NUMPY_CASES read: 40 values, MANOVA rows and a CSV with a bad header."""
    (folder / "values.txt").write_text(
        "\n".join(str(1.0 + (7 * i) % 13 / 3.0) for i in range(40)) + "\n"
    )
    (folder / "raw.csv").write_text(MANOVA_CSV)
    (folder / "bad.csv").write_text("id,element,value\nx,Sb,1\n")


def _spawn(
    args: Sequence[str], cwd: Path, stdout=subprocess.PIPE, **env: str
) -> subprocess.CompletedProcess:
    """Run the interpreter on ``args``, with the source tree on its path and ``env`` set."""
    src = str(Path(cabl.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path, **env),
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )


def _python(
    code: str, *argv: str, cwd: Path, flags: Sequence[str] = ()
) -> subprocess.CompletedProcess:
    return _spawn([*flags, "-c", code, *argv], cwd)


# Whether a job froze the heap, as the last line of stderr: exit code,
# the freeze count before the call and whether one is frozen after it.
_FREEZES = """
import gc, sys
from cabl.cli import main
before = gc.get_freeze_count()
{call}
print(repr([code, before, gc.get_freeze_count() > 0]), file=sys.stderr)
"""

# main with an explicit argv, which never freezes, to hold `python -m cabl.cli` to
_EXPLICIT = "import sys\nfrom cabl.cli import main\nsys.exit(main(sys.argv[1:]))"


class TestExitPath:
    """``main()`` freezes the heap after the process's own command line;
    ``main(argv)`` never does, and the frozen exit gives the same exit
    code, stdout and stderr."""

    @pytest.mark.parametrize("call, frozen", [
        ("sys.argv = ['cabl', 'group', '--fixture', 'table1']\ncode = main()", True),
        ("code = main(['group', '--fixture', 'table1'])", False),
    ], ids=["main()", "main(argv)"])
    def test_only_the_process_command_line_freezes(self, tmp_path, call, frozen):
        probe = _python(_FREEZES.format(call=call), cwd=tmp_path)
        assert probe.stdout.startswith("2 group(s)"), probe.stderr
        assert ast.literal_eval(probe.stderr.splitlines()[-1]) == [0, 0, frozen]

    # case -> (argv, exit code, the start of stdout, the start of stderr)
    CASES = {
        "success": (["group", "--fixture", "table1", "--format", "json"], 0, "{", ""),
        "bad-input": (["group", "--input", "bad.csv"], 2, "", "error: header must be "),
        "help": (["--help"], 0, "usage: cabl ", ""),
    }

    # PYTHONUNBUFFERED set to "" leaves stdout buffered, as it is by default
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_module_run_exits_as_main_with_argv(self, tmp_path, case, unbuffered):
        argv, code, out, err = self.CASES[case]
        _write_inputs(tmp_path)
        frozen = _spawn(["-m", "cabl.cli", *argv], tmp_path, PYTHONUNBUFFERED=unbuffered)
        explicit = _spawn(["-c", _EXPLICIT, *argv], tmp_path, PYTHONUNBUFFERED=unbuffered)
        outcome = (frozen.returncode, frozen.stdout, frozen.stderr)
        assert outcome == (explicit.returncode, explicit.stdout, explicit.stderr)
        assert frozen.returncode == code, frozen.stderr
        assert frozen.stdout.startswith(out) and bool(frozen.stdout) == bool(out)
        assert frozen.stderr.startswith(err) and bool(frozen.stderr) == bool(err)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_full_stdout_exits_as_main_with_argv(self, tmp_path, unbuffered):
        argv = self.CASES["success"][0]
        with open("/dev/full", "w") as full:
            frozen = _spawn(["-m", "cabl.cli", *argv], tmp_path, full, PYTHONUNBUFFERED=unbuffered)
            explicit = _spawn(["-c", _EXPLICIT, *argv], tmp_path, full, PYTHONUNBUFFERED=unbuffered)
        assert (frozen.returncode, frozen.stderr) == (explicit.returncode, explicit.stderr)
        # main writes, or flushes a buffered stdout, inside its try, and reports the failure
        assert frozen.returncode == 2
        assert frozen.stderr.startswith("error: [Errno 28]")


class TestImportContract:
    @pytest.mark.parametrize("case", sorted(NO_NUMPY_CASES))
    def test_runs_without_numpy(self, capsys, tmp_path, monkeypatch, case):
        argv = NO_NUMPY_CASES[case]
        _write_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == (2 if case == "group-bad-input" else 0), err
        blocked = _python(_WITHOUT_NUMPY, *argv, cwd=tmp_path)
        assert (blocked.returncode, blocked.stdout) == (code, out), blocked.stderr

    @pytest.mark.parametrize("case", sorted(NO_NUMPY_CASES))
    def test_each_command_loads_only_its_own_modules(self, tmp_path, case):
        _write_inputs(tmp_path)
        # -S keeps the environment's .pth files, and what they import, out
        probe = _python(_LOADED, *NO_NUMPY_CASES[case], cwd=tmp_path, flags=["-S"])
        code, loaded, watched = ast.literal_eval(probe.stderr.splitlines()[-1])
        assert code == (2 if case == "group-bad-input" else 0), probe.stderr
        assert loaded == sorted(_CLI_MODULES + LOADS[case])
        # no json package (the writer quotes with _json's escaper) and no dataclasses
        assert watched == ([] if case in _NO_CSV else ["csv"])

    def test_import_loads_only_the_parser(self, tmp_path):
        probe = _python(
            "import sys, cabl.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('cabl', 'csv', 'json')))",
            cwd=tmp_path,
            flags=["-S"],
        )
        assert ast.literal_eval(probe.stdout) == _CLI_MODULES, probe.stderr

    def test_source_names_no_dataclasses(self):
        for path in sorted(Path(cabl.__file__).parent.rglob("*.py")):
            assert "dataclasses" not in path.read_text(encoding="utf-8"), path

    def test_source_names_no_numpy(self):
        for path in sorted(Path(cabl.__file__).parent.rglob("*.py")):
            assert "numpy" not in path.read_text(encoding="utf-8"), path

    def test_every_definition_is_used_or_exported(self):
        """Each top-level function and class in cabl is named in cabl outside
        its own definition, or listed in a package's ``_EXPORTS`` table; the
        interpreter calls the module hooks ``__getattr__`` and ``__dir__``."""
        exported = {"__getattr__", "__dir__"} | {
            name for package in (cabl, cabl.stats)
            for names in package._EXPORTS.values() for name in names
        }
        trees = {
            path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(Path(cabl.__file__).parent.rglob("*.py"))
        }
        named = collections.defaultdict(list)  # name -> [(path, line)]
        for path, tree in trees.items():
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    named[node.id].append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    named[node.attr].append((path, node.lineno))
        unused = []
        for path, tree in trees.items():
            for node in tree.body:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in exported:
                    continue
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                own = range(first, node.end_lineno + 1)
                if all(where == path and line in own for where, line in named[node.name]):
                    unused.append(f"{path.name}:{node.lineno} {node.name}")
        assert unused == []

    def test_import_leaves_numpy_unloaded(self, tmp_path):
        for module in ("cabl.cli", "cabl.grouping", "cabl.stats.manova"):
            probe = _python(f"import sys, {module}; sys.exit('numpy' in sys.modules)", cwd=tmp_path)
            assert probe.returncode == 0, (module, probe.stderr)

    def test_package_import_loads_no_submodule(self, tmp_path):
        probe = _python(
            "import sys, cabl\n"
            "assert not [m for m in sys.modules if m.startswith('cabl.')]\n"
            "import cabl.stats\n"
            "assert [m for m in sys.modules if m.startswith('cabl.')] == ['cabl.stats']\n",
            cwd=tmp_path,
        )
        assert probe.returncode == 0, probe.stderr

    def test_public_names_resolve(self):
        from cabl import grouping
        from cabl.stats import manova

        assert cabl.group is grouping.group
        assert cabl.GroupingResult is grouping.GroupingResult
        assert cabl.stats.manova_two_way is manova.manova_two_way
        for package in (cabl, cabl.stats):
            assert all(hasattr(package, name) for name in package.__all__)
            assert set(dir(package)) >= set(package.__all__)
        with pytest.raises(AttributeError):
            cabl.no_such_name
        with pytest.raises(AttributeError):
            cabl.stats.no_such_name

    def test_public_name_sets(self):
        assert len(cabl.__all__) == len(set(cabl.__all__))
        assert set(cabl.__all__) == {
            "AttenuationEntry", "Basis", "BiasCorrection", "Boundary", "BoxModel",
            "CablError", "ConflictError", "DEFAULT_ATTENUATION", "DEFAULT_BIAS",
            "Dataset", "DecaySchedule", "DegreesOfFreedomError", "DesignError",
            "DomainError", "Element", "ElementSeries", "EvidenceResult", "FitError",
            "GroupingResult", "IncompletePanelError", "Kind", "Location",
            "MatchCriterion", "MatchRate", "MatchResult", "ParseError",
            "Specimen", "UnknownSpecimenError", "__version__",
            "comparator_concentration",
            "criterion_preset", "decay_factor", "fixture", "group", "likelihood_ratio",
            "match_specimens", "p_span_at_least", "parse_csv", "posterior_odds",
            "replicate_summary", "self_absorption_loss", "series_interval",
            "within_box_match_rate",
        }
        assert len(cabl.stats.__all__) == len(set(cabl.stats.__all__))
        assert set(cabl.stats.__all__) == {
            "EffectTest", "FAMILIES", "FactorialObservation", "FitFailure", "FitReport",
            "FittedDistribution", "GofResult", "TTestResult", "TwoSampleInput",
            "chi2_gof", "fit_distribution", "manova_two_way", "pooled_t_test",
            "rank_families",
        }


class TestNonFiniteInputs:
    ROWS = {
        "value_inf": "a,bullet,L1,,Sb,inf,1.0,poisson_single",
        "value_nan": "a,bullet,L1,,Sb,nan,1.0,poisson_single",
        "sigma_nan": "a,bullet,L1,,Sb,100.0,nan,poisson_single",
        "sigma_inf": "a,bullet,L1,,Sb,100.0,inf,poisson_single",
    }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("k", ["nan", "inf"])
    def test_non_finite_k_exits_2(self, capsys, fmt, k):
        code, out, err = run(capsys, "group", "--fixture", "table1", "--k", k, "--format", fmt)
        assert (code, out) == (2, "")
        assert "k must be finite" in err

    @pytest.mark.parametrize("command", ["match", "group", "report"])
    def test_interval_beyond_float_range_exits_2(self, capsys, command):
        # +/- 1e308 standard errors overflow every antimony interval of table1
        message = "k=1e+308 and se=9.0 put an interval endpoint beyond the float range"
        refused = (2, "", f"error: {message}\n")
        for fmt in ("text", "json"):
            argv = [command, "--fixture", "table1", "--k", "1e308", "--format", fmt]
            assert run(capsys, *argv) == refused, fmt

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("row", sorted(ROWS))
    def test_non_finite_csv_value_exits_2(self, capsys, tmp_path, fmt, row):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"{HEADER}\n{self.ROWS[row]}\nb,bullet,L1,,Sb,100.0,1.0,poisson_single\n"
        )
        code, out, err = run(capsys, "group", "--input", str(path), "--format", fmt)
        assert (code, out) == (2, "")
        assert "line 2" in err and "must be finite" in err

    # specimen a's Ag replicates 1e200 and 1e-300: the spread's square overflows
    OVERFLOW_CSV = "".join(
        f"\n{sid},bullet,L1,,Ag,{value},,replicate_member"
        for sid, value in (("a", "1e200"), ("a", "1e-300"), ("b", "5.0"), ("b", "6.0"))
    )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["group", "--elements", "Ag"],
            ["match", "--elements", "Ag"],
            ["report", "--elements", "Ag"],
            ["hetero", "--element", "Ag", "--ids", "a,b"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_replicate_spread_overflow_exits_2(self, capsys, tmp_path, fmt, argv):
        path = tmp_path / "spread.csv"
        path.write_text(HEADER + self.OVERFLOW_CSV + "\n")
        assert run(capsys, *argv, "--input", str(path), "--format", fmt) == (
            2,
            "",
            "error: specimen 'a' Ag: mean and se must be finite, got 5e+199 and inf\n",
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_t_test_pooled_variance_overflow_exits_2(self, capsys, tmp_path, fmt):
        # the means differ; an unrefused overflowing pooled variance would read t=0, p=1
        rows = [
            f"{sid},bullet,L1,,Ag,{value},,replicate_member"
            for sid, first in (("a", "1.3e154"), ("b", "1.2e154"))
            for value in (first, "1e-300", "1e-300", "1e-300")
        ]
        path = tmp_path / "wide.csv"
        path.write_text("\n".join([HEADER, *rows]) + "\n")
        argv = ["hetero", "--input", str(path), "--element", "Ag", "--ids", "a,b"]
        assert run(capsys, *argv, "--format", fmt) == (
            2,
            "",
            "error: samples a and b: the pooled variance or the t statistic overflows\n",
        )

    NAA_BASE = {
        "decay": ["naa", "decay", "--half-life", "24s", "--ti", "60", "--td", "30", "--tc", "180"],
        "conc": ["naa", "conc", "--sample-counts", "5000", "--sample-mass-mg", "20",
                 "--std-counts", "5000", "--std-mass-ug", "2",
                 "--half-life", "24s", "--ti", "60", "--td", "30", "--tc", "180"],
        "selfabs": ["naa", "selfabs", "--dimension-mm", "0.4"],
    }
    # case -> (command, flag, value, error text)
    NAA_CASES = {
        "half_life": ("decay", "--half-life", "nan", "half_life must be finite"),
        "t_irradiate": ("decay", "--ti", "inf", "t_irradiate must be finite"),
        "t_decay": ("decay", "--td", "inf", "t_decay must be finite"),
        "t_count": ("decay", "--tc", "nan", "t_count must be finite"),
        "conc_t_decay": ("conc", "--td", "inf", "t_decay must be finite"),
        "sample_counts": ("conc", "--sample-counts", "nan", "sample_counts must be finite"),
        "sample_mass_mg": ("conc", "--sample-mass-mg", "inf", "sample_mass_mg must be finite"),
        "std_counts": ("conc", "--std-counts", "nan", "std_counts must be finite"),
        "std_mass_ug": ("conc", "--std-mass-ug", "inf", "std_mass_ug must be finite"),
        "decay_underflow": ("conc", "--td", "1e6", "decay factor underflows to 0"),
        "conc_overflow": ("conc", "--std-mass-ug", "1e308", "concentration_ppm must be finite"),
        "dimension_mm": ("selfabs", "--dimension-mm", "nan", "dimension_mm must be finite"),
    }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("case", sorted(NAA_CASES))
    def test_non_finite_naa_value_exits_2(self, capsys, fmt, case):
        command, flag, value, message = self.NAA_CASES[case]
        argv = list(self.NAA_BASE[command])
        argv[argv.index(flag) + 1] = value
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, "")
        assert message in err

    # case -> (flag overrides of the conc base, error text)
    CONC_UNDERFLOW_CASES = {
        "std_rate": (
            {"--std-counts": "5e-324", "--half-life": "1e300s", "--ti": "1e300", "--tc": "1e300"},
            "standard count rate underflows to 0",
        ),
        "sample_mass_g": ({"--sample-mass-mg": "5e-324"}, "sample mass in grams underflows to 0"),
    }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("case", sorted(CONC_UNDERFLOW_CASES))
    def test_conc_underflow_exits_2(self, capsys, fmt, case):
        overrides, message = self.CONC_UNDERFLOW_CASES[case]
        argv = list(self.NAA_BASE["conc"])
        for flag, value in overrides.items():
            argv[argv.index(flag) + 1] = value
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "row, message",
        [("657,nan", "mu_linear_per_cm must be finite"), ("inf,1.2", "energy_kev must be finite")],
    )
    def test_non_finite_attenuation_row_exits_2(self, capsys, tmp_path, fmt, row, message):
        table = tmp_path / "mu.csv"
        table.write_text(f"energy_kev,mu_linear_per_cm\n{row}\n")
        code, out, err = run(
            capsys, *self.NAA_BASE["selfabs"], "--table", str(table), "--format", fmt
        )
        assert (code, out) == (2, "")
        assert "line 2" in err and message in err


class TestCsvModuleRefusals:
    """A record the ``csv`` module refuses exits 2 with its line.

    A field over the module's 131,072-character limit raises ``csv.Error``
    on Python 3.10 to 3.13.  A NUL byte raises it on 3.10; from 3.11 the
    module passes the NUL on, and ``_table_rows`` refuses the record with
    the same message, so a NUL in a free-text cell (a specimen id) is
    refused too.  Either way the third record is named.
    """

    GOOD_ROW = {
        "measurement": "b,bullet,6003,outer,Ag,8.8,,replicate_member",
        "attenuation": "600,1.4165",
    }
    BAD_ROW = {
        ("measurement", "over_limit"): "x" * 131_073 + ",bullet,6003,outer,Ag,8.9,,replicate_member",
        ("measurement", "nul"): "b,bul\0let,6003,outer,Ag,8.9,,replicate_member",
        ("attenuation", "over_limit"): "1" * 131_073 + ",1.2",
        ("attenuation", "nul"): "6\x0057,1.2",
    }
    COMMANDS = {
        "group": ("measurement", ["group", "--input"]),
        "hetero_manova": ("measurement", ["hetero", "--manova", "--responses", "Ag", "--input"]),
        "naa_selfabs": ("attenuation", ["naa", "selfabs", "--dimension-mm", "0.4", "--table"]),
    }

    @pytest.mark.parametrize("bad", ["over_limit", "nul"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_refused_record_exits_2(self, capsys, tmp_path, command, bad):
        table, argv = self.COMMANDS[command]
        header = "energy_kev,mu_linear_per_cm" if table == "attenuation" else HEADER
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n{self.GOOD_ROW[table]}\n{self.BAD_ROW[table, bad]}\n")
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 3: "), err[:200]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["group", "hetero_manova"])
    def test_nul_in_specimen_id_exits_2(self, capsys, tmp_path, command, fmt):
        _, argv = self.COMMANDS[command]
        path = tmp_path / "bad.csv"
        bad = "a\0b,bullet,6003,outer,Ag,8.9,,replicate_member"
        path.write_text(f"{HEADER}\n{self.GOOD_ROW['measurement']}\n{bad}\n")
        code, out, err = run(capsys, *argv, str(path), "--format", fmt)
        assert (code, out, err) == (2, "", "error: line 3: line contains NUL\n")


# stdout of the README's example criterion, Sb and Ag with the NRC's bias
# ranges at k=2, as both formats printed it when the example was a config file
README_CRITERION = ("--criterion", "nrc2", "--k", "2", "--elements", "Sb,Ag",
                    "--boundary", "closed", "--bias", "Sb=0.02:0.054,Ag=0.055")
README_CRITERION_TEXT = """\
pairwise matches under k=2.0 panel={Ag,Sb} boundary=closed
  CE 399           vs CE 567           no match (Ag ok; Sb fails)
  CE 399           vs CE 840           no match (Ag ok; Sb fails)
  CE 399           vs CE 842           no match (Ag ok; Sb fails)
  CE 399           vs CE 843           no match (Ag ok; Sb fails)
  CE 567           vs CE 840           match    (Ag ok; Sb ok)
  CE 567           vs CE 842           no match (Ag ok; Sb fails)
  CE 567           vs CE 843           match    (Ag ok; Sb ok)
  CE 840           vs CE 842           no match (Ag ok; Sb fails)
  CE 840           vs CE 843           no match (Ag ok; Sb fails)
  CE 842           vs CE 843           no match (Ag fails; Sb fails)
2 of 10 pairs matched
"""
# its JSON pairs: (a, b, Ag overlap, Sb overlap), None where the element fails
README_CRITERION_PAIRS = [
    ("CE 399", "CE 567", [8.229000000000001, 9.299999999999999], None),
    ("CE 399", "CE 840", [8.229000000000001, 9.0], None),
    ("CE 399", "CE 842", [8.8, 10.339], None),
    ("CE 399", "CE 843", [8.229000000000001, 8.5], None),
    ("CE 567", "CE 840", [7.3999999999999995, 9.0], [630.0, 642.94]),
    ("CE 567", "CE 842", [8.8, 9.811499999999999], None),
    ("CE 567", "CE 843", [7.300000000000001, 8.5], [613.0, 629.0]),
    ("CE 840", "CE 842", [8.8, 9.495], None),
    ("CE 840", "CE 843", [7.806999999999999, 8.5], None),
    ("CE 842", "CE 843", None, None),
]
README_CRITERION_BIAS = {"Ag": [0.055, 0.055], "Sb": [0.02, 0.054]}
README_CRITERION_JSON = {
    "command": "match",
    "criterion": {"bias": README_CRITERION_BIAS, "boundary": "closed",
                  "elements": ["Ag", "Sb"], "k": 2.0},
    "dataset": "fixture:table1",
    "decisions": {
        "bias_note": "criterion bias corrections apply to the first specimen of each pair",
        "boundary_note": "closed boundary counts exactly touching intervals as a match",
    },
    "pairs": [
        {
            "a": a,
            "b": b,
            "matched": None not in (ag, sb),
            "per_element": {
                symbol: {"bias_used": README_CRITERION_BIAS[symbol],
                         "matched": overlap is not None, "overlap": overlap}
                for symbol, overlap in (("Ag", ag), ("Sb", sb))
            },
        }
        for a, b, ag, sb in README_CRITERION_PAIRS
    ],
    "pairs_matched": 2,
    "pairs_total": 10,
}


class TestConfigAndDeterminism:
    """The criterion is configured by its flags alone: each malformed
    setting exits 2 in both formats, and ``--config`` is no option."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("source", ["flag_comma", "flag_blank"])
    def test_empty_panel_exits_2(self, capsys, fmt, source):
        panel = {"flag_comma": ",", "flag_blank": ""}[source]
        argv = ("match", "--fixture", "table1", "--elements", panel, "--format", fmt)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "element panel must be nonempty" in err

    # case -> (the malformed criterion flags, error text)
    CRITERION_CASES = {
        "criterion_number": (("--criterion", "5"), "argument --criterion: invalid choice: '5'"),
        "bias_number": (("--bias", "5"), "bias entry '5' must look like Sb=0.02:0.054"),
        "bias_list": (("--bias", "Sb="), "bias for Sb must be one or two numbers, got ''"),
        "bias_string": (("--bias", "Sb=low"), "bias for Sb must be one or two numbers, got 'low'"),
        "bias_bool": (("--bias", "Sb=true"), "bias for Sb must be one or two numbers"),
        "bias_three": (("--bias", "Sb=0.01:0.02:0.03"), "bias for Sb must be one or two"),
        "bias_nan": (("--bias", "Sb=nan"), "corrections must be finite, got [nan, nan]"),
        "bias_beyond_float": (("--bias", "Ag=1e400"), "corrections must be finite, got [inf, inf]"),
        "bias_unknown_element": (("--bias", "Pb=0.02"), "unknown element 'Pb'"),
        "bias_repeated": (("--bias", "Sb=0.5,Sb=0.02"), "bias for Sb given more than once"),
        "bias_comma": (("--bias", ","), "bias table ',' names no element"),
        "bias_blank": (("--bias", ""), "bias table '' names no element"),
        "elements_string": (("--elements", "Sb;Ag"), "unknown element 'Sb;Ag'"),
        "elements_number": (("--elements", "Sb,5"), "unknown element '5'"),
        "k_bool": (("--k", "true"), "argument --k: invalid float value: 'true'"),
        "k_string": (("--k", "4x"), "argument --k: invalid float value: '4x'"),
        "preset_list": (("--criterion", "[]"), "argument --criterion: invalid choice: '[]'"),
        "preset_empty": (("--criterion", ""), "argument --criterion: invalid choice: ''"),
        "boundary_false": (("--boundary", "false"), "argument --boundary: invalid choice: 'false'"),
        "boundary_empty": (("--boundary", ""), "argument --boundary: invalid choice: ''"),
    }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("case", sorted(CRITERION_CASES))
    def test_malformed_config_exits_2(self, capsys, fmt, case):
        flags, message = self.CRITERION_CASES[case]
        code, out, err = run(capsys, "match", "--fixture", "table1", *flags, "--format", fmt)
        assert (code, out) == (2, "")
        assert message in err

    # case -> (argv, with {d} the folder of mu.csv and {n} an integer beyond the
    # float range; the error it gives)
    BEYOND_FLOAT = "1" + "0" * 400
    MATCH = ("match", "--fixture", "table1")
    OVERFLOW_CASES = {
        "k": ((*MATCH, "--k", "{n}"), "k must be finite, got inf"),
        "bias": ((*MATCH, "--bias", "Sb=0.02:{n}"), "corrections must be finite, got [0.02, inf]"),
        "energy_kev": (
            ("naa", "selfabs", "--dimension-mm", "0.4", "--table", "{d}/mu.csv"),
            "line 2: energy_kev must be finite, got inf",
        ),
    }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
    def test_config_integer_beyond_float_range_exits_2(self, capsys, tmp_path, fmt, case):
        argv, message = self.OVERFLOW_CASES[case]
        (tmp_path / "mu.csv").write_text(f"energy_kev,mu_linear_per_cm\n{self.BEYOND_FLOAT},1.27\n")
        argv = [arg.format(d=tmp_path, n=self.BEYOND_FLOAT) for arg in argv]
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_absent_panel_keeps_default(self, capsys):
        payload, _ = run_json(capsys, "match", "--fixture", "table1", "--k", "4")
        assert payload["criterion"]["elements"] == ["Ag", "Sb"]

    def test_config_supplies_criterion(self, capsys):
        # the README example's criterion flags reach group and report as they reach match
        for command in ("group", "report"):
            payload, _ = run_json(capsys, command, "--fixture", "table1", *README_CRITERION)
            assert payload["criterion"] == README_CRITERION_JSON["criterion"], command

    def test_bias_flag_matches_config_form(self, capsys):
        argv = ("match", "--fixture", "table1", *README_CRITERION)
        assert run(capsys, *argv) == (0, README_CRITERION_TEXT, "")
        _, out = run_json(capsys, *argv)
        assert out == json.dumps(README_CRITERION_JSON, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("bias", ["Sb0.02", "Sb=0.01:0.02:0.03", "Sb=low"])
    def test_malformed_bias_flag_exits_2(self, capsys, bias):
        code, out, _ = run(capsys, "match", "--fixture", "table1", "--bias", bias)
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_bias_flag_applies_under_guinn4(self, capsys, fmt):
        argv = ("match", "--fixture", "table1", "--bias", "Sb=0.5", "--format", fmt)
        code, out, err = run(capsys, *argv, "--criterion", "guinn4")
        assert code == 0, err
        # naming the preset gives what its defaults give without it
        assert run(capsys, *argv) == (0, out, "")
        if fmt == "json":
            payload = json.loads(out)
            assert payload["criterion"]["bias"] == {"Sb": [0.5, 0.5]}
            assert payload["pairs_matched"] == 0
        else:
            assert out.splitlines()[-1] == "0 of 10 pairs matched"

    def test_config_bias_applies_under_guinn4(self, capsys):
        argv = ("group", "--fixture", "table1", "--criterion", "guinn4", "--bias", "Sb=0.5")
        payload, _ = run_json(capsys, *argv)
        assert payload["criterion"]["k"] == 4.0
        assert payload["criterion"]["bias"] == {"Sb": [0.5, 0.5]}
        assert len(payload["groups"]) == 5

    @pytest.mark.parametrize(
        "argv",
        [
            ("group", "--fixture", "table1", "--criterion", "guinn4"),
            ("match", "--fixture", "table1", "--criterion", "nrc2"),
            ("evidence", "--box", "6,4", "--draws-t", "2", "--draws-not-t", "3",
             "--groups-observed", "2"),
            ("report", "--fixture", "table3", "--criterion", "guinn4"),
            ("naa", "decay", "--half-life", "24s", "--ti", "60", "--td", "30", "--tc", "180"),
        ],
    )
    def test_json_round_trips_byte_identical(self, capsys, argv):
        _, out = run_json(capsys, *argv)
        assert render_json(json.loads(out)) == out

    def test_repeated_runs_identical(self, capsys):
        _, first = run_json(capsys, "group", "--fixture", "table1", "--criterion", "guinn4")
        _, second = run_json(capsys, "group", "--fixture", "table1", "--criterion", "guinn4")
        assert first == second

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("match", "--fixture", "table1"),
            ("group", "--fixture", "table1"),
            ("report", "--fixture", "table1"),
            ("naa", "selfabs", "--dimension-mm", "0.4"),
        ],
    )
    def test_deeply_nested_config_exits_2(self, capsys, tmp_path, argv, fmt):
        # no command takes --config: a config file of any shape, nested past
        # the JSON decoder's recursion limit too, is a usage error unread
        path = tmp_path / "deep.json"
        path.write_text('{"criterion": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run(capsys, *argv, "--config", str(path), "--format", fmt)
        assert (code, out) == (2, "")
        assert f"error: unrecognized arguments: --config {path}" in err


# case -> (argv, with {d} the folder of the files below; error message)
REFUSALS = {
    "fixture_and_input": (("match", "--fixture", "table1", "--input", "{d}/a.csv"),
                          "give either --fixture or --input, not both"),
    "empty_csv": (("group", "--input", "{d}/empty.csv"), "empty input: header row required"),
    "value_not_a_number": (("group", "--input", "{d}/abc.csv"),
                           "line 2: value_ppm is not a number: 'abc'"),
    "empty_specimen_id": (("group", "--input", "{d}/noid.csv"),
                          "line 2: specimen_id must be nonempty"),
    "hetero_one_id": (("hetero", "--fixture", "table2", "--element", "Ag", "--ids", "bullet-1"),
                      "--ids needs exactly two specimen ids"),
    "hetero_one_location": (
        ("hetero", "--fixture", "table2", "--element", "Ag", "--locations", "outer"),
        "--locations needs exactly two locations",
    ),
    "hetero_no_sides": (("hetero", "--fixture", "table2", "--element", "Ag"),
                        "give --locations a,b or --ids id1,id2"),
    "hetero_no_element": (("hetero", "--fixture", "table2", "--locations", "outer,middle"),
                          "--element is required for the t-test"),
    "hetero_location_without_element": (
        ("hetero", "--fixture", "table2", "--element", "Cu", "--locations", "outer,middle"),
        "no specimen at location 'outer' carrying Cu",
    ),
    "hetero_id_without_element": (
        ("hetero", "--fixture", "table2", "--element", "Cu", "--ids",
         "bullet-1-outer,bullet-1-middle"),
        "specimen 'bullet-1-outer' has no Cu series",
    ),
    # a flag the chosen test does not read is refused
    **{
        f"manova_reads_no_{flag[2:]}": (
            ("hetero", "--manova", "--input", "{d}/unequal.csv", "--responses", "Ag,As",
             flag, value),
            f"{flag} is not read by --manova",
        )
        for flag, value in (("--fixture", "table2"), ("--element", "Sb"), ("--ids", "x,y"),
                            ("--locations", "outer,middle"))
    },
    "hetero_empty_dataset": (("hetero", "--input", "{d}/a.csv", "--element", "Ag", "--ids", "a,b"),
                             "dataset has no specimens"),
    "ttest_reads_no_responses": (
        ("hetero", "--fixture", "table2", "--element", "Ag", "--locations", "outer,middle",
         "--responses", "Ag"),
        "--responses is not read by the t-test",
    ),
    "manova_no_input": (("hetero", "--manova", "--responses", "Ag,As"),
                        "--manova needs --input with raw replicate rows"),
    "manova_no_responses": (("hetero", "--manova", "--input", "{d}/unequal.csv"),
                            "--manova needs --responses, e.g. Ag,As"),
    "manova_blank_responses": (
        ("hetero", "--manova", "--input", "{d}/unequal.csv", "--responses", ","),
        "--responses must name at least one element",
    ),
    "manova_unequal_counts": (
        ("hetero", "--manova", "--input", "{d}/unequal.csv", "--responses", "Ag,As"),
        "cell (b1, outer) has unequal replicate counts per element: {Ag: 2, As: 1}",
    ),
    "half_life_not_a_number": (
        ("naa", "decay", "--half-life", "abc", "--ti", "60", "--td", "30", "--tc", "180"),
        "cannot parse duration 'abc'",
    ),
    "half_life_negative": (
        ("naa", "decay", "--half-life", "-5", "--ti", "60", "--td", "30", "--tc", "180"),
        "duration must be > 0, got -5.0",
    ),
    "prior_odds_not_a_number": (
        ("evidence", "--box", "6,4", "--draws-t", "2", "--draws-not-t", "3",
         "--groups-observed", "2", "--prior-odds", "x"),
        "cannot parse prior odds 'x'",
    ),
    # a list item that is not a number is named with its flag
    "box_not_an_integer": (
        ("evidence", "--box", "6,1.5", "--draws-t", "2", "--draws-not-t", "3",
         "--groups-observed", "2"),
        "--box: '1.5' is not an integer",
    ),
    "selfabs_energy_not_a_number": (
        ("naa", "selfabs", "--dimension-mm", "1", "--energies", "511, abc"),
        "--energies: 'abc' is not a number",
    ),
    "distfit_not_a_number": (("distfit", "--input", "{d}/values.txt"),
                             "{d}/values.txt:3: not a number: 'x'"),
    "selfabs_blank_energies": (("naa", "selfabs", "--dimension-mm", "0.4", "--energies", ","),
                               "no attenuation entries selected"),
    "selfabs_empty_energies": (("naa", "selfabs", "--dimension-mm", "0.4", "--energies", ""),
                               "no attenuation entries selected"),
    # a refused duration is named as given, its unit letter too
    "decay_word_with_unit": (
        ("naa", "decay", "--half-life", "abcs", "--ti", "60", "--td", "30", "--tc", "180"),
        "cannot parse duration 'abcs'",
    ),
    "decay_unit_alone": (
        ("naa", "decay", "--half-life", "24s", "--ti", "60", "--td", "30", "--tc", "h"),
        "cannot parse duration 'h'",
    ),
}


# each criterion flag's text in the form it reads, on table1's Sb/Ag panel,
# with small and extreme numbers
_CORRECTION = st.one_of(st.floats(-0.99, 2.0), st.floats())
_FORMED = {
    "--k": st.one_of(st.floats(-10.0, 10.0), st.floats()).map(repr),
    "--elements": st.lists(st.sampled_from(["Sb", "Ag"]), min_size=1, max_size=3).map(",".join),
    "--bias": st.dictionaries(
        st.sampled_from(["Sb", "Ag"]), st.lists(_CORRECTION, min_size=1, max_size=2), min_size=1
    ).map(lambda table: ",".join(
        f"{e}={':'.join(map(repr, sorted(c)))}" for e, c in table.items()
    )),
    "--boundary": st.sampled_from(["closed", "open"]),
}
# free text for one flag: near misses and any characters
_FREE = st.none() | st.one_of(st.text("SbAgAsPb=:,.-+019e ", max_size=16), st.text(max_size=12))


@settings(max_examples=50, deadline=None)
@given(st.fixed_dictionaries({}, optional=_FORMED), st.sampled_from(sorted(_FORMED)), _FREE)
def test_criterion_flag_text_exits_0_or_2_alike_in_both_formats(flags, flag, free):
    """Any criterion flag text gives ``match``, ``group`` and ``report``
    exit 0 or 2, never 1; exit 2 writes nothing to stdout, and JSON and
    text exit alike."""
    if free is not None:
        flags[flag] = free
    # "--flag=text", so a text that begins with "-" stays the flag's value
    argv = [f"{flag}={text}" for flag, text in flags.items()]
    for command in ("match", "group", "report"):
        codes = {}
        for fmt in ("json", "text"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                codes[fmt] = main([command, "--fixture", "table1", *argv, "--format", fmt])
            assert codes[fmt] in (0, 2), (command, fmt, argv)
            assert codes[fmt] == 0 or out.getvalue() == "", (command, fmt, argv)
        assert codes["json"] == codes["text"], (command, argv)


class TestRefusals:
    """Bad input that exits 2 with one message, in both formats."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_exits_2(self, capsys, tmp_path, case, fmt):
        (tmp_path / "a.csv").write_text(f"{HEADER}\n")
        (tmp_path / "empty.csv").write_text("")
        row = ",bullet,6003,outer,Ag,{},0.5,poisson_single\n"
        (tmp_path / "abc.csv").write_text(HEADER + "\na" + row.format("abc"))
        (tmp_path / "noid.csv").write_text(HEADER + "\n" + row.format("8.8"))
        (tmp_path / "unequal.csv").write_text(
            HEADER + "\n" + "".join(
                f"b1,bullet,6003,outer,{element},{value},,replicate_member\n"
                for element, value in (("Ag", 6.1), ("Ag", 6.2), ("As", 3.1))
            )
        )
        (tmp_path / "values.txt").write_text("1\n2\nx\n")
        argv, message = REFUSALS[case]
        argv = [arg.replace("{d}", str(tmp_path)) for arg in argv]
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out, err) == (2, "", f"error: {message.replace('{d}', str(tmp_path))}\n")

    # case -> (argv; the error the parser gives after its usage)
    PARSER_REFUSALS = {
        "ttest_ids_and_locations": (
            ("hetero", "--fixture", "table2", "--element", "Ag", "--locations", "outer,middle",
             "--ids", "bullet-1-outer,bullet-1-middle"),
            "argument --ids: not allowed with argument --locations",
        ),
    }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("case", sorted(PARSER_REFUSALS))
    def test_parser_exits_2(self, capsys, case, fmt):
        argv, message = self.PARSER_REFUSALS[case]
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: cabl {argv[0]} ")
        assert err.endswith(f"\ncabl {argv[0]}: error: {message}\n")


_CONC = ("naa", "conc", "--std-counts", "4000", "--std-mass-ug", "2",
         "--half-life", "24s", "--ti", "60", "--td", "30", "--tc", "180")
_MU_HEADER = "energy_kev,mu_linear_per_cm\n"

# case -> (argv, with {d} the folder of the files; {file name: text}; error message)
RULE_REFUSALS = {
    "distfit_seven_values": (("distfit", "--input", "{d}/seven.txt"),
                             {"seven.txt": "1\n2\n3\n4\n5\n6\n7\n"},
                             "need at least 8 observations, got 7"),
    "conc_negative_counts": ((*_CONC, "--sample-counts", "-1", "--sample-mass-mg", "20"), {},
                             "sample_counts must be >= 0"),
    "conc_zero_mass": ((*_CONC, "--sample-counts", "5000", "--sample-mass-mg", "0"), {},
                       "masses must be > 0"),
    "selfabs_zero_energy": (("naa", "selfabs", "--dimension-mm", "0.4", "--table", "{d}/mu.csv"),
                            {"mu.csv": _MU_HEADER + "0,1.2\n"},
                            "line 2: energy must be > 0"),
    "selfabs_negative_mu": (("naa", "selfabs", "--dimension-mm", "0.4", "--table", "{d}/mu.csv"),
                            {"mu.csv": _MU_HEADER + "657,-1\n"},
                            "line 2: mu_linear must be > 0"),
    "bias_minus_one": (("match", "--fixture", "table1", "--bias", "Sb=-1"), {},
                       "corrections must stay > -1"),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(RULE_REFUSALS))
def test_stated_rule_refusal_exits_2(capsys, tmp_path, case, fmt):
    argv, files, message = RULE_REFUSALS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [arg.replace("{d}", str(tmp_path)) for arg in argv]
    assert run(capsys, *argv, "--format", fmt) == (2, "", f"error: {message}\n")


class TestUnreadableFiles:
    """A file that is not UTF-8 exits 2 naming its path."""

    # reader -> argv, with {f} the file's path
    READERS = {
        "measurements": ("group", "--input", "{f}"),
        "manova": ("hetero", "--manova", "--input", "{f}", "--responses", "Ag,As"),
        "distfit": ("distfit", "--input", "{f}"),
        "attenuation": ("naa", "selfabs", "--dimension-mm", "0.4", "--table", "{f}"),
    }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_not_utf8_names_the_file(self, capsys, tmp_path, reader, fmt):
        path = tmp_path / "bin.dat"
        # a UTF-16 byte-order mark, as some spreadsheets write
        path.write_bytes(b"\xff\xfe" + "1,2\n".encode("utf-16-le"))
        argv = [arg.format(f=path) for arg in self.READERS[reader]]
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: not UTF-8 text: ")
        assert err.count("\n") == 1


class TestByteOrderMark:
    """A UTF-8 byte-order mark, as spreadsheet exports begin, is not part of the text."""

    MEASUREMENTS = HEADER + "\n" + "".join(
        f"{sid},bullet,6003,,{element},{value},{sigma},poisson_single\n"
        for sid, sb, ag in (("a", 600.0, 10.0), ("b", 610.0, 10.4), ("c", 700.0, 12.0))
        for element, value, sigma in (("Sb", sb, 4.0), ("Ag", ag, 0.2))
    )
    # case -> (file name, its text, argv with {f} the file's path)
    CASES = {
        "measurements": ("m.csv", MEASUREMENTS, ("group", "--input", "{f}")),
        "manova": ("raw.csv", MANOVA_CSV,
                   ("hetero", "--manova", "--input", "{f}", "--responses", "Ag,As")),
        "distfit": ("values.txt", "\n".join(str(1 + i % 7 / 3) for i in range(40)),
                    ("distfit", "--input", "{f}", "--families", "normal,gamma")),
        "attenuation": ("mu.csv", "energy_kev,mu_linear_per_cm\n600,1.4165\n",
                        ("naa", "selfabs", "--dimension-mm", "0.4", "--table", "{f}")),
    }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_marked_file_reads_as_unmarked(self, capsys, tmp_path, case, fmt):
        name, text, argv = self.CASES[case]
        path = tmp_path / name
        argv = [arg.format(f=path) for arg in argv] + ["--format", fmt]
        path.write_text(text, encoding="utf-8")
        plain = run(capsys, *argv)
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert path.read_bytes()[:3] == b"\xef\xbb\xbf"
        assert run(capsys, *argv) == plain
        assert plain[0] == 0, plain[2]
