import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

import cabl
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

    def test_empty_dataset_exits_2(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(HEADER + "\n")
        code, _, err = run(capsys, "group", "--input", str(empty))
        assert code == 2
        assert "no specimens" in err

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "group", "--fixture", "table1", "--criterion", "guinn4")
        assert code == 0
        assert "CE 399, CE 842" in out
        assert "CE 567, CE 840, CE 843" in out


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
        ],
        ids=["near-max", "wide", "tiny"],
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
        sweep = cabl.grouping._neighbours

        def counted(*args):
            calls.append(len(args[0]))
            return sweep(*args)

        monkeypatch.setattr(cabl.grouping, "_neighbours", counted)
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
# witness triple.
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
  ]
}
"""

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
nontransitive triples (a-b and b-c match, a-c does not):
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
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"attenuation": [{"energy_kev": 559}]}))
        code, out, err = run(
            capsys, "naa", "selfabs", "--dimension-mm", "0.4", "--config", str(config)
        )
        assert (code, out) == (2, "")
        assert "config attenuation entries must look like" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "attenuation",
        [
            [],
            {},
            [{"energy_kev": True, "mu_linear_per_cm": 1.271831}],
            [{"energy_kev": "657", "mu_linear_per_cm": 1.271831}],
        ],
        ids=["empty_list", "empty_object", "bool_energy", "string_energy"],
    )
    def test_malformed_config_attenuation_exits_2(self, capsys, tmp_path, fmt, attenuation):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"attenuation": attenuation}))
        argv = ("naa", "selfabs", "--dimension-mm", "0.4", "--format", fmt)
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert (code, out) == (2, "")
        assert "config attenuation entries must look like" in err
        assert err.rstrip().endswith(f"got {json.dumps(attenuation)}")

    def test_null_config_attenuation_takes_default(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"attenuation": None}))
        argv = ("naa", "selfabs", "--dimension-mm", "0.4")
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert (code, err) == (0, "")
        assert run(capsys, *argv) == (0, out, "")

    def test_success_exits_0(self, capsys):
        code, _, _ = run(capsys, "group", "--fixture", "table1")
        assert code == 0


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


# The cabl modules a job leaves loaded, as the last line of stderr: exit
# code, sorted module names, and whether dataclasses was imported
_LOADED = """
import json, sys
from cabl.cli import main
code = main(sys.argv[1:])
cabl = sorted(m for m in sys.modules if m.split(".")[0] == "cabl")
print(json.dumps([code, cabl, "dataclasses" in sys.modules]), file=sys.stderr)
"""

_CLI_MODULES = ["cabl", "cabl.cli", "cabl.errors", "cabl.ingest", "cabl.model", "cabl.uncertainty"]
_STATS = ["cabl.stats", "cabl.stats.special"]
_GROUPING = ["cabl.grouping", "cabl.matching"]
# case -> the modules its command loads beyond those of `import cabl.cli`
LOADS = {
    "naa-decay": [],
    "naa-conc": [],
    "naa-selfabs": [],
    "evidence": ["cabl.evidence"],
    "distfit": [*_STATS, "cabl.stats.fitting"],
    "hetero-ttest": [*_STATS, "cabl.stats.ttest"],
    "match": ["cabl.matching"],
    "group": _GROUPING,
    "group-clique": _GROUPING,
    "group-nrc2": _GROUPING,
    "report": _GROUPING,
    "group-bad-input": [],
}


def _write_inputs(folder: Path) -> None:
    """The files NO_NUMPY_CASES read: 40 values and a CSV with a bad header."""
    (folder / "values.txt").write_text(
        "\n".join(str(1.0 + (7 * i) % 13 / 3.0) for i in range(40)) + "\n"
    )
    (folder / "bad.csv").write_text("id,element,value\nx,Sb,1\n")


def _python(
    code: str, *argv: str, cwd: Path, flags: Sequence[str] = ()
) -> subprocess.CompletedProcess:
    src = str(Path(cabl.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *argv],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )


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
        code, loaded, dataclasses = json.loads(probe.stderr.splitlines()[-1])
        assert code == (2 if case == "group-bad-input" else 0), probe.stderr
        assert loaded == sorted(_CLI_MODULES + LOADS[case])
        assert not dataclasses

    def test_source_names_no_dataclasses(self):
        for path in sorted(Path(cabl.__file__).parent.rglob("*.py")):
            assert "dataclasses" not in path.read_text(encoding="utf-8"), path

    def test_import_leaves_numpy_unloaded(self, tmp_path):
        for module in ("cabl.cli", "cabl.grouping"):
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


class TestConfigAndDeterminism:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("source", ["flag_comma", "flag_blank", "config"])
    def test_empty_panel_exits_2(self, capsys, tmp_path, fmt, source):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"criterion": {"elements": []}}))
        panel = {
            "flag_comma": ("--elements", ","),
            "flag_blank": ("--elements", ""),
            "config": ("--config", str(config)),
        }[source]
        code, out, err = run(capsys, "match", "--fixture", "table1", *panel, "--format", fmt)
        assert (code, out) == (2, "")
        assert "element panel must be nonempty" in err

    # case -> (the config's criterion value, error text)
    CONFIG_CASES = {
        "criterion_number": (5, "config criterion must be an object"),
        "bias_number": ({"bias": 5}, "bias must be an object keyed by element, got 5"),
        "bias_list": ({"bias": []}, "bias must be an object keyed by element"),
        "bias_string": ({"bias": {"Sb": "0.02"}}, "bias for Sb must be one or two numbers"),
        "bias_bool": ({"bias": {"Sb": True}}, "bias for Sb must be one or two numbers"),
        "bias_three": ({"bias": {"Sb": [0.01, 0.02, 0.03]}}, "bias for Sb must be one or two"),
        "elements_string": ({"elements": "Sb"}, "config criterion.elements must be a list"),
        "elements_number": ({"elements": ["Sb", 5]}, "unknown element 5"),
        "k_bool": ({"k": True}, "config criterion.k must be a number, got true"),
        "k_string": ({"k": "4"}, "config criterion.k must be a number"),
        "preset_list": ({"preset": []}, "config criterion.preset must be a string, got []"),
        "preset_empty": ({"preset": ""}, "unknown preset ''"),
        "boundary_false": (
            {"boundary": False}, "config criterion.boundary must be a string, got false"
        ),
        "boundary_empty": ({"boundary": ""}, "unknown boundary ''"),
    }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("case", sorted(CONFIG_CASES))
    def test_malformed_config_exits_2(self, capsys, tmp_path, fmt, case):
        criterion, message = self.CONFIG_CASES[case]
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"criterion": criterion}))
        argv = ("match", "--fixture", "table1", "--config", str(path), "--format", fmt)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err

    # case -> (command, config with an integer beyond the float range, its key)
    BEYOND_FLOAT = "1" + "0" * 400
    MATCH = ("match", "--fixture", "table1")
    OVERFLOW_CASES = {
        "k": (MATCH, '{"criterion": {"k": %s}}', "criterion.k"),
        "bias": (MATCH, '{"criterion": {"bias": {"Sb": [0.02, %s]}}}', "criterion.bias.Sb"),
        "energy_kev": (
            ("naa", "selfabs", "--dimension-mm", "0.4"),
            '{"attenuation": [{"energy_kev": %s, "mu_linear_per_cm": 1.27}]}',
            "energy_kev",
        ),
    }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
    def test_config_integer_beyond_float_range_exits_2(self, capsys, tmp_path, fmt, case):
        argv, template, key = self.OVERFLOW_CASES[case]
        path = tmp_path / "config.json"
        path.write_text(template % self.BEYOND_FLOAT)
        code, out, err = run(capsys, *argv, "--config", str(path), "--format", fmt)
        assert (code, out) == (2, "")
        assert f"config {key} exceeds the float range" in err

    def test_absent_panel_keeps_default(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"criterion": {"k": 4}}))
        payload, _ = run_json(capsys, "match", "--fixture", "table1", "--config", str(config))
        assert payload["criterion"]["elements"] == ["Ag", "Sb"]

    def test_config_supplies_criterion(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "criterion": {
                        "k": 2,
                        "elements": ["Sb", "Ag"],
                        "boundary": "closed",
                        "bias": {"Sb": [0.02, 0.054], "Ag": 0.055},
                    }
                }
            )
        )
        payload, _ = run_json(
            capsys, "match", "--fixture", "table1", "--config", str(config)
        )
        assert payload["criterion"]["k"] == 2.0
        assert payload["criterion"]["bias"] == {"Sb": [0.02, 0.054], "Ag": [0.055, 0.055]}

    def test_bias_flag_matches_config_form(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"criterion": {"bias": {"Sb": [0.02, 0.054], "Ag": 0.055}}}))
        from_config, _ = run_json(
            capsys, "match", "--fixture", "table1", "--k", "2", "--config", str(config)
        )
        from_flag, _ = run_json(
            capsys, "match", "--fixture", "table1", "--k", "2", "--bias", "Sb=0.02:0.054,Ag=0.055"
        )
        assert from_flag == from_config
        assert from_flag["criterion"]["bias"] == {"Sb": [0.02, 0.054], "Ag": [0.055, 0.055]}

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

    def test_config_bias_applies_under_guinn4(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"criterion": {"preset": "guinn4", "bias": {"Sb": 0.5}}}))
        payload, _ = run_json(capsys, "group", "--fixture", "table1", "--config", str(config))
        assert payload["criterion"]["k"] == 4.0
        assert payload["criterion"]["bias"] == {"Sb": [0.5, 0.5]}
        assert len(payload["groups"]) == 5

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"criterion": {"k": 2}}))
        payload, _ = run_json(
            capsys, "match", "--fixture", "table1", "--config", str(config), "--k", "4"
        )
        assert payload["criterion"]["k"] == 4.0

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
