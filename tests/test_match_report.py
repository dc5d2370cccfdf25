"""``cabl match`` stdout against the dict-tree report it stands for.

The oracle is the command's earlier form: one nested dict a pair, printed
by ``json.dumps(indent=2, sort_keys=True)`` and by text lines read off the
dicts.  ``cmd_match`` keeps its pairs as columns and writes them itself,
and its stdout, in both formats and on every exit, must be the oracle's.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import populations, spread_populations

from cabl.cli import (
    _BIAS_SIDE_NOTE,
    _BOUNDARY_NOTE,
    _build_criterion,
    _criterion_dict,
    _dataset_decisions,
    _load_dataset,
    _match_text,
    _MatchRows,
    build_parser,
    main,
    render_json,
)
from cabl.errors import CablError
from cabl.ingest import CSV_HEADER
from cabl.matching import match_specimens, match_table
from cabl.model import BiasCorrection, Element, ElementSeries, Kind, MatchCriterion, Specimen


def oracle_pairs(specimens, criterion):
    """One nested dict a pair, in canonical order."""
    specimens = sorted(specimens, key=lambda s: s.id)
    if len(specimens) == 1:
        # a lone specimen is refused as it is beside another: an incomplete
        # panel or an interval beyond the float range
        match_specimens(specimens[0], specimens[0], criterion)
    pairs = []
    for i, a in enumerate(specimens):
        for b in specimens[i + 1 :]:
            result = match_specimens(a, b, criterion)
            per_element = {}
            for e, overlap in zip(criterion.elements, result.overlaps):
                bias = criterion.bias_for(e)
                per_element[e.value] = {
                    "matched": overlap is not None,
                    "overlap": overlap,
                    "bias_used": None if bias is None else (bias.c_lo, bias.c_hi),
                }
            pairs.append(
                {"a": a.id, "b": b.id, "matched": result.matched, "per_element": per_element}
            )
    return pairs


def oracle_payload(argv):
    args = build_parser().parse_args(argv)
    dataset = _load_dataset(args)
    criterion = _build_criterion(args)
    pairs = oracle_pairs(dataset, criterion)
    return {
        "command": "match",
        "dataset": dataset.provenance,
        "criterion": _criterion_dict(criterion),
        "pairs": pairs,
        "pairs_total": len(pairs),
        "pairs_matched": sum(pair["matched"] for pair in pairs),
        "decisions": {
            "boundary_note": _BOUNDARY_NOTE,
            "bias_note": _BIAS_SIDE_NOTE,
            **_dataset_decisions(dataset),
        },
    }


def oracle_text(p):
    criterion = p["criterion"]
    yield (
        f"pairwise matches under k={criterion['k']} "
        f"panel={{{','.join(criterion['elements'])}}} boundary={criterion['boundary']}"
    )
    for pair in p["pairs"]:
        verdict = "match   " if pair["matched"] else "no match"
        detail = "; ".join(
            f"{symbol} {'ok' if per['matched'] else 'fails'}"
            for symbol, per in pair["per_element"].items()
        )
        yield f"  {pair['a']:<16} vs {pair['b']:<16} {verdict} ({detail})"
    yield f"{p['pairs_matched']} of {p['pairs_total']} pairs matched"


def expected(argv):
    """Each format's ``(exit code, stdout, stderr)``, from the oracle."""
    try:
        payload = oracle_payload(argv)
    except (CablError, ValueError) as exc:  # an empty dataset is a ValueError
        refused = (2, "", f"error: {exc}\n")
        return {"json": refused, "text": refused}
    text = "".join(f"{line}\n" for line in oracle_text(payload))
    return {
        "json": (0, json.dumps(payload, indent=2, sort_keys=True) + "\n", ""),
        "text": (0, text, ""),
    }


def actual(argv):
    """Each format's ``(exit code, stdout, stderr)`` from ``main``."""
    outputs = {}
    for fmt in ("json", "text"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--format", fmt])
        outputs[fmt] = code, out.getvalue(), err.getvalue()
    return outputs


def write_csv(path, rows):
    path.write_text("\n".join([",".join(CSV_HEADER), *rows]) + "\n", encoding="utf-8")
    return str(path)


def specimen_rows(specimens):
    for s in specimens:
        for e, x in s.series.items():
            yield f"{s.id},bullet,{s.lot or ''},,{e.value},{x.mean!r},{x.se!r},poisson_single"


def criterion_argv(criterion, preset):
    """The criterion as ``match`` flags."""
    symbols = ",".join(e.value for e in criterion.elements)
    argv = ["--criterion", preset, "--k", repr(criterion.k), "--elements", symbols]
    argv += ["--boundary", criterion.boundary.value]
    if criterion.bias:
        bias = (f"{e.value}={c.c_lo!r}:{c.c_hi!r}" for e, c in criterion.bias.items())
        argv += ["--bias", ",".join(bias)]
    return argv


def check_against_oracle(specimens, criterion, preset):
    with tempfile.TemporaryDirectory() as name:
        path = write_csv(Path(name) / "in.csv", specimen_rows(specimens))
        argv = ["match", "--input", path, *criterion_argv(criterion, preset)]
        assert actual(argv) == expected(argv)


_presets = st.sampled_from(["guinn4", "nrc2"])


class TestMatchAgainstTheDictTree:
    # n=0, 1 and 2 as well as populations of up to 30
    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(populations(), spread_populations()),
        st.one_of(st.none(), st.integers(0, 2)),
        _presets,
    )
    def test_stdout_equals_the_oracle(self, case, keep, preset):
        specimens, criterion = case
        check_against_oracle(specimens[:keep], criterion, preset)

    @settings(max_examples=40, deadline=None)
    @given(populations(complete=False), _presets)
    def test_incomplete_panels_exit_as_the_oracle(self, case, preset):
        specimens, criterion = case
        check_against_oracle(specimens, criterion, preset)

    def test_incomplete_panel_exits_2(self, tmp_path):
        # "a" lacks Ag, "b" lacks Sb: the first pair fails on a's Ag
        rows = ["a,bullet,,,Sb,10.0,1.0,poisson_single", "b,bullet,,,Ag,10.0,1.0,poisson_single"]
        argv = ["match", "--input", write_csv(tmp_path / "in.csv", rows)]
        refused = (2, "", "error: specimen 'a' has no Ag series\n")
        assert actual(argv) == expected(argv) == {"json": refused, "text": refused}

    def test_out_of_range_interval_refused_in_both_formats(self, tmp_path):
        # 1e308 +/- 4e308 overflows both ends: the interval is refused
        # before any output, so text and JSON exit alike
        rows = [f"{s},bullet,,,Sb,1e308,1e308,poisson_single" for s in ("a", "b")]
        argv = ["match", "--input", write_csv(tmp_path / "in.csv", rows), "--elements", "Sb"]
        message = "k=4.0 and se=1e+308 put an interval endpoint beyond the float range"
        refused = (2, "", f"error: {message}\n")
        assert actual(argv) == expected(argv) == {"json": refused, "text": refused}

    @pytest.mark.parametrize(
        "rows, flags, message",
        [
            # b overflows on Sb before c's missing Ag is met
            (
                ["a,Sb,100.0,1.0", "a,Ag,10.0,1.0", "b,Sb,1e308,1e308", "b,Ag,10.0,1.0",
                 "c,Sb,100.0,1.0"],
                [],
                "k=4.0 and se=1e+308 put an interval endpoint beyond the float range",
            ),
            # b overflows on Sb and c on Ag, the panel's first element: the
            # pair (a, b) fails first
            (
                ["a,Sb,100.0,1.0", "a,Ag,10.0,1.0", "b,Sb,1e308,1e308", "b,Ag,10.0,1.0",
                 "c,Sb,100.0,1.0", "c,Ag,1e308,5e307"],
                [],
                "k=4.0 and se=1e+308 put an interval endpoint beyond the float range",
            ),
            # corrected, b overflows on Sb and c on Ag: every pair (a, x)
            # holds, and of the pairs (b, x), met next, (b, c) fails first
            (
                ["a,Sb,100.0,1.0", "a,Ag,10.0,1.0", "b,Sb,1.6e308,1.0", "b,Ag,10.0,1.0",
                 "c,Sb,100.0,1.0", "c,Ag,1.6e308,2.0", "d,Sb,100.0,1.0", "d,Ag,10.0,1.0"],
                ["--bias", "Sb=0.2,Ag=0.2"],
                "k=4.0 and se=1.0 put an interval endpoint beyond the float range",
            ),
            # b lacks Sb and c lacks Ag: the pair (a, b) fails first
            (
                ["a,Sb,100.0,1.0", "a,Ag,10.0,1.0", "b,Ag,10.0,1.0", "c,Sb,100.0,1.0"],
                [],
                "specimen 'b' has no Sb series",
            ),
        ],
    )
    def test_match_and_group_refuse_the_first_failing_pair_alike(
        self, tmp_path, rows, flags, message
    ):
        rows = [f"{sid},bullet,,,{rest},poisson_single" for sid, rest in
                (row.split(",", 1) for row in rows)]
        path = write_csv(tmp_path / "in.csv", rows)
        refused = (2, "", f"error: {message}\n")
        argv = ["match", "--input", path, *flags]
        assert actual(argv) == expected(argv)
        for command in ("match", "group"):
            assert actual([command, "--input", path, *flags]) == {"json": refused, "text": refused}

    @pytest.mark.parametrize("sid", ["0c", "ab", "c"], ids=["first", "middle", "last"])
    def test_overflow_refused_wherever_it_sorts(self, tmp_path, sid):
        # the specimen's corrected interval overflows though its plain one
        # does not; it is refused whether or not a pair takes it as the
        # corrected side, as the last specimen by id never is
        rows = [f"{name},bullet,,,Sb,{mean},1.0,poisson_single"
                for name, mean in (("a", 100.0), ("b", 120.0), (sid, 1.5e308))]
        path = write_csv(tmp_path / "in.csv", rows)
        message = "k=4.0 and se=1.0 put an interval endpoint beyond the float range"
        refused = (2, "", f"error: {message}\n")
        for command in ("match", "group"):
            argv = [command, "--input", path, "--elements", "Sb", "--bias", "Sb=0.2"]
            assert actual(argv) == {"json": refused, "text": refused}

    def test_zeros_of_either_sign_print_as_the_oracle(self):
        # a's corrected lower end underflows to -0.0, and b's and c's are
        # 0.0: the pairs (a, b) and (a, c) overlap from -0.0, (b, c) from 0.0
        tiny = {"a": (5e-324, 1e-323), "b": (5e-324, 5e-324), "c": (5e-324, 5e-324)}
        specimens = [Specimen(sid, Kind.BULLET, series={Element.SB: ElementSeries(*x)})
                     for sid, x in tiny.items()]
        criterion = MatchCriterion(
            k=1.0, elements=(Element.SB,), bias={Element.SB: BiasCorrection(-0.6, -0.6)}
        )
        pairs = oracle_pairs(specimens, criterion)
        starts = [repr(pair["per_element"]["Sb"]["overlap"][0]) for pair in pairs]
        assert starts == ["-0.0", "-0.0", "0.0"]
        check_against_oracle(specimens, criterion, "guinn4")


class TestColumnsAgainstTheRows:
    """``_MatchRows`` holds ``match_table``'s table (the ids, a bit an
    overlapping element for each pair and the overlaps' bounds; see
    ``test_matching.TestMatchTable``), and, written in either format, it
    is the dict tree."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(populations(), spread_populations()), st.one_of(st.none(), st.integers(0, 2)))
    def test_columns_give_back_the_rows_and_the_oracle(self, case, keep):
        specimens, criterion = case
        specimens = specimens[:keep]
        rows = _MatchRows(match_table(specimens, criterion), criterion)
        pairs = oracle_pairs(specimens, criterion)
        head = {"command": "match", "criterion": _criterion_dict(criterion)}
        payload = {**head, "pairs": rows, "pairs_total": len(rows), "pairs_matched": rows.matched}
        oracle = {
            **head,
            "pairs": pairs,
            "pairs_total": len(pairs),
            "pairs_matched": sum(pair["matched"] for pair in pairs),
        }
        assert render_json(payload) == json.dumps(oracle, indent=2, sort_keys=True) + "\n"
        assert list(_match_text(payload)) == list(oracle_text(oracle))
