"""``cabl match`` stdout against the dict-tree report it stands for.

The oracle is the command's earlier form: one nested dict a pair, printed
by ``json.dumps(indent=2, sort_keys=True)`` and by text lines read off the
dicts.  ``cmd_match`` now keeps its pairs as rows and writes them itself,
and its stdout, in both formats and on every exit, must be the oracle's.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import populations, spread_populations

from cabl.cli import (
    _BIAS_SIDE_NOTE,
    _BOUNDARY_NOTE,
    _build_criterion,
    _criterion_dict,
    _dataset_decisions,
    _load_config,
    _load_dataset,
    build_parser,
    main,
)
from cabl.errors import CablError
from cabl.ingest import CSV_HEADER
from cabl.matching import match_specimens


def oracle_payload(argv):
    args = build_parser().parse_args(argv)
    config = _load_config(args.config)
    dataset = _load_dataset(args)
    criterion = _build_criterion(args, config)
    specimens = sorted(dataset, key=lambda s: s.id)
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
    except CablError as exc:
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


def criterion_argv(criterion, preset, as_flags, folder):
    """The criterion as ``match`` flags, or as a ``--config`` file."""
    bias = {e.value: [c.c_lo, c.c_hi] for e, c in (criterion.bias or {}).items()}
    symbols = [e.value for e in criterion.elements]
    if as_flags:
        argv = ["--criterion", preset, "--k", repr(criterion.k), "--elements", ",".join(symbols)]
        argv += ["--boundary", criterion.boundary.value]
        if bias:
            argv += ["--bias", ",".join(f"{s}={lo!r}:{hi!r}" for s, (lo, hi) in bias.items())]
        return argv
    conf = {"preset": preset, "k": criterion.k, "elements": symbols}
    conf["boundary"] = criterion.boundary.value
    if bias:
        conf["bias"] = bias
    path = folder / "config.json"
    path.write_text(json.dumps({"criterion": conf}), encoding="utf-8")
    return ["--config", str(path)]


def check_against_oracle(specimens, criterion, preset, as_flags):
    with tempfile.TemporaryDirectory() as name:
        folder = Path(name)
        argv = ["match", "--input", write_csv(folder / "in.csv", specimen_rows(specimens))]
        argv += criterion_argv(criterion, preset, as_flags, folder)
        assert actual(argv) == expected(argv)


_presets = st.sampled_from(["guinn4", "nrc2"])


class TestMatchAgainstTheDictTree:
    # n=0, 1 and 2 as well as populations of up to 30
    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(populations(), spread_populations()),
        st.one_of(st.none(), st.integers(0, 2)),
        _presets,
        st.booleans(),
    )
    def test_stdout_equals_the_oracle(self, case, keep, preset, as_flags):
        specimens, criterion = case
        check_against_oracle(specimens[:keep], criterion, preset, as_flags)

    @settings(max_examples=40, deadline=None)
    @given(populations(complete=False), _presets, st.booleans())
    def test_incomplete_panels_exit_as_the_oracle(self, case, preset, as_flags):
        specimens, criterion = case
        check_against_oracle(specimens, criterion, preset, as_flags)

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
