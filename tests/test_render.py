"""``render_json`` against its oracle, ``json.dumps(indent=2, sort_keys=True)``."""

import io
import json
import math
import operator
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cabl.cli
from cabl.cli import (
    _build_criterion,
    _load_dataset,
    _MatchRows,
    build_parser,
    main,
    render_json,
)
from cabl.ingest import CSV_HEADER
from cabl.matching import match_table


def oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


# control, space, quote, backslash, a lone surrogate, non-ASCII inside
# and outside the basic plane, and the JavaScript line separators
_CHARS = st.one_of(
    st.characters(),
    st.sampled_from(["\x00", " ", '"', "\\", "\ud800", "\udfff", "\xe9", "\u2028", "\U0001f600"]),
)
_TEXT = st.text(_CHARS, max_size=8)
_SCALARS = st.one_of(
    _TEXT,
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-7, 0.1, 2.0**53]),
)
# Lists that start with strings: all strings take the writer's one-join
# path; a later non-string sends the list back to the per-item path.
_STRING_LISTS = st.one_of(
    st.lists(_TEXT, min_size=1, max_size=6),
    st.lists(_TEXT, min_size=1, max_size=6).map(tuple),
    st.lists(st.tuples(_TEXT, _TEXT, _TEXT), max_size=4),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=5),
        _STRING_LISTS,
        st.builds(
            operator.add,
            st.lists(_TEXT, min_size=1, max_size=4),
            st.lists(inner, min_size=1, max_size=3),
        ),
    ),
    max_leaves=20,
)


class _Tag(str):
    """A ``str`` subclass, which ``json.dumps`` writes as its text."""


def _nest(value, keys: list[str]):
    """``value`` inside one container per key, alternating dict and list."""
    for i, key in enumerate(keys):
        value = {key: value} if i % 2 else [value, {}]
    return value


def test_quotes_with_the_escaper_of_json_dumps():
    # imported from _json, so no job loads the json package; json.encoder
    # re-exports the same C function, and json.dumps quotes with it
    assert cabl.cli._quote is json.encoder.encode_basestring_ascii


@settings(max_examples=150, deadline=None)
@given(_VALUES)
def test_matches_json_dumps(value):
    assert render_json(value) == oracle(value)


@settings(max_examples=50, deadline=None)
@given(_VALUES, st.lists(_TEXT, min_size=6, max_size=12))
def test_matches_json_dumps_deeply_nested(value, keys):
    nested = _nest(value, keys)
    assert render_json(nested) == oracle(nested)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        "",
        # strings mixed with other values
        ["a", 1, None, ["b"]],
        ("a", "b"),
        # match-shaped pairs: the largest payload the commands write
        [
            {
                "a": f"s{i:05d}",
                "b": f"s{i + 1:05d}",
                "matched": i % 3 == 0,
                "per_element": {
                    "Ag": {"matched": True, "overlap": [i / 7, i / 7 + 0.5], "bias_used": None},
                    "Sb": {"matched": i % 3 == 0, "overlap": None, "bias_used": [0.02, 0.054]},
                },
            }
            for i in range(20_000)
        ],
        # witness triples, as lists and as the tuples group() returns
        [[f"id{i}", f"id{i + 1}", f"id{i + 2}"] for i in range(1000)],
        tuple((f"id{i}", "\u2028", f'"{i}"') for i in range(1000)),
        # strings first, then a nested list: the one-join path falls back
        ["a", ["b", "c"], "d", ("e",)],
        [_Tag("x"), "y", _Tag("\u2028"), [_Tag('"')]],
    ],
    ids=[
        "dict", "list", "tuple", "str", "mixed", "str-tuple", "pairs", "triples",
        "triple-tuples", "str-then-nested", "str-subclass",
    ],
)
def test_fixed_cases(value):
    # a bare bool: pytest's diff of two multi-megabyte strings runs for minutes
    same = render_json(value) == oracle(value)
    assert same


@pytest.mark.parametrize("number", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_float_raises_value_error(number):
    with pytest.raises(ValueError, match="not JSON compliant"):
        render_json({"x": [1.0, number]})


def test_non_finite_float_after_strings_raises_value_error():
    with pytest.raises(ValueError, match="not JSON compliant"):
        render_json({"x": ["a", "b", float("nan")]})


@pytest.mark.parametrize("key", [1, 2.5, None, True, ("a",)])
def test_non_str_key_raises_type_error(key):
    with pytest.raises(TypeError):
        render_json({"outer": {key: 1}})


def test_unknown_type_raises_type_error():
    with pytest.raises(TypeError, match="not JSON serializable"):
        render_json({"x": {1, 2}})


def test_unknown_type_after_strings_raises_type_error():
    with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
        render_json({"x": ["a", "b", {1, 2}]})


def _dense_population(n: int, seed: int) -> str:
    """Lots of three specimens with 3-5 % errors in a narrow Sb-Ag region:
    intervals chain across lots, so about 30 % of pairs overlap on some
    element, and 3 % on both."""
    rng = random.Random(seed)
    ranges = {"Sb": (100.0, 30000.0), "Ag": (5.0, 200.0)}
    lines = [",".join(CSV_HEADER)]
    for i in range(n):
        if i % 3 == 0:
            means = {}
            for element, (lo, hi) in ranges.items():
                mid, half = math.log(lo * hi) / 2, math.log(hi / lo) / 2 * 0.9
                means[element] = math.exp(rng.uniform(mid - half, mid + half))
        for element, mean in means.items():
            rel = rng.uniform(0.03, 0.05)
            value = mean * (1 + rng.gauss(0, 0.02)) * (1 + rng.gauss(0, rel))
            lines.append(
                f"s{i:04d},bullet,L{i // 3:04d},unlabeled,{element},"
                f"{value:.10g},{value * rel:.10g},poisson_single"
            )
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def dense_match(tmp_path_factory):
    """``match``'s argv and payload on 200 dense specimens (19,900 pairs)."""
    path = tmp_path_factory.mktemp("dense") / "dense-200.csv"
    path.write_text(_dense_population(200, seed=1), encoding="utf-8")
    argv = ["match", "--input", str(path), "--criterion", "guinn4", "--format", "json"]
    args = build_parser().parse_args(argv)
    return argv, args.func(args)


def test_match_render_holds_about_one_copy_of_the_report(dense_match):
    # the writer's peak above the payload: the document plus its part list
    # (a few pointers a pair, text shared across pairs); building a text
    # per container as well, as a nested writer does, costs about 2.15x
    _, payload = dense_match
    rows = payload["pairs"]
    # pairs that match, that fail on one element, and that fail on both
    failed = len(rows) - rows.matched
    assert rows.symbols == ("Ag", "Sb") and 0 < rows.matched and 0 < rows.masks.count(0) < failed
    tracemalloc.start()
    try:
        text = render_json(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.4 * len(text), (peak, len(text))


def test_match_rows_hold_no_object_a_pair(dense_match):
    # a verdict byte and the overlapping bounds come to about 7.3 bytes a
    # pair; two id references a pair would add 16, and a tuple a row, with
    # its overlaps, about 150
    args = build_parser().parse_args(dense_match[0])
    dataset, criterion = _load_dataset(args), _build_criterion(args)
    tracemalloc.start()
    try:
        rows = _MatchRows(match_table(dataset, criterion), criterion)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rows) == 19_900
    assert held < 8 * len(rows), held / len(rows)


def _main_stdout(capsys, argv: list[str]) -> str:
    """``main``'s stdout for ``argv``, checked equal to ``render_json``'s text."""
    assert main(argv) == 0
    out = capsys.readouterr().out
    args = build_parser().parse_args(argv)
    same = out == render_json(args.func(args))
    assert same
    return out


def test_main_writes_the_rendered_bytes_in_slices(capsys, dense_match):
    short = _main_stdout(capsys, ["match", "--fixture", "table1", "--format", "json"])
    assert len(short) < cabl.cli._SLICE
    long = _main_stdout(capsys, dense_match[0])
    assert len(long) > 3 * cabl.cli._SLICE


class _Count(io.TextIOBase):
    """A stdout that keeps only the number of characters written to it."""

    chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)


def test_text_report_is_written_as_it_is_rendered(monkeypatch, dense_match):
    # the lines go out in small batches as they are rendered; joined first,
    # the lines and the document were held at once, 2.9 times the report
    argv, payload = dense_match
    monkeypatch.setattr(cabl.cli, "cmd_match", lambda args: payload)
    out = _Count()
    monkeypatch.setattr("sys.stdout", out)
    tracemalloc.start()
    try:
        assert main([*argv, "--format", "text"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.chars == sum(len(line) + 1 for line in cabl.cli._match_text(payload))
    assert peak < out.chars / 4, (peak, out.chars)
