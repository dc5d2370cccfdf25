"""``render_json`` against its oracle, ``json.dumps(indent=2, sort_keys=True)``."""

import json
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cabl.cli import render_json


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
