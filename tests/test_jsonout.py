"""`jsonout.dumps` writes exactly what `json.dumps` writes with a two-space
indent, through its record path too, and refuses every type outside the
documents it is built for."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sailstate import jsonout

# Any code point, lone surrogates included, with the ones whose escaping
# differs (controls, quote, backslash, DEL, U+2028, lone surrogates,
# non-BMP) drawn often.
CHARS = st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from('\x00\x1f"\\/\x7f\u2028\ud800\udfff\U0001f600\U0010ffff'),
)
TEXT = st.text(CHARS, max_size=12)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**31), 2**31),
    st.integers(-(2**200), 2**200),
    TEXT,
)
DOCS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(TEXT, inner, max_size=5),
    max_leaves=40,
)
# Keys with the characters a `%` or `str.format` template would read.
KEYS = st.text(st.one_of(CHARS, st.sampled_from('%{}"s\u00e9')), max_size=6)
# Record values: every supported type, nested lists and dicts included.
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6,
)
COLUMNS = (VALUES, TEXT, st.booleans(), st.lists(TEXT, max_size=3))


@settings(derandomize=True)
@given(DOCS)
@example({})
@example([])
@example({"": [[], {}, [{}], {"": []}]})
@example([True, 1, False, 0, None, -(2**64) - 1, 2**64])
@example({"strings": ["a\x00", "\ud800", "\U0001f600", ""], "mixed": ["a", 1]})
def test_dumps_matches_json(doc):
    assert jsonout.dumps(doc) == json.dumps(doc, indent=2) + "\n"


@st.composite
def record_lists(draw):
    """At least two dicts built from one list of key objects, so they share
    one key order and take the record path; sometimes one record at a
    random place is reordered, lacks a key or has an extra one."""
    keys = draw(st.lists(KEYS, min_size=1, max_size=5, unique=True))
    # Each key's values come from one of these, so a column is often all
    # strings, all bools or all lists of strings.
    columns = [draw(st.sampled_from(COLUMNS)) for _ in keys]
    records = [
        {key: draw(column) for key, column in zip(keys, columns)}
        for _ in range(draw(st.integers(2, 6)))
    ]
    i = draw(st.integers(0, len(records) - 1))
    shape = draw(st.sampled_from(["same", "reordered", "missing", "extra"]))
    if shape == "reordered":
        records[i] = dict(reversed(records[i].items()))
    elif shape == "missing":
        del records[i][draw(st.sampled_from(keys))]
    elif shape == "extra":
        records[i][draw(KEYS)] = draw(VALUES)
    return records


@settings(derandomize=True)
@given(record_lists())
@example([{"%s": 1, "{0}": "%d"}, {"%s": [{"%": None}], "{0}": {"{": "}"}}])
@example([{"a": ["x"], "b": True}, {"a": [], "b": False}, {"a": ["y", "z"], "b": True}])
@example([{"a": 1, "b": 2}, {"b": 2, "a": 1}])
def test_records_match_json(records):
    for doc in (records, {"outer": records}):
        assert jsonout.dumps(doc) == json.dumps(doc, indent=2) + "\n"


class _Label(str):
    pass


@pytest.mark.parametrize("doc", [
    pytest.param(1.5, id="float"),
    pytest.param(("a",), id="tuple"),
    pytest.param(_Label("a"), id="str_subclass"),
    pytest.param({"k": [0.0]}, id="nested_float"),
    pytest.param(["a", _Label("b")], id="str_subclass_in_str_list"),
    pytest.param({1: "a"}, id="int_key"),
    pytest.param({_Label("k"): "a"}, id="str_subclass_key"),
])
def test_dumps_rejects_other_types(doc):
    with pytest.raises(TypeError):
        jsonout.dumps(doc)


@pytest.mark.parametrize("second", [
    pytest.param({1.5: 1, "b": 2}, id="float_key"),
    pytest.param({_Label("a"): 1, "b": 2}, id="str_subclass_key"),
    pytest.param({"a": 1.5, "b": 2}, id="float_value"),
    pytest.param({"a": _Label("x"), "b": 2}, id="str_subclass_value"),
    pytest.param({"a": ["x", _Label("y")], "b": 2}, id="str_subclass_in_str_list_value"),
])
def test_records_reject_other_types_in_a_later_record(second):
    with pytest.raises(TypeError):
        jsonout.dumps([{"a": "x", "b": 1}, second])
