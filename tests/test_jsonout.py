"""`jsonout.dumps` writes exactly what `json.dumps` writes with a two-space
indent, and refuses every type outside the documents it is built for."""

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


@settings(derandomize=True)
@given(DOCS)
@example({})
@example([])
@example({"": [[], {}, [{}], {"": []}]})
@example([True, 1, False, 0, None, -(2**64) - 1, 2**64])
@example({"strings": ["a\x00", "\ud800", "\U0001f600", ""], "mixed": ["a", 1]})
def test_dumps_matches_json(doc):
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
