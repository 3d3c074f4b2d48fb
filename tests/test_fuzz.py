"""Every reader of outside input fails only with SailstateError.

Hypothesis feeds arbitrary text to each reader; derandomize keeps the
examples the same on every run. The Sail, trace and backend readers also get
strings glued from pieces of their own syntax, which reach far deeper than
random text.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sailstate.audit import parse_manifest
from sailstate.backend import default_backend, load_backend
from sailstate.classifier import report_from_json
from sailstate.errors import SailstateError
from sailstate.footprint import INSIGHTS_COLUMNS, instruction_insights, load_insights_csv
from sailstate.isa_model import (
    STATES_COLUMNS,
    derive_explicit_access,
    discover_states,
    load_states_csv,
)
from sailstate.parser import merge_units, parse_unit
from sailstate.tokens import tokenize
from sailstate.traces import parse_sexprs, parse_trace

SAIL_WORDS = (
    "register", "bitfield", "function", "clause", "execute", "mapping", "enum",
    "type", "val", "union", "struct", "scattered", "end", "let", "match", "if",
    "then", "else", "bits", "vector", "x", "r", "B", "A", "f", "cur_privilege",
    "Machine", "User", "csr_name_map", "csr_access_ok", "csr", "0", "8", "08",
    "0x_", "0x1F", "0b_", "0b11", '"x"', '"r"', ":", "=", "==", "<=", "->", "=>",
    "<->", "..", ",", ";", ".", "(", ")", "[", "]", "{", "}", "/*", "*/", "//",
    "\n",
)

INI_SECTIONS = ("modes", "state", "syntax", "dispatch")
INI_KEYS = (
    "order", "levels", "current_privilege_register", "gpr_bank", "gpr_prefix",
    "gpr_accessors", "hardwired_zero", "entry_functions", "csr_permission_function",
)
INI_VALUES = ("User", "Machine", "Supervisor:1", "Machine:x", "User:", "Xs", "%", "%(order)s", "%%")

ini_text = st.dictionaries(
    st.sampled_from(INI_SECTIONS),
    st.dictionaries(st.sampled_from(INI_KEYS), st.lists(st.sampled_from(INI_VALUES), max_size=3)),
).map(lambda sections: "".join(
    f"[{name}]\n" + "".join(f"{key} = {', '.join(values)}\n" for key, values in keys.items())
    for name, keys in sections.items()
))
sail_text = st.lists(st.sampled_from(SAIL_WORDS), max_size=40).map(" ".join)
literal = st.sampled_from(("0", "8", "08", "0x_", "0x1F", "0b_", "0b11", '"x"', "x"))
sail_decl = st.one_of(
    literal.map(lambda n: f"register r : bits({n})"),
    literal.map(lambda n: f"type t = bits({n})"),
    st.tuples(literal, literal).map(lambda p: "register v : vector({}, {})".format(*p)),
    st.tuples(literal, literal).map(lambda p: "bitfield B : bits(8) = {{ A : {} .. {} }}".format(*p)),
    st.tuples(literal, literal).map(lambda p: "mapping clause csr_name_map = {} <-> {}".format(*p)),
    st.tuples(literal, literal).map(
        lambda p: "function csr_access_ok(csr) = {{ let m = csr[{} .. {}]; m }}".format(*p)
    ),
)
sail_decls = st.lists(sail_decl, max_size=4).map("\n".join)
sexpr_text = st.lists(
    st.sampled_from((
        "(", ")", "trace", "read-reg", "write-reg", "field", "|x|", '"s"', ";", "\n",
        "\x0b", "||", '"\\"', '"\\\\"', "|read-reg|", "( ;c\n read-reg",
    )),
    max_size=40,
).map(" ".join)


def _rejects_cleanly(read, *args, **kwargs):
    try:
        read(*args, **kwargs)
    except SailstateError:
        pass


def _analyse_sail(text):
    model = merge_units([parse_unit(tokenize(text, "f.sail"), "f.sail")])
    backend = default_backend()
    table = discover_states(model, backend)
    derive_explicit_access(model, backend, table)
    instruction_insights(model, backend, include_baseline=False)


@settings(derandomize=True)
@given(st.text())
def test_tokenize(text):
    _rejects_cleanly(tokenize, text, "f.sail")


@pytest.mark.filterwarnings("ignore:could not recover address-bit policy")
@settings(derandomize=True)
@given(st.one_of(st.text(), sail_text, sail_decls))
def test_parse_and_analyse_sail(text):
    _rejects_cleanly(_analyse_sail, text)


@settings(derandomize=True)
@given(st.one_of(st.text(), sexpr_text))
def test_parse_sexprs_and_trace(text):
    _rejects_cleanly(parse_sexprs, text, "t.trace")
    _rejects_cleanly(parse_trace, text, "t.trace", instruction="I")


@settings(derandomize=True)
@given(st.text())
def test_parse_manifest(text):
    _rejects_cleanly(parse_manifest, text, "m.csv")


@settings(derandomize=True)
@given(st.one_of(st.text(), ini_text))
def test_load_backend(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("backend") / "b.ini"
    path.write_text(text, encoding="utf-8")
    _rejects_cleanly(load_backend, str(path))


@settings(derandomize=True)
@given(st.text(), st.sampled_from(("", ",".join(INSIGHTS_COLUMNS) + "\n")))
def test_load_insights_csv(text, header):
    _rejects_cleanly(load_insights_csv, header + text, "insights.csv")


@settings(derandomize=True)
@given(st.text(), st.sampled_from(("", ",".join(STATES_COLUMNS) + "\n")))
def test_load_states_csv(text, header):
    _rejects_cleanly(load_states_csv, header + text, "states.csv")


@settings(derandomize=True)
@given(st.text())
def test_report_from_json(text):
    _rejects_cleanly(report_from_json, text)
