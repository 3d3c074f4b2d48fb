"""Every reader of outside input fails only with SailstateError.

Hypothesis feeds arbitrary text to each reader; derandomize keeps the
examples the same on every run. The Sail, trace and backend readers also get
strings glued from pieces of their own syntax, which reach far deeper than
random text.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sailstate.audit import SwapManifest, audit, outcome_to_json, outcome_to_text, parse_manifest
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
SEXPR_WORDS = (
    "(", ")", "trace", "read-reg", "write-reg", "field", "|x|", '"s"', ";", "\n",
    "\x0b", "||", '"\\"', '"\\\\"', "|read-reg|", "( ;c\n read-reg",
)
sexpr_text = st.lists(st.sampled_from(SEXPR_WORDS), max_size=40).map(" ".join)

json_string = st.sampled_from(("Machine", "mepc", "mstatus", "mstatus.MIE", "SideChannel", ""))
json_value = st.one_of(
    json_string, st.none(), st.booleans(), st.integers(),
    st.lists(st.one_of(json_string, st.integers(), st.none()), max_size=3),
)
report_state = st.fixed_dictionaries({
    "state": json_string,
    "kind": json_string,
    "sensitive": st.booleans(),
    "classes": st.lists(json_string, max_size=2),
    "rules_fired": st.lists(json_string, max_size=2),
    "justification": st.lists(json_string, max_size=2),
})


@st.composite
def report_json(draw):
    """A well-formed sensitivity report, mostly with one value replaced."""
    doc = draw(st.fixed_dictionaries({
        "source": json_string,
        "target": json_string,
        "states": st.lists(report_state, max_size=4, unique_by=lambda s: s["state"]),
    }))
    if draw(st.integers(0, 3)):
        place = draw(st.sampled_from([doc, *doc["states"]]))
        place[draw(st.sampled_from(sorted(place)))] = draw(json_value)
    return json.dumps(doc)


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
    _rejects_cleanly(parse_trace, text, "t.trace", name="I")


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


def _audit_report(text):
    report = report_from_json(text)
    manifest = SwapManifest(report.source, report.target, {
        "mepc": ("swap", "fw"), "mstatus": ("clear", ""),
    })
    outcome = audit(manifest, report)
    outcome_to_json(outcome)
    outcome_to_text(outcome)


@settings(derandomize=True)
@given(st.text())
def test_report_from_json(text):
    _rejects_cleanly(report_from_json, text)


@settings(derandomize=True)
@given(report_json())
def test_report_from_json_then_audit(text):
    _rejects_cleanly(_audit_report, text)
