import pytest

from sailstate.errors import (
    IoError,
    MalformedSExpression,
    MissingManifestEntry,
    MixedGroup,
    TraceManifestError,
)
from sailstate.traces import (
    STATUS_MISSING,
    STATUS_VALIDATED,
    STATUS_VIOLATION,
    load_traces,
    parse_sexprs,
    parse_trace,
    trace_footprint,
    validate,
)

from conftest import FIXTURES

TRACES = FIXTURES / "traces"


# -- s-expression reader ----------------------------------------------------------

def test_parse_sexprs_shapes():
    forms = parse_sexprs('(a |b c| "d e" (f 1)) ; comment\n(g)', "<t>")
    assert forms == [["a", "b c", '"d e"', ["f", "1"]], ["g"]]


def test_parse_sexprs_atom_characters():
    # Only space, tab, CR and LF separate atoms; || is the empty symbol.
    assert parse_sexprs("(a\x0bb || c)", "<t>") == [["a\x0bb", "", "c"]]


@pytest.mark.parametrize("text, line, message", [
    ("(trace\n  (a))\n)", 3, "unmatched ')'"),
    ("(trace\n  (seq\n    (a)", 2, "unclosed '('"),
    ("(trace\n  (a)\n  (b |sym\n c))", 3, "unterminated |...| symbol"),
    ('(trace\n  (a)\n  (b "str\n c))', 3, "unterminated string"),
    ("(trace\n  ( ; event\n   read-reg))", 3, "read-reg event without a register name"),
])
def test_malformed_sexpr_names_path_and_line(text, line, message):
    with pytest.raises(MalformedSExpression) as info:
        parse_trace(text, "t.trace", instruction="I")
    assert str(info.value) == f"t.trace:{line}: {message}"
    assert info.value.line == line


def test_unterminated_string_ends_the_reading():
    # Each escaped quote would start another scan to the end of the text if
    # an unclosed string did not take the rest of it.
    with pytest.raises(MalformedSExpression, match="t.trace:2: unterminated string"):
        parse_sexprs("(a\n" + '"\\' * 100_000, "t.trace")


@pytest.mark.parametrize("bad", ["(a (b)", "a))", "(x |unterminated", '(x "unterminated'])
def test_parse_sexprs_rejects_malformed(bad):
    with pytest.raises(MalformedSExpression):
        parse_sexprs(bad, "<t>")


# -- trace reading ------------------------------------------------------------------

def test_parse_trace_events():
    text = """
    (trace
      (read-reg |cur_privilege| nil (_ bv2 2))
      (write-reg |mstatus| (field |MPIE|) (_ bv1 1))
      (cycle)
      (mem-write addr 4 val))
    """
    bundle = parse_trace(text, "<t>", instruction="MRET")
    kinds = [(e.kind, e.register, e.field_path) for e in bundle.events]
    assert ("read-reg", "cur_privilege", ()) in kinds
    assert ("write-reg", "mstatus", ("MPIE",)) in kinds
    assert {e.kind for e in bundle.events} == {"read-reg", "write-reg"}
    assert bundle.name == "MRET"


def test_parse_trace_nested_field_path_normalizes_to_first():
    text = "(trace (write-reg |vcsr| (field |VXRM| (field |HI|)) v))"
    bundle = parse_trace(text, "<t>", instruction="VADD")
    fp = trace_footprint([bundle])
    assert sorted(w.label for w in fp.writes) == ["vcsr.VXRM"]


def test_parse_trace_requires_register_atom():
    with pytest.raises(MalformedSExpression):
        parse_trace("(trace (read-reg))", "<t>", instruction="X")


def test_parse_trace_handles_deep_nesting():
    depth = 5000
    text = "(trace " + "(seq " * depth + "(write-reg |mepc| nil v)" + ")" * depth + ")"
    bundle = parse_trace(text, "<t>", instruction="DEEP")
    assert [(e.kind, e.register) for e in bundle.events] == [("write-reg", "mepc")]


def test_parse_trace_keeps_event_order():
    text = "(trace (a (read-reg |x| v) (b (write-reg |y| v))) (read-reg |z| v))"
    bundle = parse_trace(text, "<t>", instruction="I")
    assert [e.register for e in bundle.events] == ["x", "y", "z"]


def test_trace_footprint_unions_and_rejects_mixed():
    a = parse_trace("(trace (read-reg |mepc| nil v))", "<a>", instruction="I")
    b = parse_trace("(trace (write-reg |sepc| nil v))", "<b>", instruction="I")
    fp = trace_footprint([a, b])
    assert sorted(r.label for r in fp.reads) == ["mepc"]
    assert sorted(w.label for w in fp.writes) == ["sepc"]
    other = parse_trace("(trace)", "<c>", instruction="J")
    with pytest.raises(MixedGroup):
        trace_footprint([a, other])
    with pytest.raises(MixedGroup):
        trace_footprint([])


# -- manifest loading -----------------------------------------------------------------

def test_load_traces_fixture_manifest():
    bundles = load_traces(str(TRACES / "traces.manifest"))
    assert len(bundles) == 10
    by_name = {}
    for b in bundles:
        by_name.setdefault(b.name, []).append(b)
    assert len(by_name["MRET"]) == 2
    assert len(by_name["FARITH"]) == 4


def test_load_traces_errors(tmp_path):
    m = tmp_path / "m.csv"
    m.write_text("x.trace, FOO, neither, -\n")
    (tmp_path / "x.trace").write_text("(trace)")
    with pytest.raises(TraceManifestError):
        load_traces(str(m))
    m.write_text("x.trace, , instruction, -\n")
    with pytest.raises(MissingManifestEntry):
        load_traces(str(m))
    m.write_text("gone.trace, FOO, instruction, -\n")
    with pytest.raises(IoError):
        load_traces(str(m))
    m.write_text("just_one_column\n")
    with pytest.raises(TraceManifestError):
        load_traces(str(m))


def test_load_traces_rejects_files_that_are_not_utf8(tmp_path):
    m = tmp_path / "m.csv"
    m.write_bytes(b"\xff\xfe")
    with pytest.raises(IoError, match="trace manifest"):
        load_traces(str(m))
    m.write_text("x.trace, FOO, instruction, -\n")
    (tmp_path / "x.trace").write_bytes(b"\xff\xfe")
    with pytest.raises(IoError, match="trace file .*x.trace"):
        load_traces(str(m))


# -- validation ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bundles():
    return load_traces(str(TRACES / "traces.manifest"))


def test_validate_bundled_corpus_no_violations(insights, bundles, table):
    report = validate(insights, bundles, table)
    by_name = {r.name: r for r in report.results}
    for name in ("MRET", "ECALL", "SW", "SD", "SC", "FARITH"):
        assert by_name[name].status == STATUS_VALIDATED, by_name[name]
    assert by_name["ADD"].status == STATUS_MISSING
    assert by_name["SC"].unknown_registers == ("SEE",)
    assert report.unknown_names == ()
    assert not report.violations


def test_validate_flags_scanner_gaps(backend, bundles, table):
    from sailstate.footprint import instruction_insights
    from sailstate.parser import parse_corpus

    d = FIXTURES / "corpora" / "bug_mem"
    model = parse_corpus(sorted(d.glob("*.sail")))
    insights = instruction_insights(model, backend)
    report = validate(insights, bundles, table)
    flagged = {r.name: r for r in report.results if r.status == STATUS_VIOLATION}
    assert sorted(flagged) == ["SC", "SD", "SW"]
    for r in flagged.values():
        assert r.missing == (("mip.MTIP", "write"),)


def test_whole_register_trace_event_covered_by_fields(insights, table):
    # scanner tracks mstatus fields; a whole-register trace event is fine
    b = parse_trace(
        "(trace (write-reg |mstatus| nil v))", "<t>", instruction="MRET"
    )
    report = validate({"MRET": insights["MRET"]}, [b], table)
    assert report.results[0].status == STATUS_VALIDATED


def test_field_trace_event_covered_by_whole_register(insights, table):
    # CSRRW writes whole satp; a field-granular trace event is fine
    b = parse_trace(
        "(trace (write-reg |satp| (field |MODE|) v))", "<t>", instruction="CSRRW"
    )
    report = validate({"CSRRW": insights["CSRRW"]}, [b], table)
    assert report.results[0].status == STATUS_VALIDATED


def test_uncovered_event_is_reported_with_direction(insights, table):
    b = parse_trace(
        "(trace (read-reg |mepc| nil v) (write-reg |stvec| nil v))",
        "<t>",
        instruction="ADD",
    )
    report = validate({"ADD": insights["ADD"]}, [b], table)
    r = report.results[0]
    assert r.status == STATUS_VIOLATION
    assert ("stvec", "write") in r.missing


def test_unknown_trace_names_listed(insights, table):
    b = parse_trace("(trace)", "<t>", instruction="NOT_AN_INSTRUCTION")
    report = validate(insights, [b], table)
    assert report.unknown_names == ("NOT_AN_INSTRUCTION",)
