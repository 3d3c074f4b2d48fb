import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sailstate.errors import (
    IoError,
    MalformedSExpression,
    MissingManifestEntry,
    TraceManifestError,
)
from sailstate.traces import (
    STATUS_MISSING,
    STATUS_VALIDATED,
    STATUS_VIOLATION,
    load_traces,
    parse_sexprs,
    parse_trace,
    validate,
)

from conftest import FIXTURES
from test_fuzz import SEXPR_WORDS

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
    # An empty |...| symbol, in a producer-shaped event or any other.
    ("(trace\n  (read-reg || nil (_ bv1 1)))", 2, "read-reg event without a register name"),
    ("(trace\n  (read-reg ||\n nil v))", 2, "read-reg event without a register name"),
    ("(trace\n  (write-reg |m| (field ||) (_ bv1 1)))", 2, "write-reg event with an empty field name"),
    ("(trace\n  (write-reg |m|\n (field (field ||)) v))", 2, "write-reg event with an empty field name"),
])
def test_malformed_sexpr_names_path_and_line(text, line, message):
    with pytest.raises(MalformedSExpression) as info:
        parse_trace(text, "t.trace", name="I")
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
    bundle = parse_trace(text, "<t>", name="MRET")
    assert bundle.reads == {("cur_privilege", None)}
    assert bundle.writes == {("mstatus", "MPIE")}
    assert bundle.name == "MRET"


def test_parse_trace_nested_field_path_normalizes_to_first():
    text = "(trace (write-reg |vcsr| (field |VXRM| (field |HI|)) v))"
    bundle = parse_trace(text, "<t>", name="VADD")
    assert bundle.writes == {("vcsr", "VXRM")}


def test_parse_trace_requires_register_atom():
    with pytest.raises(MalformedSExpression):
        parse_trace("(trace (read-reg))", "<t>", name="X")


def test_parse_trace_handles_deep_nesting():
    depth = 5000
    text = "(trace " + "(seq " * depth + "(write-reg |mepc| nil v)" + ")" * depth + ")"
    bundle = parse_trace(text, "<t>", name="DEEP")
    assert (bundle.reads, bundle.writes) == (frozenset(), {("mepc", None)})


# -- the reader before whole events were one token, kept as an oracle ---------------

_OLD_QUOTED = r'\|[^|]*\||"(?:[^"\\]|\\.)*"'
_OLD_TOKEN = re.compile(
    r'[ \t\r\n]+|;[^\n]*|[()]|' + _OLD_QUOTED + r'|[^ \t\r\n();"|]+|[|"].*', re.DOTALL
)
_OLD_CLOSED = re.compile(_OLD_QUOTED, re.DOTALL)
_OLD_BLANK = " \t\r\n;"


def _old_line(text, tokens, i):
    return text.count("\n", 0, sum(map(len, tokens[:i]))) + 1


def _old_opening(tokens, forms, form):
    stack = list(reversed(forms))
    k = 0
    while (item := stack.pop()) is not form:
        if isinstance(item, list):
            k += 1
            stack.extend(reversed(item))
    return [i for i, tok in enumerate(tokens) if tok == "("][k]


def _old_parse_sexprs(text, path):
    tokens = _OLD_TOKEN.findall(text)
    closed = not tokens or tokens[-1][0] not in '|"' or _OLD_CLOSED.fullmatch(tokens[-1])
    unclosed = "" if closed else tokens.pop()
    top = []
    stack = [top]
    for i, tok in enumerate(tokens):
        c = tok[0]
        if c == "(":
            form = []
            stack[-1].append(form)
            stack.append(form)
        elif c == ")":
            if len(stack) == 1:
                raise MalformedSExpression("unmatched ')'", path, _old_line(text, tokens, i))
            stack.pop()
        elif c == "|":
            stack[-1].append(tok[1:-1])
        elif c not in _OLD_BLANK:
            stack[-1].append(tok)
    if unclosed:
        what = "unterminated |...| symbol" if unclosed[0] == "|" else "unterminated string"
        raise MalformedSExpression(what, path, _old_line(text, tokens, len(tokens)))
    if len(stack) > 1:
        raise MalformedSExpression(
            "unclosed '('", path, _old_line(text, tokens, _old_opening(tokens, top, stack[-1]))
        )
    return top


def _old_first_field(args):
    stack = list(reversed(args))
    while stack:
        item = stack.pop()
        if isinstance(item, list) and item and item[0] == "field":
            atom = next((a for a in item[1:] if isinstance(a, str)), None)
            if atom is not None:
                return atom
            stack.extend(reversed(item[1:]))
    return None


def _old_parse_trace(text, path):
    forms = _old_parse_sexprs(text, path)
    pairs = {"read-reg": set(), "write-reg": set()}
    stack = list(reversed(forms))
    while stack:
        form = stack.pop()
        if not isinstance(form, list) or not form:
            continue
        head = form[0]
        if isinstance(head, list):
            stack.extend(reversed(form))
        elif head in pairs:
            register = next((a for a in form[1:] if isinstance(a, str)), None)
            if register is None:
                tokens = _OLD_TOKEN.findall(text)
                i = _old_opening(tokens, forms, form) + 1
                while tokens[i][0] in _OLD_BLANK:
                    i += 1
                raise MalformedSExpression(
                    f"{head} event without a register name", path, _old_line(text, tokens, i)
                )
            pairs[head].add((register, _old_first_field(form[2:])))
        else:
            stack.extend(reversed(form[1:]))
    return frozenset(pairs["read-reg"]), frozenset(pairs["write-reg"])


def _outcome(read, text):
    try:
        return read(text, "t.trace")
    except MalformedSExpression as exc:
        return type(exc), str(exc), exc.line


def _reads_writes(text, path):
    bundle = parse_trace(text, path)
    return bundle.reads, bundle.writes


# Whole producer events and near misses of their shape, to glue between the
# fuzz pieces: a barred head, a second field atom, a bad width, a comment, an
# event in an event or at the head of a list, an event inside a string or a
# symbol, a newline in a symbol, empty symbols, an unclosed event and the
# start of an event that a list of pieces may fill.
EVENT_WORDS = (
    "(read-reg |cur_privilege| nil (_ bv2 2))",
    "(write-reg |mstatus| (field |MPIE|) (_ bv1 1))",
    "(read-reg |mepc| nil (_ bv2147485696 64))",
    "(|read-reg| |a| nil (_ bv1 1))",
    "(read-reg |a| (field |F| |G|) (_ bv1 1))",
    "(read-reg |a| nil (_ bv12x 1))",
    "(read-reg |a| nil ; c\n (_ bv1 1))",
    "(read-reg |a| (field |F|)",
    "(write-reg |b| ",
    "((write-reg |m| (field |F|) (_ bv1 1)) x)",
    '"(read-reg |a| nil (_ bv1 1))"',
    "|(read-reg|",
    "(read-reg |a\nb| nil (_ bv1 1))",
    "(read-reg || nil (_ bv1 1))",
    "(write-reg |m| (field ||) (_ bv1 1))",
    "(read-reg |a| nil (_ bv1 1)",
    "write-reg |b|",
)
trace_words = st.sampled_from(SEXPR_WORDS + EVENT_WORDS)
trace_text = st.one_of(
    st.lists(st.tuples(trace_words, st.sampled_from((" ", "", "\n"))), max_size=30).map(
        lambda pieces: "".join(word + sep for word, sep in pieces)
    ),
    # Balanced lists of pieces, so that events sit inside other forms.
    st.recursive(
        trace_words,
        lambda inner: st.lists(inner, max_size=5).map(lambda forms: f"({' '.join(forms)})"),
        max_leaves=30,
    ),
)


@settings(derandomize=True, max_examples=500)
@given(trace_text)
@example("(trace (read-reg |a| nil (_ bv1 1))\n (write-reg |m| (field |F|) (_ bv1 1)))")
@example("(trace (write-reg |b| (read-reg |a| nil (_ bv1 1))))")
@example("(trace (read-reg (write-reg |m| (field |F|) (_ bv1 1)) (field |G|)))")
@example("((read-reg |a| nil (_ bv1 1)) (write-reg |b| nil (_ bv1 1)))")
@example('(trace "(read-reg |a| nil (_ bv1 1))" |(read-reg| (read-reg |a| nil ; c\n (_ bv1 1)))')
@example("(trace (|read-reg| |a| nil (_ bv1 1)) (read-reg |a| (field |F| |G|) (_ bv12x 1)))")
@example("(trace\n (read-reg |a| nil (_ bv1 1))\n (write-reg (read-reg |b| nil (_ bv1 1))))")
def test_whole_events_read_as_the_old_reader_reads_them(text):
    """Equal reads and writes, or the same error at the same line. The one
    change: an empty |...| register or field is an error at its event.
    parse_sexprs reads no whole events, so its forms are unchanged."""
    assert _outcome(parse_sexprs, text) == _outcome(_old_parse_sexprs, text)
    expected = _outcome(_old_parse_trace, text)
    got = _outcome(_reads_writes, text)
    if got == expected:
        return
    assert got[0] is MalformedSExpression, (got, expected)
    assert got[1].endswith(("event without a register name", "event with an empty field name"))
    if expected[0] is MalformedSExpression:
        assert expected[1].endswith("event without a register name") and got[2] <= expected[2]
    else:
        assert any("" in pair for pair in expected[0] | expected[1]), (got, expected)


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


def test_load_traces_rejects_an_empty_trace_file_name(tmp_path):
    # An empty file cell would otherwise resolve to the manifest's directory.
    m = tmp_path / "m.csv"
    m.write_text("# comment\n , MRET, instruction\n")
    with pytest.raises(TraceManifestError) as info:
        load_traces(str(m))
    assert str(info.value) == f"{m}:2: empty trace file name"


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
        "(trace (write-reg |mstatus| nil v))", "<t>", name="MRET"
    )
    report = validate({"MRET": insights["MRET"]}, [b], table)
    assert report.results[0].status == STATUS_VALIDATED


def test_field_trace_event_covered_by_whole_register(insights, table):
    # CSRRW writes whole satp; a field-granular trace event is fine
    b = parse_trace(
        "(trace (write-reg |satp| (field |MODE|) v))", "<t>", name="CSRRW"
    )
    report = validate({"CSRRW": insights["CSRRW"]}, [b], table)
    assert report.results[0].status == STATUS_VALIDATED


def test_uncovered_event_is_reported_with_direction(insights, table):
    b = parse_trace(
        "(trace (read-reg |mepc| nil v) (write-reg |stvec| nil v))",
        "<t>",
        name="ADD",
    )
    report = validate({"ADD": insights["ADD"]}, [b], table)
    r = report.results[0]
    assert r.status == STATUS_VIOLATION
    assert ("stvec", "write") in r.missing


def test_bundles_of_one_name_are_checked_as_their_union(insights, table):
    a = parse_trace("(trace (read-reg |mepc| nil v))", "a.trace", name="ADD")
    b = parse_trace("(trace (write-reg |stvec| nil v))", "b.trace", name="ADD")
    (r,) = validate({"ADD": insights["ADD"]}, [b, a], table).results
    assert r.status == STATUS_VIOLATION
    assert r.missing == (("mepc", "read"), ("stvec", "write"))
    assert r.trace_files == ("a.trace", "b.trace")


def test_unknown_trace_names_listed(insights, table):
    b = parse_trace("(trace)", "<t>", name="NOT_AN_INSTRUCTION")
    report = validate(insights, [b], table)
    assert report.unknown_names == ("NOT_AN_INSTRUCTION",)
