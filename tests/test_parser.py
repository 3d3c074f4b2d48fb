import pytest

from sailstate.errors import (
    CrossFileDuplicate,
    DuplicateDefinition,
    IoError,
    MalformedDeclaration,
)
from sailstate.parser import _TOP_ANCHORS, merge_units, parse_corpus, parse_unit
from sailstate.tokens import KEYWORDS, tokenize


def _unit(text, path="<test>"):
    return parse_unit(tokenize(text, path), path)


def _model(*texts, **kw):
    units = [_unit(t, f"u{i}.sail") for i, t in enumerate(texts)]
    return merge_units(units, **kw)


# -- bundled corpus golden shape ---------------------------------------------

def test_corpus_manifest(model):
    assert len(model.instructions()) == 19
    assert len(model.functions) == 35
    assert len(model.registers) == 27
    assert len(model.mappings["csr_name_map"]) == 21
    assert model.opaque_spans == ()


def test_register_and_bitfield_decls(model):
    assert model.registers["mstatus"].rtype.base == "Mstatus"
    assert model.registers["mepc"].rtype.base == "xlenbits"
    mstatus = model.bitfield_types["Mstatus"]
    assert mstatus.width == 64
    fields = {f.name: (f.hi, f.lo) for f in mstatus.fields}
    assert fields["MIE"] == (3, 3)
    assert fields["MPP"] == (12, 11)
    assert fields["FS"] == (14, 13)
    banks = model.registers["Xs"].rtype
    assert (banks.base, banks.size) == ("vector", 32)


def test_instruction_clauses(model):
    mret = model.execute_clauses["MRET"]
    assert mret.params == ()
    assert "exception_handler" in mret.harvest.callees
    sw = model.execute_clauses["SW"]
    assert sw.params == ("imm", "rs2", "rs1")


def test_enum_and_mode_order(model):
    assert model.enums["Privilege"] == ("User", "Supervisor", "Machine")


def test_externals_are_called_but_undefined(insights):
    externals = set().union(*(ins.externals for ins in insights.values()))
    assert "phys_mem_write" in externals
    assert "exception_handler" not in externals


def test_corpus_parse_is_path_order_independent(corpus_paths):
    a = parse_corpus(list(corpus_paths))
    b = parse_corpus(list(reversed(corpus_paths)))
    assert a == b


# -- clause and function forms ----------------------------------------------

def test_wrapped_execute_clause_form():
    m = _model("function clause execute (FOO(rd, rs1)) = { Xs = rd }")
    assert m.execute_clauses["FOO"].params == ("rd", "rs1")


def test_typed_operands_take_first_ident():
    m = _model("function clause execute BAR(imm : bits(12), rd : regidx) = { nop }")
    assert m.execute_clauses["BAR"].params == ("imm", "rd")


def test_scattered_function_clauses_union():
    m = _model(
        "register a : bits(8)\nregister b : bits(8)\n"
        "function clause kaboom(x) = { a = x }\n"
        "function clause kaboom(y) = { b = a }\n"
    )
    fn = m.functions["kaboom"]
    assert set(fn.harvest.writes) == {("a", None), ("b", None)}
    assert ("a", None) in fn.harvest.reads


def test_function_merge_across_files():
    m = _model(
        "register a : bits(8)\nfunction clause f(x) = { a = x }",
        "register b : bits(8)\nfunction clause f(y) = { b = y }",
    )
    assert set(m.functions["f"].harvest.writes) == {("a", None), ("b", None)}


def test_mapping_directions_both_parse():
    m = _model(
        'mapping clause csr_name_map = 0x105 <-> "stvec"\n'
        'mapping clause csr_name_map = "sip" <-> 0x144\n'
    )
    assert dict(m.mappings["csr_name_map"]) == {0x105: "stvec", 0x144: "sip"}


def test_opaque_spans_captured_not_fatal():
    m = _model(
        "register a : bits(8)\n"
        "$include <prelude.sail>\n"
        "infix 4 ==/\n"
        "function clause execute NOPPY() = { a = a }\n"
    )
    # consecutive unrecognized constructs coalesce into one span, ending at
    # the next recognized top-level anchor
    assert len(m.opaque_spans) == 1
    span = m.opaque_spans[0]
    assert (span.head, span.start_line, span.end_line) == ("$", 2, 3)
    assert "NOPPY" in m.execute_clauses


# -- duplicates and errors ----------------------------------------------------

def test_duplicate_register_same_unit():
    with pytest.raises(DuplicateDefinition):
        _unit("register a : bits(8)\nregister a : bits(8)")


def test_duplicate_register_across_files():
    with pytest.raises(CrossFileDuplicate):
        _model("register a : bits(8)", "register a : bits(8)")


def test_duplicate_execute_clause_across_files():
    with pytest.raises(CrossFileDuplicate):
        _model(
            "function clause execute FOO() = { nop }",
            "function clause execute FOO() = { nop }",
        )


def test_merge_duplicate_clauses_opt_in():
    m = _model(
        "register a : bits(8)\nfunction clause execute FOO() = { a = 1 }",
        "register b : bits(8)\nfunction clause execute FOO() = { b = a }",
        merge_duplicate_clauses=True,
    )
    clause = m.execute_clauses["FOO"]
    assert set(clause.harvest.writes) == {("a", None), ("b", None)}


def test_malformed_register_decl():
    with pytest.raises(MalformedDeclaration):
        _unit("register : bits(8)")


def test_unreadable_path_raises_io_error():
    with pytest.raises(IoError):
        parse_corpus(["/nonexistent/nowhere.sail"])


# -- harvesting details --------------------------------------------------------

def test_field_access_vs_dynamic_index():
    m = _model(
        "bitfield S : bits(8) = { EN : 0 }\n"
        "register s : S\n"
        "register mem : bits(8)\n"
        "function clause f(i) = {\n"
        "  s[EN] = 0b1;\n"
        "  let x = s[EN];\n"
        "  mem[i] = x;\n"
        "  let y = mem[i];\n"
        "}\n"
    )
    fn = m.functions["f"]
    assert ("s", "EN") in fn.harvest.writes and ("s", "EN") in fn.harvest.reads
    # dynamic index is whole-register access, not a field named i
    assert ("mem", None) in fn.harvest.writes and ("mem", None) in fn.harvest.reads
    assert ("mem", "i") not in fn.harvest.writes


def test_bits_suffix_is_whole_register():
    m = _model(
        "bitfield S : bits(8) = { EN : 0 }\n"
        "register s : S\n"
        "function clause g() = { let v = s.bits }\n"
    )
    assert ("s", None) in m.functions["g"].harvest.reads


def test_lvalue_call_detected():
    m = _model("function clause h(rd, v) = { X(rd) = v; let w = X(rd) }")
    fn = m.functions["h"]
    assert "X" in fn.harvest.lvalue_callees
    assert "X" in fn.harvest.callees


def test_unbalanced_bracket_names_its_position():
    path = "tests/fixtures/broken/unbalanced_paren.sail"
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with pytest.raises(MalformedDeclaration, match=r"^tests/fixtures/broken/unbalanced_paren\.sail:3:37: unbalanced '\('$"):
        _unit(text, path)


def test_stray_closer_names_its_position():
    # At the closer, not at the end of the file, and not by blaming the
    # function on line 3 as missing.
    path = "tests/fixtures/broken/stray_paren.sail"
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with pytest.raises(MalformedDeclaration, match=r"^tests/fixtures/broken/stray_paren\.sail:2:36: unbalanced '\)'$"):
        _unit(text, path)


def test_merged_bodies_are_read_across_the_seam():
    # Each body alone calls nothing; joined, `g (x)` is a call of g.
    model = _model("function h() = g\nfunction h() = (x)\n")
    assert model.functions["h"].harvest.callees == {"g"}
    # A bracket left open in the second body is found only when joined,
    # and the error names where it is.
    with pytest.raises(MalformedDeclaration, match=r"^u0\.sail:2:16: unbalanced '\('$"):
        _model("function h() = g\nfunction h() = (x\n")


# Each skip over a bracket group reads nesting from `partner`. One stray or
# unclosed bracket is an error at that bracket, wherever the skip runs; it
# must not hide the declarations after it.
@pytest.mark.parametrize("text, where", [
    ("let x = f(1))\nregister a : bits(8)\n", "1:13: unbalanced ')'"),
    ("val f : int -> int]\nfunction f(x) = x\n", "1:19: unbalanced ']'"),
    ("type regidx = bits()5)\nregister a : bits(8)\n", "1:22: unbalanced ')'"),
    ('mapping clause csr_name_map = 0x180) <-> "satp"\n', "1:36: unbalanced ')'"),
    ("$include (prelude.sail\nregister a : bits(8)\n", "1:10: unbalanced '('"),
    ("function f(x, {y) = x\nfunction g() = x\n", "1:15: unbalanced '{'"),
    ("bitfield B : bits(8) = { EN : 7 .. (0, X : 1 }\n", "1:36: unbalanced '('"),
    ("function f(x) = {\n  match x { (A => g(), B => h() }\n}\n", "2:13: unbalanced '('"),
], ids=["let", "val", "type_alias", "mapping", "opaque", "params", "bitfield_range", "match_arm"])
def test_unbalanced_bracket_in_each_skip(text, where):
    with pytest.raises(MalformedDeclaration) as exc:
        _unit(text, "t.sail")
    assert str(exc.value) == f"t.sail:{where}"


def test_anchors_are_keywords():
    # A skip finds an anchor by its text alone, which holds only while no
    # identifier can spell one.
    assert _TOP_ANCHORS <= KEYWORDS
