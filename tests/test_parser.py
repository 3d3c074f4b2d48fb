import warnings

import pytest

from sailstate.errors import (
    CrossFileDuplicate,
    DuplicateDefinition,
    IoError,
    MalformedDeclaration,
)
from sailstate.isa_model import DEFAULT_PERMISSION_RULE, CsrPermissionRule, extract_permission_rule
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


def test_scattered_execute_declaration_is_read_around():
    unit = _unit(
        "scattered function execute\n"
        "function clause execute ADD(rd) = { nop }\n"
        "end execute\n"
    )
    assert [b.name for b in unit.execute_clauses] == ["ADD"]
    assert unit.opaque_spans == ()


def test_bitfield_width_may_be_a_type_alias():
    unit = _unit("bitfield Mstatus : byte = { A : 0 }")
    (mstatus,) = unit.bitfield_types
    assert (mstatus.width, mstatus.width_alias) == (None, "byte")


def test_type_alias_width_only_from_a_bits_literal():
    unit = _unit("type xlenbits = bits(xlen)\ntype byte = bits(8)\n")
    assert dict(unit.type_aliases) == {"xlenbits": None, "byte": 8}


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


def test_opaque_span_headed_by_an_opener():
    # The head's group is skipped whole, so its closer is not taken for a
    # stray one.
    unit = _unit("(a) register r : bits(8)\n", "t.sail")
    assert [(s.head, s.start_line, s.end_line) for s in unit.opaque_spans] == [("(", 1, 1)]
    assert [r.name for r in unit.registers] == ["r"]


@pytest.mark.parametrize("decl", [
    "enum Privilege = {User, Supervisor, Machine}",
    "enum Mode = User | Machine",
    "val f : (bits(8), int) -> unit",
    "val g = {c: \"g_impl\"} : bits(8) -> bool",
    "union U = { A : bits(1), B : (int, int) }",
    "struct S = { a : bits(8), b : bool }",
], ids=["enum", "enum_unbraced", "val", "val_extern", "union", "struct"])
def test_skipped_declarations_leave_no_opaque_span(decl):
    unit = _unit(decl + "\nregister r : bits(8)\nfunction f(x) = { r = x }\n")
    assert unit.opaque_spans == ()
    assert [r.name for r in unit.registers] == ["r"]
    assert [(f.name, f.params) for f in unit.functions] == [("f", ("x",))]


# -- duplicates and errors ----------------------------------------------------

def test_duplicate_register_same_unit():
    with pytest.raises(DuplicateDefinition):
        _unit("register a : bits(8)\nregister a : bits(8)")


def test_duplicate_bitfield_field_names_the_second_field():
    # Before this was a parse error, the two fields made one state label
    # twice, and the error blamed the backend INI.
    text = "register cur_privilege : bits(2)\nbitfield B : bits(8) = { A : 1, A : 2 }\n"
    with pytest.raises(
        DuplicateDefinition, match=r"^b\.sail:2:33: field 'A' declared twice in bitfield 'B'$"
    ):
        _unit(text + "register r : B\n", "b.sail")
    fields = _unit(text.replace("A : 2", "C : 2")).bitfield_types[0].fields
    assert [f.name for f in fields] == ["A", "C"]


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


def test_unread_opener_names_its_position():
    # The `[` sits in a braced body where no step reads it.
    path = "tests/fixtures/broken/unread_opener.sail"
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with pytest.raises(MalformedDeclaration, match=r"^tests/fixtures/broken/unread_opener\.sail:3:40: unbalanced '\['$"):
        _unit(text, path)


def test_merged_bodies_are_read_across_the_seam():
    # Each clause is read on its own: `g` ends one body and `(x)` starts the
    # next, so no call of g spans the seam.
    model = _model("function h() = g\nfunction h() = (x)\n")
    assert model.functions["h"].harvest.callees == set()
    # A bracket left open in the second body is an error that names where
    # it is.
    with pytest.raises(MalformedDeclaration, match=r"^u0\.sail:2:16: unbalanced '\('$"):
        _model("function h() = g\nfunction h() = (x\n")


def test_a_unit_holds_one_body_per_clause():
    unit = _unit("function h() = g\nfunction a() = 1\nfunction h(x) = (x)\n")
    assert [(f.name, f.params) for f in unit.functions] == [("a", ()), ("h", ()), ("h", ("x",))]
    assert all(len(f.tokens) == 1 for f in unit.functions)


# Two clauses of one function, then the same clauses in two files: the
# merged body is the union of its clauses however the files are laid out.
@pytest.mark.parametrize("first, second", [
    ("function h() = g", "function h() = (x)"),
    (
        "function ok(addr) = { let lvl = addr[5 .. 4]; addr[11 .. 10] == 0b11 }",
        "function ok(addr) = { lvl >= cur }",
    ),
], ids=["seam", "alias"])
def test_merged_body_does_not_depend_on_file_layout(first, second):
    one_file = _model(f"{first}\n{second}\n")
    two_files = _model(first, second)
    (name,) = one_file.functions
    merged, split = one_file.functions[name], two_files.functions[name]
    assert len(merged.tokens) == len(split.tokens) == 2
    assert merged.harvest == split.harvest
    assert _rule(merged) == _rule(split)


def _rule(fn):
    """extract_permission_rule's result and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rule = extract_permission_rule(fn)
    return rule, [str(w.message) for w in caught]


def test_an_alias_counts_only_inside_its_clause():
    # The slice bound to `lvl` in one clause is not what `lvl >=` compares in
    # the other, so the minimum level keeps the conventional bits.
    model = _model(
        "function ok(addr) = { let lvl = addr[5 .. 4]; addr[11 .. 10] == 0b11 }\n"
        "function ok(addr) = { lvl >= cur }\n"
    )
    assert extract_permission_rule(model.functions["ok"]) == CsrPermissionRule((9, 8), (11, 10), 3)
    same_clause = _model("function ok(addr) = { let lvl = addr[5 .. 4]; lvl >= cur }\n")
    assert extract_permission_rule(same_clause.functions["ok"]).min_priv_slice == (5, 4)


_NO_POLICY = "could not recover address-bit policy from ok; using the conventional bit positions"


@pytest.mark.parametrize("clauses, rule, warned", [
    (["{ lvl >= cur; let lvl = addr[5 .. 4]; () }"], CsrPermissionRule((5, 4), (11, 10), 3), []),
    (["{ let lvl = addr[5 .. 4]; cur <= lvl }"], CsrPermissionRule((5, 4), (11, 10), 3), []),
    (
        ["{ addr[3 .. 2] == 0b01 }", "{ addr[1 .. 0] == 0b10 }"],
        CsrPermissionRule((9, 8), (3, 2), 1), [],
    ),
    (['{ addr[3 .. 2] == "x" }'], DEFAULT_PERMISSION_RULE, [_NO_POLICY]),
], ids=["alias_bound_after_its_comparison", "alias_on_the_right", "first_equality_test", "string_is_no_value"])
def test_permission_rule_reading_order(clauses, rule, warned):
    model = _model(*(f"function ok(addr) = {body}" for body in clauses))
    assert _rule(model.functions["ok"]) == (rule, warned)


def test_a_bad_slice_literal_in_a_later_clause_still_raises():
    # The first clause already gave the level; the second is still read.
    model = _model(
        "function ok(addr) = { let lvl = addr[5 .. 4]; lvl >= cur }",
        "function ok(addr) = { addr[0x_ .. 2] }",
    )
    with pytest.raises(MalformedDeclaration, match=r"^u1\.sail:1:28: bad numeric literal '0x_'"):
        extract_permission_rule(model.functions["ok"])


# Every file's brackets must nest, also where no step reads them. One stray
# or unclosed bracket is an error at that bracket, wherever it is; it must
# not hide the declarations after it.
@pytest.mark.parametrize("text, where", [
    ("let x = f(1))\nregister a : bits(8)\n", "1:13: unbalanced ')'"),
    ("val f : int -> int]\nfunction f(x) = x\n", "1:19: unbalanced ']'"),
    ("type regidx = bits()5)\nregister a : bits(8)\n", "1:22: unbalanced ')'"),
    ('mapping clause csr_name_map = 0x180) <-> "satp"\n', "1:36: unbalanced ')'"),
    ("$include (prelude.sail\nregister a : bits(8)\n", "1:10: unbalanced '('"),
    ("function f(x, {y) = x\nfunction g() = x\n", "1:15: unbalanced '{'"),
    ("bitfield B : bits(8) = { EN : 7 .. (0, X : 1 }\n", "1:36: unbalanced '('"),
    ("function f(x) = {\n  match x { (A => g(), B => h() }\n}\n", "2:13: unbalanced '('"),
    # A stray closer inside a group skipped whole, such as a braced body,
    # is found too. A stray `}` in a match block would otherwise end the
    # block early and drop the later arms, and with them the modes they admit;
    # the error names the `}` left over when the braces pair, the last one.
    ("function f(x) = { match x { A => g(), } B => h() } }", "1:52: unbalanced '}'"),
    ("function f(x) = { g(x)) }", "1:23: unbalanced ')'"),
    (
        "function f() = { match cur_privilege "
        "{ User => handle_illegal(), } Supervisor => x(), Machine => y() } }",
        "1:104: unbalanced '}'",
    ),
    ("union u = { A : bits(1)) }", "1:24: unbalanced ')'"),
    ("mapping clause m = 0x1 <-> )\nregister r : bits(8)\n", "1:28: unbalanced ')'"),
    ("function f() = g(x])\nfunction k() = 1\n", "1:19: unbalanced ']'"),
    # An opener whose group the closer of an enclosing group cuts is an
    # error at that opener, and so is one that nothing reads.
    ("register a : bits(8)\nfunction f() = { let q = [1, 2 }\n", "2:26: unbalanced '['"),
    ("register a : bits(8)\nfunction f() = { g( } )\n", "2:19: unbalanced '('"),
    ("let x = ( { ) }\n", "1:11: unbalanced '{'"),
], ids=[
    "let", "val", "type_alias", "mapping", "opaque", "params", "bitfield_range", "match_arm",
    "match_block", "call", "privilege_guard", "union", "address_entry", "expression_body",
    "unread_opener", "crossing_in_body", "crossing_at_top_level",
])
def test_unbalanced_bracket_in_each_skip(text, where):
    with pytest.raises(MalformedDeclaration) as exc:
        _unit(text, "t.sail")
    assert str(exc.value) == f"t.sail:{where}"


def test_address_entry_of_another_shape_is_skipped_whole():
    # The `)` pairs with the `(`: the clause is skipped to the next anchor,
    # not read from inside the group.
    unit = _unit("mapping clause m = 0x1 <-> (x)\nregister r : bits(8)\n", "t.sail")
    assert [r.name for r in unit.registers] == ["r"]
    assert unit.mappings == ()
    assert unit.opaque_spans == ()


# An unbraced body runs to the next anchor, except that a `let` at its own
# level that no `in` answers is a top-level declaration and ends it.
@pytest.mark.parametrize("body, reads", [
    ("1\nlet y = a", set()),
    ("let x = a in x", {("a", None)}),
    ("let x = a in x\nlet y = b", {("a", None)}),
    ("let x = (let z = b in z) in x\nlet y = a", {("b", None)}),
], ids=["top_level_let", "let_in", "let_in_then_top_level_let", "nested_let_in"])
def test_top_level_let_ends_an_unbraced_body(body, reads):
    model = _model(f"register a : bits(8)\nregister b : bits(8)\nfunction f() = {body}\nfunction g() = {{ 2 }}\n")
    assert set(model.functions["f"].harvest.reads) == reads
    assert sorted(model.functions) == ["f", "g"]


def test_anchors_are_keywords():
    # A skip finds an anchor by its text alone, which holds only while no
    # identifier can spell one.
    assert _TOP_ANCHORS <= KEYWORDS
