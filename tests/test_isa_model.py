import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sailstate.backend import bundled_corpus_dir, load_backend
from sailstate.errors import (
    BackendConfigError, MalformedLine, UnknownCsrAddress, UnknownMode, UnknownState,
)
from sailstate.footprint import instruction_insights
from sailstate.isa_model import (
    DEFAULT_PERMISSION_RULE,
    MAX_LABEL_RANGE,
    STATES_COLUMNS,
    CsrPermissionRule,
    StateEntry,
    StateTable,
    compress_labels,
    derive_explicit_access,
    discover_states,
    expand_label_range,
    extract_permission_rule,
    load_states_csv,
    natural_key,
    split_label,
    state_label,
    state_rows,
)
from sailstate.parser import parse_corpus

from conftest import FIXTURES


def _load(name):
    d = FIXTURES / "corpora" / name
    backend = load_backend(str(d / "backend.ini"))
    model = parse_corpus(sorted(d.glob("*.sail")))
    return backend, model


# -- state discovery -----------------------------------------------------------

def test_state_census(table):
    assert len(table) == 140
    kinds = Counter(table[l].kind for l in table.labels())
    assert kinds == {
        "gpr": 32, "fpr": 32, "vector": 32,
        "csr": 21, "csr_field": 20, "internal": 3,
    }
    assert [l for l in table.labels() if table[l].kind == "internal"] == [
        "PC", "cur_privilege", "nextPC",
    ]


def test_a_label_made_twice_is_an_error(tmp_path):
    """Two makers of one label would leave one of them out of the table."""
    ini = FIXTURES / "broken" / "shared_prefix.ini"
    corpus = sorted(Path(bundled_corpus_dir()).glob("*.sail"))
    with pytest.raises(BackendConfigError, match=(
        rf"^{re.escape(str(ini))}: state 'x0' names both an element of bank register 'Fs' "
        r"and an element of bank register 'Xs'$"
    )):
        discover_states(parse_corpus(corpus), load_backend(str(ini)))

    regs = tmp_path / "regs.sail"
    regs.write_text(
        "register cur_privilege : Privilege\n"
        "register Xs : vector(4, dec, bits(8))\nregister x2 : bits(8)\n"
    )
    ini = tmp_path / "backend.ini"
    ini.write_text(
        "[modes]\norder = User, Machine\n"
        "[state]\ncurrent_privilege_register = cur_privilege\ngpr_bank = Xs\ngpr_prefix = x\n"
    )
    with pytest.raises(BackendConfigError, match=(
        r"backend\.ini: state 'x2' names both an element of bank register 'Xs' and register 'x2'$"
    )):
        discover_states(parse_corpus([str(regs)]), load_backend(str(ini)))


def test_bank_elements(table):
    x5 = table["x5"]
    assert (x5.kind, x5.width, x5.parent) == ("gpr", 64, "Xs")
    assert "x32" not in table
    assert table["v31"].kind == "vector"


def test_fields_and_addresses(table):
    assert table["mstatus"].width == 64
    assert table["mstatus.FS"].width == 2
    assert table["mstatus.FS"].parent == "mstatus"
    assert table["satp"].address == 0x180
    assert table["mstatus.FS"].address == 0x300  # addressed through the parent
    assert table.fields_of("mip") and all(
        e.kind == "csr_field" for e in table.fields_of("mip")
    )


def test_labels_naturally_ordered(table):
    labels = table.labels()
    assert labels.index("x2") < labels.index("x10")
    assert labels == sorted(labels, key=natural_key)


def _random_entries(rng):
    """Registers with fields, bank elements, orphan fields and duplicates."""
    entries = []
    for i in rng.sample(range(40), rng.randint(0, 12)):
        reg = f"r{i}"
        entries.append(StateEntry(reg, "csr", 64, None, 0x300 + i))
        for k in rng.sample(range(12), rng.randint(0, 4)):
            entries.append(StateEntry(f"{reg}.F{k}", "csr_field", 1, reg, None))
        for k in range(rng.randint(0, 3)):
            entries.append(StateEntry(f"{reg}e{k}", "gpr", 64, reg, None))
    for k in range(rng.randint(0, 2)):
        entries.append(StateEntry(f"gone.F{k}", "csr_field", 1, "gone", None))
    if entries and rng.random() < 0.3:
        entries.append(rng.choice(entries))
    rng.shuffle(entries)
    return entries


def test_state_table_lookups_match_brute_force_scans():
    for seed in range(200):
        rng = random.Random(seed)
        table = StateTable(_random_entries(rng))
        everything = list(table.entries.values())
        assert table.labels() == sorted(table.entries, key=natural_key), seed
        names = {split_label(e.label)[0] for e in everything} | {"gone", "nothing"}
        for name in sorted(names | set(table.entries)):
            want = [e for e in everything if e.parent == name and "." in e.label]
            assert table.fields_of(name) == want, (seed, name)


def test_state_table_results_are_copies():
    table = StateTable([
        StateEntry("mip", "csr", 64, None, 0x344),
        StateEntry("mip.MTIP", "csr_field", 1, "mip", 0x344),
        StateEntry("x2", "gpr", 64, "Xs", None),
        StateEntry("x10", "gpr", 64, "Xs", None),
    ])
    fields = table.fields_of("mip")
    labels = table.labels()
    fields.clear()
    labels.reverse()
    assert [e.label for e in table.fields_of("mip")] == ["mip.MTIP"]
    assert table.labels() == ["mip", "mip.MTIP", "x2", "x10"]


def test_resolve_unknown_raises(table):
    with pytest.raises(UnknownState):
        table.resolve("not_a_register")


def test_unmapped_csr_name_rejected_when_strict(backend, tmp_path):
    p = tmp_path / "bad.sail"
    p.write_text('mapping clause csr_name_map = 0x999 <-> "ghost_reg"\n')
    bad = parse_corpus([str(p)])
    with pytest.raises(UnknownCsrAddress):
        discover_states(bad, backend)
    table = discover_states(bad, backend, strict=False)
    assert "ghost_reg" not in table


# -- explicit access ------------------------------------------------------------

def test_explicit_access_follows_address_convention(explicit):
    assert explicit.read_modes["mstatus"] == frozenset({"Machine"})
    assert explicit.read_modes["sscratch"] == frozenset({"Supervisor", "Machine"})
    assert explicit.read_modes["fcsr"] == frozenset({"User", "Supervisor", "Machine"})
    # 0xC00 block: readable anywhere, hardwired read-only
    assert explicit.read_modes["cycle"] == frozenset({"User", "Supervisor", "Machine"})
    assert explicit.write_modes["cycle"] == frozenset()


def test_fields_inherit_register_access(explicit):
    assert explicit.read_modes["mstatus.FS"] == explicit.read_modes["mstatus"]
    assert explicit.write_modes["satp.MODE"] == explicit.write_modes["satp"]


def test_bank_access_and_hardwired_zero(explicit):
    assert "User" in explicit.read_modes["x0"]
    assert "Machine" not in explicit.write_modes["x0"]
    assert "User" in explicit.write_modes["f3"]
    assert "Supervisor" in explicit.write_modes["v7"]


def test_internal_state_has_no_explicit_path(explicit):
    for label in ("PC", "nextPC", "cur_privilege"):
        assert explicit.read_modes[label] == frozenset()
        assert explicit.write_modes[label] == frozenset()


def test_vs_alias_shadowing():
    backend, model = _load("hyper")
    table = discover_states(model, backend)
    ex = derive_explicit_access(model, backend, table)
    vs = "VirtualSupervisor"
    assert vs in ex.read_modes["vsscratch"]
    assert vs not in ex.read_modes["sscratch"]
    assert vs in ex.write_modes["vsepc"]
    assert vs not in ex.write_modes["sepc"]
    # fields inherit their register's access after the alias
    assert ex.read_modes["vsstatus.SPP"] == ex.read_modes["vsstatus"]
    assert ex.read_modes["sstatus.SPP"] == ex.read_modes["sstatus"]
    # hypervisor level sits between supervisor and machine
    assert ex.read_modes["hstatus"] == frozenset({"HypervisorSupervisor", "Machine"})


def test_read_only_alias_pair(tmp_path):
    """A read-only `vsX` gains VirtualSupervisor for reading only, and its
    read-only `sX` loses it."""
    backend, _ = _load("hyper")
    corpus = tmp_path / "ro.sail"
    corpus.write_text(
        "register cur_privilege : Privilege\n"
        "register sro : bits(64)\nregister vsro : bits(64)\n"
        'mapping clause csr_name_map = 0xD00 <-> "sro"\n'
        'mapping clause csr_name_map = 0xE00 <-> "vsro"\n'
        "function step() -> unit = ()\n"
    )
    model = parse_corpus([str(corpus)])
    table = discover_states(model, backend)
    rows = {r["state"]: r for r in state_rows(table, derive_explicit_access(model, backend, table), backend)}
    assert (rows["vsro"]["readable"], rows["vsro"]["writable"]) == (
        "VirtualSupervisor HypervisorSupervisor Machine", ""
    )
    assert (rows["sro"]["readable"], rows["sro"]["writable"]) == (
        "Supervisor HypervisorSupervisor Machine", ""
    )


def test_nonstandard_permission_function():
    backend, model = _load("perm")
    rule = extract_permission_rule(model.functions["csr_access_ok"])
    assert rule.min_priv_slice == (7, 6)
    assert rule.read_only_slice == (3, 2)
    assert rule.read_only_value == 0b11
    table = discover_states(model, backend)
    ex = derive_explicit_access(model, backend, table)
    assert ex.read_modes["ctl_a"] == frozenset({"User", "Supervisor", "Machine"})
    assert ex.read_modes["ctl_b"] == frozenset({"Machine"})
    assert ex.write_modes["ctl_ro"] == frozenset()


def test_a_permission_slice_may_be_any_width():
    rule = CsrPermissionRule((10**20, 8), (10**20, 10**20 - 3), 0)
    assert rule.min_level(0xF11) == 0xF
    assert rule.is_read_only(0xF11)


def test_unrecognizable_permission_body_falls_back():
    from sailstate.parser import merge_units, parse_unit
    from sailstate.tokens import tokenize

    text = "function csr_access_ok(csr : csreg, p : Privilege, w : bool) -> bool = { true }"
    model = merge_units([parse_unit(tokenize(text), "<t>")])
    with pytest.warns(UserWarning):
        rule = extract_permission_rule(model.functions["csr_access_ok"])
    assert rule == DEFAULT_PERMISSION_RULE


# -- instruction privileges -------------------------------------------------------

def _privileges(model, backend):
    insights = instruction_insights(model, backend)
    return {name: ins.privileges for name, ins in insights.items()}


def test_bundled_privileges(model, backend):
    privs = _privileges(model, backend)
    assert privs["MRET"] == frozenset({"Machine"})
    assert privs["SRET"] == frozenset({"Machine", "Supervisor"})
    assert privs["ADD"] == frozenset({"User", "Supervisor", "Machine"})


def test_guard_forms():
    backend, model = _load("guards")
    privs = _privileges(model, backend)
    sm = frozenset({"Supervisor", "Machine"})
    assert privs["GE_SUPERVISOR"] == sm
    assert privs["FLIPPED_EQ"] == frozenset({"Machine"})
    assert privs["FLIPPED_LT"] == sm
    assert privs["NOT_USER"] == sm
    assert privs["BY_MATCH"] == sm
    assert privs["GUARD_IN_CALLEE"] == frozenset({"Machine"})
    assert privs["UNGUARDED"] == frozenset({"User", "Supervisor", "Machine"})


# Each comparison with the current-privilege register on the left and on the
# right, and the modes it admits under User < Supervisor < Machine.
COMPARISON_GUARDS = {
    "cur_privilege == Supervisor": {"Supervisor"},
    "cur_privilege != Supervisor": {"User", "Machine"},
    "cur_privilege < Supervisor": {"User"},
    "cur_privilege <= Supervisor": {"User", "Supervisor"},
    "cur_privilege > Supervisor": {"Machine"},
    "cur_privilege >= Supervisor": {"Supervisor", "Machine"},
    "Supervisor == cur_privilege": {"Supervisor"},
    "Supervisor != cur_privilege": {"User", "Machine"},
    "Supervisor < cur_privilege": {"Machine"},
    "Supervisor <= cur_privilege": {"Supervisor", "Machine"},
    "Supervisor > cur_privilege": {"User"},
    "Supervisor >= cur_privilege": {"User", "Supervisor"},
}


def test_every_comparison_guard_form(tmp_path):
    backend, _ = _load("guards")
    guards = list(COMPARISON_GUARDS)
    corpus = tmp_path / "guards.sail"
    corpus.write_text(
        "register cur_privilege : Privilege\nregister gctr : bits(64)\n"
        "function step() -> unit = { gctr = gctr + 1 }\n"
        + "".join(
            f"function clause execute G{k}() = {{ if {guard} then gctr = 1 else handle_illegal() }}\n"
            for k, guard in enumerate(guards)
        )
    )
    privs = _privileges(parse_corpus([str(corpus)]), backend)
    assert {guard: privs[f"G{k}"] for k, guard in enumerate(guards)} == COMPARISON_GUARDS


# -- label utilities -----------------------------------------------------------

def test_state_label_round_trip():
    assert split_label("mstatus.FS") == ("mstatus", "FS")
    assert split_label("mepc") == ("mepc", None)
    assert state_label("mip", "MTIP") == "mip.MTIP"
    assert state_label("mepc") == state_label("mepc", None) == "mepc"
    assert StateEntry("mip.MTIP", "csr_field", 1, "mip", None).is_field
    assert not StateEntry("mip", "csr", 64, None, None).is_field


def test_bank_prefix_may_not_contain_a_dot(tmp_path):
    ini = tmp_path / "backend.ini"
    ini.write_text(
        "[modes]\norder = User, Machine\n"
        "[state]\ncurrent_privilege_register = cur_privilege\ngpr_bank = Xs\ngpr_prefix = x.\n"
    )
    with pytest.raises(BackendConfigError, match=r"gpr_prefix 'x\.' contains '\.'"):
        load_backend(str(ini))


MODES = ("User", "Supervisor", "Machine")  # the bundled backend's


def test_states_csv_rejects_a_repeated_state():
    rows = [",".join(STATES_COLUMNS), "PC,internal,64,,,,", "mepc,csr,64,0x341,,Machine,Machine"]
    load_states_csv("\n".join(rows) + "\n", MODES, "s.csv")
    with pytest.raises(MalformedLine, match=r"^s\.csv:4: duplicate state 'PC'$"):
        load_states_csv("\n".join(rows + rows[1:2]) + "\n", MODES, "s.csv")


@pytest.mark.parametrize("records, line", [
    # The quoted cell of the first record spans lines 2-3, or 2-4.
    (['"P\nC",internal,64,,,,', "Q,internal,zz,,,,"], 4),
    (['"P\nC",internal,zz,,,,', "Q,internal,64,,,,"], 2),
    (['"P\n\nC",internal,64,,,,', "Q,internal,64,,"], 5),
])
def test_states_csv_names_the_line_a_record_starts_on(records, line):
    text = "\n".join([",".join(STATES_COLUMNS), *records]) + "\n"
    with pytest.raises(MalformedLine, match=rf"^s\.csv:{line}: (width must|expected 7 col)"):
        load_states_csv(text, MODES, "s.csv")


@pytest.mark.parametrize("width, address", [
    ("-8", ""), ("+8", ""), (" 8", ""), ("8 ", ""), ("1_6", ""), ("\uff18", ""), ("\u0668", ""),
    ("8", "-0x300"), ("8", "+0x300"), ("8", "0x3_00"), ("8", " 0x300"), ("8", "300"),
    ("8", "0X300"), ("8", "0x"), ("8", "0x300 "), ("8", "0xg"),
])
def test_states_csv_reads_only_the_numbers_it_writes(width, address):
    """int() alone would take signs, blanks, '_' and non-ASCII digits."""
    text = f"{','.join(STATES_COLUMNS)}\nmstatus,csr,{width},{address},,,\n"
    message = f"s.csv:2: width must be decimal and address hexadecimal, got {width!r} and {address!r}"
    with pytest.raises(MalformedLine) as info:
        load_states_csv(text, MODES, "s.csv")
    assert str(info.value) == message


@pytest.mark.parametrize("rows, message", [
    (["m,csr,64,,,Machine Hyper,"], "s.csv:2: state 'm' is readable in unknown mode 'Hyper'"),
    (["m,csr,64,,,,Bogus Hyper"], "s.csv:2: state 'm' is writable in unknown mode 'Bogus'"),
    # The first faulty row in file order, whatever the natural order of labels.
    (["b,csr,64,,,,", "a,csr,64,,,Bogus,", "a0,csr,64,,,,Hyper"],
     "s.csv:3: state 'a' is readable in unknown mode 'Bogus'"),
])
def test_states_csv_mode_cells_must_be_the_given_modes(rows, message):
    text = "\n".join([",".join(STATES_COLUMNS), *rows]) + "\n"
    with pytest.raises(UnknownMode) as info:
        load_states_csv(text, MODES, "s.csv")
    assert str(info.value) == f"{message}; expected one of User, Supervisor, Machine"


@pytest.mark.parametrize("rows, message", [
    (["m,csr,64,,,,", "m.F,csr_field,1,,n,,", "n,csr,64,,,,"],
     "s.csv:3: field 'm.F' names parent 'n', not 'm'"),
    (["m,csr,64,,,,", "m.F,csr_field,1,,,,"], "s.csv:3: field 'm.F' names parent '', not 'm'"),
    (["g.F,csr_field,1,,g,,", "m,csr,64,,,,"], "s.csv:2: register 'g' of field 'g.F' has no row"),
])
def test_states_csv_fields_name_their_register_as_parent(rows, message):
    text = "\n".join([",".join(STATES_COLUMNS), *rows]) + "\n"
    with pytest.raises(MalformedLine) as info:
        load_states_csv(text, MODES, "s.csv")
    assert str(info.value) == message


def test_states_csv_takes_fields_before_their_register_and_bank_elements():
    """A register's row may follow its fields' rows; a bank element names its
    bank register as parent and is not a field."""
    rows = ["m.F,csr_field,1,,m,Machine,", "m,csr,64,,,Machine,", "f0,fpr,64,,Fs,User,User"]
    text = "\n".join([",".join(STATES_COLUMNS), *rows]) + "\n"
    table, explicit = load_states_csv(text, MODES, "s.csv")
    assert [e.label for e in table.fields_of("m")] == ["m.F"]
    assert table["f0"].parent == "Fs" and not table["f0"].is_field
    assert explicit.write_modes["f0"] == frozenset({"User"})


def test_states_csv_reads_hex_digits_in_either_case():
    text = f"{','.join(STATES_COLUMNS)}\nm,csr,64,0xC0f,,,\nn,csr,,,,,\n"
    table, _explicit = load_states_csv(text, MODES, "s.csv")
    assert (table["m"].width, table["m"].address) == (64, 0xC0F)
    assert (table["n"].width, table["n"].address) == (None, None)


def test_range_expansion():
    assert expand_label_range("f0..f3") == ["f0", "f1", "f2", "f3"]
    assert expand_label_range("mepc") == ["mepc"]
    assert expand_label_range("f3..f1") == ["f3..f1"]  # nonsense passes through
    assert expand_label_range("x١..x٣") == ["x١..x٣"]  # only ASCII digits index a range


@pytest.mark.parametrize("shipped", ["x0..x31", "v0..v31", "f0..f31"])
def test_shipped_ranges_expand(shipped):
    prefix = shipped[0]
    assert expand_label_range(shipped) == [f"{prefix}{i}" for i in range(32)]


def test_range_expansion_is_bounded():
    assert len(expand_label_range(f"x0..x{MAX_LABEL_RANGE - 1}")) == MAX_LABEL_RANGE
    assert len(expand_label_range("x7..x4102")) == MAX_LABEL_RANGE
    for text in (f"x0..x{MAX_LABEL_RANGE}", "x0..x1000000", "x0..x" + "9" * 5000):
        with pytest.raises(MalformedLine, match="label range"):
            expand_label_range(text)


def test_compression():
    assert compress_labels(["x0", "x1", "x2", "x3"]) == ["x0..x3"]
    assert compress_labels(["x1", "x3"]) == ["x1", "x3"]
    assert compress_labels(["mepc", "x0", "x1"]) == ["mepc", "x0..x1"]


@given(st.sets(st.integers(min_value=0, max_value=40), max_size=32))
def test_compress_expand_round_trip(nums):
    labels = sorted((f"r{n}" for n in nums), key=natural_key)
    compressed = compress_labels(labels)
    expanded = [x for item in compressed for x in expand_label_range(item)]
    assert expanded == labels


def _int_natural_key(label):
    """The int()-based key natural_key replaced, with ties broken on the
    label; the oracle for ASCII labels."""
    return tuple(int(p) if p.isdigit() else p for p in re.split(r"(\d+)", label)), label


ascii_label = st.one_of(
    st.text(alphabet="x.0123456789", max_size=10),
    st.text(alphabet=st.characters(max_codepoint=127), max_size=10),
)


@settings(derandomize=True)
@given(st.lists(ascii_label, max_size=20))
@example(["r1", "r001", "r01"])
def test_natural_key_orders_ascii_labels_like_int(labels):
    assert sorted(labels, key=natural_key) == sorted(labels, key=_int_natural_key)


@settings(derandomize=True)
@given(st.lists(st.one_of(st.text(), st.text(alphabet="x.19²٣")), max_size=8))
def test_label_keys_are_total(labels):
    for label in labels:
        natural_key(label)
    compress_labels(labels)


def test_label_keys_take_long_and_non_ascii_digits():
    long_label = "x" + "9" * 5000
    assert sorted(["x10", long_label, "x9"], key=natural_key) == ["x9", "x10", long_label]
    assert compress_labels([long_label, "x1" + "0" * 5000]) == [f"{long_label}..x1{'0' * 5000}"]
    assert compress_labels(["a1²", "a1", "a2"]) == ["a1", "a1²", "a2"]
    assert compress_labels(["x007", "x8"]) == ["x007", "x8"]


def test_zero_padded_labels_join_no_range():
    assert compress_labels(["r01", "r02"]) == ["r01", "r02"]
    assert compress_labels(["a09", "a10", "a11"]) == ["a09", "a10..a11"]
    assert compress_labels(["x0", "x1", "x2"]) == ["x0..x2"]
    # Labels that differ only in leading zeros keep string order, whatever
    # order the set iterates in.
    assert compress_labels(["x1", "x2", "x00", "x0"]) == ["x0", "x00", "x1..x2"]
    assert compress_labels(["r2", "r1", "r01"]) == ["r01", "r1..r2"]


# Each index value appears once, with 0-2 leading zeros, so no two labels
# have equal sort keys and the sorted list is the one order to give back.
@settings(derandomize=True)
@given(st.dictionaries(
    st.tuples(st.sampled_from(["r", "a", "x.f"]), st.integers(min_value=0, max_value=40)),
    st.integers(min_value=0, max_value=2),
    max_size=40,
))
def test_compress_expand_round_trip_with_zero_padding(padding):
    labels = sorted(
        (f"{prefix}{'0' * pad}{n}" for (prefix, n), pad in padding.items()), key=natural_key
    )
    expanded = [x for item in compress_labels(labels) for x in expand_label_range(item)]
    assert expanded == labels
