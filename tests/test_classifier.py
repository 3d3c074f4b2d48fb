import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sailstate.backend import BackendConfig
from sailstate.classifier import (
    ALL_CLASSES,
    CLASS_COVERT,
    CLASS_INTEGRITY,
    CLASS_SIDE,
    RULE_GPR,
    build_access_matrix,
    classify,
    classify_all,
    report_from_json,
    report_to_json,
    sensitivity_rows,
)
from sailstate.errors import MalformedLine, UnknownMode, UnknownState
from sailstate.footprint import Footprint, InstructionInsight
from sailstate.isa_model import ExplicitAccess, StateEntry, StateTable


def _mini_backend(modes):
    return BackendConfig(
        mode_order=tuple(modes),
        mode_levels={m: i for i, m in enumerate(modes)},
        current_privilege="cur_privilege",
        banks=(),
        hardwired_zero=None,
        csr_read_helpers=frozenset(),
        csr_write_helpers=frozenset(),
        csr_address_mapping="csr_name_map",
        csr_permission_function=None,
        illegal_handler="handle_illegal",
        entry_functions=(),
        path="<synthetic>",
    )


def _entry(label, kind="csr", parent=None):
    return StateEntry(label, kind, 64, parent, None)


def _insight(name, mode, reads=(), writes=()):
    return InstructionInsight(
        instruction=name,
        privileges=frozenset({mode}),
        footprint=Footprint(
            implicit_reads=frozenset(reads), implicit_writes=frozenset(writes)
        ),
        externals=frozenset(),
    )


# -- rule oracle over the full flag truth table --------------------------------
#
# Independent restatement of the rule table. W_s/D_s/R_t/D_t are derived from
# underlying per-mode flags; the oracle and the classifier must agree for all
# realizable combinations of those underlying flags.

def _oracle(kind, w_s, d_s, r_t, d_t):
    if kind == "gpr":
        return {CLASS_INTEGRITY, CLASS_SIDE, CLASS_COVERT}
    classes = set()
    if w_s and d_t:
        classes.add(CLASS_INTEGRITY)
    if w_s and r_t:
        classes.update({CLASS_SIDE, CLASS_COVERT})
    if d_s and r_t:
        classes.add(CLASS_SIDE)
    return classes


@pytest.mark.parametrize("kind", ["csr", "gpr"])
@pytest.mark.parametrize("write_kind", ["explicit", "implicit"])
def test_rule_table_matches_oracle(kind, write_kind):
    # one state per combination of underlying flags:
    # (write at source, implicit read at source, explicit read at target,
    #  implicit read at target)
    combos = list(itertools.product((0, 1), repeat=4))
    labels = {f"s{i}": bits for i, bits in enumerate(combos)}

    table = StateTable([_entry(l, kind) for l in labels])
    read_modes, write_modes = {}, {}
    src_reads, src_writes, tgt_reads = [], [], []
    for label, (w, ds, re_, dt) in labels.items():
        read_modes[label] = frozenset({"B"}) if re_ else frozenset()
        if w and write_kind == "explicit":
            write_modes[label] = frozenset({"A"})
        else:
            write_modes[label] = frozenset()
        if w and write_kind == "implicit":
            src_writes.append(label)
        if ds:
            src_reads.append(label)
        if dt:
            tgt_reads.append(label)

    insights = {
        "IA": _insight("IA", "A", reads=src_reads, writes=src_writes),
        "IB": _insight("IB", "B", reads=tgt_reads),
    }
    matrix = build_access_matrix(
        insights, ExplicitAccess(read_modes, write_modes), table, _mini_backend(["A", "B"])
    )

    for label, (w, ds, re_, dt) in labels.items():
        w_s, d_s = bool(w), bool(ds)
        r_t, d_t = bool(re_ or dt), bool(dt)
        want = _oracle(kind, w_s, d_s, r_t, d_t)
        got = classify(label, "A", "B", matrix)
        assert set(got.classes) == want, (label, w_s, d_s, r_t, d_t)
        assert got.sensitive == bool(want)
        assert got.classes == tuple(c for c in ALL_CLASSES if c in want)
        if kind == "gpr":
            assert got.rules == (RULE_GPR,)


# -- matrix construction oracle on the real corpus -------------------------------

def test_matrix_matches_independent_rederivation(insights, explicit, table, matrix, backend):
    for mode in backend.mode_order:
        impl_read, impl_write = set(), set()
        for ins in insights.values():
            if mode not in ins.privileges:
                continue
            impl_read |= ins.footprint.implicit_reads
            impl_write |= ins.footprint.implicit_writes
        # one step of whole<->field widening from the original flags only
        def widen(labels):
            out = set(labels)
            for label in labels:
                assert label in table
                register, _, field = label.partition(".")
                if field:
                    out.add(register)
                else:
                    out.update(e.label for e in table.fields_of(label))
            return out

        want_read, want_write = widen(impl_read), widen(impl_write)
        for label in table.labels():
            flags = matrix.flags(mode, label)
            assert flags.implicit_read == (label in want_read), (mode, label)
            assert flags.implicit_write == (label in want_write), (mode, label)
            assert flags.explicit_read == (mode in explicit.read_modes[label])
            assert flags.explicit_write == (mode in explicit.write_modes[label])
            assert ("implicit_read" in flags.derived) == (
                label in want_read - impl_read
            )


_MODES = ("A", "B", "C")
# r9.Z's register is not a state, so deriving from it adds nothing.
_STATES = [
    _entry("r0"), _entry("r0.A", "csr_field", "r0"), _entry("r0.B", "csr_field", "r0"),
    _entry("r1"), _entry("r2"), _entry("r2.C", "csr_field", "r2"),
    _entry("r9.Z", "csr_field", "r9"),
]
_LABELS = [e.label for e in _STATES]
_FOOTPRINT = st.tuples(
    st.frozensets(st.sampled_from(_MODES)),
    st.lists(st.sampled_from(_LABELS), unique=True, max_size=4),
    st.lists(st.sampled_from(_LABELS), unique=True, max_size=4),
)


def _rebuild_per_instruction(insights, table):
    """Each instruction's labels added one by one to each mode it runs in,
    then widened one step whole<->field: (read, write) sets per mode."""
    flagged = {m: (set(), set()) for m in _MODES}
    for ins in insights.values():
        fp = ins.footprint
        for column, labels in enumerate((fp.implicit_reads, fp.implicit_writes)):
            for label in labels:
                for m in ins.privileges:
                    flagged[m][column].add(label)

    def widen(labels):
        out = set(labels)
        for label in labels:
            register, _, field = label.partition(".")
            if not field:
                out.update(e.label for e in table.fields_of(label))
            elif register in table:
                out.add(register)
        return out

    return {m: tuple((labels, widen(labels)) for labels in sets) for m, sets in flagged.items()}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_grouped_matrix_matches_a_per_instruction_rebuild(data):
    # A few footprints shared by many instructions, as in a real model.
    pool = data.draw(st.lists(_FOOTPRINT, min_size=1, max_size=4))
    names = data.draw(
        st.lists(st.text("abxy", min_size=1, max_size=3), unique=True, min_size=1, max_size=25)
    )
    insights = {}
    for k, name in enumerate(names):
        privileges, reads, writes = pool[data.draw(st.integers(0, len(pool) - 1))]
        # Equal sets built in another order may iterate in another order.
        order = list if k % 2 else reversed
        insights[name] = InstructionInsight(
            instruction=name,
            privileges=privileges,
            footprint=Footprint(
                implicit_reads=frozenset(order(reads)), implicit_writes=frozenset(order(writes))
            ),
            externals=frozenset(),
        )
    table = StateTable(list(_STATES))
    empty = {e.label: frozenset() for e in _STATES}
    explicit = ExplicitAccess(dict(empty), dict(empty))
    want = _rebuild_per_instruction(insights, table)
    matrix = build_access_matrix(insights, explicit, table, _mini_backend(_MODES))
    for mode in _MODES:
        (read, wide_read), (write, wide_write) = want[mode]
        for label in table.labels():
            flags = matrix.flags(mode, label)
            assert flags.implicit_read == (label in wide_read), (mode, label)
            assert flags.implicit_write == (label in wide_write), (mode, label)
            assert ("implicit_read" in flags.derived) == (label in wide_read - read)
            assert ("implicit_write" in flags.derived) == (label in wide_write - write)


def test_derivation_does_not_amplify_siblings():
    table = StateTable([
        _entry("mip"),
        _entry("mip.MTIP", "csr_field", parent="mip"),
        _entry("mip.MEIP", "csr_field", parent="mip"),
    ])
    insights = {"I": _insight("I", "A", writes=["mip.MTIP"])}
    empty = {l: frozenset() for l in ("mip", "mip.MTIP", "mip.MEIP")}
    matrix = build_access_matrix(
        insights, ExplicitAccess(dict(empty), dict(empty)), table, _mini_backend(["A"])
    )
    assert matrix.flags("A", "mip.MTIP").implicit_write
    parent = matrix.flags("A", "mip")
    assert parent.implicit_write and "implicit_write" in parent.derived
    assert not matrix.flags("A", "mip.MEIP").implicit_write


def test_whole_register_access_marks_fields():
    table = StateTable([
        _entry("satp"),
        _entry("satp.MODE", "csr_field", parent="satp"),
    ])
    insights = {"I": _insight("I", "A", reads=["satp"])}
    empty = {l: frozenset() for l in ("satp", "satp.MODE")}
    matrix = build_access_matrix(
        insights, ExplicitAccess(dict(empty), dict(empty)), table, _mini_backend(["A"])
    )
    field = matrix.flags("A", "satp.MODE")
    assert field.implicit_read and "implicit_read" in field.derived


def test_field_sensitivity_escalates_to_register():
    table = StateTable([
        _entry("c"),
        _entry("c.F", "csr_field", parent="c"),
    ])
    insights = {"I": _insight("I", "A", writes=["c.F"])}
    read_modes = {"c": frozenset(), "c.F": frozenset({"B"})}
    write_modes = {"c": frozenset(), "c.F": frozenset()}
    matrix = build_access_matrix(
        insights, ExplicitAccess(read_modes, write_modes), table, _mini_backend(["A", "B"])
    )
    report = classify_all("A", "B", matrix)
    by_state = report.by_state()
    assert by_state["c.F"].sensitive
    assert by_state["c"].sensitive
    assert by_state["c"].rules == ("field-escalation",)


@st.composite
def _random_matrices(draw):
    """Registers with fields, orphan fields and GPR elements, with random
    explicit access and random instruction footprints per mode."""
    entries = []
    for i in range(draw(st.integers(0, 4))):
        entries.append(_entry(f"r{i}", draw(st.sampled_from(["csr", "internal"]))))
        for k in range(draw(st.integers(0, 3))):
            entries.append(_entry(f"r{i}.F{k}", "csr_field", parent=f"r{i}"))
    for k in range(draw(st.integers(0, 2))):
        entries.append(_entry(f"gone.F{k}", "csr_field", parent="gone"))
    for k in range(draw(st.integers(0, 3))):
        entries.append(_entry(f"x{k}", "gpr", parent="Xs"))
    table = StateTable(entries)
    labels = table.labels()
    modes = st.frozensets(st.sampled_from(_MODES))
    subsets = st.frozensets(st.sampled_from(labels)) if labels else st.just(frozenset())
    explicit = ExplicitAccess(
        {label: draw(modes) for label in labels}, {label: draw(modes) for label in labels}
    )
    insights = {}
    for k in range(draw(st.integers(0, 4))):
        footprint = Footprint(implicit_reads=draw(subsets), implicit_writes=draw(subsets))
        insights[f"I{k}"] = InstructionInsight(f"I{k}", draw(modes), footprint, frozenset())
    return build_access_matrix(insights, explicit, table, _mini_backend(_MODES))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_random_matrices(), st.sampled_from(_MODES), st.integers(1, len(_MODES) - 1))
def test_classify_all_matches_per_label_classify(matrix, source, shift):
    table = matrix.table
    other = _MODES[(_MODES.index(source) + shift) % len(_MODES)]
    for target in (source, other):
        report = classify_all(source, target, matrix)
        assert [v.state for v in report.results] == table.labels()
        for v in report.results:
            alone = classify(v.state, source, target, matrix)
            fields = [classify(e.label, source, target, matrix) for e in table.fields_of(v.state)]
            if not alone.sensitive and any(f.sensitive for f in fields):
                assert v.rules == ("field-escalation",), v
                assert set(v.classes) == set().union(*(f.classes for f in fields))
            else:
                assert v._replace(bidirectional=False) == alone
            swapped = classify(v.state, target, source, matrix)
            assert v.bidirectional == (
                CLASS_SIDE in v.classes and (source == target or CLASS_SIDE in swapped.classes)
            ), (v, swapped)


# -- bundled corpus spot checks ---------------------------------------------------

def test_acceptance_mode_pairs(matrix):
    by_uu = classify_all("User", "User", matrix).by_state()
    assert not by_uu["sepc"].sensitive
    assert by_uu["satp"].sensitive
    for pair_count, (s, t) in (
        (135, ("Supervisor", "Supervisor")),
        (125, ("Supervisor", "User")),
        (125, ("User", "User")),
        (139, ("Machine", "Machine")),
    ):
        report = classify_all(s, t, matrix)
        assert report.sensitive_count == pair_count, (s, t)


def test_ss_insensitive_set(report_ss):
    insensitive = {
        r.state for r in report_ss.results if not r.sensitive
    }
    assert insensitive == {"cycle", "mcause", "mscratch", "mstatus.MPRV", "mtval"}


def test_gprs_always_sensitive(matrix):
    for s, t in itertools.product(("User", "Supervisor", "Machine"), repeat=2):
        by_state = classify_all(s, t, matrix).by_state()
        for i in (0, 7, 31):
            v = by_state[f"x{i}"]
            assert v.sensitive and set(v.classes) == set(ALL_CLASSES)


def test_same_mode_side_channels_are_bidirectional(report_ss):
    by_state = report_ss.by_state()
    senvcfg = by_state["senvcfg"]
    assert CLASS_SIDE in senvcfg.classes
    assert senvcfg.bidirectional


def test_unknown_mode_rejected(matrix):
    with pytest.raises(UnknownMode):
        classify_all("Hypervisor", "User", matrix)
    with pytest.raises(UnknownState):
        matrix.flags("User", "nonesuch")


# -- serialization -----------------------------------------------------------------

def test_report_json_round_trip(report_ss):
    text = report_to_json(report_ss)
    again = report_from_json(text)
    assert again.source == report_ss.source
    assert again.by_state() == report_ss.by_state()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["summary"]["sensitive_states"] == report_ss.sensitive_count


_DROP = object()  # a `change` value that deletes the key


@pytest.mark.parametrize("change, message", [
    ({"source": 5}, r"^source must be a str, got int$"),
    ({"target": None}, r"^target must be a str, got NoneType$"),
    ({"state": 5}, r"^states\[1\]\.state must be a str, got int$"),
    ({"state": None}, r"^states\[1\]\.state must be a str"),
    ({"sensitive": "false"}, r"^states\[1\]\.sensitive must be a bool, got str$"),
    ({"bidirectional": 1}, r"^states\[1\]\.bidirectional must be a bool, got int$"),
    ({"classes": "SideChannel"}, r"^states\[1\]\.classes must be a list of strings$"),
    ({"rules_fired": [1]}, r"^states\[1\]\.rules_fired must be a list of strings$"),
    ({"justification": None}, r"^states\[1\]\.justification must be a list of strings$"),
    ({"state": "mepc"}, r"^states\[1\] repeats state 'mepc'$"),
    ({"state": ""}, r"^states\[1\] has an empty state name$"),
    ({"sensitive": _DROP}, r"^states\[1\] lacks key 'sensitive'$"),
    ({"state": _DROP}, r"^states\[1\] lacks key 'state'$"),
    ({"states": [{"state": "mepc", "sensitive": True}, "sepc"]}, r"^states\[1\] must be an object$"),
    ({"states": {"mepc": {"sensitive": True}}}, r"^states must be a list$"),
    ({"states": ""}, r"^states must be a list$"),
    ({"states": None}, r"^states must be a list$"),
])
def test_report_json_rejects_wrong_types_and_repeated_states(change, message):
    states = [
        {"state": "mepc", "sensitive": True, "classes": ["SideChannel"]},
        {"state": "sepc", "sensitive": False, "classes": []},
    ]
    doc = {"source": "Supervisor", "target": "Supervisor", "states": states}
    for key, value in change.items():
        where = doc if key in doc else states[1]
        if value is _DROP:
            del where[key]
        else:
            where[key] = value
    with pytest.raises(MalformedLine, match=message):
        report_from_json(json.dumps(doc))


@pytest.mark.parametrize("text", [
    pytest.param("[" * 100_000, id="nested_too_deep"),
    pytest.param('{"source": ' + "9" * 5000 + "}", id="number_too_long"),
])
def test_report_json_rejects_unreadable_json(text):
    with pytest.raises(MalformedLine, match=r"^invalid JSON: "):
        report_from_json(text)


def test_sensitivity_rows_shape(report_ss):
    rows = sensitivity_rows(report_ss)
    assert len(rows) == report_ss.total
    row = next(r for r in rows if r["register"] == "mip" and r["field"] == "MTIP")
    assert row["sensitive"] == "true"
    assert "rule-i" in row["rules_fired"]
