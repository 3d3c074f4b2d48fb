import csv
import dataclasses
import io
import random
import re
from collections import deque
from pathlib import Path

import pytest

from sailstate.backend import bundled_corpus_dir, default_backend, load_backend
from sailstate.errors import MalformedLine, MissingEntryFunction, UnknownMode, UnknownState
from sailstate.footprint import (
    EMPTY_FOOTPRINT,
    INSIGHTS_COLUMNS,
    Footprint,
    InstructionInsight,
    baseline_footprint,
    function_footprints,
    insight_rows,
    instruction_insights,
    load_insights_csv,
    propagate,
)
from sailstate.isa_model import (
    StateEntry, StateTable, compress_labels, discover_states, guards_from_harvest, natural_key,
)
from sailstate.parser import Body, Harvest, merge_units, parse_corpus, parse_unit
from sailstate.tokens import tokenize

from conftest import FIXTURES


TAG_EXPLICIT, TAG_IMPLICIT = "explicit", "implicit"


def _fp(reads=(), writes=()):
    """A Footprint from (label, tag) pairs per direction."""
    def tagged(pairs, tag):
        return frozenset(l for l, t in pairs if t == tag)

    return Footprint(
        explicit_reads=tagged(reads, TAG_EXPLICIT),
        implicit_reads=tagged(reads, TAG_IMPLICIT),
        explicit_writes=tagged(writes, TAG_EXPLICIT),
        implicit_writes=tagged(writes, TAG_IMPLICIT),
    )


def _labels(labels):
    return sorted(labels, key=natural_key)


# -- fixpoint propagation (independent brute-force oracle) ---------------------

def _brute_force(direct):
    """Transitive closure by per-node graph walk; no worklist, no sharing."""
    out = {}
    for start in direct:
        seen = set()
        stack = [start]
        fp = EMPTY_FOOTPRINT
        while stack:
            node = stack.pop()
            if node in seen or node not in direct:
                continue
            seen.add(node)
            own, callees = direct[node]
            fp = fp.union(own)
            stack.extend(callees)
        out[start] = fp
    return out


def _random_graph(rng):
    n = rng.randint(1, 30)
    names = [f"n{i}" for i in range(n)]
    direct = {}
    for name in names:
        own = _fp(
            reads=[(f"s{rng.randint(0, 9)}", rng.choice((TAG_EXPLICIT, TAG_IMPLICIT)))
                   for _ in range(rng.randint(0, 3))],
            writes=[(f"s{rng.randint(0, 9)}", rng.choice((TAG_EXPLICIT, TAG_IMPLICIT)))
                    for _ in range(rng.randint(0, 3))],
        )
        # allow self loops, cycles, and dangling callees
        callees = [rng.choice(names) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.15:
            callees.append("undefined_external")
        direct[name] = (own, tuple(callees))
    return direct


def test_propagate_matches_brute_force_closure():
    for seed in range(100):
        direct = _random_graph(random.Random(seed))
        got = propagate(direct)
        want = _brute_force(direct)
        assert got == want, f"seed {seed}"


def test_propagate_idempotent_and_monotone():
    for seed in (3, 17, 40):
        direct = _random_graph(random.Random(seed))
        resolved = propagate(direct)
        again = propagate({k: (resolved[k], cs) for k, (_, cs) in direct.items()})
        for name in direct:
            own = direct[name][0]
            assert own.union(resolved[name]) == resolved[name]
            assert again[name] == resolved[name]


def test_cycle_members_share_footprint():
    direct = {
        "a": (_fp(reads=[("r1", TAG_IMPLICIT)]), ("b",)),
        "b": (_fp(writes=[("w1", TAG_IMPLICIT)]), ("c",)),
        "c": (_fp(), ("a",)),
    }
    resolved = propagate(direct)
    assert resolved["a"] == resolved["b"] == resolved["c"]
    assert _labels(resolved["a"].reads) == ["r1"]
    assert _labels(resolved["a"].writes) == ["w1"]


# -- direct footprints on the bundled corpus ------------------------------------

def test_csr_helper_bodies_are_explicit(model, backend):
    fps = function_footprints(model, backend)
    read_csr = fps["readCSR"]
    assert "mepc" in read_csr.explicit_reads
    assert "cycle" in read_csr.explicit_reads
    write_csr = fps["writeCSR"]
    assert "satp" in write_csr.explicit_writes
    # the permission check itself reads nothing architectural
    assert fps["csr_access_ok"] == EMPTY_FOOTPRINT


def test_trap_handler_state_is_implicit(model, backend):
    fps = function_footprints(model, backend)
    th = fps["trap_handler"]
    assert "mepc" in th.implicit_writes
    assert "mstatus.MPIE" in th.implicit_writes
    assert _labels(th.explicit_writes) == []


def test_bank_accessor_calls_expand(model, backend):
    insights = instruction_insights(model, backend, include_baseline=False)
    add = insights["ADD"].footprint
    reads = _labels(add.explicit_reads)
    assert [f"x{i}" for i in range(32)] == reads
    writes = _labels(add.explicit_writes)
    assert "x0" not in writes  # hardwired zero never written
    assert writes == [f"x{i}" for i in range(1, 32)]


def test_instruction_insights_mret(insights):
    mret = insights["MRET"]
    assert mret.privileges == frozenset({"Machine"})
    reads = mret.footprint.reads
    assert {"mstatus.MPIE", "mstatus.MPP", "cur_privilege"} <= reads
    writes = mret.footprint.writes
    assert {
        "mstatus.MIE", "mstatus.MPIE", "mstatus.MPP", "mstatus.MPRV",
        "cur_privilege",
    } <= writes


def test_nop_without_baseline_is_empty(model, backend):
    insights = instruction_insights(model, backend, include_baseline=False)
    assert insights["NOP"].footprint == EMPTY_FOOTPRINT


def test_baseline_union_reaches_every_insight(model, backend, insights):
    base = baseline_footprint(model, backend)
    assert "cur_privilege" in base.reads
    assert "mepc" in base.writes  # interrupt entry path
    for ins in insights.values():
        assert base.union(ins.footprint) == ins.footprint


def test_baseline_entries_carry_via_marker(insights):
    nop = insights["NOP"]
    assert nop.via  # every entry accounted for
    assert all(path == "baseline" for _, path, _ in nop.via)
    mret = insights["MRET"]
    callee_paths = {path for _, path, _ in mret.via if path != "baseline"}
    assert any(">" in p for p in callee_paths)  # reached through a callee chain


def test_externals_surface(insights):
    assert "phys_mem_write" in insights["SW"].externals


def test_missing_entry_function_raises(model, tmp_path):
    ini = tmp_path / "backend.ini"
    ini.write_text(
        "[modes]\norder = User, Supervisor, Machine\n"
        "[state]\ncurrent_privilege_register = cur_privilege\n"
        "[dispatch]\nentry_functions = not_there\n"
    )
    bad = load_backend(str(ini))
    with pytest.raises(MissingEntryFunction):
        baseline_footprint(model, bad)


def test_store_side_effect_tagged_implicit(insights):
    sw = insights["SW"].footprint
    assert "mip.MTIP" in sw.implicit_writes
    assert "mip.MTIP" not in sw.explicit_writes


def test_injected_bug_corpus_loses_the_side_effect(backend):
    d = FIXTURES / "corpora" / "bug_mem"
    model = parse_corpus(sorted(d.glob("*.sail")))
    insights = instruction_insights(model, backend)
    for name in ("SW", "SD", "SC"):
        assert "mip.MTIP" not in insights[name].footprint.writes


# -- externals and guards (per-clause graph walks as brute-force oracles) -----

def _dfs_externals(body, model, backend):
    """Undefined callees reachable from one body, by a fresh walk per body."""
    seen = set()
    externals = set()
    stack = sorted(body.harvest.callees | body.harvest.lvalue_callees)
    while stack:
        name = stack.pop()
        if name in seen or backend.bank_for_accessor(name) is not None:
            continue
        seen.add(name)
        fn = model.functions.get(name)
        if fn is None:
            externals.add(name)
            continue
        stack.extend(sorted(fn.harvest.callees | fn.harvest.lvalue_callees))
    return frozenset(externals)


def _dfs_privileges(body, model, backend):
    """Union of the guards in one body and every function it reaches.

    Follows defined functions that are not bank accessors, the callee rule
    footprints and externals use as well.
    """
    found = guards_from_harvest(body.harvest, backend)
    seen = set()
    stack = sorted(body.harvest.callees | body.harvest.lvalue_callees)
    while stack:
        callee = stack.pop()
        if (
            callee in seen
            or callee not in model.functions
            or backend.bank_for_accessor(callee) is not None
        ):
            continue
        seen.add(callee)
        fn = model.functions[callee]
        own = guards_from_harvest(fn.harvest, backend)
        if found is None:
            found = own
        elif own is not None:
            found = found | own
        stack.extend(sorted(fn.harvest.callees | fn.harvest.lvalue_callees))
    return frozenset(backend.mode_order) if found is None else found


def _rooted_at_every_function(model):
    """The model plus one empty clause per function that calls just it."""
    clauses = dict(model.execute_clauses)
    for name in model.functions:
        calls = Harvest(frozenset(), frozenset(), frozenset({name}), frozenset(), (), ())
        clauses[f"CALLS_{name}"] = Body(f"CALLS_{name}", (), (), calls, "<rooted>", 0)
    return dataclasses.replace(model, execute_clauses=clauses)


def _assert_closure_matches_walks(model, backend, label):
    insights = instruction_insights(model, backend, include_baseline=False)
    assert sorted(insights) == sorted(model.execute_clauses), label
    for name, clause in model.execute_clauses.items():
        got = insights[name]
        assert got.externals == _dfs_externals(clause, model, backend), (label, name)
        assert got.privileges == _dfs_privileges(clause, model, backend), (label, name)


_MODES = ("User", "Supervisor", "Machine")
_GUARD_OPS = ("==", "!=", "<", "<=", ">", ">=")


def _random_statement(rng, functions):
    kind = rng.randrange(7)
    if kind == 0:
        return f"{rng.choice(functions)}()"
    if kind == 1:
        return f"{rng.choice(functions)}(0) = 1"  # lvalue call
    if kind == 2:
        return f"ext_{rng.randint(0, 4)}()"
    if kind == 3:
        return "X(1)"  # bank accessor: never followed
    if kind == 4:
        op, mode = rng.choice(_GUARD_OPS), rng.choice(_MODES)
        test = (
            f"cur_privilege {op} {mode}" if rng.random() < 0.5
            else f"{mode} {op} cur_privilege"
        )
        return f"if {test} then () else handle_illegal()"
    if kind == 5:
        arms = ", ".join(
            f"{mode} => {'handle_illegal()' if rng.random() < 0.4 else '()'}"
            for mode in rng.sample(_MODES, rng.randint(1, 3))
        )
        return f"match cur_privilege {{ {arms} }}"
    return "gctr = gctr + 1"


def _random_corpus(rng):
    """Sail text: functions with cycles, self-loops, undefined callees, and
    guards anywhere, sometimes including a defined bank accessor."""
    functions = [f"f{i}" for i in range(rng.randint(1, 12))]
    defined = list(functions) + (["X"] if rng.random() < 0.3 else [])
    lines = [
        "enum Privilege = {User, Supervisor, Machine}",
        "register cur_privilege : Privilege",
        "register gctr : bits(64)",
        "register Xs : vector(4, dec, xlenbits)",
    ]

    def body():
        stmts = [_random_statement(rng, functions) for _ in range(rng.randint(0, 4))]
        return "{ " + "; ".join(stmts + ["()"]) + " }"

    for name in defined:
        lines.append(f"function {name}(x) -> unit = {body()}")
    for i in range(rng.randint(1, 8)):
        lines.append(f"function clause execute I{i}() = {body()}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def graph_backend(tmp_path_factory):
    ini = tmp_path_factory.mktemp("graphs") / "backend.ini"
    ini.write_text(
        "[modes]\norder = User, Supervisor, Machine\n"
        "[state]\ncurrent_privilege_register = cur_privilege\n"
        "gpr_bank = Xs\ngpr_prefix = x\n"
        "[syntax]\ngpr_accessors = X\nillegal_handler = handle_illegal\n"
    )
    return load_backend(str(ini))


def test_closure_matches_walks_on_random_graphs(graph_backend):
    for seed in range(150):
        text = _random_corpus(random.Random(seed))
        model = merge_units([parse_unit(tokenize(text, "<g>"), "<g>")])
        _assert_closure_matches_walks(_rooted_at_every_function(model), graph_backend, seed)


@pytest.mark.parametrize("name", ["guards", "hyper"])
def test_closure_matches_walks_on_fixtures(name):
    d = FIXTURES / "corpora" / name
    backend = load_backend(str(d / "backend.ini"))
    model = _rooted_at_every_function(parse_corpus(sorted(d.glob("*.sail"))))
    _assert_closure_matches_walks(model, backend, name)


def test_closure_matches_walks_on_bundled(model, backend):
    _assert_closure_matches_walks(_rooted_at_every_function(model), backend, "bundled")


def test_guards_in_a_defined_bank_accessor_are_not_followed(graph_backend):
    text = (
        "enum Privilege = {User, Supervisor, Machine}\n"
        "register cur_privilege : Privilege\n"
        "register Xs : vector(4, dec, xlenbits)\n"
        "function X(r) -> unit = {\n"
        "  if cur_privilege == Machine then () else handle_illegal(); ext_from_x()\n"
        "}\n"
        "function guard() -> unit = { if cur_privilege >= Supervisor then () else handle_illegal() }\n"
        "function clause execute VIA_ACCESSOR() = { X(1) }\n"
        "function clause execute VIA_FUNCTION() = { X(1); guard() }\n"
    )
    model = merge_units([parse_unit(tokenize(text, "<t>"), "<t>")])
    insights = instruction_insights(model, graph_backend, include_baseline=False)
    # The accessor call is operand access, not a call edge: neither its
    # guard nor its undefined callees reach the instruction.
    assert insights["VIA_ACCESSOR"].privileges == frozenset(_MODES)
    assert insights["VIA_ACCESSOR"].externals == frozenset()
    assert insights["VIA_FUNCTION"].privileges == frozenset({"Supervisor", "Machine"})
    assert insights["VIA_FUNCTION"].externals == frozenset({"handle_illegal"})


# -- `via` groups (per-label BFS as an independent oracle) ----------------------

_VIA_ORACLE_INI = (
    "[modes]\norder = User, Supervisor, Machine\n"
    "[state]\ncurrent_privilege_register = cur_privilege\n"
    "[syntax]\ncsr_read_helpers = f0\ncsr_write_helpers = f1\n"
    "[dispatch]\nentry_functions = step\n"
)


def _via_corpus(rng):
    """Sail text: plain registers and calls between functions, with cycles,
    self-loops and undefined callees; f0 and f1 are the CSR helpers."""
    registers = [f"r{i}" for i in range(rng.randint(1, 8))]
    functions = [f"f{i}" for i in range(rng.randint(1, 12))]

    def body():
        stmts = []
        for _ in range(rng.randint(0, 5)):
            kind = rng.randrange(4)
            if kind == 0:
                stmts.append(f"{rng.choice(registers)} = {rng.choice(registers)}")
            elif kind == 1:
                stmts.append(f"let v = {rng.choice(registers)}")
            elif kind == 2:
                stmts.append(f"{rng.choice(functions)}()")
            else:
                stmts.append(f"ext_{rng.randint(0, 2)}()")
        return "{ " + "; ".join(stmts + ["()"]) + " }"

    lines = ["enum Privilege = {User, Supervisor, Machine}",
             "register cur_privilege : Privilege"]
    lines += [f"register {r} : bits(64)" for r in registers]
    lines += [f"function {name}() -> unit = {body()}" for name in functions + ["step"]]
    lines += [f"function clause execute I{i}() = {body()}" for i in range(rng.randint(1, 8))]
    return "\n".join(lines) + "\n"


def _oracle_via(model, backend, clause):
    """`via` groups of one clause, label by label: the first function, in a
    BFS from the clause's sorted defined callees, whose own harvest has the
    label in that column, and `baseline` for labels only the entry reaches."""
    def own_keys(body):
        h = body.harvest
        read_tag = "explicit" if body.name in backend.csr_read_helpers else "implicit"
        write_tag = "explicit" if body.name in backend.csr_write_helpers else "implicit"
        return ({(f"{read_tag}_reads", label) for label, _ in h.reads}
                | {(f"{write_tag}_writes", label) for label, _ in h.writes})

    def defined_callees(body):
        h = body.harvest
        return sorted(c for c in h.callees | h.lvalue_callees if c in model.functions)

    def reachable_keys(name):
        seen, stack, keys = set(), [name], set()
        while stack:
            n = stack.pop()
            if n not in seen:
                seen.add(n)
                keys |= own_keys(model.functions[n])
                stack.extend(defined_callees(model.functions[n]))
        return keys

    own = own_keys(clause)
    path_of = {}
    start = defined_callees(clause)
    queue, visited = deque((n, n) for n in start), set(start)
    while queue:
        name, path = queue.popleft()
        for key in sorted(own_keys(model.functions[name])):
            if key not in own:
                path_of.setdefault(key, path)
        for c in defined_callees(model.functions[name]):
            if c not in visited:
                visited.add(c)
                queue.append((c, f"{path}>{c}"))
    for key in reachable_keys("step") - own - set(path_of):
        path_of[key] = "baseline"
    groups = {}
    for (column, label), path in path_of.items():
        groups.setdefault((INSIGHTS_COLUMNS.index(column), path), set()).add(label)
    return tuple(
        (INSIGHTS_COLUMNS[index], path, frozenset(labels))
        for (index, path), labels in sorted(groups.items())
    )


def test_via_groups_match_per_label_bfs(tmp_path):
    ini = tmp_path / "backend.ini"
    ini.write_text(_VIA_ORACLE_INI)
    backend = load_backend(str(ini))
    for seed in range(200):
        text = _via_corpus(random.Random(seed))
        model = merge_units([parse_unit(tokenize(text, "<v>"), "<v>")])
        insights = instruction_insights(model, backend)
        for name, clause in model.execute_clauses.items():
            assert insights[name].via == _oracle_via(model, backend, clause), (seed, name)


# -- insights CSV round trip -----------------------------------------------------

def _assert_insights_round_trip(want, backend, table):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, INSIGHTS_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(insight_rows(want, backend))
    got = load_insights_csv(buf.getvalue(), table, backend.mode_order)
    assert sorted(got) == sorted(want)
    for instr, ins in want.items():
        back = got[instr]
        assert back.privileges == ins.privileges, instr
        assert back.footprint == ins.footprint, instr
        assert back.externals == ins.externals, instr


def _corpus(name, corpus_paths):
    """Backend and source paths of the bundled model or a fixture corpus."""
    if name == "bundled":
        return default_backend(), corpus_paths
    d = FIXTURES / "corpora" / name
    ini = d / "backend.ini"
    backend = load_backend(str(ini)) if ini.exists() else default_backend()
    return backend, sorted(d.glob("*.sail"))


@pytest.mark.parametrize("name", ["bundled", "bug_mem", "guards", "hyper", "perm"])
@pytest.mark.parametrize("include_baseline", [True, False])
def test_insights_csv_round_trip(name, include_baseline, corpus_paths):
    backend, paths = _corpus(name, corpus_paths)
    model = parse_corpus(paths)
    want = instruction_insights(model, backend, include_baseline=include_baseline)
    _assert_insights_round_trip(want, backend, discover_states(model, backend))


def test_insights_csv_round_trip_keeps_tags_of_equal_cells(table):
    modes = frozenset({"Machine"})
    fp = _fp(
        reads=[("mepc", TAG_EXPLICIT), ("x1", TAG_IMPLICIT), ("x2", TAG_IMPLICIT)],
        writes=[("x1", TAG_EXPLICIT), ("x2", TAG_EXPLICIT), ("mepc", TAG_IMPLICIT)],
    )
    want = {
        "A": InstructionInsight("A", modes, fp, frozenset({"ext"})),
        "B": InstructionInsight("B", modes, _fp(reads=[("mepc", TAG_IMPLICIT)]), frozenset()),
    }
    _assert_insights_round_trip(want, default_backend(), table)


def test_insights_csv_names_the_line_of_a_too_wide_range():
    row = ["A", "Machine", "x0..x1000000", "", "", "", "", ""]
    text = ",".join(INSIGHTS_COLUMNS) + "\n" + ",".join(row) + "\n"
    with pytest.raises(MalformedLine, match=r"^i\.csv:2: label range 'x0\.\.x1000000' spans"):
        load_insights_csv(text, StateTable([]), ("Machine",), "i.csv")


@pytest.mark.parametrize("rows, line", [
    # The quoted name of the first record spans lines 2 and 3.
    ([["B\nC", "Machine", "", "", "", "", "", ""], ["A", "Machine", "x0..x1000000"] + [""] * 5], 4),
    ([["B\nC", "Machine", "x0..x1000000"] + [""] * 5, ["A", "Machine"] + [""] * 6], 2),
])
def test_insights_csv_names_the_line_a_record_starts_on(rows, line):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([INSIGHTS_COLUMNS, *rows])
    with pytest.raises(MalformedLine, match=rf"^i\.csv:{line}: label range 'x0\.\.x1000000'"):
        load_insights_csv(out.getvalue(), StateTable([]), ("Machine",), "i.csv")


_LOADER_TABLE = StateTable([
    StateEntry("mepc", "csr", 64, None, 0x341), StateEntry("x1", "gpr", 64, "Xs", None),
])


@pytest.mark.parametrize("rows, error, message", [
    ([["A", "Machine Hyper", "", "", "", "", "", ""]], UnknownMode,
     "i.csv:2: instruction 'A' runs in unknown mode 'Hyper'; expected one of User, Machine"),
    ([["A", "Machine", "", "mepc ghost", "", "", "", ""]], UnknownState,
     "i.csv:2: instruction 'A' references unknown state 'ghost'"),
    ([["A", "Machine", "x1 ghost", "", "", "", "", ""]], UnknownState,
     "i.csv:2: instruction 'A' references unknown state 'ghost'"),
    ([["A", "Machine", "", "", "", "x0..x2", "", ""]], UnknownState,
     "i.csv:2: instruction 'A' references unknown state 'x0'"),
    # An instruction that runs in no mode is checked too.
    ([["A", "", "", "", "mepc", "ghost", "", ""]], UnknownState,
     "i.csv:2: instruction 'A' references unknown state 'ghost'"),
    # The first faulty row in file order, not in sorted order; a cell is
    # checked once, at the first row that holds it.
    ([["B", "Machine", "", "", "", "", "", ""], ["C", "Machine", "ghost", "", "", "", "", ""],
      ["A", "Bogus", "ghost", "", "", "", "", ""]], UnknownState,
     "i.csv:3: instruction 'C' references unknown state 'ghost'"),
])
def test_insights_csv_cells_must_be_given_modes_and_states(rows, error, message):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([INSIGHTS_COLUMNS, *rows])
    with pytest.raises(error) as info:
        load_insights_csv(out.getvalue(), _LOADER_TABLE, ("User", "Machine"), "i.csv")
    assert str(info.value) == message


# -- insight_rows against an unmemoised writer ---------------------------------

def _reference_rows(insights, backend):
    """insight_rows written out cell by cell, with nothing shared between rows."""
    def entry_cell(labels):
        return " ".join(compress_labels(labels))

    rows = []
    for name in sorted(insights):
        ins = insights[name]
        markers = dict(zip(INSIGHTS_COLUMNS[2:6], ("r", "r~", "w", "w~")))
        via = "; ".join(
            f"{markers[column]}[{path}]={','.join(compress_labels(labels))}"
            for column, path, labels in ins.via
        )
        rows.append({
            "instruction": name,
            "privileges": " ".join(m for m in backend.mode_order if m in ins.privileges),
            "explicit_reads": entry_cell(ins.footprint.explicit_reads),
            "implicit_reads": entry_cell(ins.footprint.implicit_reads),
            "explicit_writes": entry_cell(ins.footprint.explicit_writes),
            "implicit_writes": entry_cell(ins.footprint.implicit_writes),
            "externals": " ".join(sorted(ins.externals)),
            "via": via,
        })
    return rows


def _insts_copied(tmp_path, copies=3):
    """The bundled model with each insts_*.sail file copied `copies` times.

    Each copy renames the clauses and functions it defines, so the copies
    share the rest of the function graph and repeat its cells."""
    out = tmp_path / "insts_copied"
    out.mkdir()
    for path in sorted(Path(bundled_corpus_dir()).glob("*.sail")):
        text = path.read_text(encoding="utf-8")
        if not path.name.startswith("insts_"):
            (out / path.name).write_text(text, encoding="utf-8")
            continue
        defined = re.findall(r"^function (?:clause execute )?(\w+)", text, re.MULTILINE)
        pattern = re.compile(r"\b(%s)\b" % "|".join(defined))
        for k in range(copies):
            copy = pattern.sub(lambda m: f"{m.group(1)}_c{k}", text)
            (out / f"{path.stem}_c{k}.sail").write_text(copy, encoding="utf-8")
    return sorted(out.glob("*.sail"))


@pytest.mark.parametrize("name", ["bundled", "bug_mem", "guards", "hyper", "perm", "insts_copied"])
@pytest.mark.parametrize("include_baseline", [True, False])
def test_insight_rows_match_unmemoised_writer(name, include_baseline, corpus_paths, tmp_path):
    if name == "insts_copied":
        backend, paths = default_backend(), _insts_copied(tmp_path)
    else:
        backend, paths = _corpus(name, corpus_paths)
    insights = instruction_insights(
        parse_corpus(paths), backend, include_baseline=include_baseline
    )
    if name == "insts_copied":
        assert len(insights) == 3 * 19  # every bundled instruction, three times
    assert insight_rows(insights, backend) == _reference_rows(insights, backend)


def test_insight_rows_keep_tags_and_paths_of_equal_label_sets():
    modes = frozenset({"Machine"})
    x = [("x1", TAG_EXPLICIT), ("x2", TAG_EXPLICIT)]
    i = [("x1", TAG_IMPLICIT), ("x2", TAG_IMPLICIT)]
    want = {
        "A": InstructionInsight("A", modes, _fp(reads=x, writes=i), frozenset(),
                                (("explicit_reads", "f", frozenset({"x1", "x2"})),)),
        "B": InstructionInsight("B", modes, _fp(reads=i, writes=x), frozenset(),
                                (("implicit_reads", "g", frozenset({"x1", "x2"})),)),
        "C": InstructionInsight("C", modes, _fp(reads=x + i), frozenset(),
                                (("explicit_writes", "g", frozenset({"x2"})),
                                 ("implicit_writes", "g", frozenset({"x1"})))),
    }
    backend = default_backend()
    rows = insight_rows(want, backend)
    assert rows == _reference_rows(want, backend)
    assert [r["implicit_reads"] for r in rows] == ["", "x1..x2", "x1..x2"]
    assert [r["via"] for r in rows] == ["r[f]=x1..x2", "r~[g]=x1..x2", "w[g]=x2; w~[g]=x1"]
