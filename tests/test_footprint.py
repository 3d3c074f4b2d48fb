import csv
import dataclasses
import io
import random

import pytest

from sailstate.backend import default_backend, load_backend
from sailstate.errors import MissingEntryFunction
from sailstate.footprint import (
    EMPTY_FOOTPRINT,
    INSIGHTS_COLUMNS,
    TAG_EXPLICIT,
    TAG_IMPLICIT,
    Footprint,
    InstructionInsight,
    baseline_footprint,
    function_footprints,
    insight_rows,
    instruction_insights,
    load_insights_csv,
    propagate,
)
from sailstate.isa_model import StateRef, guards_from_harvest, natural_key
from sailstate.parser import Body, Harvest, merge_units, parse_corpus, parse_unit
from sailstate.tokens import tokenize

from conftest import FIXTURES


def _fp(reads=(), writes=()):
    return Footprint(
        reads=frozenset((StateRef.parse(l), t) for l, t in reads),
        writes=frozenset((StateRef.parse(l), t) for l, t in writes),
    )


def _labels(entries, tag=None):
    return sorted(
        (r.label for r, t in entries if tag is None or t == tag), key=natural_key
    )


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
            assert own.reads <= resolved[name].reads
            assert own.writes <= resolved[name].writes
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
    assert "mepc" in _labels(read_csr.reads, TAG_EXPLICIT)
    assert "cycle" in _labels(read_csr.reads, TAG_EXPLICIT)
    write_csr = fps["writeCSR"]
    assert "satp" in _labels(write_csr.writes, TAG_EXPLICIT)
    # the permission check itself reads nothing architectural
    assert fps["csr_access_ok"] == EMPTY_FOOTPRINT


def test_trap_handler_state_is_implicit(model, backend):
    fps = function_footprints(model, backend)
    th = fps["trap_handler"]
    assert "mepc" in _labels(th.writes, TAG_IMPLICIT)
    assert "mstatus.MPIE" in _labels(th.writes, TAG_IMPLICIT)
    assert _labels(th.writes, TAG_EXPLICIT) == []


def test_bank_accessor_calls_expand(model, backend):
    insights = instruction_insights(model, backend, include_baseline=False)
    add = insights["ADD"].footprint
    reads = _labels(add.reads, TAG_EXPLICIT)
    assert [f"x{i}" for i in range(32)] == reads
    writes = _labels(add.writes, TAG_EXPLICIT)
    assert "x0" not in writes  # hardwired zero never written
    assert writes == [f"x{i}" for i in range(1, 32)]


def test_instruction_insights_mret(insights):
    mret = insights["MRET"]
    assert mret.privileges == frozenset({"Machine"})
    reads = set(_labels(mret.footprint.reads))
    assert {"mstatus.MPIE", "mstatus.MPP", "cur_privilege"} <= reads
    writes = set(_labels(mret.footprint.writes))
    assert {
        "mstatus.MIE", "mstatus.MPIE", "mstatus.MPP", "mstatus.MPRV",
        "cur_privilege",
    } <= writes


def test_nop_without_baseline_is_empty(model, backend):
    insights = instruction_insights(model, backend, include_baseline=False)
    assert insights["NOP"].footprint == EMPTY_FOOTPRINT


def test_baseline_union_reaches_every_insight(model, backend, insights):
    base = baseline_footprint(model, backend)
    assert "cur_privilege" in _labels(base.reads)
    assert "mepc" in _labels(base.writes)  # interrupt entry path
    for ins in insights.values():
        assert base.reads <= ins.footprint.reads
        assert base.writes <= ins.footprint.writes


def test_baseline_entries_carry_via_marker(insights):
    nop = insights["NOP"]
    assert nop.via  # every entry accounted for
    assert all(path == "baseline" for _, _, _, path in nop.via)
    mret = insights["MRET"]
    callee_paths = {path for _, _, _, path in mret.via if path != "baseline"}
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
    assert "mip.MTIP" in _labels(sw.writes, TAG_IMPLICIT)
    assert "mip.MTIP" not in _labels(sw.writes, TAG_EXPLICIT)


def test_injected_bug_corpus_loses_the_side_effect(backend):
    d = FIXTURES / "corpora" / "bug_mem"
    model = parse_corpus(sorted(d.glob("*.sail")))
    insights = instruction_insights(model, backend)
    for name in ("SW", "SD", "SC"):
        assert "mip.MTIP" not in _labels(insights[name].footprint.writes)


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


# -- insights CSV round trip -----------------------------------------------------

def _assert_insights_round_trip(want, backend):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, INSIGHTS_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(insight_rows(want, backend))
    got = load_insights_csv(buf.getvalue())
    assert sorted(got) == sorted(want)
    for instr, ins in want.items():
        back = got[instr]
        assert back.privileges == ins.privileges, instr
        assert back.footprint.reads == ins.footprint.reads, instr
        assert back.footprint.writes == ins.footprint.writes, instr
        assert back.externals == ins.externals, instr


@pytest.mark.parametrize("name", ["bundled", "bug_mem", "guards", "hyper", "perm"])
@pytest.mark.parametrize("include_baseline", [True, False])
def test_insights_csv_round_trip(name, include_baseline, corpus_paths):
    if name == "bundled":
        backend, paths = default_backend(), corpus_paths
    else:
        d = FIXTURES / "corpora" / name
        ini = d / "backend.ini"
        backend = load_backend(str(ini)) if ini.exists() else default_backend()
        paths = sorted(d.glob("*.sail"))
    want = instruction_insights(
        parse_corpus(paths), backend, include_baseline=include_baseline
    )
    _assert_insights_round_trip(want, backend)


def test_insights_csv_round_trip_keeps_tags_of_equal_cells():
    modes = frozenset({"Machine"})
    fp = _fp(
        reads=[("mepc", TAG_EXPLICIT), ("x1", TAG_IMPLICIT), ("x2", TAG_IMPLICIT)],
        writes=[("x1", TAG_EXPLICIT), ("x2", TAG_EXPLICIT), ("mepc", TAG_IMPLICIT)],
    )
    want = {
        "A": InstructionInsight("A", modes, fp, frozenset({"ext"})),
        "B": InstructionInsight("B", modes, _fp(reads=[("mepc", TAG_IMPLICIT)]), frozenset()),
    }
    _assert_insights_round_trip(want, default_backend())
