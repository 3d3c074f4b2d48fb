"""Acceptance gate: one test per shipping criterion, each printing a
PASS line (visible with -s) on top of the usual pytest verdict."""

import itertools
import os
import random
import re
import sys
import time
from pathlib import Path

import pytest

from sailstate.audit import (
    VERDICT_MISHANDLED,
    VERDICT_REDUNDANT,
    VERDICT_TIMING,
    audit,
    parse_manifest,
)
from sailstate.backend import bundled_backend_path, bundled_corpus_dir, load_backend
from sailstate.classifier import (
    ALL_CLASSES,
    build_access_matrix,
    classify,
    classify_all,
)
from sailstate.footprint import instruction_insights, propagate
from sailstate.isa_model import (
    ExplicitAccess,
    StateTable,
    derive_explicit_access,
    discover_states,
)
from sailstate.parser import parse_corpus
from sailstate.traces import STATUS_VIOLATION, load_traces, validate

from conftest import FIXTURES
from test_classifier import _entry, _insight, _mini_backend
from test_footprint import _brute_force, _random_graph

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))
from corpus import build as build_workload  # noqa: E402

MODES = ("User", "Supervisor", "Machine")


def _passed(line: str) -> None:
    print(f"PASS  {line}")


# -- 1: rule table against a brute-force oracle --------------------------------

def _oracle_classes(kind, w_s, d_s, r_t, d_t):
    """Independent restatement of the sensitivity rules over four booleans."""
    if kind == "gpr":
        return set(ALL_CLASSES), True
    classes = set()
    if w_s and d_t:
        classes.add("ComputationalIntegrity")
    if w_s and r_t:
        classes.update(("SideChannel", "CovertChannel"))
    if d_s and r_t:
        classes.add("SideChannel")
    return classes, bool(classes)


def _flag_matrix(kind: str, write_kind: str):
    """One state per (W_s, D_s, R_t, D_t) combination, realized through the
    real matrix builder. Returns the matrix and the label -> bits map."""
    combos = {f"s{i}": bits for i, bits in enumerate(itertools.product((0, 1), repeat=4))}
    table = StateTable([_entry(label, kind) for label in combos])
    read_modes, write_modes = {}, {}
    src_reads, src_writes, tgt_reads = [], [], []
    for label, (w, ds, re_, dt) in combos.items():
        read_modes[label] = frozenset({"B"}) if re_ else frozenset()
        write_modes[label] = frozenset({"A"}) if w and write_kind == "explicit" else frozenset()
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
    return matrix, combos


def test_ac1_rule_table_matches_oracle():
    t0 = time.monotonic()
    checked = 0
    for kind in ("csr", "gpr", "internal"):
        for write_kind in ("explicit", "implicit"):
            matrix, combos = _flag_matrix(kind, write_kind)
            for label, (w, ds, re_, dt) in combos.items():
                result = classify(label, "A", "B", matrix)
                want_classes, want_sensitive = _oracle_classes(
                    kind, bool(w), bool(ds), bool(re_ or dt), bool(dt)
                )
                assert set(result.classes) == want_classes, (kind, write_kind, label)
                assert result.sensitive == want_sensitive, (kind, write_kind, label)
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"oracle sweep took {elapsed:.2f}s"
    _passed(f"1: classifier agrees with the 16-row oracle "
            f"({checked} checks) in {elapsed:.3f}s")


# -- 2: mode-pair spot checks on the bundled corpus ----------------------------

def test_ac2_bundled_corpus_spot_checks(matrix):
    report_uu = classify_all("User", "User", matrix)
    by_state = report_uu.by_state()
    assert not by_state["sepc"].sensitive
    assert by_state["satp"].sensitive
    gprs = [s for s in by_state if re.fullmatch(r"x\d+", s)]
    assert len(gprs) == 32
    for src, tgt in itertools.product(MODES, repeat=2):
        rep = classify_all(src, tgt, matrix).by_state()
        assert all(rep[g].sensitive for g in gprs), (src, tgt)
    _passed("2: sepc quiet and satp sensitive at (User, User); "
            "all 32 GPRs sensitive on all 9 mode pairs")


# -- 3: machine-return instruction footprint ------------------------------------

def test_ac3_machine_return_footprint(insights):
    insight = insights["MRET"]
    reads = insight.footprint.reads
    writes = insight.footprint.writes
    assert {"mstatus.MPIE", "mstatus.MPP", "cur_privilege"} <= reads
    assert {
        "mstatus.MIE", "mstatus.MPIE", "mstatus.MPP", "mstatus.MPRV",
        "cur_privilege",
    } <= writes
    assert insight.privileges == frozenset({"Machine"})
    _passed("3: MRET reads/writes cover the status-stack fields and "
            "it is Machine-only")


# -- 4: trace validation, clean and seeded-bug corpora ---------------------------

def test_ac4_trace_superset_validation(insights, table, backend):
    bundles = load_traces(str(FIXTURES / "traces" / "traces.manifest"))
    clean = validate(insights, bundles, table)
    assert not clean.violations

    bug_dir = FIXTURES / "corpora" / "bug_mem"
    bug_model = parse_corpus(sorted(bug_dir.glob("*.sail")))
    bug_insights = instruction_insights(bug_model, backend)
    broken = validate(bug_insights, bundles, table)
    flagged = {r.name: r for r in broken.results if r.status == STATUS_VIOLATION}
    assert sorted(flagged) == ["SC", "SD", "SW"]
    for r in flagged.values():
        assert r.missing == (("mip.MTIP", "write"),)
    _passed("4: clean corpus validates against all traces; dropped call edge "
            "flags exactly SC/SD/SW with the missing mip.MTIP write")


# -- 5: swap-manifest audits -----------------------------------------------------

def test_ac5_swap_manifest_audits(report_ss):
    def run(name):
        text = (FIXTURES / "audit" / f"{name}.csv").read_text()
        return audit(parse_manifest(text, name), report_ss)

    keystone = run("keystone")
    mishandled = {f.state for f in keystone.by_verdict(VERDICT_MISHANDLED)}
    assert "senvcfg" in mishandled
    assert {"f0", "f31", "fcsr"} <= mishandled

    komodo = run("komodo")
    assert {f.state for f in komodo.by_verdict(VERDICT_MISHANDLED)} == {
        "senvcfg", "senvcfg.FIOM",
    }

    salus = run("salus")
    assert not salus.by_verdict(VERDICT_MISHANDLED)
    timing = {f.state for f in salus.by_verdict(VERDICT_TIMING)}
    assert {"f0", "fcsr", "v0", "vcsr"} <= timing

    ace = run("ace")
    assert not ace.by_verdict(VERDICT_MISHANDLED)
    assert not ace.by_verdict(VERDICT_TIMING)
    redundant = {f.state for f in ace.by_verdict(VERDICT_REDUNDANT)}
    assert redundant
    assert "mtval" in redundant
    _passed("5: keystone/komodo miss senvcfg-class state, salus lazy swaps "
            "are timing-prone, ace is clean with redundant swaps")


# -- 6: fixpoint vs transitive-closure oracle -------------------------------------

def test_ac6_fixpoint_matches_closure_oracle():
    for seed in range(100):
        rng = random.Random(seed)
        direct = _random_graph(rng)
        got = propagate(direct)
        want = _brute_force(direct)
        assert got == want, f"seed {seed}"
    _passed("6: worklist propagation equals brute-force closure on "
            "100 random call graphs")


# -- 7: pipeline runtime -----------------------------------------------------------

def _run_pipeline(paths, backend):
    model = parse_corpus(paths)
    table = discover_states(model, backend)
    explicit = derive_explicit_access(model, backend, table)
    insights = instruction_insights(model, backend)
    matrix = build_access_matrix(insights, explicit, table, backend)
    return classify_all("Supervisor", "User", matrix)


def test_ac7_pipeline_runtime(backend, tmp_path_factory):
    bundled = sorted(Path(bundled_corpus_dir()).glob("*.sail"))
    t0 = time.monotonic()
    _run_pipeline(bundled, backend)
    small = time.monotonic() - t0
    assert small < 5.0, f"bundled pipeline took {small:.2f}s"

    # The benchmark's `wide` corpus: disjoint renamed copies of the model.
    big = build_workload("wide", 1, REPO, tmp_path_factory.mktemp("wide"), copies=47)
    lines = big.lines
    assert lines >= 25_000
    t0 = time.monotonic()
    _run_pipeline(big.corpus, backend)
    large = time.monotonic() - t0
    assert large < 60.0, f"{lines}-line pipeline took {large:.2f}s"
    _passed(f"7: bundled pipeline {small:.2f}s (< 5s); "
            f"{lines}-line corpus {large:.2f}s (< 60s)")


# -- 8: optional upstream model census ----------------------------------------------

UPSTREAM_ENV = "SAILSTATE_UPSTREAM_MODEL"


def _census(paths):
    """(instructions, CSRs, sensitive CSR states for Supervisor -> User)."""
    backend = load_backend(bundled_backend_path())
    model = parse_corpus(paths)
    table = discover_states(model, backend, strict=False)
    explicit = derive_explicit_access(model, backend, table)
    insights = instruction_insights(model, backend)
    matrix = build_access_matrix(insights, explicit, table, backend)
    report = classify_all("Supervisor", "User", matrix)
    csr_states = sum(1 for label in table.labels() if table[label].kind == "csr")
    sensitive_csrs = sum(
        1
        for s in report.results
        if s.sensitive and s.kind in ("csr", "csr_field")
    )
    return len(model.instructions()), csr_states, sensitive_csrs


def test_census_of_the_bundled_model(corpus_paths):
    assert _census(corpus_paths) == (19, 21, 26)


def test_ac8_upstream_model_census():
    root = os.environ.get(UPSTREAM_ENV)
    if not root:
        pytest.skip(f"set {UPSTREAM_ENV} to a RISC-V model checkout to enable")
    paths = sorted(Path(root).rglob("*.sail"))
    assert paths, f"{UPSTREAM_ENV}={root} contains no .sail files"
    instructions, csr_states, sensitive_csrs = _census(paths)
    assert 320 <= instructions <= 391, instructions  # 355 +/- 10%
    assert 144 <= csr_states <= 176, csr_states      # 160 +/- 10%
    assert 63 <= sensitive_csrs <= 77, sensitive_csrs  # 70 +/- 10%
    _passed(
        f"8: upstream census {instructions} instructions, {csr_states} CSRs, "
        f"{sensitive_csrs} sensitive (Supervisor -> User)"
    )
