"""Tests for the benchmark's workload generator and output checks.

The pipeline runs in-process through `sailstate.cli.main`, as a session does,
on small copy counts so the whole file takes a few seconds.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import corpus
from run import commands
from sailstate import cli

REPO = Path(__file__).resolve().parents[1]


def _run(workload: corpus.Workload, out: Path) -> dict[str, dict]:
    results = {}
    for command in commands(workload, out):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(command["argv"])
        results[command["label"]] = {"exit": code, "stdout": buffer.getvalue()}
    return results


def _corpus_text(w: corpus.Workload) -> dict[str, str]:
    return {p.name: p.read_text() for p in w.corpus}


@pytest.fixture(scope="module")
def bundled(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundled")
    w = corpus.build("bundled", 1, REPO, root / "inputs")
    return w, root / "out", _run(w, root / "out")


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    root = tmp_path_factory.mktemp("wide")
    w = corpus.build("wide", 1, REPO, root / "inputs", copies=3)
    return w, root / "out", _run(w, root / "out")


def test_declared_names_finds_every_clause():
    text = "\n".join(p.read_text() for p in (REPO / corpus.CORPUS_DIR).glob("*.sail"))
    clauses = corpus.declared_names(text, ("clause",))
    assert len(clauses) == 19
    assert {"ADD", "FARITH", "MRET", "SRET", "VADD"} <= clauses
    assert "execute" not in corpus.declared_names(text)


@pytest.mark.parametrize("name", ["wide", "shared"])
def test_generator_is_deterministic_per_seed(tmp_path, name):
    a = corpus.build(name, 7, REPO, tmp_path / "a", copies=4)
    b = corpus.build(name, 7, REPO, tmp_path / "b", copies=4)
    c = corpus.build(name, 8, REPO, tmp_path / "c", copies=4)
    assert _corpus_text(a) == _corpus_text(b)
    assert a.suffixes == b.suffixes
    assert a.suffixes != c.suffixes
    assert _corpus_text(a) != _corpus_text(c)


def test_wide_copies_are_disjoint(tmp_path):
    w = corpus.build("wide", 3, REPO, tmp_path, copies=3)
    declared: dict[str, int] = {}
    for path in w.corpus:
        for name in corpus.declared_names(path.read_text(), ("register", "function", "clause")):
            declared[name] = declared.get(name, 0) + 1
    # `function clause execute X` is declared once per clause; other names once.
    assert all(n == 1 for n in declared.values())
    assert len(w.corpus) == 3 * len(list((REPO / corpus.CORPUS_DIR).glob("*.sail")))
    assert all(s == "" or re.fullmatch(r"_z[a-z]{5}", s) for s in w.suffixes)


def test_shared_copies_only_instruction_files(tmp_path):
    w = corpus.build("shared", 3, REPO, tmp_path, copies=4)
    stems = [re.sub(r"^\d+_", "", p.stem) for p in w.corpus]
    assert sum(s.startswith("sys_regs") for s in stems) == 1
    assert sum(s.startswith("insts_base") for s in stems) == 4
    manifest = w.traces.read_text()
    assert all(f"SD{s}," in manifest for s in w.suffixes)


def test_bundled_outputs_pass(bundled):
    w, out, results = bundled
    assert checks.check(w, out, results) == {}


def test_wide_outputs_pass(wide):
    w, out, results = wide
    assert checks.check(w, out, results) == {}


def _corrupted(path: Path, old: str, new: str, count: int = 1):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, count))
    return text


def test_check_catches_flipped_sensitivity(bundled):
    w, out, results = bundled
    original = _corrupted(out / "sensitivity.json", '"sensitive": true', '"sensitive": false')
    try:
        found = checks.check(w, out, results)
    finally:
        (out / "sensitivity.json").write_text(original)
    assert list(found) == ["classify"]
    assert "134 of 140 sensitive" in found["classify"][0]


def test_check_catches_wrong_verdict_and_exit_code(bundled):
    w, out, results = bundled
    findings = out / "komodo" / "findings.json"
    doc = json.loads(findings.read_text())
    original = findings.read_text()
    target = next(f for f in doc["findings"] if f["state"] == "senvcfg.FIOM")
    target["verdict"] = "ok"
    findings.write_text(json.dumps(doc))
    bad_exit = {**results, "validate": {**results["validate"], "exit": 2}}
    try:
        found = checks.check(w, out, bad_exit)
    finally:
        findings.write_text(original)
    assert set(found) == {"audit:komodo", "validate"}


def test_check_catches_one_diverging_copy(wide):
    w, out, results = wide
    suffix = w.suffixes[2]
    path = out / "insights.csv"
    lines = path.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith(f"SD{suffix},"))
    original = "".join(lines)
    lines[i] = lines[i].replace("User Supervisor Machine", "Machine", 1)
    path.write_text("".join(lines))
    try:
        found = checks.check(w, out, results)
    finally:
        path.write_text(original)
    assert list(found) == ["scan"]
    assert "1 copies differ from copy 1, first [2]" in found["scan"][0]


def test_tracer_self_time_and_counts():
    from tracer import Tracer

    t = Tracer()
    t.spans = [
        ["cli.scan", -1, 0.0, 10.0],
        ["parser.parse_corpus", 0, 1.0, 5.0],
        ["isa_model.fields_of", 1, 2.0, 3.0],
        ["isa_model.fields_of", 0, 6.0, 7.5],
    ]
    got = t.summary()
    assert got["cli.self_s"] == pytest.approx(10.0 - 4.0 - 1.5)
    assert got["traced.scan_s"] == pytest.approx(10.0)
    assert got["parser.parse_corpus_s"] == pytest.approx(3.0)
    assert got["parser.parse_corpus_total_s"] == pytest.approx(4.0)
    assert got["isa_model.fields_of_s"] == pytest.approx(2.5)
    assert got["isa_model.fields_of_calls"] == 2
    assert got["footprint.propagate_calls"] == 0


def _traced_session(w: corpus.Workload, out: Path) -> dict:
    spec = out.parent / f"{out.name}.json"
    spec.write_text(json.dumps({"commands": commands(w, out), "out": str(out), "trace": True}))
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "session.py"), str(spec)],
        input="go\n", capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "ready"
    return json.loads(lines[-1])


def test_traced_sessions_repeat_counts_and_digests(bundled, tmp_path):
    w = bundled[0]
    first = _traced_session(w, tmp_path / "one")
    second = _traced_session(w, tmp_path / "two")
    counts = {k: v for k, v in first["layers"].items() if k.endswith("_calls") or k == "tokens.tokens"}
    assert counts == {k: second["layers"][k] for k in counts}
    assert counts["footprint.propagate_calls"] == 2
    m = re.search(r"(\d+) instructions, (\d+) functions", first["commands"][0]["stdout"])
    assert counts["parser.harvest_body_calls"] == 2 * (int(m.group(1)) + int(m.group(2)))
    assert [c["digests"] for c in first["commands"]] == [c["digests"] for c in second["commands"]]
    assert [c["exit"] for c in first["commands"]] == [0, 0, 0, 0, 3, 3, 4]
