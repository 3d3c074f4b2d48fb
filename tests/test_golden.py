"""Byte-for-byte regression of CLI outputs against committed golden files.

The CSV files under fixtures/golden were produced by the CLI before the call
graph analysis was restructured, and the JSON files (with findings.txt) before
the JSON writers moved to `jsonout.dumps`; any change to them is a change in
results. Regenerate only for a deliberate, documented behaviour change.
"""

import json
import random

import pytest

from sailstate.cli import main

from conftest import FIXTURES

GOLDEN = FIXTURES / "golden"
CORPORA = FIXTURES / "corpora"


def _corpus_args(name):
    if name == "bundled":
        return []
    args = ["--corpus", str(CORPORA / name)]
    backend = CORPORA / name / "backend.ini"
    if backend.exists():
        args += ["--backend", str(backend)]
    return args


@pytest.mark.parametrize("name", ["bundled", "bug_mem", "guards", "hyper", "perm"])
def test_scan_matches_golden(tmp_path, name):
    assert main(["scan", *_corpus_args(name), "--out", str(tmp_path)]) == 0
    for filename in ("insights.csv", "states.csv"):
        want = (GOLDEN / name / filename).read_bytes()
        assert (tmp_path / filename).read_bytes() == want, f"{name}/{filename}"


PAIRS = [("Supervisor", "Supervisor"), ("User", "Machine")]


@pytest.mark.parametrize(("source", "target"), PAIRS)
def test_classify_matches_golden(tmp_path, source, target):
    argv = ["classify", "--source", source, "--target", target, "--format", "csv"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    want = (GOLDEN / f"classify_{source}_{target}" / "sensitivity.csv").read_bytes()
    assert (tmp_path / "sensitivity.csv").read_bytes() == want


@pytest.mark.parametrize(("source", "target"), PAIRS)
def test_classify_json_matches_golden(tmp_path, source, target):
    argv = ["classify", "--source", source, "--target", target, "--format", "json"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    want = (GOLDEN / f"classify_{source}_{target}" / "sensitivity.json").read_bytes()
    assert (tmp_path / "sensitivity.json").read_bytes() == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(("source", "target"), PAIRS)
def test_classify_from_saved_files_matches_golden(tmp_path, source, target, fmt):
    # The saved scan outputs stand in for the corpus and give the same bytes.
    saved = GOLDEN / "bundled"
    argv = ["classify", "--source", source, "--target", target, "--format", fmt,
            "--insights", str(saved / "insights.csv"), "--states", str(saved / "states.csv")]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    filename = f"sensitivity.{fmt}"
    want = (GOLDEN / f"classify_{source}_{target}" / filename).read_bytes()
    assert (tmp_path / filename).read_bytes() == want


def test_validate_matches_golden(tmp_path):
    manifest = FIXTURES / "traces" / "traces.manifest"
    assert main(["validate", "--traces", str(manifest), "--out", str(tmp_path)]) == 0
    want = (GOLDEN / "bundled" / "validation.json").read_bytes()
    assert (tmp_path / "validation.json").read_bytes() == want


@pytest.mark.parametrize(
    ("name", "exit_code"), [("ace", 0), ("keystone", 3), ("komodo", 3), ("salus", 4)]
)
def test_audit_matches_golden(tmp_path, name, exit_code):
    report = GOLDEN / "classify_Supervisor_Supervisor" / "sensitivity.json"
    manifest = FIXTURES / "audit" / f"{name}.csv"
    argv = ["audit", "--report", str(report), "--manifest", str(manifest)]
    assert main(argv + ["--out", str(tmp_path)]) == exit_code
    for filename in ("findings.json", "findings.txt"):
        want = (GOLDEN / f"audit_{name}" / filename).read_bytes()
        assert (tmp_path / filename).read_bytes() == want, f"{name}/{filename}"


def test_audit_does_not_depend_on_report_order(tmp_path):
    """A saved report may list its states in any order; every audit sorts
    them, so a shuffled report grades to the same bytes."""
    doc = json.loads((GOLDEN / "classify_Supervisor_Supervisor" / "sensitivity.json").read_text())
    random.Random(26).shuffle(doc["states"])
    report = tmp_path / "shuffled.json"
    report.write_text(json.dumps(doc))
    for name, exit_code in (("ace", 0), ("keystone", 3), ("komodo", 3), ("salus", 4)):
        out = tmp_path / name
        argv = ["audit", "--report", str(report), "--manifest", str(FIXTURES / "audit" / f"{name}.csv")]
        assert main(argv + ["--out", str(out)]) == exit_code
        for filename in ("findings.json", "findings.txt"):
            want = (GOLDEN / f"audit_{name}" / filename).read_bytes()
            assert (out / filename).read_bytes() == want, f"{name}/{filename}"
