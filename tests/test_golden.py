"""Byte-for-byte regression of CLI outputs against committed golden files.

The files under fixtures/golden were produced by the CLI before the call
graph analysis was restructured; any change to them is a change in results.
Regenerate only for a deliberate, documented behaviour change.
"""

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


@pytest.mark.parametrize(
    ("source", "target"), [("Supervisor", "Supervisor"), ("User", "Machine")]
)
def test_classify_matches_golden(tmp_path, source, target):
    argv = ["classify", "--source", source, "--target", target, "--format", "csv"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    want = (GOLDEN / f"classify_{source}_{target}" / "sensitivity.csv").read_bytes()
    assert (tmp_path / "sensitivity.csv").read_bytes() == want
