import json
import os
import subprocess
import sys

import pytest

from sailstate.audit import (
    ACTION_CLEAR,
    ACTION_CONDITIONAL,
    ACTION_NONE,
    ACTION_SWAP,
    VERDICT_MISHANDLED,
    VERDICT_OK,
    VERDICT_REDUNDANT,
    VERDICT_TIMING,
    audit,
    outcome_to_json,
    outcome_to_text,
    parse_manifest,
)
from sailstate.classifier import Sensitivity, SensitivityReport
from sailstate.errors import MalformedLine, PairMismatch, UnknownAction

from conftest import FIXTURES

MANIFESTS = FIXTURES / "audit"


def _report(*rows: tuple[str, bool]) -> SensitivityReport:
    results = tuple(
        Sensitivity(
            state=label,
            kind="csr",
            source="Supervisor",
            target="Supervisor",
            sensitive=sensitive,
            classes=("SideChannel",) if sensitive else (),
            rules=("rule-iv",) if sensitive else (),
            justification=(),
        )
        for label, sensitive in rows
    )
    return SensitivityReport(source="Supervisor", target="Supervisor", results=results)


def _manifest(body: str) -> str:
    return "@pair, Supervisor, Supervisor\n" + body


# -- manifest parsing ---------------------------------------------------------

def test_parse_manifest_basics():
    m = parse_manifest(_manifest(
        "# comment line\n"
        "mepc, swap, trusted-fw   # trailing comment\n"
        "f0..f2, swap_conditional\n"
        "mstatus.FS, clear\n"
    ))
    assert (m.source, m.target) == ("Supervisor", "Supervisor")
    assert m.entries["mepc"] == (ACTION_SWAP, "trusted-fw")
    assert m.entries["f1"] == (ACTION_CONDITIONAL, "")
    assert m.entries["mstatus.FS"] == (ACTION_CLEAR, "")
    assert len(m.entries) == 5


def test_parse_manifest_requires_pair_line():
    with pytest.raises(MalformedLine):
        parse_manifest("mepc, swap\n")
    with pytest.raises(MalformedLine):
        parse_manifest("@pair, Supervisor\nmepc, swap\n")


def test_parse_manifest_rejects_a_second_pair_line():
    """A second @pair is an error at its own line, not a silent switch of
    the audited pair to the last one named."""
    text = "@pair, User, Machine\nmepc, swap\n# comment\n@pair, Supervisor, Supervisor\n"
    with pytest.raises(MalformedLine, match=r"^m\.csv:4: a second @pair; a manifest names one pair$"):
        parse_manifest(text, "m.csv")
    first = parse_manifest(text.rsplit("@pair", 1)[0])
    assert (first.source, first.target) == ("User", "Machine")


def test_parse_manifest_rejects_bad_rows():
    with pytest.raises(UnknownAction):
        parse_manifest(_manifest("mepc, shred\n"))
    with pytest.raises(MalformedLine):
        parse_manifest(_manifest("mepc\n"))
    with pytest.raises(MalformedLine):
        parse_manifest(_manifest("mepc, swap, x, y\n"))
    # ranges count toward duplicates too
    with pytest.raises(MalformedLine):
        parse_manifest(_manifest("f0..f3, swap\nf2, clear\n"))
    with pytest.raises(MalformedLine, match=r"^m\.csv:3: empty state name"):
        parse_manifest(_manifest("mepc, swap\n, swap\n"), "m.csv")


def test_parse_manifest_bounds_label_ranges():
    with pytest.raises(MalformedLine, match=r"^m\.csv:2: label range 'x0\.\.x1000000' spans"):
        parse_manifest(_manifest("x0..x1000000, swap\n"), "m.csv")


def test_action_for_field_falls_back_to_register_entry():
    m = parse_manifest(_manifest("mstatus, swap, fw\n"))
    assert m.action_for("mstatus.MPRV") == (ACTION_SWAP, "fw", True)
    assert m.action_for("mstatus") == (ACTION_SWAP, "fw", False)
    assert m.action_for("sepc") == (ACTION_NONE, "", False)


# -- verdict table ------------------------------------------------------------

@pytest.mark.parametrize(
    ("sensitive", "action", "verdict"),
    [
        (True, ACTION_SWAP, VERDICT_OK),
        (True, ACTION_CLEAR, VERDICT_OK),
        (True, ACTION_CONDITIONAL, VERDICT_TIMING),
        (True, ACTION_NONE, VERDICT_MISHANDLED),
        (False, ACTION_NONE, VERDICT_OK),
        (False, ACTION_SWAP, VERDICT_REDUNDANT),
        (False, ACTION_CLEAR, VERDICT_REDUNDANT),
        (False, ACTION_CONDITIONAL, VERDICT_REDUNDANT),
    ],
)
def test_verdicts(sensitive, action, verdict):
    report = _report(("mepc", sensitive))
    line = f"mepc, {action}\n" if action != ACTION_NONE else ""
    outcome = audit(parse_manifest(_manifest(line)), report)
    (finding,) = outcome.findings
    assert finding.verdict == verdict
    assert finding.action == action


def test_audit_rejects_mode_pair_mismatch():
    report = _report(("mepc", True))
    manifest = parse_manifest("@pair, Machine, User\nmepc, swap\n")
    with pytest.raises(PairMismatch):
        audit(manifest, report)


def test_inherited_entries_marked():
    report = _report(("mstatus", True), ("mstatus.MPRV", False))
    outcome = audit(parse_manifest(_manifest("mstatus, swap, fw\n")), report)
    by_state = {f.state: f for f in outcome.findings}
    assert not by_state["mstatus"].inherited
    assert by_state["mstatus.MPRV"].inherited
    assert by_state["mstatus.MPRV"].verdict == VERDICT_REDUNDANT
    assert by_state["mstatus.MPRV"].provenance == "fw"


def test_unknown_manifest_states_are_listed_and_insensitive():
    report = _report(("mepc", True))
    outcome = audit(
        parse_manifest(_manifest("mepc, swap\nmade_up_reg, swap\n")), report
    )
    assert outcome.unknown_states == ("made_up_reg",)
    by_state = {f.state: f for f in outcome.findings}
    assert by_state["made_up_reg"].verdict == VERDICT_REDUNDANT
    assert by_state["made_up_reg"].kind == ""


def test_findings_in_natural_order():
    report = _report(("f2", True), ("f10", True), ("f1", True))
    outcome = audit(parse_manifest(_manifest("f1..f2, swap\nf10, swap\n")), report)
    assert [f.state for f in outcome.findings] == ["f1", "f2", "f10"]


def test_tied_labels_audit_alike_under_every_hash_seed(tmp_path):
    # r1, r01 and r001 differ only in leading zeros. The audit gathers its
    # labels in a set, whose order the hash seed decides, so the sort key
    # alone must order them.
    report = tmp_path / "sensitivity.json"
    report.write_text(json.dumps({"source": "Supervisor", "target": "Supervisor", "states": [
        {"state": "r1", "sensitive": True},
        {"state": "r01", "sensitive": False},
        {"state": "r001", "sensitive": True},
    ]}))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("@pair, Supervisor, Supervisor\nr01, swap, ctx\n")
    outputs = set()
    for seed in range(1, 6):
        out = tmp_path / f"out{seed}"
        proc = subprocess.run(
            [sys.executable, "-m", "sailstate", "audit", "--report", str(report),
             "--manifest", str(manifest), "--out", str(out)],
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3, proc.stderr
        outputs.add(tuple((out / name).read_bytes() for name in ("findings.txt", "findings.json")))
    assert len(outputs) == 1
    (_, findings_json), = outputs
    assert [f["state"] for f in json.loads(findings_json)["findings"]] == ["r001", "r01", "r1"]


# -- case-study manifests over the bundled corpus ------------------------------

CASES = {
    # manifest -> (ok, mishandled, timing, redundant)
    "keystone": (102, 37, 0, 1),
    "komodo": (137, 2, 0, 1),
    "salus": (69, 0, 70, 1),
    "ace": (135, 0, 0, 5),
}


@pytest.fixture(scope="module")
def outcomes(report_ss):
    out = {}
    for name in CASES:
        text = (MANIFESTS / f"{name}.csv").read_text()
        out[name] = audit(parse_manifest(text, name), report_ss)
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_study_counts(outcomes, name):
    counts = outcomes[name].counts()
    expected = CASES[name]
    got = (
        counts[VERDICT_OK],
        counts[VERDICT_MISHANDLED],
        counts[VERDICT_TIMING],
        counts[VERDICT_REDUNDANT],
    )
    assert got == expected
    assert sum(got) == 140
    assert outcomes[name].unknown_states == ()


def test_keystone_misses_fp_state_and_senvcfg(outcomes):
    mishandled = {f.state for f in outcomes["keystone"].by_verdict(VERDICT_MISHANDLED)}
    assert "senvcfg" in mishandled
    assert "senvcfg.FIOM" in mishandled
    assert {"f0", "f31", "fcsr", "fcsr.FRM"} <= mishandled
    # the monitor does save the dirty-state flag itself
    assert "mstatus.FS" not in mishandled


def test_komodo_misses_only_senvcfg(outcomes):
    mishandled = {f.state for f in outcomes["komodo"].by_verdict(VERDICT_MISHANDLED)}
    assert mishandled == {"senvcfg", "senvcfg.FIOM"}


def test_salus_lazy_fp_vector_swaps_are_timing_prone(outcomes):
    timing = {f.state for f in outcomes["salus"].by_verdict(VERDICT_TIMING)}
    assert {"f0", "v0", "vcsr", "fcsr"} <= timing
    assert all(s.startswith(("f", "v")) for s in timing)


def test_ace_swaps_insensitive_state_too(outcomes):
    redundant = {f.state for f in outcomes["ace"].by_verdict(VERDICT_REDUNDANT)}
    assert redundant == {"cycle", "mcause", "mscratch", "mstatus.MPRV", "mtval"}
    by_state = {f.state: f for f in outcomes["ace"].findings}
    assert by_state["mstatus.MPRV"].inherited  # covered by the mstatus swap


# -- serialization --------------------------------------------------------------

def test_outcome_json_round_trip(outcomes):
    doc = json.loads(outcome_to_json(outcomes["komodo"]))
    assert doc["source"] == "Supervisor"
    assert doc["summary"][VERDICT_MISHANDLED] == 2
    assert len(doc["findings"]) == 140
    senvcfg = next(f for f in doc["findings"] if f["state"] == "senvcfg")
    assert senvcfg["verdict"] == VERDICT_MISHANDLED
    assert senvcfg["classes"]


def test_outcome_text_layout():
    report = _report(("mepc", True), ("sepc", True), ("cycle", False))
    outcome = audit(
        parse_manifest(_manifest("mepc, swap\nghost0..ghost1, swap\n")), report
    )
    text = outcome_to_text(outcome)
    assert text.startswith("audit of (Supervisor -> Supervisor) context switch\n")
    assert f"{VERDICT_MISHANDLED}: 1" in text
    assert f"{VERDICT_REDUNDANT}: 2" in text
    assert "unknown states in manifest: ghost0..ghost1" in text
    assert text.endswith("\n")
