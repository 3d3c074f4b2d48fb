import gc
import json
import re
import shutil
import subprocess
import sys

import pytest

from sailstate import cli
from sailstate.backend import bundled_corpus_dir
from sailstate.cli import build_parser, main

from conftest import FIXTURES
from test_acceptance import REPO, build_workload

TRACE_MANIFEST = str(FIXTURES / "traces" / "traces.manifest")
BUG_CORPUS = str(FIXTURES / "corpora" / "bug_mem")
AUDITS = FIXTURES / "audit"


def test_scan_default_corpus(tmp_path, capsys):
    assert main(["scan", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "parsed 8 files: 19 instructions, 35 functions, 27 registers, 140 states" in out
    assert (tmp_path / "insights.csv").exists()
    assert (tmp_path / "states.csv").exists()


def test_scan_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["scan", "--out", str(a)])
    main(["scan", "--out", str(b)])
    for name in ("insights.csv", "states.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_scan_reports_opaque_spans(tmp_path, capsys):
    src = tmp_path / "odd.sail"
    src.write_text(
        "$include <prelude.sail>\n"
        "register tick : bits(64)\n"
        "function step() -> unit = { tick = tick + 1 }\n"
    )
    assert main(["scan", "--corpus", str(src), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "skipped 1 unrecognized top-level spans" in out


def test_classify_csv_and_json(tmp_path, capsys):
    rc = main([
        "classify", "--source", "Supervisor", "--target", "Supervisor",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    assert "(Supervisor -> Supervisor): 135 of 140 states sensitive" in capsys.readouterr().out
    assert (tmp_path / "sensitivity.csv").exists()

    rc = main([
        "classify", "--source", "Supervisor", "--target", "User",
        "--format", "json", "--out", str(tmp_path),
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "sensitivity.json").read_text())
    assert doc["summary"]["sensitive_states"] == 125


def test_classify_from_scan_files_matches_corpus_run(tmp_path):
    scan_dir = tmp_path / "scan"
    main(["scan", "--out", str(scan_dir)])
    direct, from_files = tmp_path / "direct", tmp_path / "files"
    args = ["classify", "--source", "Machine", "--target", "User"]
    main(args + ["--out", str(direct)])
    main(args + [
        "--insights", str(scan_dir / "insights.csv"),
        "--states", str(scan_dir / "states.csv"),
        "--out", str(from_files),
    ])
    assert (direct / "sensitivity.csv").read_bytes() == (from_files / "sensitivity.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["scan"],
    ["classify", "--source", "Machine", "--target", "User"],
    ["validate", "--traces", TRACE_MANIFEST],
    ["audit", "--manifest", "m.csv"],
])
def test_every_corpus_command_takes_merge_duplicate_clauses(argv):
    assert build_parser().parse_args([*argv, "--merge-duplicate-clauses"]).merge_duplicate_clauses


def test_classify_merges_duplicate_clauses_like_scan(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(bundled_corpus_dir(), corpus)
    shutil.copy(corpus / "insts_base.sail", corpus / "insts_base_again.sail")
    scan_dir = tmp_path / "scan"
    merge = ["--corpus", str(corpus), "--merge-duplicate-clauses"]
    assert main(["scan", *merge, "--out", str(scan_dir)]) == 0
    direct, from_files = tmp_path / "direct", tmp_path / "files"
    args = ["classify", "--source", "Machine", "--target", "User"]
    assert main(args + ["--corpus", str(corpus), "--out", str(direct)]) == 1
    assert "defined in both" in capsys.readouterr().err
    assert main(args + [*merge, "--out", str(direct)]) == 0
    assert main(args + [
        "--insights", str(scan_dir / "insights.csv"),
        "--states", str(scan_dir / "states.csv"),
        "--out", str(from_files),
    ]) == 0
    assert (direct / "sensitivity.csv").read_bytes() == (from_files / "sensitivity.csv").read_bytes()


def test_classify_rejects_half_of_the_file_pair(tmp_path, capsys):
    rc = main([
        "classify", "--source", "Machine", "--target", "User",
        "--insights", "whatever.csv", "--out", str(tmp_path),
    ])
    assert rc == 1
    assert "sailstate: error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """insights.csv, states.csv and a Supervisor -> Supervisor sensitivity.json."""
    out = tmp_path_factory.mktemp("saved")
    assert main(["scan", "--out", str(out)]) == 0
    assert main([
        "classify", "--source", "Supervisor", "--target", "Supervisor",
        "--format", "json", "--out", str(out),
    ]) == 0
    return out


@pytest.mark.parametrize("flags", [
    ["--corpus", "/nonexistent/dir"],
    ["--merge-duplicate-clauses"],
    ["--no-include-baseline"],
    ["--corpus", "/nonexistent/dir", "--merge-duplicate-clauses", "--no-include-baseline"],
])
@pytest.mark.parametrize("command", ["classify", "validate", "audit"])
def test_corpus_flags_are_rejected_with_saved_inputs(tmp_path, capsys, saved, command, flags):
    files = ["--insights", str(saved / "insights.csv"), "--states", str(saved / "states.csv")]
    argv = {
        "classify": ["classify", "--source", "Machine", "--target", "User", *files],
        "validate": ["validate", "--traces", TRACE_MANIFEST, *files],
        "audit": ["audit", "--manifest", str(AUDITS / "komodo.csv"),
                  "--report", str(saved / "sensitivity.json")],
    }[command]
    out = tmp_path / "out"
    assert main([*argv, *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "sailstate: error:" in err
    for flag in flags:
        if flag.startswith("--"):
            assert flag in err
    assert not out.exists()


def test_validate_bundled_corpus_passes(tmp_path, capsys):
    rc = main(["validate", "--traces", TRACE_MANIFEST, "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "validation.json").read_text())
    assert doc["summary"]["superset_violations"] == 0
    by_name = {r["name"]: r for r in doc["results"]}
    assert by_name["SC"]["unknown_registers"] == ["SEE"]
    assert by_name["FARITH"]["trace_files"]


def test_validation_json_does_not_depend_on_the_trace_directory(tmp_path):
    docs = []
    for where in ("one", "two/deeper"):
        traces = tmp_path / where / "traces"
        shutil.copytree(FIXTURES / "traces", traces)
        out = tmp_path / where / "out"
        assert main(["validate", "--traces", str(traces / "traces.manifest"), "--out", str(out)]) == 0
        docs.append((out / "validation.json").read_bytes())
    assert docs[0] == docs[1]
    by_name = {r["name"]: r for r in json.loads(docs[0])["results"]}
    assert by_name["MRET"]["trace_files"] == ["mret_m.trace", "mret_s.trace"]


def test_validate_flags_bug_corpus(tmp_path, capsys):
    rc = main([
        "validate", "--corpus", BUG_CORPUS,
        "--traces", TRACE_MANIFEST, "--out", str(tmp_path),
    ])
    assert rc == 2
    out = capsys.readouterr().out
    assert "superset_violation" in out
    doc = json.loads((tmp_path / "validation.json").read_text())
    flagged = sorted(
        r["name"] for r in doc["results"] if r["status"] == "superset_violation"
    )
    assert flagged == ["SC", "SD", "SW"]


@pytest.mark.parametrize(
    ("name", "expected_rc"),
    [("keystone", 3), ("komodo", 3), ("salus", 4), ("ace", 0)],
)
def test_audit_exit_codes(tmp_path, capsys, name, expected_rc):
    rc = main([
        "audit", "--manifest", str(AUDITS / f"{name}.csv"),
        "--source", "Supervisor", "--target", "Supervisor",
        "--out", str(tmp_path),
    ])
    assert rc == expected_rc
    assert (tmp_path / "findings.json").exists()
    assert (tmp_path / "findings.txt").exists()
    assert "(Supervisor -> Supervisor): ok=" in capsys.readouterr().out


def test_audit_accepts_saved_report(tmp_path, capsys):
    main([
        "classify", "--source", "Supervisor", "--target", "Supervisor",
        "--format", "json", "--out", str(tmp_path),
    ])
    rc = main([
        "audit", "--manifest", str(AUDITS / "komodo.csv"),
        "--report", str(tmp_path / "sensitivity.json"),
        "--out", str(tmp_path),
    ])
    assert rc == 3
    doc = json.loads((tmp_path / "findings.json").read_text())
    assert doc["summary"]["mishandled_not_swapped"] == 2


def test_audit_needs_report_or_mode_pair(tmp_path, capsys):
    rc = main([
        "audit", "--manifest", str(AUDITS / "komodo.csv"), "--out", str(tmp_path)
    ])
    assert rc == 1
    assert "either --report or both --source and --target" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    for argv in (["frobnicate"], ["classify", "--source", "Machine"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_unreadable_corpus_exits_one(tmp_path, capsys):
    rc = main(["scan", "--corpus", str(tmp_path / "gone.sail"), "--out", str(tmp_path)])
    assert rc == 1
    assert "sailstate: error:" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sailstate", "scan", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "parsed 8 files" in proc.stdout


def _set_collector(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("argv, outcome", [
    (["scan"], 0),
    (["audit", "--manifest", "gone.csv", "--source", "Supervisor", "--target", "Supervisor"], 1),
    (["scan", "--no-such-flag"], SystemExit),
    (["scan"], RuntimeError),
])
@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_state(tmp_path, monkeypatch, argv, outcome, enabled):
    seen = []
    real_scan = cli.cmd_scan

    def spy_scan(args):
        seen.append(gc.isenabled())
        if outcome is RuntimeError:
            raise RuntimeError("unexpected")
        return real_scan(args)

    monkeypatch.setattr(cli, "cmd_scan", spy_scan)
    was_enabled = gc.isenabled()
    try:
        _set_collector(enabled)
        if isinstance(outcome, int):
            assert main([*argv, "--out", str(tmp_path)]) == outcome
        else:
            with pytest.raises(outcome):
                main([*argv, "--out", str(tmp_path)])
        assert gc.isenabled() is enabled
    finally:
        _set_collector(was_enabled)
    # The collector is off while a command runs, whatever the caller had.
    assert seen == ([False] if argv == ["scan"] else [])


def _cyclic_garbage_of_scan(corpus, out) -> int:
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(["scan", "--corpus", str(corpus), "--out", str(out)]) == 0
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_scan_cyclic_garbage_does_not_grow_with_the_corpus(tmp_path):
    """`main` pauses the cyclic collector for a whole command. That is only
    safe while the analysis data holds no reference cycles: otherwise the
    memory a paused command cannot free grows with the corpus. So the
    cyclic garbage of a scan (argparse's own objects) must not depend on how
    many bodies the corpus has."""
    large = build_workload("wide", 1, REPO, tmp_path / "large", copies=4).root / "corpus"
    small_garbage = _cyclic_garbage_of_scan(bundled_corpus_dir(), tmp_path / "small_out")
    large_garbage = _cyclic_garbage_of_scan(large, tmp_path / "large_out")
    assert small_garbage == large_garbage


def test_bank_accessor_without_its_register_reads_no_elements(tmp_path):
    """A corpus may call a bank accessor without declaring the bank's
    register; the bank then has no elements to read or write."""
    src = tmp_path / "nobank.sail"
    src.write_text(
        "register pc : bits(64)\n"
        "function step() -> unit = { pc = pc + 4 }\n"
        "function clause execute ADDI(rd) = { X(rd) = X(rd) + 1 }\n"
    )
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "sailstate", "scan", "--corpus", str(src), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "1 instructions, 1 functions, 1 registers, 1 states" in proc.stdout
    insights = (out / "insights.csv").read_text()
    assert "ADDI," in insights and "pc" in insights
    assert not re.search(r"\bx\d", insights)


BAD_LITERAL_CORPORA = {
    "bits_width_leading_zero": "register r : bits(08)\n",
    "bits_width_bare_binary_prefix": "register r : bits(0b_)\n",
    "vector_size_bare_hex_prefix": "register v : vector(0x_, bits(8))\n",
    "bitfield_range_string": 'bitfield B : bits(8) = { A : "x" .. 0 }\n',
    "mapping_address_bare_hex_prefix": 'mapping clause csr_name_map = 0x_ <-> "r"\n',
    "type_alias_leading_zero": "type t = bits(09)\n",
    "permission_slice_bare_hex_prefix":
        "function csr_access_ok(csr) = { let m = csr[0x_ .. 8]; m }\n",
    "permission_read_only_bare_binary_prefix":
        "function csr_access_ok(csr) = { let r = csr[11 .. 10] == 0b_; r }\n",
}


# Flags that a saved --report makes meaningless; missing files would go unread.
FLAGS_IGNORED_BY_REPORT = {
    "report_with_source": ["--source", "Machine"],
    "report_with_target": ["--target", "User"],
    "report_with_insights": ["--insights", "gone.csv"],
    "report_with_states": ["--states", "gone.csv"],
}


# Edits to the states of a saved sensitivity.json that make it malformed.
REPORT_EDITS = {
    "report_state_is_a_number": lambda states: states[1].update(state=5),
    "report_state_is_null": lambda states: states[1].update(state=None),
    "report_classes_is_a_string": lambda states: states[1].update(classes="SideChannel"),
    "report_repeats_a_state": lambda states: states[1].update(state=states[0]["state"]),
    "report_state_is_empty": lambda states: states[1].update(state=""),
}


# Saved sensitivity.json texts that json.loads cannot turn into a document.
UNREADABLE_REPORTS = {
    "report_not_json": '{"source": \n',
    "report_nested_too_deep": "[" * 100_000,
    "report_number_too_long": '{"source": ' + "9" * 5000 + "}\n",
}


def _bad_input_argv(case, tmp_path):
    """Arguments that feed `case`'s broken input file to the CLI."""
    if case in BAD_LITERAL_CORPORA:
        src = tmp_path / "bad.sail"
        src.write_text(BAD_LITERAL_CORPORA[case])
        return ["scan", "--corpus", str(src)]
    if case == "manifest_range_too_wide":
        manifest = tmp_path / "wide.csv"
        manifest.write_text("@pair, Supervisor, Supervisor\nx0..x1000000, swap\n")
        return ["audit", "--manifest", str(manifest),
                "--source", "Supervisor", "--target", "Supervisor"]
    if case == "manifest_empty_state":
        manifest = tmp_path / "empty.csv"
        manifest.write_text("@pair, Supervisor, Supervisor\n, swap\n")
        return ["audit", "--manifest", str(manifest),
                "--source", "Supervisor", "--target", "Supervisor"]
    scan = tmp_path / "scan"
    main(["scan", "--out", str(scan)])
    states = scan / "states.csv"
    komodo = str(AUDITS / "komodo.csv")
    if case in FLAGS_IGNORED_BY_REPORT or case in REPORT_EDITS:
        main(["classify", "--source", "Supervisor", "--target", "Supervisor",
              "--format", "json", "--out", str(scan)])
        report = scan / "sensitivity.json"
        if case in REPORT_EDITS:
            doc = json.loads(report.read_text())
            REPORT_EDITS[case](doc["states"])
            report.write_text(json.dumps(doc))
        return ["audit", "--manifest", komodo, "--report", str(report),
                *FLAGS_IGNORED_BY_REPORT.get(case, [])]
    if case == "insights_range_too_wide":
        insights = scan / "insights.csv"
        rows = insights.read_text().splitlines()
        name, privileges, _explicit_reads, *rest = rows[3].split(",", 3)
        rows[3] = ",".join([name, privileges, "x0..x1000000", *rest])
        insights.write_text("\n".join(rows) + "\n")
        return ["classify", "--source", "Machine", "--target", "User",
                "--insights", str(insights), "--states", str(states)]
    if case == "insights_unknown_mode":
        # Saved by a backend with a Hypervisor mode, read with the bundled one.
        insights = scan / "insights.csv"
        rows = insights.read_text().splitlines()
        name, _privileges, rest = rows[3].split(",", 2)
        rows[3] = ",".join([name, "Supervisor Hypervisor", rest])
        insights.write_text("\n".join(rows) + "\n")
        return ["classify", "--source", "Machine", "--target", "User",
                "--insights", str(insights), "--states", str(states)]
    if case == "missing_manifest":
        return ["audit", "--manifest", str(tmp_path / "gone.csv"),
                "--source", "Supervisor", "--target", "Supervisor"]
    if case == "missing_insights":
        return ["classify", "--source", "Machine", "--target", "User",
                "--insights", str(tmp_path / "gone.csv"), "--states", str(states)]
    if case == "report_without_states":
        report = tmp_path / "sensitivity.json"
        report.write_text('{"source": "Supervisor", "target": "Supervisor"}\n')
        return ["audit", "--manifest", komodo, "--report", str(report)]
    if case in UNREADABLE_REPORTS:
        report = tmp_path / "sensitivity.json"
        report.write_text(UNREADABLE_REPORTS[case])
        return ["audit", "--manifest", komodo, "--report", str(report)]
    not_utf8 = tmp_path / "not_utf8"
    not_utf8.write_bytes(b"\xff\xfe")
    if case == "corpus_not_utf8":
        return ["scan", "--corpus", str(not_utf8)]
    if case == "backend_not_utf8":
        return ["scan", "--backend", str(not_utf8)]
    if case == "trace_not_utf8":
        manifest = tmp_path / "traces.manifest"
        manifest.write_text("not_utf8, ADD, instruction, -\n")
        return ["validate", "--traces", str(manifest)]
    rows = states.read_text().splitlines()
    label, kind, width, address, *rest = rows[1].split(",")
    if case == "states_width_not_integer":
        width = "sixtyfour"
    elif case == "states_address_not_hex":
        address = "0xZZZ"
    rows[1] = ",".join([label, kind, width, address, *rest])
    if case == "repeated_states_row":
        rows.insert(2, rows[1])
    states.write_text("\n".join(rows) + "\n")
    return ["classify", "--source", "Machine", "--target", "User",
            "--insights", str(scan / "insights.csv"), "--states", str(states)]


@pytest.mark.parametrize("case", [
    "missing_manifest",
    "missing_insights",
    "report_without_states",
    *UNREADABLE_REPORTS,
    "corpus_not_utf8",
    "backend_not_utf8",
    "trace_not_utf8",
    "states_width_not_integer",
    "states_address_not_hex",
    "manifest_range_too_wide",
    "manifest_empty_state",
    "insights_range_too_wide",
    "insights_unknown_mode",
    "repeated_states_row",
    *FLAGS_IGNORED_BY_REPORT,
    *REPORT_EDITS,
    *BAD_LITERAL_CORPORA,
])
def test_bad_input_files_exit_one_without_traceback(tmp_path, case):
    argv = _bad_input_argv(case, tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "sailstate", *argv, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert "sailstate: error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    if case.startswith("states_"):
        assert "states.csv:2:" in proc.stderr
    if case in BAD_LITERAL_CORPORA:
        assert "bad.sail:1:" in proc.stderr
    if case == "manifest_range_too_wide":
        assert "wide.csv:2: label range 'x0..x1000000'" in proc.stderr
    if case == "insights_range_too_wide":
        assert "insights.csv:4: label range 'x0..x1000000'" in proc.stderr
    if case in FLAGS_IGNORED_BY_REPORT:
        assert f"{FLAGS_IGNORED_BY_REPORT[case][0]} cannot be combined with --report" in proc.stderr
    if case in REPORT_EDITS:
        assert "sensitivity.json: " in proc.stderr
    if case in UNREADABLE_REPORTS:
        assert "sensitivity.json: invalid JSON: " in proc.stderr
    if case == "manifest_empty_state":
        assert "empty.csv:2: empty state name" in proc.stderr
    if case == "repeated_states_row":
        assert "states.csv:3: duplicate state 'PC'" in proc.stderr
    if case == "insights_unknown_mode":
        assert "runs in unknown mode 'Hypervisor'; expected one of User, Supervisor, Machine" in proc.stderr


def _run(*argv):
    return subprocess.run([sys.executable, "-m", "sailstate", *argv], capture_output=True, text=True)


BROKEN_CASES = (FIXTURES / "broken" / "cases.txt").read_text().splitlines()


@pytest.mark.parametrize("row", BROKEN_CASES, ids=lambda row: row.split("|")[0].rsplit("/", 1)[-1])
def test_broken_input_exits_one_with_its_error_line(tmp_path, row):
    """Each `argv|error line` row of cases.txt, the table the CI
    console-script step also reads; argv splits on whitespace, as bash
    splits it there, and {root} in the error line is the checkout root."""
    args, expected = row.split("|", 1)
    expected = expected.replace("{root}", str(REPO))
    proc = subprocess.run(
        [sys.executable, "-m", "sailstate", *args.split(), "--out", str(tmp_path / "out")],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, cwd=REPO,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == f"sailstate: error: {expected}\n"


def test_a_state_label_made_twice_exits_one(tmp_path):
    """A register named like a bank element would lose one maker's states
    from the table. Two banks with one prefix are a row of cases.txt."""
    regs = tmp_path / "regs.sail"
    regs.write_text(
        "register cur_privilege : Privilege\n"
        "register Xs : vector(4, dec, bits(8))\nregister x2 : bits(8)\n"
        "function step() -> unit = ()\n"
    )
    ini = tmp_path / "backend.ini"
    ini.write_text(
        "[modes]\norder = User, Machine\n"
        "[state]\ncurrent_privilege_register = cur_privilege\ngpr_bank = Xs\ngpr_prefix = x\n"
        "[dispatch]\nentry_functions = step\n"
    )
    proc = _run("scan", "--corpus", str(regs), "--backend", str(ini), "--out", str(tmp_path / "x2"))
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"{ini}: state 'x2' names both an element of bank register 'Xs' and register 'x2'" in proc.stderr


def test_a_permission_slice_of_any_width_scans(tmp_path, capsys):
    """The level slice csr[10**20 .. 8] reads address bits 8 and up; no mask
    of 10**20 bits is built."""
    corpus = tmp_path / "corpus"
    shutil.copytree(bundled_corpus_dir(), corpus)
    regs = corpus / "sys_regs.sail"
    regs.write_text(regs.read_text().replace("csr[9 .. 8]", f"csr[{10**20} .. 8]"))
    assert main(["scan", "--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 0
    assert "140 states" in capsys.readouterr().out


@pytest.mark.parametrize("size", [4096, 4097])
def test_a_register_bank_holds_at_most_4096_elements(tmp_path, capsys, size):
    corpus = tmp_path / "bank.sail"
    corpus.write_text(
        f"register cur_privilege : bits(2)\nregister Xs : vector({size}, dec, bits(64))\n"
        "function step() = ()\n"
    )
    code = main(["scan", "--corpus", str(corpus), "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    if size == 4096:
        assert (code, err) == (0, "")
        assert "4097 states" in out
    else:
        assert code == 1
        assert err == (
            f"sailstate: error: {corpus}: bank register 'Xs' has 4097 elements, more than 4096\n"
        )


@pytest.mark.parametrize("edit, message", [
    ({"mstatus": ("Bogus", "Machine")}, "state 'mstatus' is readable in unknown mode 'Bogus'"),
    ({"mstatus": ("Machine", "Machine Bogus")}, "state 'mstatus' is writable in unknown mode 'Bogus'"),
    ({"mstatus": ("Hyper", "Bogus")}, "state 'mstatus' is readable in unknown mode 'Hyper'"),
    ({"mstatus": ("Machine", "Bogus"), "mepc": ("Hyper", "")}, "state 'mepc' is readable in unknown mode 'Hyper'"),
    ({"mstatus": ("Hyper", ""), "mepc": ("Machine", "Bogus")}, "state 'mepc' is writable in unknown mode 'Bogus'"),
])
def test_states_csv_mode_cells_must_be_backend_modes(tmp_path, edit, message):
    """A saved mode that the backend lacks is an error at its line, not a
    flag that no mode can hold; readable is checked before writable, and
    the first faulty row in file order is named."""
    scan = tmp_path / "scan"
    main(["scan", "--out", str(scan)])
    states = scan / "states.csv"
    rows = states.read_text().splitlines()
    edited = []
    for i, row in enumerate(rows):
        cells = row.split(",")
        if cells[0] in edit:
            cells[5:7] = edit[cells[0]]
            rows[i] = ",".join(cells)
            edited.append(i + 1)
    states.write_text("\n".join(rows) + "\n")
    proc = _run(
        "classify", "--insights", str(scan / "insights.csv"), "--states", str(states),
        "--source", "Supervisor", "--target", "Supervisor", "--out", str(tmp_path / "out"),
    )
    assert proc.returncode == 1, proc.stderr
    where = f"{states}:{edited[0]}"  # every edited row is faulty
    assert proc.stderr == f"sailstate: error: {where}: {message}; expected one of User, Supervisor, Machine\n"


def test_stray_bracket_in_the_corpus_exits_one(tmp_path):
    """A stray `)` in one mapping clause is an error at that bracket. It
    must not turn the rest of the file into one span that is dropped, which
    would hide `csr_access_ok`, `readCSR` and `writeCSR`."""
    corpus = tmp_path / "corpus"
    shutil.copytree(bundled_corpus_dir(), corpus)
    regs = corpus / "sys_regs.sail"
    text = regs.read_text(encoding="utf-8")
    assert text.count("= 0x180 <->") == 1
    regs.write_text(text.replace("= 0x180 <->", "= 0x180) <->"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "sailstate", "scan", "--corpus", str(corpus), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"{regs}:82:36: unbalanced ')'" in proc.stderr


def test_long_bad_literal_is_quoted_short(tmp_path):
    """A 6,000-digit width is past int()'s digit limit. The error names
    where it is and quotes only the start of the literal."""
    src = tmp_path / "long.sail"
    src.write_text("\n\nregister r : bits(" + "9" * 6000 + ")\n")
    proc = subprocess.run(
        [sys.executable, "-m", "sailstate", "scan", "--corpus", str(src), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.encode()) < 200, proc.stderr
    assert f"{src}:3:19: bad numeric literal '{'9' * 32}'... (6000 characters)" in proc.stderr


# Output paths that cannot be written, and the command that writes them.
UNWRITABLE_OUTPUTS = {
    "scan_out_is_a_file": (["scan"], None),
    "scan_insights_is_a_directory": (["scan"], "insights.csv"),
    "classify_json_is_a_directory": (
        ["classify", "--source", "Supervisor", "--target", "Supervisor", "--format", "json"],
        "sensitivity.json",
    ),
    "audit_findings_is_a_directory": (
        ["audit", "--manifest", str(AUDITS / "komodo.csv"),
         "--source", "Supervisor", "--target", "Supervisor"],
        "findings.json",
    ),
}


@pytest.mark.parametrize("case", UNWRITABLE_OUTPUTS)
def test_unwritable_outputs_exit_one_without_traceback(tmp_path, case):
    argv, blocked = UNWRITABLE_OUTPUTS[case]
    out = tmp_path / "out"
    if blocked is None:
        out.write_text("a file, not a directory\n")
        blocked_path = out
    else:
        blocked_path = out / blocked
        blocked_path.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, "-m", "sailstate", *argv, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert f"sailstate: error: cannot write {blocked_path}" in proc.stderr
    assert "Traceback" not in proc.stderr


LONG_LABEL = "x" + "9" * 5000  # more digits than int() converts from a string


@pytest.mark.parametrize("case, expected_rc", [
    ("states_long_label", 0),
    ("manifest_long_label", 3),
    ("manifest_superscript_digit", 3),
    ("states_label_with_empty_field", 1),
])
def test_odd_labels_keep_normal_exit_codes(tmp_path, case, expected_rc):
    scan = tmp_path / "scan"
    main(["scan", "--out", str(scan)])
    if case.startswith("states_"):
        states = scan / "states.csv"
        if case == "states_long_label":
            states.write_text(states.read_text() + f"{LONG_LABEL},internal,64,,,,\n")
        else:
            # Labels are used as written, so 'PC.' does not name the state PC.
            states.write_text(states.read_text().replace("\nPC,", "\nPC.,", 1))
        argv = ["classify", "--source", "Supervisor", "--target", "Supervisor",
                "--insights", str(scan / "insights.csv"), "--states", str(states)]
    else:
        main(["classify", "--source", "Supervisor", "--target", "Supervisor",
              "--format", "json", "--out", str(scan)])
        label = LONG_LABEL if case == "manifest_long_label" else "a1²"
        manifest = tmp_path / "komodo.csv"
        manifest.write_text((AUDITS / "komodo.csv").read_text() + f"{label}, swap\n")
        argv = ["audit", "--manifest", str(manifest), "--report", str(scan / "sensitivity.json")]
    proc = subprocess.run(
        [sys.executable, "-m", "sailstate", *argv, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expected_rc, proc.stderr
    assert "Traceback" not in proc.stderr
    if case == "states_label_with_empty_field":
        assert "unknown state 'PC'" in proc.stderr
