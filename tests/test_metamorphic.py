"""Metamorphic tests of the whole pipeline.

Each transform below changes a corpus in a way that must not change any
result: the file order, comments and whitespace between tokens, the names of
functions and of the registers the backend INI does not name, and where a
file is split. Scan, classify, validate and audit must then give
byte-identical outputs (for renames, once the names are mapped back). A
last test runs the CLI under two `PYTHONHASHSEED` values.
"""

from __future__ import annotations

import csv
import functools
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from sailstate.audit import audit, outcome_to_json, outcome_to_text, parse_manifest
from sailstate.backend import bundled_backend_path, bundled_corpus_dir, load_backend
from sailstate.classifier import (
    SENSITIVITY_COLUMNS,
    build_access_matrix,
    classify_all,
    report_to_json,
    sensitivity_rows,
)
from sailstate.errors import SailstateError
from sailstate.footprint import INSIGHTS_COLUMNS, insight_rows, instruction_insights
from sailstate.isa_model import STATES_COLUMNS, derive_explicit_access, discover_states, state_rows
from sailstate.parser import parse_corpus
from sailstate.traces import load_traces, report_to_json as validation_to_json, validate

from conftest import FIXTURES

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))
from corpus import declared_names, renamer  # noqa: E402

CORPORA = ("bundled", "bug_mem", "guards", "hyper", "perm")
TRACES = FIXTURES / "traces"
MANIFESTS = sorted((FIXTURES / "audit").glob("*.csv"))
PAIRS = (("Supervisor", "Supervisor"), ("User", "Machine"))

# Each example runs the whole pipeline, so a failure is reported as found:
# shrinking a random edit of a corpus would rerun it hundreds of times.
_SETTINGS = settings(
    derandomize=True, max_examples=3, deadline=None, phases=[Phase.explicit, Phase.generate],
    suppress_health_check=[HealthCheck.too_slow],
)


def _source(name: str) -> tuple[dict[str, str], str]:
    """The corpus's files as {file name: text}, and its backend INI path."""
    root = Path(bundled_corpus_dir()) if name == "bundled" else FIXTURES / "corpora" / name
    ini = root / "backend.ini"
    files = {p.name: p.read_text(encoding="utf-8") for p in sorted(root.glob("*.sail"))}
    return files, str(ini if ini.exists() else bundled_backend_path())


def _csv(columns, rows) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _outputs(paths: list[Path], ini: str, traces: Path, manifests: list[Path]) -> dict[str, str]:
    """Every output of scan, classify, validate and audit, by name; a step
    that raises gives its message instead."""
    backend = load_backend(ini)
    out: dict[str, str] = {}
    try:
        model = parse_corpus(paths)
        table = discover_states(model, backend)
        explicit = derive_explicit_access(model, backend, table)
        insights = instruction_insights(model, backend)
    except SailstateError as exc:
        return {"scan": f"error: {exc}"}
    out["insights.csv"] = _csv(INSIGHTS_COLUMNS, insight_rows(insights, backend))
    out["states.csv"] = _csv(STATES_COLUMNS, state_rows(table, explicit, backend))
    matrix = build_access_matrix(insights, explicit, table, backend)
    reports = {}
    for source in backend.mode_order:
        for target in backend.mode_order:
            report = reports[source, target] = classify_all(source, target, matrix)
            if (source, target) in PAIRS:
                out[f"{source}_{target}.json"] = report_to_json(report)
                out[f"{source}_{target}.csv"] = _csv(SENSITIVITY_COLUMNS, sensitivity_rows(report))
    try:
        out["validation.json"] = validation_to_json(validate(insights, load_traces(str(traces)), table))
    except SailstateError as exc:
        out["validation.json"] = f"error: {exc}"
    for path in manifests:
        manifest = parse_manifest(path.read_text(encoding="utf-8"), path.name)
        report = reports.get((manifest.source, manifest.target))
        if report is None:
            continue
        outcome = audit(manifest, report)
        out[f"{path.stem}.json"] = outcome_to_json(outcome)
        out[f"{path.stem}.txt"] = outcome_to_text(outcome)
    return out


def _write(root: Path, files: dict[str, str]) -> list[Path]:
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
        paths.append(root / name)
    return paths


@functools.cache
def _baseline(name: str) -> dict[str, str]:
    files, ini = _source(name)
    with tempfile.TemporaryDirectory() as tmp:
        return _outputs(_write(Path(tmp), files), ini, TRACES / "traces.manifest", MANIFESTS)


def _run(name: str, files: dict[str, str], order=None) -> dict[str, str]:
    _, ini = _source(name)
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write(Path(tmp), files)
        if order is not None:
            paths = [paths[i] for i in order]
        return _outputs(paths, ini, TRACES / "traces.manifest", MANIFESTS)


def test_baselines_cover_every_step():
    for name in CORPORA:
        got = _baseline(name)
        assert "insights.csv" in got and "states.csv" in got, name
        assert not got["insights.csv"].startswith("error"), name
        assert sum(k.endswith(".txt") for k in got) >= 2, name


# -- permute the file order ---------------------------------------------------

@pytest.mark.parametrize("name", CORPORA)
@_SETTINGS
@given(rnd=st.randoms(use_true_random=False))
def test_file_order_does_not_matter(name, rnd):
    files, _ = _source(name)
    order = list(range(len(files)))
    rnd.shuffle(order)
    assert _run(name, files, order) == _baseline(name)


# -- comments and whitespace between tokens -----------------------------------

_FILLERS = (
    " ", "\n", "\t", "  \n\t ", "// injected\n", "//\n", "/* c */", "/* a /* nested */ b */",
    "/*\n * multi\n */", "/**/", "/* // not a line comment */",
)


def _gaps(text: str) -> list[int]:
    """Offsets between two tokens, outside comments and strings: the start of
    every whitespace run and the end of every one-character bracket or
    separator. A small scanner of its own, not sailstate's tokenizer."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            i = text.find("\n", i)
            if i < 0:
                break
            continue
        if text.startswith("/*", i):
            depth, i = 1, i + 2
            while depth:
                if text.startswith("/*", i):
                    depth, i = depth + 1, i + 2
                elif text.startswith("*/", i):
                    depth, i = depth - 1, i + 2
                else:
                    i += 1
            continue
        if c == '"':
            i += 1
            while text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            i += 1
            continue
        if c in " \t\n":
            out.append(i)
            while i < n and text[i] in " \t\r\n":
                i += 1
            continue
        if c in "()[]{},;":
            out.append(i + 1)
        i += 1
    return out


def _inject(text: str, rnd, count: int) -> str:
    gaps = _gaps(text)
    chosen = sorted(rnd.sample(gaps, min(count, len(gaps))), reverse=True)
    for at in chosen:
        text = text[:at] + rnd.choice(_FILLERS) + text[at:]
    return text


@pytest.mark.parametrize("name", CORPORA)
@_SETTINGS
@given(rnd=st.randoms(use_true_random=False))
def test_comments_and_whitespace_between_tokens_do_not_matter(name, rnd):
    files, _ = _source(name)
    injected = {k: _inject(v, rnd, 1 + len(v) // 40) for k, v in files.items()}
    assert injected != files
    assert _run(name, injected) == _baseline(name)


# -- rename functions and the registers the INI does not name -----------------

def _renamable(files: dict[str, str], ini: str) -> set[str]:
    named = set(re.findall(r"\w+", Path(ini).read_text(encoding="utf-8")))
    names: set[str] = set()
    for text in files.values():
        names |= declared_names(text, ("function",)) | declared_names(text, ("register",))
    # `function clause NAME` is a scattered clause; its regex match is the
    # keyword `clause`, which is no name.
    return {n for n in names if n not in named and n != "clause"}


def _unrename(outputs: dict[str, str], names: set[str], suffix: str) -> dict[str, str]:
    """Map the names back. Sorting by name and padding to a column can move
    text, so each output is compared as its sorted lines with runs of spaces
    collapsed."""
    renamed = re.compile(
        r"(?<![\w'])(" + "|".join(re.escape(n + suffix) for n in sorted(names, key=len, reverse=True))
        + r")(?![\w'])"
    )

    def canon(text: str) -> list[str]:
        text = renamed.sub(lambda m: m.group(1)[: -len(suffix)], text)
        return sorted(re.sub(r" +", " ", line) for line in text.splitlines())

    return {k: canon(v) for k, v in outputs.items()}


@pytest.mark.parametrize("name", CORPORA)
@_SETTINGS
@given(suffix=st.text("abcdefghijklmnopqrstuvwxyz", min_size=3, max_size=6))
def test_renaming_functions_and_registers_does_not_matter(name, suffix):
    suffix = "_z" + suffix
    files, ini = _source(name)
    names = _renamable(files, ini)
    assert names
    rename = renamer(names, suffix)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = _write(tmp / "corpus", {k: rename(v) for k, v in files.items()})
        _write(tmp / "traces", {p.name: rename(p.read_text(encoding="utf-8")) for p in TRACES.iterdir()})
        manifests = _write(tmp / "audit", {p.name: rename(p.read_text(encoding="utf-8")) for p in MANIFESTS})
        got = _outputs(paths, ini, tmp / "traces" / "traces.manifest", manifests)
    assert _unrename(got, names, suffix) == _unrename(_baseline(name), names, suffix)


# -- split a file in two at a top-level declaration ---------------------------

_DECL = re.compile(
    r"^(?:function|register|bitfield|mapping|val|type|enum|union|struct|overload|scattered|let)\b",
    re.MULTILINE,
)


@pytest.mark.parametrize("name", CORPORA)
@_SETTINGS
@given(rnd=st.randoms(use_true_random=False))
def test_splitting_a_file_does_not_matter(name, rnd):
    files, _ = _source(name)
    stems = sorted(files)
    target = rnd.choice([k for k in stems if len(_DECL.findall(files[k])) > 1])
    cut = rnd.choice([m.start() for m in _DECL.finditer(files[target])][1:])
    # Numbered names keep the files in the same sorted order.
    split = {}
    for rank, stem in enumerate(stems):
        text = files[stem]
        if stem == target:
            split[f"{rank:02d}a_{stem}"] = text[:cut]
            split[f"{rank:02d}b_{stem}"] = text[cut:]
        else:
            split[f"{rank:02d}_{stem}"] = text
    assert _run(name, split) == _baseline(name)


# -- hash seeds -----------------------------------------------------------------

def test_cli_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    golden = FIXTURES / "golden"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    for seed in ("0", "1"):
        out = tmp_path / seed
        subprocess.run(
            [sys.executable, "-m", "sailstate", "scan", "--corpus",
             str(FIXTURES / "corpora" / "bug_mem"), "--out", str(out)],
            env={**env, "PYTHONHASHSEED": seed}, check=True, capture_output=True,
        )
        for filename in ("insights.csv", "states.csv"):
            assert (out / filename).read_bytes() == (golden / "bug_mem" / filename).read_bytes()
        subprocess.run(
            [sys.executable, "-m", "sailstate", "classify", "--source", "Supervisor",
             "--target", "Supervisor", "--format", "json", "--out", str(out)],
            env={**env, "PYTHONHASHSEED": seed}, check=True, capture_output=True,
        )
        want = golden / "classify_Supervisor_Supervisor" / "sensitivity.json"
        assert (out / "sensitivity.json").read_bytes() == want.read_bytes()
        # A pair of two modes also runs the swapped pair's side-channel sets.
        subprocess.run(
            [sys.executable, "-m", "sailstate", "classify", "--source", "User",
             "--target", "Machine", "--format", "json", "--out", str(out / "um")],
            env={**env, "PYTHONHASHSEED": seed}, check=True, capture_output=True,
        )
        want = golden / "classify_User_Machine" / "sensitivity.json"
        assert (out / "um" / "sensitivity.json").read_bytes() == want.read_bytes()
