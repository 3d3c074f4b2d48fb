"""Workload inputs for the benchmark: corpora, trace manifests, swap manifests.

Standard library only. Names to rename are found with this module's own
regex over the Sail declarations, never with sailstate's parser, so the
inputs do not depend on the code under test. The seed picks every copy's
suffix and the order of the generated files.

Workloads:

  bundled  the shipped RISC-V mini model, its 10 trace fixtures and the 4
           audit case studies, as shipped.
  wide     disjoint renamed copies of the whole model. Copy 0 keeps the
           original names, so the backend INI still recognises its banks,
           CSR helpers and dispatch entry; copies 1.. rename every declared
           register, bitfield, function, clause, mapping, type alias and val.
  shared   the three insts_*.sail files copied, renaming only their execute
           clauses and the helpers they define. The system files stay single,
           so every copy reaches one shared function graph over one state set.
"""

from __future__ import annotations

import random
import re
import shutil
import string
from dataclasses import dataclass
from pathlib import Path

CORPUS_DIR = Path("src/sailstate/data/riscv_mini")
TRACE_DIR = Path("tests/fixtures/traces")
AUDIT_DIR = Path("tests/fixtures/audit")
CASE_STUDIES = ("ace", "keystone", "komodo", "salus")
DISPATCH_FILE = "step"  # holds the backend's dispatch entry function

WIDE_COPIES = 80
SHARED_COPIES = 150

# Top-level declarations whose names a copy renames. Enum names and members
# are the privilege vocabulary shared with the backend and stay as they are;
# `execute` is structural.
DECL_RE = re.compile(
    r"""^[ \t]*(?:
        function[ \t]+clause[ \t]+execute[ \t]+(?P<clause>[A-Za-z_]\w*)
      | mapping[ \t]+clause[ \t]+(?P<mapping>[A-Za-z_]\w*)
      | register[ \t]+(?P<register>[A-Za-z_]\w*)
      | bitfield[ \t]+(?P<bitfield>[A-Za-z_]\w*)
      | function[ \t]+(?P<function>[A-Za-z_]\w*)
      | type[ \t]+(?P<type>[A-Za-z_]\w*)
      | val[ \t]+(?P<val>[A-Za-z_]\w*)
    )""",
    re.MULTILINE | re.VERBOSE,
)

# The register operand of a trace event; fields are written (field |F|).
_TRACE_REG_RE = re.compile(r"\((read-reg|write-reg)(\s+)\|([A-Za-z_]\w*)\|")


def declared_names(text: str, kinds: tuple[str, ...] | None = None) -> set[str]:
    """Names declared at top level in one Sail file, optionally by kind."""
    names: set[str] = set()
    for m in DECL_RE.finditer(text):
        for kind, name in m.groupdict().items():
            if name and (kinds is None or kind in kinds):
                names.add(name)
    return names


def renamer(names: set[str], suffix: str):
    """Return a function that appends suffix to every whole-word name."""
    if not names:
        return lambda text: text
    pattern = re.compile(
        r"(?<![\w'])(" + "|".join(sorted(map(re.escape, names), key=len, reverse=True))
        + r")(?![\w'])"
    )
    return lambda text: pattern.sub(lambda m: m.group(1) + suffix, text)


def make_suffixes(rng: random.Random, count: int) -> list[str]:
    """count distinct suffixes; the first is empty (copy 0 keeps its names).

    Letters only: a digit would change where natural_key splits a label, and
    so the order of labels within a cell.
    """
    alphabet = string.ascii_lowercase
    out = [""]
    seen: set[str] = set()
    while len(out) < count:
        s = "_z" + "".join(rng.choice(alphabet) for _ in range(5))
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


@dataclass
class Workload:
    """Generated inputs for one workload, all under one directory."""

    name: str
    root: Path
    corpus: list[Path]
    traces: Path                       # trace manifest
    manifests: dict[str, Path]         # case study -> swap manifest
    suffixes: list[str]                # per copy; "" for copy 0
    renamed: set[str]                  # names that copies 1.. rename
    lines: int = 0


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _write_corpus(root: Path, items: list[tuple[str, str]], rng: random.Random) -> list[Path]:
    """Write (stem, text) items under root/corpus in a seed-chosen order."""
    order = list(range(len(items)))
    rng.shuffle(order)
    corpus_dir = root / "corpus"
    corpus_dir.mkdir(parents=True)
    paths = []
    for rank, i in enumerate(order):
        stem, text = items[i]
        p = corpus_dir / f"{rank:05d}_{stem}.sail"
        p.write_text(text, encoding="utf-8")
        paths.append(p)
    return sorted(paths)


def _trace_rows(repo: Path) -> list[list[str]]:
    rows = []
    for raw in _read(repo / TRACE_DIR / "traces.manifest").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append([p.strip() for p in line.split(",")])
    return rows


def build(workload: str, seed: int, repo: Path, root: Path, copies: int | None = None) -> Workload:
    """Generate the inputs of one workload under root (created afresh).

    copies overrides the workload's copy count; the tests use small ones.
    """
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    rng = random.Random(f"{workload}:{seed}")
    sources = {p.stem: _read(p) for p in sorted((repo / CORPUS_DIR).glob("*.sail"))}
    if not sources:
        raise FileNotFoundError(f"no Sail corpus under {repo / CORPUS_DIR}")
    if workload == "bundled":
        return _bundled(repo, root, sources, rng)
    if workload == "wide":
        return _wide(repo, root, sources, rng, copies or WIDE_COPIES)
    if workload == "shared":
        return _shared(repo, root, sources, rng, copies or SHARED_COPIES)
    raise ValueError(f"unknown workload {workload!r}")


def _bundled(repo, root, sources, rng) -> Workload:
    return Workload(
        name="bundled", root=root,
        corpus=_write_corpus(root, sorted(sources.items()), rng),
        traces=_copy_traces(repo, root, [""], set(), keep=None),
        manifests=_copy_manifests(repo, root, [""], set()),
        suffixes=[""], renamed=set(),
        lines=sum(t.count("\n") for t in sources.values()),
    )


def _copy_traces(repo, root, suffixes, renamed, keep: set[str] | None) -> Path:
    """Write one manifest whose rows repeat the fixture rows per copy.

    Copy k's trace names its clause with k's suffix. For a wide copy, which
    has its own registers, every register the trace names takes the suffix
    too, except those in `keep`: the registers the dispatch loop names, since
    copy 0's loop is the backend's one entry function and runs every copy.
    """
    trace_dir = root / "traces"
    trace_dir.mkdir()
    rows = _trace_rows(repo)
    out = ["# trace_file, name, instruction|group, mode_context"]
    for suffix in suffixes:
        for fname, name, flag, *rest in rows:
            text = _read(repo / TRACE_DIR / fname)
            if suffix and keep is not None:
                text = _TRACE_REG_RE.sub(
                    lambda m: m.group(0) if m.group(3) in keep
                    else f"({m.group(1)}{m.group(2)}|{m.group(3)}{suffix}|",
                    text,
                )
            target = f"{Path(fname).stem}{suffix}.trace"
            (trace_dir / target).write_text(text, encoding="utf-8")
            new_name = name + suffix if name in renamed else name
            out.append(", ".join([target, new_name, flag, *rest]))
    manifest = trace_dir / "traces.manifest"
    manifest.write_text("\n".join(out) + "\n", encoding="utf-8")
    return manifest


def _copy_manifests(repo, root, suffixes, renamed) -> dict[str, Path]:
    """Each case study's manifest, plus per-copy rows for the copy's own
    registers. Rows for state a copy does not own (banks, shared registers)
    appear once, as in the fixture."""
    out = {}
    (root / "manifests").mkdir()
    for study in CASE_STUDIES:
        lines = _read(repo / AUDIT_DIR / f"{study}.csv").splitlines()
        extra = []
        for suffix in suffixes[1:]:
            for raw in lines:
                line = raw.split("#", 1)[0].strip()
                if not line or line.startswith("@"):
                    continue
                label, rest = line.split(",", 1)
                register, dot, tail = label.strip().partition(".")
                if register in renamed:
                    extra.append(f"{register}{suffix}{dot}{tail},{rest}")
        p = root / "manifests" / f"{study}.csv"
        p.write_text("\n".join(lines + extra) + "\n", encoding="utf-8")
        out[study] = p
    return out


def _wide(repo, root, sources, rng, copies) -> Workload:
    names: set[str] = set()
    for text in sources.values():
        names |= declared_names(text)
    registers = set().union(*(declared_names(t, ("register",)) for t in sources.values()))
    dispatch = registers & set(re.findall(r"\w+", sources[DISPATCH_FILE]))
    suffixes = make_suffixes(rng, copies)
    items = []
    for suffix in suffixes:
        rename = renamer(names if suffix else set(), suffix)
        for stem, text in sorted(sources.items()):
            items.append((stem + suffix, rename(text)))
    return Workload(
        name="wide", root=root, corpus=_write_corpus(root, items, rng),
        traces=_copy_traces(repo, root, suffixes, names, keep=dispatch),
        manifests=_copy_manifests(repo, root, suffixes, names),
        suffixes=suffixes, renamed=names,
        lines=sum(t.count("\n") for _, t in items),
    )


def _shared(repo, root, sources, rng, copies) -> Workload:
    inst_stems = sorted(s for s in sources if s.startswith("insts_"))
    local = set()
    for stem in inst_stems:
        local |= declared_names(sources[stem], ("clause", "function"))
    suffixes = make_suffixes(rng, copies)
    items = [(stem, text) for stem, text in sorted(sources.items()) if stem not in inst_stems]
    for suffix in suffixes:
        rename = renamer(local if suffix else set(), suffix)
        for stem in inst_stems:
            items.append((stem + suffix, rename(sources[stem])))
    # The state set is shared, so the case-study manifests apply unchanged.
    return Workload(
        name="shared", root=root, corpus=_write_corpus(root, items, rng),
        traces=_copy_traces(repo, root, suffixes, local, keep=None),
        manifests=_copy_manifests(repo, root, [""], set()),
        suffixes=suffixes, renamed=local,
        lines=sum(t.count("\n") for _, t in items),
    )
