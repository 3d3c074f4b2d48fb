"""Annotated SMT-LIB2 trace parsing and footprint superset validation.

Traces come from an offline symbolic-execution producer, one file per
instruction execution. A sidecar manifest names each file's instruction (or
instruction group) and privilege-mode context. Validation checks that the
statically computed footprint covers everything the traces observed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from .errors import (
    IoError,
    MalformedSExpression,
    MissingManifestEntry,
    MixedGroup,
    TraceManifestError,
)
from .footprint import InstructionInsight
from .isa_model import StateRef, StateTable, natural_key


# -- S-expression reader -----------------------------------------------------


@dataclass(frozen=True)
class _Atom:
    text: str
    line: int


def _tokenize_sexpr(text: str, path: str):
    line = 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c in " \t\r":
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            yield (c, c, line)
            i += 1
        elif c == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise MalformedSExpression("unterminated |...| symbol", path, line)
            yield ("atom", text[i + 1 : j], line)
            line += text.count("\n", i, j)
            i = j + 1
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            if j >= n:
                raise MalformedSExpression("unterminated string", path, line)
            yield ("atom", text[i : j + 1], line)
            line += text.count("\n", i, j)
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in ' \t\r\n();"|':
                j += 1
            yield ("atom", text[i:j], line)
            i = j


def parse_sexprs(text: str, path: str = "<trace>") -> list:
    """All top-level forms; lists nest as Python lists, atoms keep lines."""
    stack: list[list] = []
    top: list = []
    open_lines: list[int] = []
    for kind, tok, line in _tokenize_sexpr(text, path):
        if kind == "(":
            stack.append([])
            open_lines.append(line)
        elif kind == ")":
            if not stack:
                raise MalformedSExpression("unmatched ')'", path, line)
            done = stack.pop()
            open_lines.pop()
            (stack[-1] if stack else top).append(done)
        else:
            (stack[-1] if stack else top).append(_Atom(tok, line))
    if stack:
        raise MalformedSExpression("unclosed '('", path, open_lines[-1])
    return top


# -- trace events ------------------------------------------------------------


@dataclass(frozen=True)
class TraceEvent:
    kind: str                      # read-reg | write-reg | other
    register: str
    field_path: tuple[str, ...]
    raw: tuple[int, int]           # (first line, last line)


@dataclass(frozen=True)
class TraceBundle:
    instruction: str
    group: str | None
    mode_context: str | None
    events: tuple[TraceEvent, ...]
    source_path: str

    @property
    def name(self) -> str:
        return self.group or self.instruction


def _form_lines(form) -> tuple[int, int]:
    lines: list[int] = []
    stack = [form]
    while stack:
        item = stack.pop()
        if isinstance(item, _Atom):
            lines.append(item.line)
        else:
            stack.extend(item)
    if not lines:
        return (0, 0)
    return (min(lines), max(lines))


def _field_path(args) -> tuple[str, ...]:
    """Field names from nested (field |F| ...) forms, outermost first."""
    path: list[str] = []
    work = list(args)
    while work:
        item = work.pop(0)
        if isinstance(item, list) and item and isinstance(item[0], _Atom) and item[0].text == "field":
            names = [a.text for a in item[1:] if isinstance(a, _Atom)]
            if names:
                path.append(names[0])
            work = [x for x in item[1:] if isinstance(x, list)] + work
    return tuple(path)


def parse_trace(
    text: str,
    path: str = "<trace>",
    *,
    instruction: str = "",
    group: str | None = None,
    mode_context: str | None = None,
) -> TraceBundle:
    """Extract register access events; everything else is kind=other."""
    forms = parse_sexprs(text, path)
    events: list[TraceEvent] = []

    def walk(form) -> None:
        if not isinstance(form, list) or not form:
            return
        head = form[0]
        if isinstance(head, _Atom) and head.text in ("read-reg", "write-reg"):
            reg_atoms = [a for a in form[1:] if isinstance(a, _Atom)]
            if not reg_atoms:
                raise MalformedSExpression(
                    f"{head.text} event without a register name", path, head.line
                )
            events.append(TraceEvent(
                kind=head.text,
                register=reg_atoms[0].text,
                field_path=_field_path(form[2:]),
                raw=_form_lines(form),
            ))
            return
        if isinstance(head, _Atom) and head.text not in ("trace",):
            events.append(TraceEvent("other", "", (), _form_lines(form)))
        for item in form[1:] if isinstance(head, _Atom) else form:
            walk(item)

    for form in forms:
        walk(form)
    return TraceBundle(
        instruction=instruction,
        group=group,
        mode_context=mode_context,
        events=tuple(events),
        source_path=path,
    )


# -- manifest ----------------------------------------------------------------


def load_traces(manifest_path: str) -> list[TraceBundle]:
    """Read a trace manifest and parse every file it names.

    Line format: `trace_file, instruction_or_group, group_flag, mode_context`
    where group_flag is `instruction` or `group` and mode_context may be `-`
    for unconstrained. `#` starts a comment.
    """
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read trace manifest {manifest_path}: {exc}") from exc

    base = os.path.dirname(os.path.abspath(manifest_path))
    bundles: list[TraceBundle] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (3, 4):
            raise TraceManifestError(
                f"{manifest_path}:{lineno}: expected "
                f"'trace_file, name, instruction|group[, mode]', got {raw!r}"
            )
        fname, name, flag = parts[0], parts[1], parts[2]
        mode = parts[3] if len(parts) == 4 and parts[3] not in ("", "-") else None
        if not name:
            raise MissingManifestEntry(
                f"{manifest_path}:{lineno}: empty instruction/group name"
            )
        if flag not in ("instruction", "group"):
            raise TraceManifestError(
                f"{manifest_path}:{lineno}: group_flag must be 'instruction' "
                f"or 'group', got {flag!r}"
            )
        tpath = fname if os.path.isabs(fname) else os.path.join(base, fname)
        try:
            with open(tpath, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise IoError(f"cannot read trace file {tpath}: {exc}") from exc
        bundle = parse_trace(
            text,
            tpath,
            instruction=name if flag == "instruction" else "",
            group=name if flag == "group" else None,
            mode_context=mode,
        )
        # Reports name the file as the manifest does, so they do not depend
        # on where the manifest lives; errors name the resolved path.
        bundles.append(replace(bundle, source_path=fname))
    return bundles


# -- footprints and validation ------------------------------------------------


@dataclass(frozen=True)
class TraceFootprint:
    name: str
    reads: frozenset[StateRef]
    writes: frozenset[StateRef]
    unknown_registers: frozenset[str]  # filled during validation


def trace_footprint(bundles: Iterable[TraceBundle]) -> TraceFootprint:
    """Union of events across bundles of one instruction or one group."""
    bundles = list(bundles)
    if not bundles:
        raise MixedGroup("no trace bundles given")
    names = {b.name for b in bundles}
    if len(names) != 1:
        raise MixedGroup(
            "bundles mix instructions/groups: " + ", ".join(sorted(names))
        )
    reads: set[StateRef] = set()
    writes: set[StateRef] = set()
    for b in bundles:
        for ev in b.events:
            if ev.kind == "read-reg":
                reads.add(StateRef(ev.register, ev.field_path[0] if ev.field_path else None))
            elif ev.kind == "write-reg":
                writes.add(StateRef(ev.register, ev.field_path[0] if ev.field_path else None))
    return TraceFootprint(names.pop(), frozenset(reads), frozenset(writes), frozenset())


STATUS_VALIDATED = "validated"
STATUS_VIOLATION = "superset_violation"
STATUS_MISSING = "missing_trace"


@dataclass(frozen=True)
class ValidationResult:
    name: str
    status: str
    missing: tuple[tuple[str, str], ...]       # (state label, read|write)
    unknown_registers: tuple[str, ...]
    trace_files: tuple[str, ...]


@dataclass(frozen=True)
class ValidationReport:
    results: tuple[ValidationResult, ...]
    unknown_names: tuple[str, ...]             # trace names with no instruction

    @property
    def violations(self) -> tuple[ValidationResult, ...]:
        return tuple(r for r in self.results if r.status == STATUS_VIOLATION)

    def by_name(self) -> dict[str, ValidationResult]:
        return {r.name: r for r in self.results}


def _covered(ref: StateRef, have: frozenset[str], table: StateTable) -> bool:
    if ref.label in have:
        return True
    if ref.field is not None:
        # whole-register entry covers any of its fields
        return ref.register in have
    # whole-register requirement: any field-level entry of it counts
    return any(lab in have for lab in table.covered_by(ref.label) if lab != ref.label)


def validate(
    insights: Mapping[str, InstructionInsight],
    bundles: Iterable[TraceBundle],
    table: StateTable,
) -> ValidationReport:
    """Superset check: scanner footprints must contain trace footprints.

    Registers the corpus does not know are reported informationally and kept
    out of the check (they signal corpus/trace version skew). Instructions
    with no trace are missing_trace; names with no instruction are listed.
    """
    by_name: dict[str, list[TraceBundle]] = {}
    for b in bundles:
        by_name.setdefault(b.name, []).append(b)

    results: list[ValidationResult] = []
    unknown_names: list[str] = []
    for name in sorted(set(by_name) | set(insights)):
        if name not in insights:
            unknown_names.append(name)
            continue
        if name not in by_name:
            results.append(ValidationResult(name, STATUS_MISSING, (), (), ()))
            continue
        group = by_name[name]
        fp = trace_footprint(group)
        scan = insights[name].footprint
        scan_reads = scan.read_labels()
        scan_writes = scan.write_labels()
        missing: list[tuple[str, str]] = []
        unknown: set[str] = set()
        for direction, refs, have in (
            ("read", fp.reads, scan_reads),
            ("write", fp.writes, scan_writes),
        ):
            for ref in sorted(refs, key=lambda r: natural_key(r.label)):
                if ref.label not in table and ref.register not in table:
                    unknown.add(ref.register)
                    continue
                if not _covered(ref, have, table):
                    missing.append((ref.label, direction))
        status = STATUS_VIOLATION if missing else STATUS_VALIDATED
        results.append(ValidationResult(
            name=name,
            status=status,
            missing=tuple(missing),
            unknown_registers=tuple(sorted(unknown)),
            trace_files=tuple(sorted(b.source_path for b in group)),
        ))
    return ValidationReport(tuple(results), tuple(sorted(unknown_names)))


def report_to_json(report: ValidationReport) -> str:
    doc = {
        "summary": {
            "total": len(report.results),
            "validated": sum(1 for r in report.results if r.status == STATUS_VALIDATED),
            "superset_violations": len(report.violations),
            "missing_traces": sum(1 for r in report.results if r.status == STATUS_MISSING),
        },
        "unknown_names": list(report.unknown_names),
        "results": [
            {
                "name": r.name,
                "status": r.status,
                "missing": [{"state": s, "direction": d} for s, d in r.missing],
                "unknown_registers": list(r.unknown_registers),
                "trace_files": list(r.trace_files),
            }
            for r in report.results
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def report_summary_text(report: ValidationReport) -> str:
    lines = []
    for r in report.results:
        if r.status == STATUS_VIOLATION:
            detail = ", ".join(f"{s} ({d})" for s, d in r.missing)
            lines.append(f"{r.name}: {r.status}: missing {detail}")
        else:
            lines.append(f"{r.name}: {r.status}")
        if r.unknown_registers:
            lines.append(
                f"{r.name}: note: unknown registers in trace: "
                + ", ".join(r.unknown_registers)
            )
    for name in report.unknown_names:
        lines.append(f"{name}: note: trace has no matching instruction")
    return "\n".join(lines) + "\n"
