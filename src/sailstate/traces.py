"""Annotated SMT-LIB2 trace parsing and footprint superset validation.

Traces come from an offline symbolic-execution producer, one file per
instruction execution. A sidecar manifest names each file's instruction (or
instruction group). Validation checks that the statically computed footprint
covers everything the traces observed.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
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

# Token alternatives, tried in order: whitespace (only these four characters;
# \x0b is an atom character), a ; comment, a paren, a |symbol|, a "string"
# with \ escapes, an atom, and an unclosed | or " that takes the rest of the
# text, so that one failed scan ends the reading.
_QUOTED = r'\|[^|]*\||"(?:[^"\\]|\\.)*"'
_SEXPR_TOKEN = re.compile(
    r'[ \t\r\n]+|;[^\n]*|[()]|' + _QUOTED + r'|[^ \t\r\n();"|]+|[|"].*', re.DOTALL
)
_CLOSED = re.compile(_QUOTED, re.DOTALL)
_BLANK = " \t\r\n;"


def _line(text: str, tokens: list[str], i: int) -> int:
    """Line of token i; the tokens cover the text, so it starts where the others end."""
    return text.count("\n", 0, sum(map(len, tokens[:i]))) + 1


def _opening(tokens: list[str], forms: list, form: list) -> int:
    """Index of the '(' token that opens `form`: lists open in pre-order."""
    stack = list(reversed(forms))
    k = 0
    while (item := stack.pop()) is not form:
        if isinstance(item, list):
            k += 1
            stack.extend(reversed(item))
    return [i for i, tok in enumerate(tokens) if tok == "("][k]


def parse_sexprs(text: str, path: str = "<trace>") -> list:
    """All top-level forms; lists nest as Python lists, atoms are str.

    A |symbol| loses its bars and a "string" keeps its quotes."""
    tokens = _SEXPR_TOKEN.findall(text)
    closed = not tokens or tokens[-1][0] not in '|"' or _CLOSED.fullmatch(tokens[-1])
    unclosed = "" if closed else tokens.pop()
    top: list = []
    stack = [top]
    for i, tok in enumerate(tokens):
        c = tok[0]
        if c == "(":
            form: list = []
            stack[-1].append(form)
            stack.append(form)
        elif c == ")":
            if len(stack) == 1:
                raise MalformedSExpression("unmatched ')'", path, _line(text, tokens, i))
            stack.pop()
        elif c == "|":
            stack[-1].append(tok[1:-1])
        elif c not in _BLANK:
            stack[-1].append(tok)
    if unclosed:
        what = "unterminated |...| symbol" if unclosed[0] == "|" else "unterminated string"
        raise MalformedSExpression(what, path, _line(text, tokens, len(tokens)))
    if len(stack) > 1:
        raise MalformedSExpression(
            "unclosed '('", path, _line(text, tokens, _opening(tokens, top, stack[-1]))
        )
    return top


# -- trace events ------------------------------------------------------------


@dataclass(frozen=True)
class TraceEvent:
    kind: str                      # read-reg | write-reg
    register: str
    field_path: tuple[str, ...]


@dataclass(frozen=True)
class TraceBundle:
    instruction: str
    group: str | None
    events: tuple[TraceEvent, ...]
    source_path: str

    @property
    def name(self) -> str:
        return self.group or self.instruction


def _field_path(args) -> tuple[str, ...]:
    """Field names from nested (field |F| ...) forms, outermost first."""
    path: list[str] = []
    stack = list(reversed(args))
    while stack:
        item = stack.pop()
        if isinstance(item, list) and item and item[0] == "field":
            path.extend([a for a in item[1:] if isinstance(a, str)][:1])  # first atom
            stack.extend(reversed(item[1:]))
    return tuple(path)


def _trace_events(text: str, path: str) -> tuple[TraceEvent, ...]:
    forms = parse_sexprs(text, path)
    events: list[TraceEvent] = []
    stack = list(reversed(forms))
    while stack:
        form = stack.pop()
        if not isinstance(form, list) or not form:
            continue
        head = form[0]
        if isinstance(head, list):
            stack.extend(reversed(form))
        elif head in ("read-reg", "write-reg"):
            register = next((a for a in form[1:] if isinstance(a, str)), None)
            if register is None:
                # Lines are found only here: the head is the first token
                # after the '(' that opens the event.
                tokens = _SEXPR_TOKEN.findall(text)
                i = _opening(tokens, forms, form) + 1
                while tokens[i][0] in _BLANK:
                    i += 1
                raise MalformedSExpression(
                    f"{head} event without a register name", path, _line(text, tokens, i)
                )
            events.append(TraceEvent(head, register, _field_path(form[2:])))
        else:
            stack.extend(reversed(form[1:]))
    return tuple(events)


def parse_trace(
    text: str, path: str = "<trace>", *, instruction: str = "", group: str | None = None
) -> TraceBundle:
    """Extract the register read and write events, in file order."""
    return TraceBundle(instruction, group, _trace_events(text, path), path)


# -- manifest ----------------------------------------------------------------


def load_traces(manifest_path: str) -> list[TraceBundle]:
    """Read a trace manifest and parse every file it names.

    Line format: `trace_file, instruction_or_group, group_flag[, mode_context]`
    where group_flag is `instruction` or `group`. The mode column is accepted
    for producers that write it, but not used. `#` starts a comment.
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
        # Reports name the file as the manifest does, so they do not depend
        # on where the manifest lives; errors name the resolved path.
        instruction, group = (name, None) if flag == "instruction" else ("", name)
        bundles.append(TraceBundle(instruction, group, _trace_events(text, tpath), fname))
    return bundles


# -- footprints and validation ------------------------------------------------


@dataclass(frozen=True)
class TraceFootprint:
    name: str
    reads: frozenset[StateRef]
    writes: frozenset[StateRef]


def trace_footprint(bundles: Iterable[TraceBundle]) -> TraceFootprint:
    """Union of events across bundles of one instruction or one group."""
    bundles = list(bundles)
    if not bundles:
        raise MixedGroup("no trace bundles given")
    names = {b.name for b in bundles}
    if len(names) != 1:
        raise MixedGroup("bundles mix instructions/groups: " + ", ".join(sorted(names)))
    reads: set[StateRef] = set()
    writes: set[StateRef] = set()
    for b in bundles:
        for ev in b.events:
            ref = StateRef(ev.register, ev.field_path[0] if ev.field_path else None)
            (reads if ev.kind == "read-reg" else writes).add(ref)
    return TraceFootprint(names.pop(), frozenset(reads), frozenset(writes))


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
        missing: list[tuple[str, str]] = []
        unknown: set[str] = set()
        for direction, refs, have in (
            ("read", fp.reads, scan.read_labels()),
            ("write", fp.writes, scan.write_labels()),
        ):
            for ref in sorted(refs, key=lambda r: natural_key(r.label)):
                if ref.label not in table and ref.register not in table:
                    unknown.add(ref.register)
                    continue
                if not _covered(ref, have, table):
                    missing.append((ref.label, direction))
        results.append(ValidationResult(
            name,
            STATUS_VIOLATION if missing else STATUS_VALIDATED,
            tuple(missing),
            tuple(sorted(unknown)),
            tuple(sorted(b.source_path for b in group)),
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
