"""Annotated SMT-LIB2 trace parsing and footprint superset validation.

Traces come from an offline symbolic-execution producer, one file per
instruction execution. A sidecar manifest names each file's instruction (or
instruction group). Validation checks that the statically computed footprint
covers everything the traces observed.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from . import jsonout
from .errors import (
    MalformedSExpression,
    MissingManifestEntry,
    TraceManifestError,
    read_text,
)
from .footprint import InstructionInsight
from .isa_model import StateTable, comma_rows, natural_key, state_label


# -- S-expression reader -----------------------------------------------------

# Token alternatives, tried in order: whitespace (only these four characters;
# \x0b is an atom character), a ; comment, a paren, a |symbol|, a "string"
# with \ escapes, an atom, and an unclosed | or " that takes the rest of the
# text, so that one failed scan ends the reading. A trace also reads a closed
# event of the producer's shape, (read-reg|write-reg |R| nil|(field |F|) (_ bvN W)),
# as one token whose groups are its head, R and F: it names (R, F or None).
_QUOTED = r'\|[^|]*\||"(?:[^"\\]|\\.)*"'
_TOKEN = r'[ \t\r\n]+|;[^\n]*|[()]|' + _QUOTED + r'|[^ \t\r\n();"|]+|[|"].*'
_EVENT = r'\((read-reg|write-reg) \|([^|]+)\| (?:nil|\(field \|([^|]+)\|\)) \(_ bv[0-9]+ [0-9]+\)\)'
_SEXPR_TOKEN = re.compile(f"({_TOKEN})()()()", re.DOTALL)  # (token, "", "", "")
_TRACE_TOKEN = re.compile(f"({_EVENT}|{_TOKEN})", re.DOTALL)  # (token, head, R, F)
_CLOSED = re.compile(_QUOTED, re.DOTALL)
_BLANK = " \t\r\n;"


def _line(text: str, tokens: list, i: int) -> int:
    """Line of token i; the tokens cover the text, so it starts where the others end."""
    return text.count("\n", 0, sum(len(t[0]) for t in tokens[:i])) + 1


def _opening(tokens: list, forms: list, form: list) -> int:
    """Index of the '(' token that opens `form`: lists open in pre-order."""
    stack = list(reversed(forms))
    k = 0
    while (item := stack.pop()) is not form:
        if isinstance(item, list):
            k += 1
            stack.extend(reversed(item))
    return [i for i, t in enumerate(tokens) if t[0] == "("][k]


def _forms(text: str, path: str, pattern: re.Pattern) -> list:
    """All top-level forms as `pattern` tokenizes them; a whole event is the
    tuple (head, (R, F or None)), and is not a list."""
    tokens = pattern.findall(text)
    closed = not tokens or tokens[-1][0][0] not in '|"' or _CLOSED.fullmatch(tokens[-1][0])
    unclosed = "" if closed else tokens.pop()[0]
    top: list = []
    stack = [top]
    for i, (tok, head, register, field) in enumerate(tokens):
        c = tok[0]
        if register:
            stack[-1].append((head, (register, field or None)))
        elif c == "(":
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


def parse_sexprs(text: str, path: str = "<trace>") -> list:
    """All top-level forms; lists nest as Python lists, atoms are str.

    A |symbol| loses its bars and a "string" keeps its quotes."""
    return _forms(text, path, _SEXPR_TOKEN)


# -- trace reading -----------------------------------------------------------


StatePair = tuple[str, str | None]  # (register, first field or None)


@dataclass(frozen=True)
class TraceBundle:
    name: str                          # the instruction or group it traces
    reads: frozenset[StatePair]
    writes: frozenset[StatePair]
    source_path: str


def _first_field(args) -> str | None:
    """First atom of the first (field |F| ...) form, outermost first."""
    stack = list(reversed(args))
    while stack:
        item = stack.pop()
        if isinstance(item, list) and item and item[0] == "field":
            atom = next((a for a in item[1:] if isinstance(a, str)), None)
            if atom is not None:
                return atom
            stack.extend(reversed(item[1:]))
    return None


def _event_pairs(text: str, path: str) -> tuple[frozenset[StatePair], frozenset[StatePair]]:
    """The read and write pairs that the events outside any other event name."""
    forms = _forms(text, path, _TRACE_TOKEN)
    pairs: dict[str, set[StatePair]] = {"read-reg": set(), "write-reg": set()}
    stack = list(reversed(forms))
    while stack:
        form = stack.pop()
        if type(form) is str or not form:
            continue
        head = form[0]
        if type(form) is tuple:
            pairs[head].add(form[1])
        elif type(head) is not str:
            stack.extend(reversed(form))
        elif head in pairs:
            register = next((a for a in form[1:] if isinstance(a, str)), "")
            field = _first_field(form[2:])
            if not register or field == "":
                # Lines are found only here: the head is the first token
                # after the '(' that opens the event.
                tokens = _TRACE_TOKEN.findall(text)
                i = _opening(tokens, forms, form) + 1
                while tokens[i][0][0] in _BLANK:
                    i += 1
                what = "without a register name" if not register else "with an empty field name"
                raise MalformedSExpression(f"{head} event {what}", path, _line(text, tokens, i))
            pairs[head].add((register, field))
        else:
            stack.extend(reversed(form[1:]))
    return frozenset(pairs["read-reg"]), frozenset(pairs["write-reg"])


def parse_trace(text: str, path: str = "<trace>", name: str = "") -> TraceBundle:
    """The (register, field) pairs that the read-reg and write-reg events name."""
    return TraceBundle(name, *_event_pairs(text, path), path)


# -- manifest ----------------------------------------------------------------


def load_traces(manifest_path: str) -> list[TraceBundle]:
    """Read a trace manifest and parse every file it names.

    Line format: `trace_file, instruction_or_group, group_flag[, mode_context]`
    where group_flag is `instruction` or `group`. The mode column is accepted
    for producers that write it, but not used. `#` starts a comment.
    """
    manifest = read_text(manifest_path, "trace manifest")
    base = os.path.dirname(os.path.abspath(manifest_path))
    bundles: list[TraceBundle] = []
    for lineno, raw, parts in comma_rows(manifest):
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
        if not fname:
            raise TraceManifestError(f"{manifest_path}:{lineno}: empty trace file name")
        tpath = fname if os.path.isabs(fname) else os.path.join(base, fname)
        # Reports name the file as the manifest does, so they do not depend
        # on where the manifest lives; errors name the resolved path.
        pairs = _event_pairs(read_text(tpath, "trace file"), tpath)
        bundles.append(TraceBundle(name, *pairs, fname))
    return bundles


# -- validation ----------------------------------------------------------------


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


def _covered(register: str, field: str | None, have: frozenset[str], table: StateTable) -> bool:
    label = state_label(register, field)
    if label in have:
        return True
    if field is not None:
        # whole-register entry covers any of its fields
        return register in have
    # whole-register requirement: any field-level entry of it counts
    return any(e.label in have for e in table.fields_of(label))


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
    key: dict[StatePair, tuple] = {}  # the natural_key of each distinct pair's label

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
        scan = insights[name].footprint
        missing: list[tuple[str, str]] = []
        unknown: set[str] = set()
        for direction, pairs, have in (
            ("read", frozenset().union(*(b.reads for b in group)), scan.reads),
            ("write", frozenset().union(*(b.writes for b in group)), scan.writes),
        ):
            key.update((p, natural_key(state_label(*p))) for p in pairs if p not in key)
            for register, field in sorted(pairs, key=key.__getitem__):
                label = state_label(register, field)
                if label not in table and register not in table:
                    unknown.add(register)
                    continue
                if not _covered(register, field, have, table):
                    missing.append((label, direction))
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
    return jsonout.dumps(doc)


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
