"""Per-function and per-instruction facts closed over the call graph.

A footprint is two sets of (state, tag) pairs, reads and writes, where the
tag says whether the access is explicit (operand or CSR-number addressed by
the program) or implicit (a side effect the executing program never names).
Footprints, and the external functions and privilege guards a body can reach,
each propagate once over one callee map to a fixpoint; each execute clause
then gets the union of its own value and its callees' closed values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from .backend import BackendConfig, BankSpec
from .errors import MalformedLine, MissingEntryFunction
from .isa_model import (
    StateRef,
    compress_labels,
    expand_label_range,
    guards_from_harvest,
    read_csv_rows,
)
from .parser import Body, SailModel

TAG_EXPLICIT = "explicit"
TAG_IMPLICIT = "implicit"

Entry = tuple[StateRef, str]


@dataclass(frozen=True)
class Footprint:
    reads: frozenset[Entry] = frozenset()
    writes: frozenset[Entry] = frozenset()

    def union(self, other: "Footprint") -> "Footprint":
        if not other.reads and not other.writes:
            return self
        if not self.reads and not self.writes:
            return other
        return Footprint(self.reads | other.reads, self.writes | other.writes)

    def read_labels(self, tag: str | None = None) -> frozenset[str]:
        return frozenset(r.label for r, t in self.reads if tag is None or t == tag)

    def write_labels(self, tag: str | None = None) -> frozenset[str]:
        return frozenset(r.label for r, t in self.writes if tag is None or t == tag)

    def __bool__(self) -> bool:
        return bool(self.reads or self.writes)


EMPTY_FOOTPRINT = Footprint()


class _BankEntries(dict):
    """(bank, tag, is_write) -> entries of every element of the bank, built on
    first use and shared by every body of one analysis. Writes skip the
    hardwired-zero element."""

    def __init__(self, model: SailModel, backend: BackendConfig):
        super().__init__()
        self.model, self.backend = model, backend

    def __missing__(self, key: tuple[BankSpec, str, bool]) -> frozenset[Entry]:
        bank, tag, is_write = key
        size = self.model.registers[bank.register].rtype.size or 0
        refs = (StateRef(f"{bank.prefix}{i}") for i in range(size))
        entries = frozenset(
            (ref, tag) for ref in refs
            if not (is_write and ref.register == self.backend.hardwired_zero)
        )
        self[key] = entries
        return entries


def _mapped_accesses(
    accesses: Iterable[tuple[str, str | None]],
    banks: _BankEntries,
    *,
    is_write: bool,
    helper_explicit: bool,
) -> set[Entry]:
    out: set[Entry] = set()
    for reg, fieldname in accesses:
        bank = banks.backend.bank_for_register(reg)
        if bank is not None:
            # Direct indexing into a register bank: the index is dynamic, so
            # every element is touched. Side-effect access, hence implicit.
            out |= banks[bank, TAG_IMPLICIT, is_write]
            continue
        tag = TAG_EXPLICIT if helper_explicit else TAG_IMPLICIT
        out.add((StateRef(reg, fieldname), tag))
    return out


def direct_footprint(body: Body, banks: _BankEntries) -> Footprint:
    """Footprint of one function or execute clause body, callees excluded.

    Accesses inside configured CSR helper bodies are explicit on the helper's
    direction; register-bank accessor calls are explicit operand access.
    """
    h = body.harvest
    backend = banks.backend
    in_read_helper = body.name in backend.csr_read_helpers
    in_write_helper = body.name in backend.csr_write_helpers

    reads = _mapped_accesses(h.reads, banks, is_write=False, helper_explicit=in_read_helper)
    writes = _mapped_accesses(h.writes, banks, is_write=True, helper_explicit=in_write_helper)

    for callee in h.callees:
        bank = backend.bank_for_accessor(callee)
        if bank is not None:
            reads |= banks[bank, TAG_EXPLICIT, False]
    for callee in h.lvalue_callees:
        bank = backend.bank_for_accessor(callee)
        if bank is not None:
            writes |= banks[bank, TAG_EXPLICIT, True]
    return Footprint(frozenset(reads), frozenset(writes))


def _propagation_callees(body: Body, model: SailModel, backend: BackendConfig) -> frozenset[str]:
    """Callees worth following: defined functions that are not bank accessors."""
    names = body.harvest.callees | body.harvest.lvalue_callees
    return frozenset(
        n for n in names
        if n in model.functions and backend.bank_for_accessor(n) is None
    )


def propagate(direct: Mapping[str, tuple[object, Iterable[str]]]) -> dict[str, object]:
    """Transitive closure of values over a call graph, by worklist.

    `direct` maps a name to its own value and its callee names; callee names
    absent from the mapping are ignored. A value is anything with an
    idempotent, commutative `union` and value equality, such as a Footprint.
    Handles cycles; the result is the least fixpoint of
    result[n] = direct[n] U union(result[callees]).
    """
    names = sorted(direct)
    callees_of = {
        n: sorted({c for c in direct[n][1] if c in direct}) for n in names
    }
    dependents: dict[str, set[str]] = {n: set() for n in names}
    for n in names:
        for c in callees_of[n]:
            dependents[c].add(n)
    result = {n: direct[n][0] for n in names}
    work = deque(names)
    queued = set(names)
    while work:
        n = work.popleft()
        queued.discard(n)
        merged = result[n]
        for c in callees_of[n]:
            merged = merged.union(result[c])
        if merged != result[n]:
            result[n] = merged
            for d in sorted(dependents[n]):
                if d not in queued:
                    work.append(d)
                    queued.add(d)
    return result


def function_direct_footprints(
    banks: _BankEntries,
) -> dict[str, tuple[Footprint, frozenset[str]]]:
    """Each function's own footprint, with the callees propagation follows."""
    model, backend = banks.model, banks.backend
    return {
        name: (
            direct_footprint(fn, banks),
            _propagation_callees(fn, model, backend),
        )
        for name, fn in model.functions.items()
    }


def function_footprints(model: SailModel, backend: BackendConfig) -> dict[str, Footprint]:
    return propagate(function_direct_footprints(_BankEntries(model, backend)))


def _baseline(resolved: Mapping[str, Footprint], backend: BackendConfig) -> Footprint:
    out = EMPTY_FOOTPRINT
    for entry in backend.entry_functions:
        if entry not in resolved:
            raise MissingEntryFunction(
                f"entry function {entry!r} (backend config {backend.path}) "
                "is not defined in the corpus"
            )
        out = out.union(resolved[entry])
    return out


def baseline_footprint(model: SailModel, backend: BackendConfig) -> Footprint:
    """Union footprint of the configured dispatch entry functions.

    This is the state every instruction touches simply by being fetched and
    retired, independent of what the instruction itself does.
    """
    return _baseline(function_footprints(model, backend), backend)


@dataclass(frozen=True)
class _Reach:
    """Undefined functions and privilege guards a body reaches.

    `guards` is None while no guard has been seen. None is the identity of
    union, so an unguarded callee neither widens nor narrows a guarded path.
    """

    externals: frozenset[str] = frozenset()
    guards: frozenset[str] | None = None

    def union(self, other: "_Reach") -> "_Reach":
        if other.guards is None:
            guards = self.guards
        elif self.guards is None:
            guards = other.guards
        else:
            guards = self.guards | other.guards
        return _Reach(self.externals | other.externals, guards)


def _own_reach(body: Body, model: SailModel, backend: BackendConfig) -> _Reach:
    h = body.harvest
    externals = frozenset(
        n for n in h.callees | h.lvalue_callees
        if n not in model.functions and backend.bank_for_accessor(n) is None
    )
    return _Reach(externals, guards_from_harvest(h, backend))


@dataclass(frozen=True)
class InstructionInsight:
    instruction: str
    privileges: frozenset[str]
    footprint: Footprint
    externals: frozenset[str]
    # (direction r|w, tag, state label, call path "f>g" or "baseline")
    via: tuple[tuple[str, str, str, str], ...] = ()


ViaKey = tuple[str, str, str]  # (direction r|w, tag, state label)


def _via_keys(fp: Footprint) -> frozenset[ViaKey]:
    return frozenset(
        [("r", tag, ref.label) for ref, tag in fp.reads]
        + [("w", tag, ref.label) for ref, tag in fp.writes]
    )


def _via_paths(
    need: frozenset[ViaKey],
    direct_keys: Mapping[str, frozenset[ViaKey]],
    callees_of: Mapping[str, list[str]],
    start: list[str],
) -> dict[ViaKey, str]:
    """Shortest call path, from the sorted callees `start`, to a function
    whose own footprint holds each key in `need`."""
    out: dict[ViaKey, str] = {}
    queue: deque[tuple[str, tuple[str, ...]]] = deque((n, (n,)) for n in start)
    visited: set[str] = set(start)
    while queue and need:
        name, path = queue.popleft()
        found = need & direct_keys[name]
        if found:
            out.update(dict.fromkeys(found, ">".join(path)))
            need -= found
        for c in callees_of[name]:
            if c not in visited:
                visited.add(c)
                queue.append((c, path + (c,)))
    return out


def instruction_insights(
    model: SailModel,
    backend: BackendConfig,
    *,
    include_baseline: bool = True,
) -> dict[str, InstructionInsight]:
    """Footprint, privileges, externals and `via` paths of every instruction.

    The function graph is closed twice by `propagate`, once over footprints
    and once over reached externals and guards; both follow the same callee
    map. An instruction with no guard on any path runs in every mode.
    """
    banks = _BankEntries(model, backend)
    direct = function_direct_footprints(banks)
    resolved = propagate(direct)
    reach = propagate({
        name: (_own_reach(model.functions[name], model, backend), callees)
        for name, (_, callees) in direct.items()
    })
    baseline = _baseline(resolved, backend) if include_baseline else EMPTY_FOOTPRINT
    all_modes = frozenset(backend.mode_order)
    # Each body's state labels are spelled out once, not once per
    # instruction that reaches it.
    direct_keys = {name: _via_keys(fp) for name, (fp, _) in direct.items()}
    callees_of = {name: sorted(callees) for name, (_, callees) in direct.items()}
    resolved_keys = {name: _via_keys(fp) for name, fp in resolved.items()}
    baseline_keys = _via_keys(baseline)

    out: dict[str, InstructionInsight] = {}
    for name, clause in model.execute_clauses.items():
        own = direct_footprint(clause, banks)
        callees = sorted(_propagation_callees(clause, model, backend))
        total = own
        closed = _own_reach(clause, model, backend)
        own_keys = total_keys = _via_keys(own)
        for callee in callees:
            total = total.union(resolved[callee])
            closed = closed.union(reach[callee])
            total_keys = total_keys | resolved_keys[callee]
        via = _via_paths(total_keys - own_keys, direct_keys, callees_of, callees)
        if include_baseline:
            via.update(dict.fromkeys(baseline_keys - total_keys, "baseline"))
            total = total.union(baseline)
        out[name] = InstructionInsight(
            instruction=name,
            privileges=all_modes if closed.guards is None else closed.guards,
            footprint=total,
            externals=closed.externals,
            via=tuple(sorted(key + (path,) for key, path in via.items())),
        )
    return out


# -- CSV round trip ---------------------------------------------------------

INSIGHTS_COLUMNS = (
    "instruction",
    "privileges",
    "explicit_reads",
    "implicit_reads",
    "explicit_writes",
    "implicit_writes",
    "externals",
    "via",
)


def _entry_cell(entries: frozenset[Entry], tag: str) -> str:
    labels = [ref.label for ref, t in entries if t == tag]
    return " ".join(compress_labels(labels))


def _via_cell(
    via: tuple[tuple[str, str, str, str], ...], compressed: dict[tuple[str, ...], str]
) -> str:
    groups: dict[tuple[str, str, str], list[str]] = {}
    for direction, tag, label, path in via:
        groups.setdefault((direction, tag, path), []).append(label)
    parts = []
    for (direction, tag, path), labels in sorted(groups.items()):
        marker = "~" if tag == TAG_IMPLICIT else ""
        key = tuple(labels)
        if key not in compressed:
            compressed[key] = ",".join(compress_labels(labels))
        parts.append(f"{direction}{marker}[{path}]={compressed[key]}")
    return "; ".join(parts)


def insight_rows(
    insights: Mapping[str, InstructionInsight], backend: BackendConfig
) -> list[dict[str, str]]:
    # Rows repeat cells (every instruction carries the baseline) and `via`
    # label groups, so each distinct one is compressed once per call.
    cells: dict[tuple[frozenset[Entry], str], str] = {}
    via_labels: dict[tuple[str, ...], str] = {}

    def cell(entries: frozenset[Entry], tag: str) -> str:
        key = (entries, tag)
        if key not in cells:
            cells[key] = _entry_cell(entries, tag)
        return cells[key]

    rows = []
    for name in sorted(insights):
        ins = insights[name]
        privs = " ".join(m for m in backend.mode_order if m in ins.privileges)
        rows.append({
            "instruction": name,
            "privileges": privs,
            "explicit_reads": cell(ins.footprint.reads, TAG_EXPLICIT),
            "implicit_reads": cell(ins.footprint.reads, TAG_IMPLICIT),
            "explicit_writes": cell(ins.footprint.writes, TAG_EXPLICIT),
            "implicit_writes": cell(ins.footprint.writes, TAG_IMPLICIT),
            "externals": " ".join(sorted(ins.externals)),
            "via": _via_cell(ins.via, via_labels),
        })
    return rows


def _cell_entries(cell: str, tag: str) -> set[Entry]:
    out: set[Entry] = set()
    for token in cell.split():
        for label in expand_label_range(token):
            out.add((StateRef.parse(label), tag))
    return out


def load_insights_csv(
    text: str, path: str = "<insights>"
) -> dict[str, InstructionInsight]:
    """Inverse of insight_rows, minus call paths (not needed downstream)."""
    rows = read_csv_rows(text, path)
    if not rows or tuple(rows[0]) != INSIGHTS_COLUMNS:
        raise MalformedLine(f"{path}: expected header {','.join(INSIGHTS_COLUMNS)}")
    # Rows repeat cells (every instruction carries the baseline), so each
    # distinct (cell, tag) is expanded once per call.
    parsed: dict[tuple[str, str], frozenset[Entry]] = {}

    def entries(cell: str, tag: str) -> frozenset[Entry]:
        key = (cell, tag)
        if key not in parsed:
            parsed[key] = frozenset(_cell_entries(cell, tag))
        return parsed[key]

    insights: dict[str, InstructionInsight] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(INSIGHTS_COLUMNS):
            raise MalformedLine(f"{path}:{lineno}: expected {len(INSIGHTS_COLUMNS)} columns")
        name, privs, er, ir, ew, iw, externals, _via = row
        if name in insights:
            raise MalformedLine(f"{path}:{lineno}: duplicate instruction {name!r}")
        try:
            footprint = Footprint(
                reads=entries(er, TAG_EXPLICIT) | entries(ir, TAG_IMPLICIT),
                writes=entries(ew, TAG_EXPLICIT) | entries(iw, TAG_IMPLICIT),
            )
        except MalformedLine as exc:
            raise MalformedLine(f"{path}:{lineno}: {exc}") from None
        insights[name] = InstructionInsight(
            instruction=name,
            privileges=frozenset(privs.split()),
            footprint=footprint,
            externals=frozenset(externals.split()),
        )
    return insights
