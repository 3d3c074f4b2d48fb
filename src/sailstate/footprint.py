"""Per-function and per-instruction facts closed over the call graph.

A footprint is four sets of state labels: the states read and written,
each split by whether the access is explicit (operand or CSR-number addressed
by the program) or implicit (a side effect the executing program never names).
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
    compress_labels,
    expand_label_range,
    guards_from_harvest,
    read_csv_rows,
    state_label,
)
from .parser import Body, SailModel

TAG_EXPLICIT = "explicit"
TAG_IMPLICIT = "implicit"


@dataclass(frozen=True)
class Footprint:
    """State labels read and written, named like the insights.csv columns."""

    explicit_reads: frozenset[str] = frozenset()
    implicit_reads: frozenset[str] = frozenset()
    explicit_writes: frozenset[str] = frozenset()
    implicit_writes: frozenset[str] = frozenset()

    def union(self, other: "Footprint") -> "Footprint":
        if not other:
            return self
        if not self:
            return other
        return Footprint(
            self.explicit_reads | other.explicit_reads,
            self.implicit_reads | other.implicit_reads,
            self.explicit_writes | other.explicit_writes,
            self.implicit_writes | other.implicit_writes,
        )

    @property
    def reads(self) -> frozenset[str]:
        return self.explicit_reads | self.implicit_reads

    @property
    def writes(self) -> frozenset[str]:
        return self.explicit_writes | self.implicit_writes

    def __bool__(self) -> bool:
        return bool(self.explicit_reads or self.implicit_reads
                    or self.explicit_writes or self.implicit_writes)


EMPTY_FOOTPRINT = Footprint()


class _BankEntries(dict):
    """(bank, is_write) -> labels of every element of the bank, built on
    first use and shared by every body of one analysis. Writes skip the
    hardwired-zero element."""

    def __init__(self, model: SailModel, backend: BackendConfig):
        super().__init__()
        self.model, self.backend = model, backend

    def __missing__(self, key: tuple[BankSpec, bool]) -> frozenset[str]:
        bank, is_write = key
        size = self.model.registers[bank.register].rtype.size or 0
        labels = frozenset(
            label for label in (f"{bank.prefix}{i}" for i in range(size))
            if not (is_write and label == self.backend.hardwired_zero)
        )
        self[key] = labels
        return labels


def _direction(
    accesses: Iterable[tuple[str, str | None]], callees: Iterable[str], banks: _BankEntries,
    *, is_write: bool, in_helper: bool,
) -> tuple[frozenset[str], frozenset[str]]:
    """(explicit, implicit) labels of one direction of one body."""
    explicit: set[str] = set()
    implicit: set[str] = set()
    for reg, fieldname in accesses:
        bank = banks.backend.bank_for_register(reg)
        if bank is not None:
            # Direct indexing into a register bank: the index is dynamic, so
            # every element is touched. Side-effect access, hence implicit.
            implicit |= banks[bank, is_write]
        else:
            (explicit if in_helper else implicit).add(state_label(reg, fieldname))
    for callee in callees:
        bank = banks.backend.bank_for_accessor(callee)
        if bank is not None:
            explicit |= banks[bank, is_write]
    return frozenset(explicit), frozenset(implicit)


def direct_footprint(body: Body, banks: _BankEntries) -> Footprint:
    """Footprint of one function or execute clause body, callees excluded.

    Accesses inside configured CSR helper bodies are explicit on the helper's
    direction; register-bank accessor calls are explicit operand access.
    """
    h = body.harvest
    backend = banks.backend
    explicit_reads, implicit_reads = _direction(
        h.reads, h.callees, banks,
        is_write=False, in_helper=body.name in backend.csr_read_helpers,
    )
    explicit_writes, implicit_writes = _direction(
        h.writes, h.lvalue_callees, banks,
        is_write=True, in_helper=body.name in backend.csr_write_helpers,
    )
    return Footprint(explicit_reads, implicit_reads, explicit_writes, implicit_writes)


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
    parts = (("r", TAG_EXPLICIT, fp.explicit_reads), ("r", TAG_IMPLICIT, fp.implicit_reads),
             ("w", TAG_EXPLICIT, fp.explicit_writes), ("w", TAG_IMPLICIT, fp.implicit_writes))
    return frozenset((direction, tag, label) for direction, tag, labels in parts for label in labels)


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
    cells: dict[frozenset[str], str] = {}
    via_labels: dict[tuple[str, ...], str] = {}

    def cell(labels: frozenset[str]) -> str:
        if labels not in cells:
            cells[labels] = " ".join(compress_labels(labels))
        return cells[labels]

    rows = []
    for name in sorted(insights):
        ins = insights[name]
        privs = " ".join(m for m in backend.mode_order if m in ins.privileges)
        rows.append({
            "instruction": name,
            "privileges": privs,
            "explicit_reads": cell(ins.footprint.explicit_reads),
            "implicit_reads": cell(ins.footprint.implicit_reads),
            "explicit_writes": cell(ins.footprint.explicit_writes),
            "implicit_writes": cell(ins.footprint.implicit_writes),
            "externals": " ".join(sorted(ins.externals)),
            "via": _via_cell(ins.via, via_labels),
        })
    return rows


def load_insights_csv(
    text: str, path: str = "<insights>"
) -> dict[str, InstructionInsight]:
    """Inverse of insight_rows, minus call paths (not needed downstream)."""
    rows = read_csv_rows(text, path)
    if not rows or tuple(rows[0]) != INSIGHTS_COLUMNS:
        raise MalformedLine(f"{path}: expected header {','.join(INSIGHTS_COLUMNS)}")
    # Rows repeat cells (every instruction carries the baseline), so each
    # distinct cell is expanded once per call.
    parsed: dict[str, frozenset[str]] = {}

    def labels(cell: str) -> frozenset[str]:
        if cell not in parsed:
            parsed[cell] = frozenset(
                label for token in cell.split() for label in expand_label_range(token)
            )
        return parsed[cell]

    insights: dict[str, InstructionInsight] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(INSIGHTS_COLUMNS):
            raise MalformedLine(f"{path}:{lineno}: expected {len(INSIGHTS_COLUMNS)} columns")
        name, privs, er, ir, ew, iw, externals, _via = row
        if name in insights:
            raise MalformedLine(f"{path}:{lineno}: duplicate instruction {name!r}")
        try:
            footprint = Footprint(labels(er), labels(ir), labels(ew), labels(iw))
        except MalformedLine as exc:
            raise MalformedLine(f"{path}:{lineno}: {exc}") from None
        insights[name] = InstructionInsight(
            instruction=name,
            privileges=frozenset(privs.split()),
            footprint=footprint,
            externals=frozenset(externals.split()),
        )
    return insights
