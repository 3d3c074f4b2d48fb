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
from dataclasses import dataclass, fields
from typing import Iterable, Mapping

from .backend import BackendConfig, BankSpec
from .errors import MalformedLine, MissingEntryFunction
from .isa_model import (
    bank_labels,
    compress_labels,
    expand_label_range,
    guards_from_harvest,
    read_csv_rows,
    state_label,
)
from .parser import Body, SailModel

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

    def intersection(self, other: "Footprint") -> "Footprint":
        if not (self and other):
            return EMPTY_FOOTPRINT
        return Footprint(
            self.explicit_reads & other.explicit_reads,
            self.implicit_reads & other.implicit_reads,
            self.explicit_writes & other.explicit_writes,
            self.implicit_writes & other.implicit_writes,
        )

    def difference(self, other: "Footprint") -> "Footprint":
        if not (self and other):
            return self
        return Footprint(
            self.explicit_reads - other.explicit_reads,
            self.implicit_reads - other.implicit_reads,
            self.explicit_writes - other.explicit_writes,
            self.implicit_writes - other.implicit_writes,
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
_FOOTPRINT_COLUMNS = tuple(f.name for f in fields(Footprint))


_BankElements = Mapping[BankSpec, tuple[frozenset[str], frozenset[str]]]


def _bank_elements(model: SailModel, backend: BackendConfig) -> _BankElements:
    """Each bank's (read, written) element labels; writes skip the
    hardwired-zero element."""
    out = {}
    for bank in backend.banks:
        labels = frozenset(bank_labels(model, bank))
        out[bank] = (labels, labels - {backend.hardwired_zero})
    return out


def _own_facts(
    body: Body, model: SailModel, backend: BackendConfig, banks: _BankElements
) -> tuple[Footprint, frozenset[str], _Reach]:
    """What one function or execute clause body does by itself: its
    footprint, the defined callees propagation follows, and its _Reach.

    Accesses inside configured CSR helper bodies are explicit on the helper's
    direction. Direct indexing into a register bank has a dynamic index, so
    it touches every element, implicitly. A bank accessor call is explicit
    operand access, not a call edge.
    """
    h = body.harvest
    explicit_reads: set[str] = set()
    implicit_reads: set[str] = set()
    explicit_writes: set[str] = set()
    implicit_writes: set[str] = set()
    for accesses, in_helper, is_write, explicit, implicit in (
        (h.reads, body.name in backend.csr_read_helpers, False, explicit_reads, implicit_reads),
        (h.writes, body.name in backend.csr_write_helpers, True, explicit_writes, implicit_writes),
    ):
        for reg, fieldname in accesses:
            bank = backend.bank_for_register(reg)
            if bank is not None:
                implicit |= banks[bank][is_write]
            else:
                (explicit if in_helper else implicit).add(state_label(reg, fieldname))
    follow: set[str] = set()
    externals: set[str] = set()
    for name in h.callees | h.lvalue_callees:
        bank = backend.bank_for_accessor(name)
        if bank is not None:
            if name in h.callees:
                explicit_reads |= banks[bank][False]
            if name in h.lvalue_callees:
                explicit_writes |= banks[bank][True]
        elif name in model.functions:
            follow.add(name)
        else:
            externals.add(name)
    footprint = Footprint(
        frozenset(explicit_reads), frozenset(implicit_reads),
        frozenset(explicit_writes), frozenset(implicit_writes),
    )
    return footprint, frozenset(follow), _Reach(frozenset(externals), guards_from_harvest(h, backend))


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


def function_footprints(model: SailModel, backend: BackendConfig) -> dict[str, Footprint]:
    banks = _bank_elements(model, backend)
    return propagate({
        name: _own_facts(fn, model, backend, banks)[:2] for name, fn in model.functions.items()
    })


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


@dataclass(frozen=True)
class InstructionInsight:
    instruction: str
    privileges: frozenset[str]
    footprint: Footprint
    externals: frozenset[str]
    # The groups the `via` cell writes: (footprint column, call path "f>g" or
    # "baseline", labels), ordered by column as in insights.csv, then by path.
    via: tuple[tuple[str, str, frozenset[str]], ...] = ()


def _via_paths(
    need: Footprint,
    direct: Mapping[str, Footprint],
    callees_of: Mapping[str, list[str]],
    start: list[str],
) -> dict[str, Footprint]:
    """Shortest call path, from the sorted callees `start`, to a function
    whose own footprint holds each label of `need`, grouped by path."""
    out: dict[str, Footprint] = {}
    queue: deque[tuple[str, tuple[str, ...]]] = deque((n, (n,)) for n in start)
    visited: set[str] = set(start)
    while queue and need:
        name, path = queue.popleft()
        found = need.intersection(direct[name])
        if found:
            out[">".join(path)] = found
            need = need.difference(found)
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
    banks = _bank_elements(model, backend)
    facts = {name: _own_facts(fn, model, backend, banks) for name, fn in model.functions.items()}
    resolved = propagate({name: (fp, follow) for name, (fp, follow, _) in facts.items()})
    reach = propagate({name: (r, follow) for name, (_, follow, r) in facts.items()})
    baseline = _baseline(resolved, backend) if include_baseline else EMPTY_FOOTPRINT
    all_modes = frozenset(backend.mode_order)
    direct = {name: fp for name, (fp, _, _) in facts.items()}
    callees_of = {name: sorted(follow) for name, (_, follow, _) in facts.items()}
    # Clauses share label sets (every one carries the baseline), so each
    # distinct `via` set is kept once.
    shared: dict[frozenset[str], frozenset[str]] = {}

    out: dict[str, InstructionInsight] = {}
    for name, clause in model.execute_clauses.items():
        own, follow, closed = _own_facts(clause, model, backend, banks)
        callees = sorted(follow)
        total = own
        for callee in callees:
            total = total.union(resolved[callee])
            closed = closed.union(reach[callee])
        paths = _via_paths(total.difference(own), direct, callees_of, callees)
        if include_baseline:
            rest = baseline.difference(total)
            if rest:  # a function named `baseline` shares the marker's group
                paths["baseline"] = rest.union(paths.get("baseline", EMPTY_FOOTPRINT))
            total = total.union(baseline)
        ordered = sorted(paths.items())
        out[name] = InstructionInsight(
            instruction=name,
            privileges=all_modes if closed.guards is None else closed.guards,
            footprint=total,
            externals=closed.externals,
            via=tuple(
                (column, path, shared.setdefault(labels, labels))
                for column in _FOOTPRINT_COLUMNS
                for path, fp in ordered
                if (labels := getattr(fp, column))
            ),
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


_VIA_MARKERS = dict(zip(_FOOTPRINT_COLUMNS, ("r", "r~", "w", "w~")))


def insight_rows(
    insights: Mapping[str, InstructionInsight], backend: BackendConfig
) -> list[dict[str, str]]:
    # Rows repeat cells (every instruction carries the baseline) and `via`
    # label groups, so each distinct one is compressed once per call.
    cells: dict[frozenset[str], str] = {}
    via_labels: dict[frozenset[str], str] = {}

    def cell(labels: frozenset[str]) -> str:
        if labels not in cells:
            cells[labels] = " ".join(compress_labels(labels))
        return cells[labels]

    def via_group(labels: frozenset[str]) -> str:
        if labels not in via_labels:
            via_labels[labels] = ",".join(compress_labels(labels))
        return via_labels[labels]

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
            "via": "; ".join(
                f"{_VIA_MARKERS[column]}[{path}]={via_group(labels)}"
                for column, path, labels in ins.via
            ),
        })
    return rows


def load_insights_csv(
    text: str, path: str = "<insights>"
) -> dict[str, InstructionInsight]:
    """Inverse of insight_rows, minus call paths (not needed downstream)."""
    # Rows repeat cells (every instruction carries the baseline), so each
    # distinct cell is expanded once per call, and equal cells share one set;
    # only a token holding '..' can be a range.
    parsed: dict[str, frozenset[str]] = {}
    modes: dict[str, frozenset[str]] = {}

    def labels(cell: str) -> frozenset[str]:
        if cell not in parsed:
            parsed[cell] = frozenset(
                label for token in cell.split()
                for label in (expand_label_range(token) if ".." in token else (token,))
            )
        return parsed[cell]

    insights: dict[str, InstructionInsight] = {}
    for lineno, row in read_csv_rows(text, path, INSIGHTS_COLUMNS):
        name, privs, er, ir, ew, iw, externals, _via = row
        if name in insights:
            raise MalformedLine(f"{path}:{lineno}: duplicate instruction {name!r}")
        try:
            footprint = Footprint(labels(er), labels(ir), labels(ew), labels(iw))
        except MalformedLine as exc:
            raise MalformedLine(f"{path}:{lineno}: {exc}") from None
        if privs not in modes:
            modes[privs] = frozenset(privs.split())
        insights[name] = InstructionInsight(
            instruction=name,
            privileges=modes[privs],
            footprint=footprint,
            externals=frozenset(externals.split()),
        )
    return insights
