"""Security-sensitivity classification between privilege mode pairs.

Builds a per-(mode, state) access matrix from instruction insights plus the
architectural access table, then decides for a (source, target) mode pair
which states let the outgoing domain attack the incoming one, and how.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping

from .backend import BackendConfig
from .errors import MalformedLine, UnknownMode, UnknownState
from .footprint import TAG_IMPLICIT, InstructionInsight
from .isa_model import ExplicitAccess, StateTable, natural_key

CLASS_INTEGRITY = "ComputationalIntegrity"
CLASS_SIDE = "SideChannel"
CLASS_COVERT = "CovertChannel"
ALL_CLASSES = (CLASS_INTEGRITY, CLASS_SIDE, CLASS_COVERT)

RULE_GPR = "gpr-default"
RULE_I = "rule-i"
RULE_II_III = "rule-ii/iii"
RULE_IV = "rule-iv"

# Bank kind treated as generally readable/writable scratch state. Only this
# kind is sensitive by default; other banks earn verdicts from the rules.
GPR_KIND = "gpr"


@dataclass(frozen=True)
class AccessFlags:
    explicit_read: bool = False
    explicit_write: bool = False
    implicit_read: bool = False
    implicit_write: bool = False
    derived: frozenset[str] = frozenset()  # implicit flags set via whole<->field


class AccessMatrix:
    """Per (mode, state): the four access booleans driving the rules.

    The implicit maps hold, per mode, every label with an implicit flag; the
    derived maps hold the subset set by whole<->field derivation.
    """

    def __init__(
        self,
        modes: tuple[str, ...],
        table: StateTable,
        explicit: ExplicitAccess,
        implicit_read: Mapping[str, set[str]],
        implicit_write: Mapping[str, set[str]],
        derived_read: Mapping[str, set[str]],
        derived_write: Mapping[str, set[str]],
    ):
        self.modes = modes
        self.table = table
        self._explicit = explicit
        self._impl_read = implicit_read
        self._impl_write = implicit_write
        self._derived_read = derived_read
        self._derived_write = derived_write

    def flags(self, mode: str, label: str) -> AccessFlags:
        if mode not in self._impl_read:
            raise UnknownMode(f"unknown mode {mode!r}; expected one of {', '.join(self.modes)}")
        if label not in self.table:
            raise UnknownState(f"unknown state {label!r}")
        derived = set()
        if label in self._derived_read[mode]:
            derived.add("implicit_read")
        if label in self._derived_write[mode]:
            derived.add("implicit_write")
        return AccessFlags(
            explicit_read=self._explicit.readable(label, mode),
            explicit_write=self._explicit.writable(label, mode),
            implicit_read=label in self._impl_read[mode],
            implicit_write=label in self._impl_write[mode],
            derived=frozenset(derived),
        )


def _derive_whole_field(origin: set[str], table: StateTable) -> set[str]:
    """Add to `origin` the parents and fields of its labels, one step, and
    return what was added."""
    additions: set[str] = set()
    for label in origin:
        entry = table[label]
        if entry.ref.field is not None:
            if entry.parent in table:
                additions.add(entry.parent)
        else:
            additions.update(e.label for e in table.fields_of(label))
    new = additions - origin
    origin |= new
    return new


def build_access_matrix(
    insights: Mapping[str, InstructionInsight],
    explicit: ExplicitAccess,
    table: StateTable,
    backend: BackendConfig,
) -> AccessMatrix:
    """Populate the matrix from implicit footprint entries of executable
    instructions, then derive whole<->field implicit flags one step.

    One pass over the instructions checks each implicit label once and adds
    it to every mode the instruction runs in. A flag derived from a sibling's
    original access does not seed further derivation, so one written field
    never marks its siblings written.
    """
    modes = backend.mode_order
    impl_read: dict[str, set[str]] = {m: set() for m in modes}
    impl_write: dict[str, set[str]] = {m: set() for m in modes}
    for name in sorted(insights):
        ins = insights[name]
        admitted = [m for m in modes if m in ins.privileges]
        if not admitted:
            continue
        for entries, by_mode in (
            (ins.footprint.reads, impl_read),
            (ins.footprint.writes, impl_write),
        ):
            for ref, tag in entries:
                if tag != TAG_IMPLICIT:
                    continue
                label = ref.label
                if label not in table:
                    raise UnknownState(
                        f"instruction {name!r} references unknown state {label!r}"
                    )
                for m in admitted:
                    by_mode[m].add(label)
    derived_read = {m: _derive_whole_field(impl_read[m], table) for m in modes}
    derived_write = {m: _derive_whole_field(impl_write[m], table) for m in modes}
    return AccessMatrix(
        modes, table, explicit, impl_read, impl_write, derived_read, derived_write
    )


@dataclass(frozen=True)
class Sensitivity:
    state: str
    kind: str
    source: str
    target: str
    sensitive: bool
    classes: tuple[str, ...]
    rules: tuple[str, ...]
    justification: tuple[str, ...]
    bidirectional: bool = False


def _classify_flags(kind: str, src: AccessFlags, tgt: AccessFlags):
    """The rule core over the four booleans; shared by classify and tests."""
    w_s = src.explicit_write or src.implicit_write
    d_s = src.implicit_read
    r_t = tgt.explicit_read or tgt.implicit_read
    d_t = tgt.implicit_read

    classes: list[str] = []
    rules: list[str] = []
    justification: list[str] = []
    if kind == GPR_KIND:
        classes = list(ALL_CLASSES)
        rules = [RULE_GPR]
        justification = ["gpr-default: operand registers are sensitive by default"]
        return classes, rules, justification
    if w_s and d_t:
        classes.append(CLASS_INTEGRITY)
        rules.append(RULE_I)
        justification.append(
            "rule-i: source can write (W_s) and target execution depends on it (D_t)"
        )
    if w_s and r_t:
        for c in (CLASS_SIDE, CLASS_COVERT):
            if c not in classes:
                classes.append(c)
        rules.append(RULE_II_III)
        justification.append(
            "rule-ii/iii: source can write (W_s) and target can read (R_t)"
        )
    if d_s and r_t:
        if CLASS_SIDE not in classes:
            classes.append(CLASS_SIDE)
        rules.append(RULE_IV)
        justification.append(
            "rule-iv: source content is observable (D_s) and target can read (R_t)"
        )
    ordered = [c for c in ALL_CLASSES if c in classes]
    return ordered, rules, justification


def classify(
    label: str,
    source: str,
    target: str,
    matrix: AccessMatrix,
) -> Sensitivity:
    entry = matrix.table.resolve(label)
    src = matrix.flags(source, label)
    tgt = matrix.flags(target, label)
    classes, rules, justification = _classify_flags(entry.kind, src, tgt)
    return Sensitivity(
        state=label,
        kind=entry.kind,
        source=source,
        target=target,
        sensitive=bool(classes),
        classes=tuple(classes),
        rules=tuple(rules),
        justification=tuple(justification),
    )


@dataclass(frozen=True)
class SensitivityReport:
    source: str
    target: str
    results: tuple[Sensitivity, ...]

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def sensitive_count(self) -> int:
        return sum(1 for s in self.results if s.sensitive)

    def by_state(self) -> dict[str, Sensitivity]:
        return {s.state: s for s in self.results}


def classify_all(
    source: str,
    target: str,
    matrix: AccessMatrix,
) -> SensitivityReport:
    """One verdict per state, deterministic order, both granularities.

    A whole register that stayed quiet is escalated to sensitive when any of
    its fields is sensitive, so field findings never hide at register level.
    Side-channel verdicts are annotated bidirectional when the swapped mode
    pair produces a side channel as well.
    """
    for mode in (source, target):
        if mode not in matrix.modes:
            raise UnknownMode(
                f"unknown mode {mode!r}; expected one of {', '.join(matrix.modes)}"
            )
    table = matrix.table
    verdicts: dict[str, Sensitivity] = {}
    for label in table.labels():
        verdicts[label] = classify(label, source, target, matrix)

    # field -> whole escalation
    for label in table.labels():
        entry = table[label]
        if entry.ref.field is not None or verdicts[label].sensitive:
            continue
        field_hits = [
            verdicts[e.label] for e in table.fields_of(label)
            if verdicts[e.label].sensitive
        ]
        if not field_hits:
            continue
        classes = tuple(
            c for c in ALL_CLASSES if any(c in f.classes for f in field_hits)
        )
        fields = ", ".join(sorted(f.state for f in field_hits))
        verdicts[label] = Sensitivity(
            state=label,
            kind=entry.kind,
            source=source,
            target=target,
            sensitive=True,
            classes=classes,
            rules=("field-escalation",),
            justification=(f"field-escalation: sensitive fields {fields}",),
        )

    # bidirectional side channels
    if source != target:
        for label, v in verdicts.items():
            if CLASS_SIDE not in v.classes:
                continue
            entry = table[label]
            back_src = matrix.flags(target, label)
            back_tgt = matrix.flags(source, label)
            back_classes, _, _ = _classify_flags(entry.kind, back_src, back_tgt)
            if CLASS_SIDE in back_classes:
                verdicts[label] = Sensitivity(
                    **{**v.__dict__, "bidirectional": True}
                )
    else:
        for label, v in verdicts.items():
            if CLASS_SIDE in v.classes:
                verdicts[label] = Sensitivity(
                    **{**v.__dict__, "bidirectional": True}
                )

    ordered = tuple(verdicts[label] for label in table.labels())
    return SensitivityReport(source=source, target=target, results=ordered)


# -- serialization -----------------------------------------------------------

SENSITIVITY_COLUMNS = (
    "register", "field", "source", "target", "sensitive", "classes", "rules_fired",
)


def sensitivity_rows(report: SensitivityReport) -> list[dict[str, str]]:
    rows = []
    for s in report.results:
        register, _, fieldname = s.state.partition(".")
        rows.append({
            "register": register,
            "field": fieldname,
            "source": s.source,
            "target": s.target,
            "sensitive": "true" if s.sensitive else "false",
            "classes": ";".join(s.classes),
            "rules_fired": ";".join(s.rules),
        })
    return rows


def report_to_json(report: SensitivityReport) -> str:
    doc = {
        "source": report.source,
        "target": report.target,
        "summary": {
            "total_states": report.total,
            "sensitive_states": report.sensitive_count,
        },
        "states": [
            {
                "state": s.state,
                "kind": s.kind,
                "sensitive": s.sensitive,
                "classes": list(s.classes),
                "rules_fired": list(s.rules),
                "justification": list(s.justification),
                "bidirectional": s.bidirectional,
            }
            for s in report.results
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def report_from_json(text: str) -> SensitivityReport:
    try:
        doc = json.loads(text)
        source, target = doc["source"], doc["target"]
        results = tuple(
            Sensitivity(
                state=item["state"],
                kind=item.get("kind", ""),
                source=source,
                target=target,
                sensitive=bool(item["sensitive"]),
                classes=tuple(item.get("classes", ())),
                rules=tuple(item.get("rules_fired", ())),
                justification=tuple(item.get("justification", ())),
                bidirectional=bool(item.get("bidirectional", False)),
            )
            for item in doc["states"]
        )
    except json.JSONDecodeError as exc:
        raise MalformedLine(f"invalid JSON: {exc}") from None
    except KeyError as exc:
        raise MalformedLine(f"sensitivity report lacks key {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise MalformedLine(f"sensitivity report has the wrong shape: {exc}") from None
    return SensitivityReport(source=source, target=target, results=results)
