"""Security-sensitivity classification between privilege mode pairs.

Builds a per-(mode, state) access matrix from instruction insights plus the
architectural access table, then decides for a (source, target) mode pair
which states let the outgoing domain attack the incoming one, and how.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Container, Mapping, NamedTuple, NoReturn

from . import jsonout
from .backend import BackendConfig
from .errors import MalformedLine, UnknownMode, UnknownState
from .footprint import InstructionInsight
from .isa_model import ExplicitAccess, StateEntry, StateTable, split_label

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


# The per-mode label sets of an AccessMatrix: one per access flag, then the
# implicit labels that whole<->field derivation added.
FLAG_SETS = ("explicit_read", "explicit_write", "implicit_read", "implicit_write")
DERIVED_SETS = (("implicit_read", "derived_read"), ("implicit_write", "derived_write"))


class AccessMatrix:
    """Per mode, the labels holding each access flag; the rules are set
    operations over them.

    `sets[mode]` maps each name in FLAG_SETS to the labels with that flag,
    and `derived_read`/`derived_write` to the implicit labels set by
    whole<->field derivation.
    """

    def __init__(self, modes: tuple[str, ...], table: StateTable, sets: Mapping[str, dict]):
        self.modes = modes
        self.table = table
        self.sets = sets

    def _sets_of(self, mode: str) -> Mapping[str, set[str]]:
        if mode not in self.sets:
            raise UnknownMode(f"unknown mode {mode!r}; expected one of {', '.join(self.modes)}")
        return self.sets[mode]

    def flags(self, mode: str, label: str) -> AccessFlags:
        sets = self._sets_of(mode)
        if label not in self.table:
            raise UnknownState(f"unknown state {label!r}")
        return AccessFlags(
            *(label in sets[flag] for flag in FLAG_SETS),
            derived=frozenset(flag for flag, key in DERIVED_SETS if label in sets[key]),
        )

    def rule_hits(self, source: str, target: str) -> dict[str, set[str]]:
        """Each rule with the labels it fires on for the pair, in rule order.

        W is explicit or implicit write, R explicit or implicit read, and D
        implicit read: rule-i fires on W_s & D_t, rule-ii/iii on W_s & R_t,
        and rule-iv on D_s & R_t.
        """
        src, tgt = self._sets_of(source), self._sets_of(target)
        w_s = src["explicit_write"] | src["implicit_write"]
        r_t = tgt["explicit_read"] | tgt["implicit_read"]
        return {
            RULE_I: w_s & tgt["implicit_read"],
            RULE_II_III: w_s & r_t,
            RULE_IV: src["implicit_read"] & r_t,
        }


def _derive_whole_field(origin: set[str], table: StateTable) -> set[str]:
    """Add to `origin` the parents and fields of its labels, one step, and
    return what was added."""
    additions: set[str] = set()
    for label in origin:
        entry = table[label]
        if entry.is_field:
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
    """Populate the matrix from the implicit footprint labels of executable
    instructions, then derive whole<->field implicit flags one step.

    Instructions that share a (privileges, implicit reads, implicit writes)
    triple form one group, which is checked and unioned into the modes it
    admits once. A group keeps the key of its first instruction in sorted
    order, so an error names that instruction and the first bad label of
    its own sets. An instruction that runs in no mode is not checked for
    unknown labels. A flag derived from a sibling's original access does
    not seed further derivation, so one written field never marks its
    siblings written. A state's mode cells must name the backend's modes.
    """
    modes = backend.mode_order
    sets = {m: {flag: set() for flag in FLAG_SETS} for m in modes}
    groups: dict[tuple[frozenset[str], frozenset[str], frozenset[str]], str] = {}
    for name in sorted(insights):
        ins = insights[name]
        fp = ins.footprint
        groups.setdefault((ins.privileges, fp.implicit_reads, fp.implicit_writes), name)
    known, mode_set = table.entries.keys(), frozenset(modes)
    for (privileges, reads, writes), name in groups.items():
        if not privileges <= mode_set:
            raise UnknownMode(
                f"instruction {name!r} runs in unknown mode {min(privileges - mode_set)!r}; "
                f"expected one of {', '.join(modes)}"
            )
        admitted = [m for m in modes if m in privileges]
        if not admitted:
            continue
        for labels in (reads, writes):
            if not known >= labels:
                label = next(label for label in labels if label not in known)
                raise UnknownState(
                    f"instruction {name!r} references unknown state {label!r}"
                )
        for m in admitted:
            sets[m]["implicit_read"] |= reads
            sets[m]["implicit_write"] |= writes
    for label in table.labels():
        for verb, cells, flag in (
            ("readable", explicit.read_modes, "explicit_read"),
            ("writable", explicit.write_modes, "explicit_write"),
        ):
            label_modes = cells.get(label, frozenset())
            if not label_modes <= mode_set:
                raise UnknownMode(
                    f"state {label!r} is {verb} in unknown mode "
                    f"{min(label_modes - mode_set)!r}; expected one of {', '.join(modes)}"
                )
            for m in label_modes:
                sets[m][flag].add(label)
    for flag, key in DERIVED_SETS:
        for m in modes:
            sets[m][key] = _derive_whole_field(sets[m][flag], table)
    return AccessMatrix(modes, table, sets)


class Sensitivity(NamedTuple):
    """One state's verdict. A tuple, built once per state of every report."""
    state: str
    kind: str
    source: str
    target: str
    sensitive: bool
    classes: tuple[str, ...]
    rules: tuple[str, ...]
    justification: tuple[str, ...]
    bidirectional: bool = False


# Each rule: the classes it adds and the justification it gives.
_RULES = {
    RULE_GPR: (ALL_CLASSES, "gpr-default: operand registers are sensitive by default"),
    RULE_I: (
        (CLASS_INTEGRITY,),
        "rule-i: source can write (W_s) and target execution depends on it (D_t)",
    ),
    RULE_II_III: (
        (CLASS_SIDE, CLASS_COVERT),
        "rule-ii/iii: source can write (W_s) and target can read (R_t)",
    ),
    RULE_IV: (
        (CLASS_SIDE,),
        "rule-iv: source content is observable (D_s) and target can read (R_t)",
    ),
}


def classify(label: str, source: str, target: str, matrix: AccessMatrix) -> Sensitivity:
    entry = matrix.table.resolve(label)
    return _verdict(entry, source, target, matrix.rule_hits(source, target), ())


@functools.cache
def _outcome(rules: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The classes, in ALL_CLASSES order, and the justification of the rules."""
    classes = tuple(c for c in ALL_CLASSES if any(c in _RULES[r][0] for r in rules))
    return classes, tuple(_RULES[r][1] for r in rules)


def _verdict(
    entry: StateEntry, source: str, target: str, hits: dict, both_ways: Container[str]
) -> Sensitivity:
    """The verdict of the rules that fire on the entry; a GPR state is
    sensitive by default whatever fires. A side channel is bidirectional
    when its label is in `both_ways`."""
    if entry.kind == GPR_KIND:
        rules: tuple[str, ...] = (RULE_GPR,)
    else:
        rules = tuple(rule for rule, on in hits.items() if entry.label in on)
    classes, justification = _outcome(rules)
    bidirectional = CLASS_SIDE in classes and entry.label in both_ways
    # Positional arguments: this runs once per state.
    return Sensitivity(
        entry.label, entry.kind, source, target, bool(rules), classes, rules, justification,
        bidirectional,
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


def classify_all(source: str, target: str, matrix: AccessMatrix) -> SensitivityReport:
    """One verdict per state, deterministic order, both granularities.

    A whole register that stayed quiet is escalated to sensitive when any of
    its fields is sensitive, so field findings never hide at register level.
    Side-channel verdicts are annotated bidirectional when the swapped mode
    pair produces a side channel as well.
    """
    hits = matrix.rule_hits(source, target)
    table = matrix.table
    # The states whose side channel is bidirectional: all of them for one
    # mode, else those the swapped pair's side-channel rules fire on, and
    # every GPR state.
    if source == target:
        both_ways = table.entries.keys()
    else:
        back = matrix.rule_hits(target, source)
        both_ways = set().union(*(on for rule, on in back.items() if CLASS_SIDE in _RULES[rule][0]))
        both_ways.update(label for label, e in table.entries.items() if e.kind == GPR_KIND)
    verdicts = {
        label: _verdict(table[label], source, target, hits, both_ways) for label in table.labels()
    }

    # field -> whole escalation
    for label in table.labels():
        entry = table[label]
        if entry.is_field or verdicts[label].sensitive:
            continue
        field_hits = [
            verdicts[e.label] for e in table.fields_of(label) if verdicts[e.label].sensitive
        ]
        if not field_hits:
            continue
        classes = tuple(c for c in ALL_CLASSES if any(c in f.classes for f in field_hits))
        fields = ", ".join(sorted(f.state for f in field_hits))
        verdicts[label] = Sensitivity(
            label, entry.kind, source, target, True, classes, ("field-escalation",),
            (f"field-escalation: sensitive fields {fields}",),
            CLASS_SIDE in classes and label in both_ways,
        )
    return SensitivityReport(source=source, target=target, results=tuple(verdicts.values()))


# -- serialization -----------------------------------------------------------

SENSITIVITY_COLUMNS = (
    "register", "field", "source", "target", "sensitive", "classes", "rules_fired",
)


def sensitivity_rows(report: SensitivityReport) -> list[dict[str, str]]:
    rows = []
    for s in report.results:
        register, fieldname = split_label(s.state)
        rows.append({
            "register": register,
            "field": fieldname or "",
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
    return jsonout.dumps(doc)


def _json_typed(value, kind: type, key: str, index: int | None = None):
    """`value` if it is a `kind`, else MalformedLine naming the report field."""
    if type(value) is kind:
        return value
    where = key if index is None else f"states[{index}].{key}"
    raise MalformedLine(f"{where} must be a {kind.__name__}, got {type(value).__name__}")


def _state_fault(item: dict, i: int, seen: Container[str]) -> NoReturn:
    """Raise the error of the first bad field of `states[i]`, in field order."""
    if "state" not in item:
        raise MalformedLine(f"states[{i}] lacks key 'state'")
    state = _json_typed(item["state"], str, "state", i)
    if not state:
        raise MalformedLine(f"states[{i}] has an empty state name")
    if state in seen:
        raise MalformedLine(f"states[{i}] repeats state {state!r}")
    _json_typed(item.get("kind", ""), str, "kind", i)
    if "sensitive" not in item:
        raise MalformedLine(f"states[{i}] lacks key 'sensitive'")
    _json_typed(item["sensitive"], bool, "sensitive", i)
    for key in ("classes", "rules_fired", "justification"):
        value = item.get(key, [])
        if type(value) is not list or not all(type(v) is str for v in value):
            raise MalformedLine(f"states[{i}].{key} must be a list of strings")
    _json_typed(item.get("bidirectional", False), bool, "bidirectional", i)
    raise AssertionError(f"states[{i}] has no fault")


def report_from_json(text: str) -> SensitivityReport:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and numbers past the int-digit
        # limit; RecursionError, arrays or objects nested too deep.
        raise MalformedLine(f"invalid JSON: {exc}") from None
    try:
        source = _json_typed(doc["source"], str, "source")
        target = _json_typed(doc["target"], str, "target")
        states = doc["states"]
    except KeyError as exc:
        raise MalformedLine(f"sensitivity report lacks key {exc}") from None
    except TypeError as exc:
        raise MalformedLine(f"sensitivity report has the wrong shape: {exc}") from None
    if type(states) is not list:
        raise MalformedLine("states must be a list")
    # Each field is tested inline, as this runs once per state of a saved
    # report; _state_fault only finds and words the error.
    verdicts: dict[str, Sensitivity] = {}
    for i, item in enumerate(states):
        if type(item) is not dict:
            raise MalformedLine(f"states[{i}] must be an object")
        get = item.get
        state, kind, sensitive = get("state"), get("kind", ""), get("sensitive")
        classes, rules = get("classes", []), get("rules_fired", [])
        justification, bidirectional = get("justification", []), get("bidirectional", False)
        if not (
            type(state) is str and state and state not in verdicts and type(kind) is str
            and type(sensitive) is bool and type(bidirectional) is bool
            and type(classes) is list and type(rules) is list and type(justification) is list
        ):
            _state_fault(item, i, verdicts)
        try:
            "".join(classes + rules + justification)  # TypeError on an item that is not a str
        except TypeError:
            _state_fault(item, i, verdicts)
        verdicts[state] = Sensitivity(
            state, kind, source, target, sensitive,
            tuple(classes), tuple(rules), tuple(justification), bidirectional,
        )
    return SensitivityReport(source=source, target=target, results=tuple(verdicts.values()))
