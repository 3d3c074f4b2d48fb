"""Architectural state inventory and access rules.

Turns a parsed corpus plus a backend config into:
  * a state table (internal registers, per-element register banks, CSRs and
    their named fields) with widths, kinds, and addresses,
  * per-mode explicit accessibility for every state,
  * the privilege guards recognised in one function or clause body.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from dataclasses import dataclass

from .backend import BackendConfig
from .errors import MalformedLine, UnknownCsrAddress, UnknownState
from .parser import Body, Harvest, SailModel, int_literal


@dataclass(frozen=True)
class StateRef:
    register: str
    field: str | None = None

    @property
    def label(self) -> str:
        return f"{self.register}.{self.field}" if self.field else self.register

    @staticmethod
    def parse(label: str) -> "StateRef":
        reg, _, fieldname = label.partition(".")
        return StateRef(reg, fieldname or None)


_DIGIT_RUN = re.compile(r"([0-9]+)")


def natural_key(label: str):
    """Sort key that orders x2 before x10.

    A run of ASCII digits compares by value as (length, digits) without its
    leading zeros, so it needs no int() and any label has a key."""
    parts: list = _DIGIT_RUN.split(label)
    for i in range(1, len(parts), 2):
        digits = parts[i].lstrip("0")
        parts[i] = (len(digits), digits)
    return tuple(parts)


@dataclass(frozen=True)
class StateEntry:
    ref: StateRef
    kind: str            # internal | gpr | fpr | vector | csr | csr_field | ...
    width: int | None
    parent: str | None   # register label for fields, bank register for elements
    address: int | None  # CSR address when mapped

    @property
    def label(self) -> str:
        return self.ref.label


class StateTable:
    def __init__(self, entries: list[StateEntry]):
        self.entries: dict[str, StateEntry] = {e.label: e for e in entries}
        # Indexed once so lookups stay linear in the state count; callers
        # get copies, never these containers.
        fields: dict[str, list[StateEntry]] = {}
        for e in self.entries.values():
            if e.parent is not None and e.ref.field is not None:
                fields.setdefault(e.parent, []).append(e)
        self._fields: dict[str, tuple[StateEntry, ...]] = {
            parent: tuple(group) for parent, group in fields.items()
        }
        self._labels: tuple[str, ...] = tuple(sorted(self.entries, key=natural_key))

    def __contains__(self, label: str) -> bool:
        return label in self.entries

    def __getitem__(self, label: str) -> StateEntry:
        return self.entries[label]

    def __len__(self) -> int:
        return len(self.entries)

    def labels(self) -> list[str]:
        return list(self._labels)

    def resolve(self, label: str) -> StateEntry:
        try:
            return self.entries[label]
        except KeyError:
            raise UnknownState(f"unknown state {label!r}") from None

    def fields_of(self, register: str) -> list[StateEntry]:
        return list(self._fields.get(register, ()))

    def covered_by(self, label: str) -> frozenset[str]:
        """The label itself plus every field it contains."""
        out = {label}
        entry = self.entries.get(label)
        if entry is not None and entry.ref.field is None:
            out.update(e.label for e in self.fields_of(label))
        return frozenset(out)


def _alias_width(name: str | None, model: SailModel) -> int | None:
    if name is None:
        return None
    return model.type_aliases.get(name)


def _register_width(regname: str, model: SailModel) -> int | None:
    rt = model.registers[regname].rtype
    if rt.base == "bits":
        return rt.width
    bf = model.bitfield_types.get(rt.base)
    if bf is not None:
        return bf.width if bf.width is not None else _alias_width(bf.width_alias, model)
    return _alias_width(rt.base, model)


def discover_states(
    model: SailModel, backend: BackendConfig, *, strict: bool = True
) -> StateTable:
    """Enumerate every architectural state the analysis tracks.

    Register banks named by the backend expand to one state per element.
    Registers appearing in the CSR address mapping become csr states, and
    their bitfield members become csr_field states. Everything else declared
    as a register is internal state.
    """
    addresses: dict[str, int] = {}
    for addr, regname in model.mappings.get(backend.csr_address_mapping, ()):
        if regname not in model.registers:
            if strict:
                raise UnknownCsrAddress(
                    f"address mapping {backend.csr_address_mapping!r} names "
                    f"undeclared register {regname!r} at {addr:#x}"
                )
            continue
        addresses.setdefault(regname, addr)

    entries: list[StateEntry] = []
    for regname in sorted(model.registers, key=natural_key):
        decl = model.registers[regname]
        bank = backend.bank_for_register(regname)
        if bank is not None:
            size = decl.rtype.size or 0
            width = _alias_width(decl.rtype.elem, model)
            for i in range(size):
                entries.append(StateEntry(
                    StateRef(f"{bank.prefix}{i}"), bank.kind, width, regname, None
                ))
            continue
        address = addresses.get(regname)
        kind = "csr" if address is not None else "internal"
        width = _register_width(regname, model)
        entries.append(StateEntry(StateRef(regname), kind, width, None, address))
        bf = model.bitfield_types.get(decl.rtype.base)
        if bf is not None:
            for f in bf.fields:
                entries.append(StateEntry(
                    StateRef(regname, f.name), f"{kind}_field", f.width, regname, address
                ))
    return StateTable(entries)


# -- explicit access -------------------------------------------------------


@dataclass(frozen=True)
class CsrPermissionRule:
    """How a CSR address encodes its own access policy."""

    min_priv_slice: tuple[int, int]            # (hi, lo), unsigned level
    read_only_slice: tuple[int, int] | None
    read_only_value: int | None

    def min_level(self, address: int) -> int:
        hi, lo = self.min_priv_slice
        return (address >> lo) & ((1 << (hi - lo + 1)) - 1)

    def is_read_only(self, address: int) -> bool:
        if self.read_only_slice is None or self.read_only_value is None:
            return False
        hi, lo = self.read_only_slice
        return ((address >> lo) & ((1 << (hi - lo + 1)) - 1)) == self.read_only_value


DEFAULT_PERMISSION_RULE = CsrPermissionRule((9, 8), (11, 10), 0b11)


def _param_slices(fn: Body) -> tuple[dict[str, tuple[int, int]], list[tuple[tuple[int, int], int]]]:
    """Find PARAM[hi .. lo] slices in a function body.

    Returns let-bound aliases of plain slices, and (slice, value) pairs for
    slices compared against a binary literal with ==.
    """
    toks = list(fn.body_tokens)
    params = set(fn.params)
    aliases: dict[str, tuple[int, int]] = {}
    equality_tests: list[tuple[tuple[int, int], int]] = []
    n = len(toks)
    for i in range(n):
        t = toks[i]
        if t.kind != "identifier" or t.text not in params:
            continue
        # shape: PARAM [ LIT .. LIT ]
        if (
            i + 5 < n
            and toks[i + 1].text == "["
            and toks[i + 2].kind == "literal"
            and toks[i + 3].text == ".."
            and toks[i + 4].kind == "literal"
            and toks[i + 5].text == "]"
        ):
            hi = int_literal(toks[i + 2], f"address slice in {fn.name!r}")
            lo = int_literal(toks[i + 4], f"address slice in {fn.name!r}")
            span = (hi, lo) if hi >= lo else (lo, hi)
            if i >= 3 and toks[i - 3].text == "let" and toks[i - 2].kind == "identifier" and toks[i - 1].text == "=":
                aliases[toks[i - 2].text] = span
            if (
                i + 7 < n
                and toks[i + 6].kind == "operator"
                and toks[i + 6].text == "=="
                and toks[i + 7].kind == "literal"
            ):
                text = toks[i + 7].text.replace("_", "")
                try:
                    equality_tests.append((span, int(text, 0)))
                except ValueError:
                    pass
    return aliases, equality_tests


def extract_permission_rule(fn: Body) -> CsrPermissionRule:
    """Recover the address-bit policy from a permission-check function.

    Looks for a let-bound address slice used in an order comparison (the
    minimum privilege level) and an address slice equality-tested against a
    literal (the read-only marker). Falls back to the conventional bit
    positions for whichever half is not found.
    """
    aliases, equality_tests = _param_slices(fn)
    toks = list(fn.body_tokens)
    min_priv: tuple[int, int] | None = None
    for i, t in enumerate(toks):
        if t.kind == "operator" and t.text in (">=", "<=", ">", "<"):
            for j in (i - 1, i + 1):
                if 0 <= j < len(toks) and toks[j].kind == "identifier" and toks[j].text in aliases:
                    min_priv = aliases[toks[j].text]
                    break
            if min_priv is not None:
                break
    read_only = equality_tests[0] if equality_tests else None
    if min_priv is None and read_only is None:
        warnings.warn(
            f"could not recover address-bit policy from {fn.name}; "
            "using the conventional bit positions",
            stacklevel=2,
        )
    return CsrPermissionRule(
        min_priv_slice=min_priv or DEFAULT_PERMISSION_RULE.min_priv_slice,
        read_only_slice=read_only[0] if read_only else DEFAULT_PERMISSION_RULE.read_only_slice,
        read_only_value=read_only[1] if read_only else DEFAULT_PERMISSION_RULE.read_only_value,
    )


class ExplicitAccess:
    """Which modes may explicitly read or write each state."""

    def __init__(
        self,
        read_modes: dict[str, frozenset[str]],
        write_modes: dict[str, frozenset[str]],
    ):
        self.read_modes = read_modes
        self.write_modes = write_modes

    def readable(self, label: str, mode: str) -> bool:
        return mode in self.read_modes.get(label, frozenset())

    def writable(self, label: str, mode: str) -> bool:
        return mode in self.write_modes.get(label, frozenset())


def derive_explicit_access(
    model: SailModel, backend: BackendConfig, table: StateTable
) -> ExplicitAccess:
    """Architectural (programmer-visible) access for every state and mode.

    Bank elements are operand-accessible in every mode, except that a
    hardwired-zero element is never writable. CSRs follow the policy encoded
    in the configured permission-check function when one exists, otherwise
    the conventional address bits. Fields inherit their register's access.
    Internal states have no explicit access path.
    """
    rule = DEFAULT_PERMISSION_RULE
    if backend.csr_permission_function and backend.csr_permission_function in model.functions:
        rule = extract_permission_rule(model.functions[backend.csr_permission_function])

    all_modes = frozenset(backend.mode_order)
    read_modes: dict[str, frozenset[str]] = {}
    write_modes: dict[str, frozenset[str]] = {}

    for label in table.labels():
        entry = table[label]
        if entry.kind in ("internal", "internal_field"):
            read_modes[label] = frozenset()
            write_modes[label] = frozenset()
        elif entry.ref.field is not None:
            read_modes[label] = read_modes[entry.parent]
            write_modes[label] = write_modes[entry.parent]
        elif entry.address is not None:
            level = rule.min_level(entry.address)
            allowed = backend.modes_at_or_above(level)
            read_modes[label] = allowed
            write_modes[label] = frozenset() if rule.is_read_only(entry.address) else allowed
        else:
            # bank element
            read_modes[label] = all_modes
            write_modes[label] = frozenset() if label == backend.hardwired_zero else all_modes

    # A virtualized mode reaches the vs-prefixed alias of a supervisor CSR
    # instead of the physical one.
    if "VirtualSupervisor" in backend.mode_order:
        vs = frozenset({"VirtualSupervisor"})
        csr_labels = {
            lab for lab in table.labels() if table[lab].kind == "csr"
        }
        for lab in sorted(csr_labels):
            if lab.startswith("vs") and ("s" + lab[2:]) in csr_labels:
                phys = "s" + lab[2:]
                read_modes[lab] = read_modes[lab] | vs
                if write_modes[lab]:
                    write_modes[lab] = write_modes[lab] | vs
                read_modes[phys] = read_modes[phys] - vs
                write_modes[phys] = write_modes[phys] - vs
                for fieldlab in (e.label for e in table.fields_of(lab)):
                    read_modes[fieldlab] = read_modes[lab]
                    write_modes[fieldlab] = write_modes[lab]
                for fieldlab in (e.label for e in table.fields_of(phys)):
                    read_modes[fieldlab] = read_modes[phys]
                    write_modes[fieldlab] = write_modes[phys]

    return ExplicitAccess(read_modes, write_modes)


# -- privilege guards ------------------------------------------------------


def _admitted(op: str, mode: str, cur_on_left: bool, order: tuple[str, ...]) -> frozenset[str]:
    idx = order.index(mode)
    if op == "==":
        return frozenset({mode})
    if op == "!=":
        return frozenset(m for m in order if m != mode)
    if not cur_on_left:
        flip = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}
        op = flip[op]
    if op == ">=":
        return frozenset(m for k, m in enumerate(order) if k >= idx)
    if op == "<=":
        return frozenset(m for k, m in enumerate(order) if k <= idx)
    if op == ">":
        return frozenset(m for k, m in enumerate(order) if k > idx)
    if op == "<":
        return frozenset(m for k, m in enumerate(order) if k < idx)
    return frozenset()


def guards_from_harvest(harvest: Harvest, backend: BackendConfig) -> frozenset[str] | None:
    """Modes admitted by one body's privilege guards, or None when nothing guards.

    A guard compares the backend's current-privilege register with a mode
    name, or matches on that register; a match arm that calls the backend's
    illegal-instruction handler rejects its mode. Joining guards over the call
    graph happens in footprint.instruction_insights.
    """
    cur, order = backend.current_privilege, backend.mode_order
    admitted: set[str] = set()
    found = False
    for lhs, op, rhs in harvest.comparisons:
        if lhs == cur and rhs in order:
            admitted |= _admitted(op, rhs, True, order)
            found = True
        elif rhs == cur and lhs in order:
            admitted |= _admitted(op, lhs, False, order)
            found = True
    for m in harvest.matches:
        if m.subject != cur:
            continue
        mode_arms = [(p, called) for p, called in m.arms if p in order]
        if not mode_arms:
            continue
        found = True
        for pattern, called in mode_arms:
            if backend.illegal_handler not in called:
                admitted.add(pattern)
    return frozenset(admitted) if found else None


# -- label range helpers ---------------------------------------------------

_RANGE_RE = re.compile(r"^([A-Za-z_][\w.]*?)([0-9]+)\.\.([A-Za-z_][\w.]*?)([0-9]+)$")
_SUFFIX_RE = re.compile(r"^([A-Za-z_][\w.]*?)([0-9]+)$")


MAX_LABEL_RANGE = 4096  # labels one range may expand to


def expand_label_range(text: str) -> list[str]:
    """Expand 'f0..f31' to [f0, f1, ..., f31]; a plain label passes through.

    Ranges come from input files, so one wider than MAX_LABEL_RANGE labels, or
    with an index too long for int(), raises MalformedLine."""
    m = _RANGE_RE.match(text)
    if m is None:
        return [text]
    prefix_a, prefix_b = m.group(1), m.group(3)
    try:
        lo, hi = int(m.group(2)), int(m.group(4))
    except ValueError:
        raise MalformedLine(f"label range {text[:40]}... has an index too long") from None
    if prefix_a != prefix_b or hi < lo:
        return [text]
    if hi - lo >= MAX_LABEL_RANGE:
        raise MalformedLine(
            f"label range {text!r} spans {hi - lo + 1} labels, more than {MAX_LABEL_RANGE}"
        )
    return [f"{prefix_a}{i}" for i in range(lo, hi + 1)]


def _successor(digits: str) -> str:
    """The decimal string one above `digits`, which has no leading zeros."""
    stem = digits.rstrip("9")
    zeros = "0" * (len(digits) - len(stem))
    return stem[:-1] + chr(ord(stem[-1]) + 1) + zeros if stem else "1" + zeros


def compress_labels(labels) -> list[str]:
    """Collapse runs of consecutive numeric-suffix labels into 'x0..x31'."""
    ordered = sorted(set(labels), key=natural_key)
    out: list[str] = []
    i = 0
    while i < len(ordered):
        m = _SUFFIX_RE.match(ordered[i])
        if m is None:
            out.append(ordered[i])
            i += 1
            continue
        prefix, start = m.group(1), m.group(2).lstrip("0") or "0"
        j = i
        cur = start
        while j + 1 < len(ordered):
            m2 = _SUFFIX_RE.match(ordered[j + 1])
            nxt = _successor(cur)
            if m2 is None or m2.group(1) != prefix or m2.group(2).lstrip("0") != nxt:
                break
            cur = nxt
            j += 1
        if j > i:
            out.append(f"{prefix}{start}..{prefix}{cur}")
        else:
            out.append(ordered[i])
        i = j + 1
    return out


# -- state table serialization ------------------------------------------------

def read_csv_rows(text: str, path: str) -> list[list[str]]:
    """All rows of a saved CSV file; MalformedLine naming `path` if it is not CSV."""
    try:
        return list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise MalformedLine(f"{path}: {exc}") from None


STATES_COLUMNS = ("state", "kind", "width", "address", "parent", "readable", "writable")


def state_rows(
    table: StateTable, explicit: ExplicitAccess, backend: BackendConfig
) -> list[dict[str, str]]:
    order = {mode: i for i, mode in enumerate(backend.mode_order)}

    def modes(by_label: dict[str, frozenset[str]], label: str) -> str:
        return " ".join(sorted(by_label.get(label, ()), key=order.__getitem__))

    rows = []
    for label in table.labels():
        entry = table[label]
        rows.append({
            "state": label,
            "kind": entry.kind,
            "width": "" if entry.width is None else str(entry.width),
            "address": "" if entry.address is None else f"0x{entry.address:03X}",
            "parent": entry.parent or "",
            "readable": modes(explicit.read_modes, label),
            "writable": modes(explicit.write_modes, label),
        })
    return rows


def load_states_csv(text: str, path: str = "<states>") -> tuple[StateTable, ExplicitAccess]:
    """Inverse of state_rows, for running later stages from saved files."""
    rows = read_csv_rows(text, path)
    if not rows or tuple(rows[0]) != STATES_COLUMNS:
        raise MalformedLine(
            f"{path}: expected header {','.join(STATES_COLUMNS)}"
        )
    entries: list[StateEntry] = []
    read_modes: dict[str, frozenset[str]] = {}
    write_modes: dict[str, frozenset[str]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(STATES_COLUMNS):
            raise MalformedLine(f"{path}:{lineno}: expected {len(STATES_COLUMNS)} columns")
        label, kind, width, address, parent, readable, writable = row
        try:
            entries.append(StateEntry(
                ref=StateRef.parse(label),
                kind=kind,
                width=int(width) if width else None,
                parent=parent or None,
                address=int(address, 16) if address else None,
            ))
        except ValueError:
            raise MalformedLine(
                f"{path}:{lineno}: width must be decimal and address hexadecimal, "
                f"got {width!r} and {address!r}"
            ) from None
        read_modes[label] = frozenset(readable.split())
        write_modes[label] = frozenset(writable.split())
    return StateTable(entries), ExplicitAccess(read_modes, write_modes)
