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

from .backend import BackendConfig, BankSpec
from .errors import BackendConfigError, MalformedLine, UnknownCsrAddress, UnknownMode, UnknownState
from .parser import Body, Harvest, SailModel, int_literal
from .tokens import COMPARISON_OPS


def state_label(register: str, field: str | None = None) -> str:
    """A state's name: `register`, or `register.field` for a named field."""
    return f"{register}.{field}" if field else register


def split_label(label: str) -> tuple[str, str | None]:
    """(register, field) of a label; the field is None for a whole register."""
    register, _, field = label.partition(".")
    return register, field or None


_DIGIT_RUN = re.compile(r"([0-9]+)")


def natural_key(label: str):
    """Sort key that orders x2 before x10.

    A run of ASCII digits compares by value as (length, digits) without its
    leading zeros, so it needs no int() and any label has a key. Labels that
    differ only in leading zeros, as `x1` and `x01` do, tie on those parts
    and break the tie on the label itself, so the order is total."""
    parts: list = _DIGIT_RUN.split(label)
    for i in range(1, len(parts), 2):
        digits = parts[i].lstrip("0")
        parts[i] = (len(digits), digits)
    return tuple(parts), label


@dataclass(frozen=True)
class StateEntry:
    label: str
    kind: str            # internal | gpr | fpr | vector | csr | csr_field | ...
    width: int | None
    parent: str | None   # register label for fields, bank register for elements
    address: int | None  # CSR address when mapped

    @property
    def is_field(self) -> bool:
        return split_label(self.label)[1] is not None


class StateTable:
    def __init__(self, entries: list[StateEntry]):
        self.entries: dict[str, StateEntry] = {e.label: e for e in entries}
        # Indexed once so lookups stay linear in the state count; callers
        # get copies, never these containers.
        fields: dict[str, list[StateEntry]] = {}
        for e in self.entries.values():
            if e.parent is not None and e.is_field:
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


def bank_labels(model: SailModel, bank: BankSpec) -> list[str]:
    """Labels of a register bank's elements; none when the corpus does not
    declare the bank's register. The size comes from the corpus, so a bank of
    more than MAX_LABEL_RANGE elements raises MalformedLine."""
    decl = model.registers.get(bank.register)
    size = (decl.rtype.size or 0) if decl is not None else 0
    if size > MAX_LABEL_RANGE:
        raise MalformedLine(
            f"{decl.path}: bank register {bank.register!r} has {size} elements, "
            f"more than {MAX_LABEL_RANGE}"
        )
    return [f"{bank.prefix}{i}" for i in range(size)]


def discover_states(
    model: SailModel, backend: BackendConfig, *, strict: bool = True
) -> StateTable:
    """Enumerate every architectural state the analysis tracks.

    Register banks named by the backend expand to one state per element.
    Registers appearing in the CSR address mapping become csr states, and
    their bitfield members become csr_field states. Everything else declared
    as a register is internal state. A label made twice is an error.
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
            width = _alias_width(decl.rtype.elem, model)
            entries.extend(
                StateEntry(label, bank.kind, width, regname, None)
                for label in bank_labels(model, bank)
            )
            continue
        address = addresses.get(regname)
        kind = "csr" if address is not None else "internal"
        width = _register_width(regname, model)
        entries.append(StateEntry(regname, kind, width, None, address))
        bf = model.bitfield_types.get(decl.rtype.base)
        if bf is not None:
            for f in bf.fields:
                entries.append(StateEntry(
                    state_label(regname, f.name), f"{kind}_field", f.width, regname, address
                ))
    made: dict[str, StateEntry] = {}
    for e in entries:
        first = made.setdefault(e.label, e)
        if first is not e:
            raise BackendConfigError(
                f"{backend.path}: state {e.label!r} names both {_maker(first)} and {_maker(e)}"
            )
    return StateTable(entries)


def _maker(e: StateEntry) -> str:
    of = "a field of" if e.is_field else "an element of bank"
    return f"{of} register {e.parent!r}" if e.parent else f"register {e.label!r}"


# -- explicit access -------------------------------------------------------


def _bits(value: int, span: tuple[int, int]) -> int:
    """Bits hi..lo of a non-negative value, unsigned. No mask is built, so a
    span of any width costs no more than the value itself."""
    hi, lo = span
    v, width = value >> lo, hi - lo + 1
    return v - (v >> width << width)


@dataclass(frozen=True)
class CsrPermissionRule:
    """How a CSR address encodes its own access policy, in (hi, lo) slices."""

    min_priv_slice: tuple[int, int]  # unsigned level
    read_only_slice: tuple[int, int]
    read_only_value: int

    def min_level(self, address: int) -> int:
        return _bits(address, self.min_priv_slice)

    def is_read_only(self, address: int) -> bool:
        return _bits(address, self.read_only_slice) == self.read_only_value


DEFAULT_PERMISSION_RULE = CsrPermissionRule((9, 8), (11, 10), 0b11)


def extract_permission_rule(fn: Body) -> CsrPermissionRule:
    """Recover the address-bit policy from a permission-check function.

    Reads each clause once for PARAM[hi .. lo] slices. The minimum privilege
    level is the first let-bound slice that an order comparison in the same
    clause has as an operand, wherever in the clause it is bound. The
    read-only marker is the first slice tested with == against a numeric
    literal. Each half falls back to the conventional bit positions on its
    own; a warning says so only when neither half is found.
    """
    params = set(fn.params)
    min_priv: tuple[int, int] | None = None
    read_only: tuple[tuple[int, int], int] | None = None
    for toks, start, n in fn.tokens:
        kinds, texts = toks.kinds, toks.texts
        aliases: dict[str, tuple[int, int]] = {}
        operands: list[str] = []  # identifiers beside an order comparison
        for i in range(start, n):
            if kinds[i] == "operator" and texts[i] in (">=", "<=", ">", "<"):
                operands += (
                    texts[j] for j in (i - 1, i + 1) if start <= j < n and kinds[j] == "identifier"
                )
            elif (  # shape: PARAM [ LIT .. LIT ]
                kinds[i] == "identifier" and texts[i] in params
                and i + 5 < n
                and texts[i + 1] == "["
                and kinds[i + 2] == "literal"
                and texts[i + 3] == ".."
                and kinds[i + 4] == "literal"
                and texts[i + 5] == "]"
            ):
                hi = int_literal(toks, i + 2, f"address slice in {fn.name!r}")
                lo = int_literal(toks, i + 4, f"address slice in {fn.name!r}")
                span = (max(hi, lo), min(hi, lo))
                if i - start >= 3 and texts[i - 3] == "let" and kinds[i - 2] == "identifier" and texts[i - 1] == "=":
                    aliases[texts[i - 2]] = span
                if (
                    i + 7 < n and texts[i + 6] == "==" and kinds[i + 7] == "literal"
                    and not texts[i + 7].startswith('"')
                ):
                    value = int_literal(toks, i + 7, f"read-only test in {fn.name!r}")
                    read_only = read_only or (span, value)
        if min_priv is None:
            min_priv = next((aliases[t] for t in operands if t in aliases), None)
    if min_priv is None and read_only is None:
        warnings.warn(
            f"could not recover address-bit policy from {fn.name}; "
            "using the conventional bit positions",
            stacklevel=2,
        )
    default = DEFAULT_PERMISSION_RULE
    read_only_slice, value = read_only or (default.read_only_slice, default.read_only_value)
    return CsrPermissionRule(min_priv or default.min_priv_slice, read_only_slice, value)


@dataclass
class ExplicitAccess:
    """Which modes may explicitly read or write each state."""

    read_modes: dict[str, frozenset[str]]
    write_modes: dict[str, frozenset[str]]


def derive_explicit_access(
    model: SailModel, backend: BackendConfig, table: StateTable
) -> ExplicitAccess:
    """Architectural (programmer-visible) access for every state and mode.

    Bank elements are operand-accessible in every mode, except that a
    hardwired-zero element is never writable. CSRs follow the policy encoded
    in the configured permission-check function when one exists, otherwise
    the conventional address bits, except that VirtualSupervisor reaches a
    CSR `vsX` instead of the CSR `sX`. Fields inherit their register's
    access, set first in natural order. Internal states have no explicit
    access path.
    """
    permission = model.functions.get(backend.csr_permission_function)
    rule = DEFAULT_PERMISSION_RULE if permission is None else extract_permission_rule(permission)

    all_modes = frozenset(backend.mode_order)
    virtual = all_modes & {"VirtualSupervisor"}
    read_modes: dict[str, frozenset[str]] = {}
    write_modes: dict[str, frozenset[str]] = {}

    def is_csr(label: str) -> bool:
        return label in table and table[label].kind == "csr"

    for label in table.labels():
        entry = table[label]
        if entry.kind in ("internal", "internal_field"):
            read = write = frozenset()
        elif entry.is_field:
            read, write = read_modes[entry.parent], write_modes[entry.parent]
        elif entry.address is not None:
            read = backend.modes_at_or_above(rule.min_level(entry.address))
            if label.startswith("vs") and is_csr("s" + label[2:]):
                read |= virtual
            elif label.startswith("s") and is_csr("v" + label):
                read -= virtual
            write = frozenset() if rule.is_read_only(entry.address) else read
        else:
            # bank element
            read = all_modes
            write = frozenset() if label == backend.hardwired_zero else all_modes
        read_modes[label], write_modes[label] = read, write

    return ExplicitAccess(read_modes, write_modes)


# -- privilege guards ------------------------------------------------------


def _admitted(op: str, mode: str, cur_on_left: bool, order: tuple[str, ...]) -> frozenset[str]:
    """Modes m for which `cur op mode` holds, or `mode op cur` when the
    current-privilege register is on the right, comparing positions in order."""
    cmp, idx = COMPARISON_OPS[op], order.index(mode)
    return frozenset(
        m for k, m in enumerate(order) if (cmp(k, idx) if cur_on_left else cmp(idx, k))
    )


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
# The numbers state_rows writes; int() alone also takes signs, blanks, '_' and non-ASCII digits.
_WIDTH_RE = re.compile(r"[0-9]*")
_ADDRESS_RE = re.compile(r"(?:0x[0-9A-Fa-f]+)?")


MAX_LABEL_RANGE = 4096  # labels one range or register bank may expand to


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
    """Collapse runs of consecutive numeric-suffix labels into 'x0..x31'.

    An index with leading zeros, as in `x01`, joins no run, because
    expand_label_range spells every index without them."""
    ordered = sorted(set(labels), key=natural_key)
    out: list[str] = []
    i = 0
    while i < len(ordered):
        m = _SUFFIX_RE.match(ordered[i])
        if m is None or m.group(2) != (m.group(2).lstrip("0") or "0"):
            out.append(ordered[i])
            i += 1
            continue
        prefix, start = m.group(1), m.group(2)
        j = i
        cur = start
        while j + 1 < len(ordered):
            m2 = _SUFFIX_RE.match(ordered[j + 1])
            nxt = _successor(cur)
            if m2 is None or m2.group(1) != prefix or m2.group(2) != nxt:
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

def read_csv_rows(text: str, path: str, columns: tuple[str, ...]):
    """Yield (line number, row) for each data row of a saved CSV file whose
    header is `columns`, checking each row's width as it goes; any fault is
    MalformedLine naming `path`. A row's line number is the file line its
    record starts on; a quoted cell may hold newlines."""
    reader = csv.reader(io.StringIO(text))
    rows: list[tuple[int, list[str]]] = []
    start = 1
    try:
        for row in reader:
            rows.append((start, row))
            start = reader.line_num + 1
    except csv.Error as exc:
        raise MalformedLine(f"{path}: {exc}") from None
    if not rows or tuple(rows[0][1]) != columns:
        raise MalformedLine(f"{path}: expected header {','.join(columns)}")
    for lineno, row in rows[1:]:
        if len(row) != len(columns):
            raise MalformedLine(f"{path}:{lineno}: expected {len(columns)} columns")
        yield lineno, row


def comma_rows(text: str):
    """Yield (line number, line, stripped cells) for each manifest line that
    is not blank once its `#` comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, raw, [cell.strip() for cell in line.split(",")]


def mode_fault(where: str, found: frozenset[str], modes: tuple[str, ...]) -> UnknownMode:
    """The error of a saved cell `found` naming a mode outside `modes`."""
    return UnknownMode(
        f"{where} in unknown mode {min(found - set(modes))!r}; expected one of {', '.join(modes)}"
    )


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


def load_states_csv(
    text: str, modes: tuple[str, ...], path: str = "<states>"
) -> tuple[StateTable, ExplicitAccess]:
    """Inverse of state_rows, for running later stages from saved files.

    Mode cells must name only `modes`, the backend's, and a field's parent
    must be its register, which has a row of its own. The first faulty row
    in file order is an error at its line; a field whose register has no
    row is found once every row is read."""
    entries: list[StateEntry] = []
    read_modes: dict[str, frozenset[str]] = {}
    write_modes: dict[str, frozenset[str]] = {}
    mode_set = frozenset(modes)
    fields: list[tuple[int, str, str]] = []  # (line, field, register)
    for lineno, row in read_csv_rows(text, path, STATES_COLUMNS):
        label, kind, width, address, parent, readable, writable = row
        if label in read_modes:
            raise MalformedLine(f"{path}:{lineno}: duplicate state {label!r}")
        try:
            if not (_WIDTH_RE.fullmatch(width) and _ADDRESS_RE.fullmatch(address)):
                raise ValueError
            entries.append(StateEntry(
                label=label,
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
        read, write = frozenset(readable.split()), frozenset(writable.split())
        for verb, found in (("readable", read), ("writable", write)):
            if not found <= mode_set:
                raise mode_fault(f"{path}:{lineno}: state {label!r} is {verb}", found, modes)
        read_modes[label], write_modes[label] = read, write
        register, field = split_label(label)
        if field is not None:
            if parent != register:
                raise MalformedLine(
                    f"{path}:{lineno}: field {label!r} names parent {parent!r}, not {register!r}"
                )
            fields.append((lineno, label, register))
    for lineno, label, register in fields:
        if register not in read_modes:
            raise MalformedLine(
                f"{path}:{lineno}: register {register!r} of field {label!r} has no row"
            )
    return StateTable(entries), ExplicitAccess(read_modes, write_modes)
