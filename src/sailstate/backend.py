"""Backend configuration: the per-ISA names the analysis needs.

Everything ISA-specific lives in an INI file (see data/riscv_backend.ini for
the documented reference config) so the analysis itself stays generic.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from importlib import resources

from .errors import BackendConfigError

# Address-convention privilege levels for the common mode names. Modes not
# listed here fall back to their position in the declared order.
DEFAULT_MODE_LEVELS = {
    "User": 0,
    "VirtualSupervisor": 1,
    "Supervisor": 1,
    "HypervisorSupervisor": 2,
    "Machine": 3,
}


@dataclass(frozen=True)
class BankSpec:
    """A register file modeled as one vector register plus accessor calls."""

    kind: str                  # "gpr", "fpr", "vector", ...
    register: str              # the vector register name, e.g. "Xs"
    prefix: str                # per-element state name prefix, e.g. "x"
    accessors: frozenset[str]  # call names that mean explicit operand access


@dataclass(frozen=True)
class BackendConfig:
    mode_order: tuple[str, ...]
    mode_levels: dict[str, int]
    current_privilege: str
    banks: tuple[BankSpec, ...]
    hardwired_zero: str | None
    csr_read_helpers: frozenset[str]
    csr_write_helpers: frozenset[str]
    csr_address_mapping: str
    csr_permission_function: str | None
    illegal_handler: str
    entry_functions: tuple[str, ...]
    path: str

    def modes_at_or_above(self, level: int) -> frozenset[str]:
        return frozenset(m for m in self.mode_order if self.mode_levels[m] >= level)

    def bank_for_register(self, register: str) -> BankSpec | None:
        for b in self.banks:
            if b.register == register:
                return b
        return None

    def bank_for_accessor(self, name: str) -> BankSpec | None:
        for b in self.banks:
            if name in b.accessors:
                return b
        return None


def _split_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def load_backend(path: str) -> BackendConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
        # Values interpolate when read, so a bad `%` surfaces only here.
        return _backend_from(cp, path)
    except (OSError, UnicodeDecodeError) as exc:
        raise BackendConfigError(f"cannot read backend config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise BackendConfigError(f"malformed backend config {path}: {exc}") from exc


def _backend_from(cp: configparser.ConfigParser, path: str) -> BackendConfig:
    if not cp.has_section("modes") or not cp.get("modes", "order", fallback="").strip():
        raise BackendConfigError(
            f"{path}: section [modes] must define 'order', e.g. "
            "'order = User, Supervisor, Machine' (least to most privileged)"
        )
    mode_order = tuple(_split_list(cp.get("modes", "order")))
    if len(set(mode_order)) != len(mode_order):
        raise BackendConfigError(f"{path}: [modes] order lists a mode twice")

    levels: dict[str, int] = {}
    for idx, mode in enumerate(mode_order):
        levels[mode] = DEFAULT_MODE_LEVELS.get(mode, idx)
    for item in _split_list(cp.get("modes", "levels", fallback="")):
        if ":" not in item:
            raise BackendConfigError(
                f"{path}: [modes] levels entries look like 'Mode:N', got {item!r}"
            )
        mode, _, num = item.partition(":")
        mode = mode.strip()
        if mode not in levels:
            raise BackendConfigError(
                f"{path}: [modes] levels names unknown mode {mode!r}"
            )
        try:
            levels[mode] = int(num.strip())
        except ValueError as exc:
            raise BackendConfigError(
                f"{path}: [modes] level for {mode!r} is not an integer"
            ) from exc

    state = cp["state"] if cp.has_section("state") else {}
    syntax = cp["syntax"] if cp.has_section("syntax") else {}

    current = state.get("current_privilege_register", "").strip()
    if not current:
        raise BackendConfigError(
            f"{path}: [state] must name current_privilege_register"
        )

    banks: list[BankSpec] = []
    for key in state:
        if not key.endswith("_bank"):
            continue
        kind = key[: -len("_bank")]
        register = state.get(key, "").strip()
        if not register:
            continue
        prefix = state.get(f"{kind}_prefix", kind[:1]).strip()
        accessors = frozenset(_split_list(syntax.get(f"{kind}_accessors", "")))
        banks.append(BankSpec(kind=kind, register=register, prefix=prefix, accessors=accessors))
    banks.sort(key=lambda b: b.kind)

    hardwired = state.get("hardwired_zero", "").strip() or None

    permission = syntax.get("csr_permission_function", "").strip() or None

    dispatch = cp["dispatch"] if cp.has_section("dispatch") else {}
    entries = tuple(_split_list(dispatch.get("entry_functions", "")))

    return BackendConfig(
        mode_order=mode_order,
        mode_levels=levels,
        current_privilege=current,
        banks=tuple(banks),
        hardwired_zero=hardwired,
        csr_read_helpers=frozenset(_split_list(syntax.get("csr_read_helpers", ""))),
        csr_write_helpers=frozenset(_split_list(syntax.get("csr_write_helpers", ""))),
        csr_address_mapping=syntax.get("csr_address_mapping", "csr_name_map").strip(),
        csr_permission_function=permission,
        illegal_handler=syntax.get("illegal_handler", "handle_illegal").strip(),
        entry_functions=entries,
        path=path,
    )


def bundled_backend_path() -> str:
    return str(resources.files("sailstate").joinpath("data/riscv_backend.ini"))


def bundled_corpus_dir() -> str:
    return str(resources.files("sailstate").joinpath("data/riscv_mini"))


def default_backend() -> BackendConfig:
    return load_backend(bundled_backend_path())
