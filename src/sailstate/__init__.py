"""Static state-access analysis for Sail ISA specifications.

Parses a Sail model, inventories its architectural state, derives which
instructions read and write what (explicitly via operands and CSR numbers,
or implicitly as side effects), classifies state sensitivity across privilege
mode switches, and audits context-switch implementations against the result.
"""

from .audit import (
    AuditFinding,
    AuditOutcome,
    SwapManifest,
    audit,
    parse_manifest,
)
from .backend import (
    BackendConfig,
    BankSpec,
    bundled_backend_path,
    bundled_corpus_dir,
    default_backend,
    load_backend,
)
from .classifier import (
    AccessMatrix,
    Sensitivity,
    SensitivityReport,
    build_access_matrix,
    classify,
    classify_all,
)
from .errors import SailstateError, SourceError
from .footprint import (
    Footprint,
    InstructionInsight,
    baseline_footprint,
    function_footprints,
    instruction_insights,
    propagate,
)
from .isa_model import (
    ExplicitAccess,
    StateEntry,
    StateTable,
    derive_explicit_access,
    discover_states,
)
from .parser import SailModel, parse_corpus, parse_unit
from .tokens import Stream, tokenize
from .traces import TraceBundle, load_traces, parse_trace, validate

__version__ = "0.1.0"

__all__ = [
    "AccessMatrix",
    "AuditFinding",
    "AuditOutcome",
    "BackendConfig",
    "BankSpec",
    "ExplicitAccess",
    "Footprint",
    "InstructionInsight",
    "SailModel",
    "SailstateError",
    "Sensitivity",
    "SensitivityReport",
    "SourceError",
    "StateEntry",
    "StateTable",
    "SwapManifest",
    "Stream",
    "TraceBundle",
    "audit",
    "baseline_footprint",
    "build_access_matrix",
    "bundled_backend_path",
    "bundled_corpus_dir",
    "classify",
    "classify_all",
    "default_backend",
    "derive_explicit_access",
    "discover_states",
    "function_footprints",
    "instruction_insights",
    "load_backend",
    "load_traces",
    "parse_corpus",
    "parse_manifest",
    "parse_trace",
    "parse_unit",
    "propagate",
    "tokenize",
    "validate",
    "__version__",
]
