"""Span tracing from outside the package.

Each public function is wrapped at the name its caller looks it up by, so
the package itself is not edited: the names `sailstate.cli` imported, the
`tokenize`, `parse_unit`, `merge_units` and `harvest_body` globals of
`sailstate.parser`, `propagate` in `sailstate.footprint`, and the method
`StateTable.fields_of`. Spans stay in memory with their parent's index and
are written out after the session.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# Module globals of sailstate.cli that are calls into another layer.
CLI_CALLS = (
    "load_backend", "parse_corpus", "discover_states", "derive_explicit_access",
    "instruction_insights", "insight_rows", "state_rows", "load_insights_csv",
    "load_states_csv", "build_access_matrix", "classify_all", "report_to_json",
    "report_from_json", "parse_manifest", "run_audit", "outcome_to_json",
    "outcome_to_text", "load_traces", "validate_traces", "validation_to_json",
    "report_summary_text",
)
PARSER_CALLS = ("tokenize", "parse_unit", "merge_units", "harvest_body")

# Spans whose call count is reported as <span>_calls.
COUNTED = ("parser.harvest_body", "isa_model.fields_of", "footprint.propagate")
# Spans whose time with their children is reported as <span>_total_s.
TOTALLED = ("parser.parse_corpus", "footprint.instruction_insights",
            "classifier.build_access_matrix")


def span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('sailstate.')}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, parent index, start, end]
        self.stack: list[int] = []
        self.tokens = 0

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        record = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0]
        self.spans.append(record)
        self.stack.append(index)
        record[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            self.stack.pop()

    def wrap(self, fn, name: str | None = None):
        name = name or span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Patch the lookup sites; the package's source is untouched."""
        from sailstate import cli, footprint, parser
        from sailstate.isa_model import StateTable

        for attr in CLI_CALLS:
            setattr(cli, attr, self.wrap(getattr(cli, attr)))
        for attr in PARSER_CALLS:
            setattr(parser, attr, self.wrap(getattr(parser, attr)))
        tokenize = parser.tokenize

        def counted_tokenize(*args, **kwargs):
            tokens = tokenize(*args, **kwargs)
            self.tokens += len(tokens)
            return tokens

        parser.tokenize = counted_tokenize
        footprint.propagate = self.wrap(footprint.propagate)
        StateTable.fields_of = self.wrap(StateTable.fields_of, "isa_model.fields_of")

    def summary(self) -> dict[str, float]:
        """Self time per span name (`<name>_s`), the counts, the time with
        children of TOTALLED spans, and the wall time of each command span
        (`traced.<command>_s`)."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, parent, start, end), inner in zip(self.spans, child_time):
            self_s = end - start - inner
            calls[name] += 1
            if name.startswith("cli."):
                out["cli.self_s"] += self_s
                out[f"traced.{name[4:]}_s"] += end - start
            else:
                out[f"{name}_s"] += self_s
        for name, parent, start, end in self.spans:
            if name in TOTALLED:
                out[f"{name}_total_s"] += end - start
        for name in COUNTED:
            out[f"{name}_calls"] = calls.get(name, 0)
        out["tokens.tokens"] = self.tokens
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "parent", "start", "end"], "spans": self.spans}, fh)
