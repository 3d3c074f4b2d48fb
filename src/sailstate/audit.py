"""Swap-manifest audit against a sensitivity report.

A swap manifest declares what a context-switch implementation does with each
architectural state (swap, swap conditionally, clear, or nothing). The audit
compares that against the classifier's verdicts for the same mode pair and
reports mishandled, timing-prone, and redundant handling.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

from . import jsonout
from .classifier import SensitivityReport
from .errors import MalformedLine, PairMismatch, UnknownAction
from .isa_model import comma_rows, compress_labels, expand_label_range, natural_key, split_label

ACTION_SWAP = "swap"
ACTION_CONDITIONAL = "swap_conditional"
ACTION_CLEAR = "clear"
ACTION_NONE = "none"
ACTIONS = (ACTION_SWAP, ACTION_CONDITIONAL, ACTION_CLEAR, ACTION_NONE)

VERDICT_OK = "ok"
VERDICT_MISHANDLED = "mishandled_not_swapped"
VERDICT_TIMING = "timing_channel_conditional"
VERDICT_REDUNDANT = "redundant_swap"
VERDICTS = (VERDICT_OK, VERDICT_MISHANDLED, VERDICT_TIMING, VERDICT_REDUNDANT)


@dataclass(frozen=True)
class SwapManifest:
    source: str
    target: str
    entries: dict[str, tuple[str, str]]  # label -> (action, provenance)

    def action_for(self, label: str) -> tuple[str, str, bool]:
        """(action, provenance, inherited). Fields without their own entry
        inherit the whole-register entry; everything else defaults to none."""
        if label in self.entries:
            action, prov = self.entries[label]
            return action, prov, False
        register, fieldname = split_label(label)
        if fieldname is not None and register in self.entries:
            action, prov = self.entries[register]
            return action, prov, True
        return ACTION_NONE, "", False


def parse_manifest(text: str, path: str = "<manifest>") -> SwapManifest:
    """Line format: `register[.field], action[, provenance]` with `#`
    comments and `f0..f31` range shorthand. Exactly one `@pair, SRC, TGT`
    line names the mode pair the implementation claims to switch between."""
    source: str | None = None
    target: str | None = None
    entries: dict[str, tuple[str, str]] = {}
    for lineno, raw, parts in comma_rows(text):
        if parts[0] == "@pair":
            if len(parts) != 3 or not parts[1] or not parts[2]:
                raise MalformedLine(
                    f"{path}:{lineno}: @pair needs '@pair, SOURCE, TARGET'"
                )
            if source is not None:
                raise MalformedLine(f"{path}:{lineno}: a second @pair; a manifest names one pair")
            source, target = parts[1], parts[2]
            continue
        if len(parts) not in (2, 3):
            raise MalformedLine(
                f"{path}:{lineno}: expected 'state, action[, provenance]', got {raw!r}"
            )
        if not parts[0]:
            raise MalformedLine(f"{path}:{lineno}: empty state name in {raw!r}")
        action = parts[1]
        if action not in ACTIONS:
            raise UnknownAction(
                f"{path}:{lineno}: unknown action {action!r}; "
                f"expected one of {', '.join(ACTIONS)}"
            )
        provenance = parts[2] if len(parts) == 3 else ""
        try:
            labels = expand_label_range(parts[0])
        except MalformedLine as exc:
            raise MalformedLine(f"{path}:{lineno}: {exc}") from None
        for label in labels:
            if label in entries:
                raise MalformedLine(f"{path}:{lineno}: duplicate entry for {label!r}")
            entries[label] = (action, provenance)
    if source is None or target is None:
        raise MalformedLine(
            f"{path}: manifest must declare its mode pair with '@pair, SOURCE, TARGET'"
        )
    return SwapManifest(source=source, target=target, entries=entries)


class AuditFinding(NamedTuple):
    """One state's grading. A tuple, built once per state of every audit."""
    state: str
    kind: str
    action: str
    verdict: str
    classes: tuple[str, ...]
    provenance: str = ""
    inherited: bool = False


@dataclass(frozen=True)
class AuditOutcome:
    source: str
    target: str
    findings: tuple[AuditFinding, ...]
    unknown_states: tuple[str, ...]  # manifest entries absent from the report

    @functools.cached_property
    def groups(self) -> dict[str, tuple[AuditFinding, ...]]:
        """The findings of each verdict, in VERDICTS order, grouped in one pass."""
        groups: dict[str, list[AuditFinding]] = {v: [] for v in VERDICTS}
        for f in self.findings:
            groups[f.verdict].append(f)
        return {v: tuple(group) for v, group in groups.items()}

    def by_verdict(self, verdict: str) -> tuple[AuditFinding, ...]:
        return self.groups.get(verdict, ())

    def counts(self) -> dict[str, int]:
        return {v: len(group) for v, group in self.groups.items()}


def _verdict(sensitive: bool, action: str) -> str:
    if sensitive:
        if action in (ACTION_SWAP, ACTION_CLEAR):
            return VERDICT_OK
        if action == ACTION_CONDITIONAL:
            return VERDICT_TIMING
        return VERDICT_MISHANDLED
    if action == ACTION_NONE:
        return VERDICT_OK
    # Swapping (even conditionally) or clearing insensitive state buys nothing.
    return VERDICT_REDUNDANT


def audit(manifest: SwapManifest, report: SensitivityReport) -> AuditOutcome:
    """One finding per state in report + manifest, per the verdict table."""
    if (manifest.source, manifest.target) != (report.source, report.target):
        raise PairMismatch(
            f"manifest claims ({manifest.source}, {manifest.target}) but the "
            f"report is for ({report.source}, {report.target})"
        )
    by_state = report.by_state()
    labels = sorted(by_state.keys() | manifest.entries.keys(), key=natural_key)
    findings: list[AuditFinding] = []
    unknown: list[str] = []
    for label in labels:
        action, provenance, inherited = manifest.action_for(label)
        sens = by_state.get(label)
        if sens is None:
            unknown.append(label)
        sensitive = sens.sensitive if sens else False
        # Positional arguments: this runs once per state.
        findings.append(AuditFinding(
            label, sens.kind if sens else "", action, _verdict(sensitive, action),
            sens.classes if sens else (), provenance, inherited,
        ))
    return AuditOutcome(
        source=report.source,
        target=report.target,
        findings=tuple(findings),
        unknown_states=tuple(unknown),
    )


# -- serialization -----------------------------------------------------------


def outcome_to_json(outcome: AuditOutcome) -> str:
    doc = {
        "source": outcome.source,
        "target": outcome.target,
        "summary": outcome.counts(),
        "unknown_states": list(outcome.unknown_states),
        "findings": [
            {
                "state": f.state,
                "kind": f.kind,
                "action": f.action,
                "verdict": f.verdict,
                "classes": list(f.classes),
                "provenance": f.provenance,
                "inherited": f.inherited,
            }
            for f in outcome.findings
        ],
    }
    return jsonout.dumps(doc)


def outcome_to_text(outcome: AuditOutcome) -> str:
    """Findings grouped by verdict, mirroring a mishandled-state table."""
    lines = [
        f"audit of ({outcome.source} -> {outcome.target}) context switch",
        "",
    ]
    order = (VERDICT_MISHANDLED, VERDICT_TIMING, VERDICT_REDUNDANT, VERDICT_OK)
    for verdict in order:
        group = outcome.by_verdict(verdict)
        lines.append(f"{verdict}: {len(group)}")
        if verdict == VERDICT_OK or not group:
            continue
        width = max(len(f.state) for f in group)
        for f in group:
            classes = ";".join(f.classes) if f.classes else "-"
            lines.append(f"  {f.state:<{width}}  action={f.action:<16} classes={classes}")
    if outcome.unknown_states:
        lines.append("")
        lines.append(
            "unknown states in manifest: " + " ".join(compress_labels(outcome.unknown_states))
        )
    return "\n".join(lines) + "\n"
