"""Output checks against facts that do not come from the run being checked.

bundled (and shared, whose state set and verdicts are the bundled ones):
  * 135 of 140 states sensitive for Supervisor -> Supervisor
  * Salus: ok=69 mishandled_not_swapped=0 timing_channel_conditional=70
    redundant_swap=1, exit 4
  * Keystone: senvcfg, f0, f31 and fcsr among the mishandled states, exit 3
  * Komodo: mishandled is exactly {senvcfg, senvcfg.FIOM}, exit 3
  * ACE: no mishandled and no timing findings, exit 0
  * every traced instruction validates, exit 0
wide:
  * copy 0 keeps the bundled names and meets the facts above
  * every copy k >= 2 gives copy 1's rows once the suffixes are stripped
shared:
  * every instruction copy's rows equal the original's
all:
  * scan reports as many instructions as the generator wrote clauses
  * an audit's exit code matches its verdict counts

`check` returns the problems found, keyed by command label; a command
with any problem counts as failed.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

from corpus import Workload, declared_names

SUFFIX_RE = re.compile(r"_z[a-z]{5}(?![a-z])")

BUNDLED_TOTAL, BUNDLED_SENSITIVE = 140, 135
AUDIT_FACTS = {
    "salus": {"counts": {"ok": 69, "mishandled_not_swapped": 0,
                         "timing_channel_conditional": 70, "redundant_swap": 1}},
    "keystone": {"mishandled_include": {"senvcfg", "f0", "f31", "fcsr"}},
    "komodo": {"mishandled_exact": {"senvcfg", "senvcfg.FIOM"}},
    "ace": {"counts_zero": ("mishandled_not_swapped", "timing_channel_conditional")},
}
AUDIT_EXIT = {"ace": 0, "keystone": 3, "komodo": 3, "salus": 4}
TRACED = {"ECALL", "FARITH", "MRET", "SC", "SD", "SW"}


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


class Copies:
    """Split keyed items by the copy their key names, with suffixes stripped."""

    def __init__(self, workload: Workload):
        self.suffixes = workload.suffixes
        self.index = {s: k for k, s in enumerate(self.suffixes) if s}

    def copy_of(self, key: str) -> int:
        m = SUFFIX_RE.search(key)
        return self.index.get(m.group(0), -1) if m else 0

    def split(self, items, key) -> list[list[str]]:
        groups: list[list[str]] = [[] for _ in self.suffixes]
        for item in items:
            k = self.copy_of(key(item))
            text = json.dumps(item, sort_keys=True)
            if k < 0:
                groups[0].append("unknown suffix: " + text)
                continue
            groups[k].append(text.replace(self.suffixes[k], "") if k else text)
        return groups


def _same_as(groups, reference: int, what: str) -> list[str]:
    """Copies after the reference must match it, row for row in any order."""
    want = sorted(groups[reference])
    bad = [k for k, group in enumerate(groups)
           if k > max(reference, 0) and (not group or sorted(group) != want)]
    if not bad:
        return []
    return [f"{what}: {len(bad)} copies differ from copy {reference}, first {bad[:5]}"]


def _sensitivity_facts(states: list[dict]) -> list[str]:
    sensitive = sum(1 for s in states if s["sensitive"])
    if (len(states), sensitive) != (BUNDLED_TOTAL, BUNDLED_SENSITIVE):
        return [f"{sensitive} of {len(states)} sensitive, expected "
                f"{BUNDLED_SENSITIVE} of {BUNDLED_TOTAL}"]
    return []


def _audit_facts(study: str, findings: list[dict]) -> list[str]:
    counts = {v: 0 for v in ("ok", "mishandled_not_swapped",
                             "timing_channel_conditional", "redundant_swap")}
    mishandled = set()
    for f in findings:
        counts[f["verdict"]] = counts.get(f["verdict"], 0) + 1
        if f["verdict"] == "mishandled_not_swapped":
            mishandled.add(f["state"])
    fact = AUDIT_FACTS[study]
    problems = []
    if "counts" in fact and counts != fact["counts"]:
        problems.append(f"{study}: counts {counts}, expected {fact['counts']}")
    if "mishandled_include" in fact and not fact["mishandled_include"] <= mishandled:
        problems.append(f"{study}: mishandled lacks {sorted(fact['mishandled_include'] - mishandled)}")
    if "mishandled_exact" in fact and mishandled != fact["mishandled_exact"]:
        problems.append(f"{study}: mishandled {sorted(mishandled)}")
    for verdict in fact.get("counts_zero", ()):
        if counts[verdict]:
            problems.append(f"{study}: {counts[verdict]} {verdict} findings, expected none")
    return problems


def _exit_from_counts(summary: dict) -> int:
    if summary.get("mishandled_not_swapped"):
        return 3
    if summary.get("timing_channel_conditional"):
        return 4
    return 0


def check(workload: Workload, out: Path, results: dict[str, dict]) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = {label: [] for label in results}

    def guarded(label, fn):
        if results[label]["exit"] == -1:
            problems[label].append("command raised")
            return
        try:
            problems[label] += fn()
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems[label].append(f"unreadable output: {exc!r}")

    copies = Copies(workload)
    # wide copies compare with copy 1, shared copies with the original.
    reference = 1 if workload.name == "wide" else 0
    hand_known = workload.name in ("bundled", "shared")

    for label, result in results.items():
        expected = {"scan": 0, "classify": 0, "validate": 0}.get(label)
        if label.startswith("audit:") and hand_known:
            expected = AUDIT_EXIT[label[6:]]
        if expected is not None and result["exit"] != expected:
            problems[label].append(f"exit {result['exit']}, expected {expected}")

    def scan():
        clauses = sum(
            len(declared_names(p.read_text(encoding="utf-8"), ("clause",)))
            for p in workload.corpus
        )
        m = re.search(r"(\d+) instructions", results["scan"]["stdout"])
        found = int(m.group(1)) if m else None
        out_problems = [] if found == clauses else [f"{found} instructions, wrote {clauses}"]
        insights = _csv_rows(out / "insights.csv")
        states = _csv_rows(out / "states.csv")
        if len(insights) != clauses:
            out_problems.append(f"insights.csv has {len(insights)} rows for {clauses} clauses")
        out_problems += _same_as(copies.split(insights, lambda r: r[0]), reference, "insights.csv")
        if workload.name == "wide":
            out_problems += _same_as(copies.split(states, lambda r: r[0]), reference, "states.csv")
        return out_problems

    def classify():
        doc = _json(out / "sensitivity.json")
        groups = copies.split(doc["states"], lambda s: s["state"])
        if hand_known:
            found = _sensitivity_facts(doc["states"])
        else:
            found = _sensitivity_facts([json.loads(s) for s in groups[0]])
            found += _same_as(groups, reference, "sensitivity.json")
        if f"{doc['summary']['sensitive_states']} of {doc['summary']['total_states']}" \
                not in results["classify"]["stdout"]:
            found.append("stdout disagrees with sensitivity.json")
        return found

    def validate():
        doc = _json(out / "validation.json")
        found = []
        if doc["unknown_names"]:
            found.append(f"traces without an instruction: {doc['unknown_names']}")
        if doc["summary"]["superset_violations"]:
            found.append(f"{doc['summary']['superset_violations']} superset violations")
        validated = {r["name"] for r in doc["results"] if r["status"] == "validated"}
        unvalidated = [
            k for k, suffix in enumerate(workload.suffixes)
            if not {n + suffix if n in workload.renamed else n for n in TRACED} <= validated
        ]
        if unvalidated:
            found.append(f"{len(unvalidated)} copies with traced instructions not "
                         f"validated, first {unvalidated[:5]}")
        found += _same_as(copies.split(doc["results"], lambda r: r["name"]),
                          reference, "validation.json")
        return found

    def audit(study):
        doc = _json(out / study / "findings.json")
        found = []
        if results[f"audit:{study}"]["exit"] != _exit_from_counts(doc["summary"]):
            found.append(f"exit code disagrees with summary {doc['summary']}")
        groups = copies.split(doc["findings"], lambda f: f["state"])
        if hand_known:
            found += _audit_facts(study, doc["findings"])
        else:
            found += _audit_facts(study, [json.loads(f) for f in groups[0]])
            found += _same_as(groups, reference, f"{study}/findings.json")
        if not (out / study / "findings.txt").read_text(encoding="utf-8").startswith(
            f"audit of ({doc['source']} -> {doc['target']})"
        ):
            found.append("findings.txt lacks its header")
        return found

    guarded("scan", scan)
    guarded("classify", classify)
    guarded("validate", validate)
    for study in workload.manifests:
        guarded(f"audit:{study}", lambda: audit(study))
    return {label: p for label, p in problems.items() if p}
