"""sailstate benchmark: timed CLI sessions on generated workloads.

    python3 perfbench/run.py --workload bundled|wide|shared --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. One session is the user's batch
run from corpus to verdicts:

    scan -> classify --insights --states --format json (Supervisor->Supervisor)
         -> validate --insights --states --traces
         -> audit --report sensitivity.json, once per swap manifest

Each session runs in a fresh interpreter (perfbench/session.py) that imports
sailstate before its timer starts; the time from spawning it to its `ready`
line is one set-up sample. Sessions run one at a time, until --seconds have
passed and at least MIN_SESSIONS have run. The first session's outputs are
checked against known facts (perfbench/checks.py); every later session must
reproduce their sha256 digests and exit codes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, as medians over
the sessions. --trace 1 alternates untraced and traced sessions and reports
the per-layer metrics: self time and call counts per wrapped function
(perfbench/tracer.py), as medians over the traced sessions, and the tracing
overhead. Everything measured is also written to
.perfbench/results/<workload>-seed<N>-trace<T>.json. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import corpus

HERE = Path(__file__).resolve().parent

WORKLOADS = ("bundled", "wide", "shared")
MIN_SESSIONS = {False: 3, True: 4}
SETUP_PROBES = 10
RUN_DEADLINE_S = 150.0  # a run must end within 180 s
PAIR = ("Supervisor", "Supervisor")


def commands(w: corpus.Workload, out: Path) -> list[dict]:
    insights, states = str(out / "insights.csv"), str(out / "states.csv")
    saved = ["--insights", insights, "--states", states]
    cmds = [
        {"label": "scan", "outputs": ["insights.csv", "states.csv"],
         "argv": ["scan", "--corpus", str(w.root / "corpus"), "--out", str(out)]},
        {"label": "classify", "outputs": ["sensitivity.json"],
         "argv": ["classify", *saved, "--source", PAIR[0], "--target", PAIR[1],
                  "--format", "json", "--out", str(out)]},
        {"label": "validate", "outputs": ["validation.json"],
         "argv": ["validate", *saved, "--traces", str(w.traces), "--out", str(out)]},
    ]
    for study, manifest in w.manifests.items():
        cmds.append({
            "label": f"audit:{study}",
            "outputs": [f"{study}/findings.json", f"{study}/findings.txt"],
            "argv": ["audit", "--report", str(out / "sensitivity.json"),
                     "--manifest", str(manifest), "--out", str(out / study)],
        })
    return cmds


def run_session(
    repo: Path, spec_path: Path, deadline: float, go: bool = True
) -> tuple[float, dict | None, str]:
    """Spawn one session process; return (set-up seconds, result, stderr).

    With go=False the process is stopped once ready: a set-up sample only.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo / "src")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "session.py"), str(spec_path)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=repo, env=env, text=True,
    )
    try:
        ready = proc.stdout.readline().strip()
        setup = time.perf_counter() - start
        if ready != "ready":
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            return setup, None, f"no ready line: {ready!r} {err}"
        out, err = proc.communicate("go\n" if go else "stop\n",
                                    timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return time.perf_counter() - start, None, "session timed out"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or (go and not out.strip()):
        return setup, None, f"session exited {proc.returncode}: {err}"
    if not go:
        return setup, None, ""
    return setup, json.loads(out.strip().splitlines()[-1]), err


def percentile_summary(values: list[float]) -> dict:
    """Median, and the highest of p75/p90/p95/p99 with ten samples beyond it."""
    n = len(values)
    doc = {"median": statistics.median(values), "n": n}
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            doc[f"p{p}"] = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            break
    return doc


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def probe_setup(repo: Path, work: Path, count: int, deadline: float) -> tuple[list[float], str]:
    """Set-up samples from processes stopped as soon as they are ready."""
    spec = work / "probe.json"
    spec.write_text(json.dumps({"commands": [], "out": str(work), "trace": False}))
    samples = []
    for _ in range(count):
        setup, _, err = run_session(repo, spec, deadline, go=False)
        if err:
            return samples, err
        samples.append(setup)
    return samples, ""


class Run:
    """The sessions of one benchmark run and what went wrong in them."""

    def __init__(self, repo: Path, workload: corpus.Workload, work: Path, spans: Path):
        self.repo, self.workload, self.work, self.spans = repo, workload, work, spans
        self.sessions: list[dict] = []
        self.reference: dict[str, dict] | None = None
        self.attempted = self.failed = 0
        self.problems: dict[str, list[str]] = {}

    def session(self, traced: bool, deadline: float) -> bool:
        """Run, check and record one session; False if it did not finish."""
        i = len(self.sessions)
        out = self.work / f"out-{i}"
        spec = {"commands": commands(self.workload, out), "out": str(out), "trace": traced,
                "spans": str(self.spans) if traced and not self.spans.exists() else None}
        spec_path = self.work / f"spec-{i}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        setup, result, err = run_session(self.repo, spec_path, deadline)
        self.attempted += len(spec["commands"])
        if result is None:
            self.failed += len(spec["commands"])
            self.problems[f"session {i}"] = [err.strip()[-2000:]]
            return False
        by_label = {c["label"]: c for c in result["commands"]}
        if self.reference is None:
            self.reference = by_label
            found = checks.check(self.workload, out, by_label)
        else:
            found = {
                label: ["exit code or output digests differ from session 0"]
                for label, c in by_label.items()
                if (c["exit"], c["digests"])
                != (self.reference[label]["exit"], self.reference[label]["digests"])
            }
        for label, c in by_label.items():
            if c["error"]:
                found.setdefault(label, []).append(c["error"].strip()[-2000:])
        self.failed += len(found)
        for label, messages in found.items():
            self.problems[f"session {i} {label}"] = messages
        self.sessions.append({"traced": traced, "setup_s": setup, **result})
        shutil.rmtree(out, ignore_errors=True)
        return True


def end_to_end_samples(run: Run, setup_samples: list[float]) -> dict[str, list[float]]:
    plain = [s for s in run.sessions if not s["traced"]]

    def command_s(session, prefix):
        return sum(c["seconds"] for c in session["commands"] if c["label"].startswith(prefix))

    return {
        "session_s": [s["session_s"] for s in plain],
        "scan_s": [command_s(s, "scan") for s in plain],
        "classify_s": [command_s(s, "classify") for s in plain],
        "validate_s": [command_s(s, "validate") for s in plain],
        "audit_s": [command_s(s, "audit:") for s in plain],
        "peak_rss_mb": [s["peak_rss_kb"] / 1024 for s in plain],
        "setup_s": setup_samples + [s["setup_s"] for s in plain],
    }


def layer_samples(run: Run, untraced_session_s: list[float]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for s in run.sessions:
        for name, value in s.get("layers", {}).items():
            samples.setdefault(name, []).append(value)
    for name, values in samples.items():
        if (name.endswith("_calls") or name == "tokens.tokens") and len(set(values)) > 1:
            run.problems[f"count {name}"] = [f"differs between sessions: {values}"]
    if samples.get("traced.session_s") and untraced_session_s:
        samples["trace.overhead_s"] = [
            statistics.median(samples["traced.session_s"]) - statistics.median(untraced_session_s)
        ]
    return samples


def descriptors(workload: corpus.Workload, scan_stdout: str) -> dict[str, int]:
    found = {"corpus.lines": workload.lines}
    for key in ("instructions", "functions", "registers", "states"):
        m = re.search(rf"(\d+) {key}", scan_stdout)
        if m:
            found[f"corpus.{key}"] = int(m.group(1))
    return found


def main(argv=None) -> int:
    args = parse_args(argv)
    repo = Path.cwd()
    if not (repo / "src" / "sailstate" / "cli.py").is_file():
        print(f"perfbench: no sailstate source under {repo / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    bench = json.loads((repo / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    hard_deadline = time.monotonic() + RUN_DEADLINE_S

    state_dir = repo / ".perfbench"
    results_dir = state_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    work = state_dir / "work" / stem
    workload = corpus.build(args.workload, args.seed, repo, work / "inputs")
    spans = results_dir / f"{stem}-spans.json"
    spans.unlink(missing_ok=True)

    run = Run(repo, workload, work, spans)
    setup_samples, err = probe_setup(repo, work, SETUP_PROBES, hard_deadline)
    if err:
        run.problems["set-up probe"] = [err.strip()[-2000:]]
    deadline = time.monotonic() + args.seconds
    while True:
        started = time.monotonic()
        traced = bool(args.trace) and len(run.sessions) % 2 == 1
        if not run.session(traced, hard_deadline):
            break
        now = time.monotonic()
        took = now - started
        enough = len(run.sessions) >= MIN_SESSIONS[bool(args.trace)]
        # Stop when the next session would end over half a session past the deadline.
        if now + took > hard_deadline or (enough and now + took / 2 >= deadline):
            break

    samples = end_to_end_samples(run, setup_samples)
    layers = layer_samples(run, samples["session_s"])
    source = layers if args.trace else samples
    metrics = {}
    for metric in wanted:
        values = source.get(metric["name"])
        if values:
            metrics[metric["name"]] = {"value": statistics.median(values), "unit": metric["unit"]}
        else:
            run.problems[f"metric {metric['name']}"] = ["not measured"]
    correct = not run.problems
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    reference = run.reference or {}
    corpus_facts = descriptors(workload, reference["scan"]["stdout"] if reference else "")
    summary = {name: percentile_summary(v) for name, v in samples.items() if v}
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": run.attempted,
        "failed": run.failed, "error_rate": error_rate, "descriptors": corpus_facts,
        "end_to_end": summary, "samples": samples, "layers": layers,
        "problems": run.problems,
        "exit_codes": {label: c["exit"] for label, c in reference.items()},
        "digests": {label: c["digests"] for label, c in reference.items()},
    }
    (results_dir / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1) + "\n", encoding="utf-8"
    )
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}: " + ", ".join(f"{k}={v}" for k, v in corpus_facts.items()))
    for name, doc in summary.items():
        extra = " ".join(f"{k}={v:.4f}" for k, v in doc.items() if k.startswith("p"))
        print(f"  {name:<12} median {doc['median']:.4f}  {extra}  (n={doc['n']})")
    if args.trace:
        for name, values in layers.items():
            print(f"  {name:<40} median {statistics.median(values):.6g}  (n={len(values)})")
    print(f"  error_rate   {error_rate:.4f} ratio ({run.failed} of {run.attempted} commands)")
    for label, found in run.problems.items():
        print(f"  FAILED {label}: {'; '.join(found)[:2000]}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
