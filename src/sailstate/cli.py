"""Command-line front end.

Four subcommands cover the pipeline:

  scan      parse a corpus and write insights.csv / states.csv
  classify  mark each state sensitive or not for a source/target mode pair
  validate  check scan results against recorded execution traces
  audit     grade a context-switch swap manifest against a sensitivity report

Exit codes: 0 success, 1 usage or input error, 2 trace superset violation,
3 mishandled sensitive state, 4 conditional-swap timing channel only.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .audit import (
    VERDICT_MISHANDLED,
    VERDICT_TIMING,
    audit as run_audit,
    outcome_to_json,
    outcome_to_text,
    parse_manifest,
)
from .backend import BackendConfig, bundled_backend_path, bundled_corpus_dir, load_backend
from .classifier import (
    SENSITIVITY_COLUMNS,
    SensitivityReport,
    build_access_matrix,
    classify_all,
    report_from_json,
    report_to_json,
    sensitivity_rows,
)
from .errors import IoError, MalformedLine, SailstateError
from .footprint import (
    INSIGHTS_COLUMNS,
    InstructionInsight,
    insight_rows,
    instruction_insights,
    load_insights_csv,
)
from .isa_model import (
    STATES_COLUMNS,
    ExplicitAccess,
    StateTable,
    derive_explicit_access,
    discover_states,
    load_states_csv,
    state_rows,
)
from .parser import SailModel, parse_corpus
from .traces import (
    STATUS_VIOLATION,
    load_traces,
    report_summary_text,
    validate as validate_traces,
)
from .traces import report_to_json as validation_to_json

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2
EXIT_MISHANDLED = 3
EXIT_TIMING = 4


class _ArgumentParser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on bad usage; 2 means a trace
    # violation here, so usage problems exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _corpus_paths(raw: list[str] | None) -> list[Path]:
    if not raw:
        raw = [bundled_corpus_dir()]
    paths: list[Path] = []
    for item in raw:
        p = Path(item)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.sail")))
        else:
            paths.append(p)
    return paths


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_csv(path: Path, columns, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _reject_corpus_flags(args, saved: str, others: tuple[str, ...] = ()) -> None:
    """Corpus flags, and the flags named in `others`, mean nothing when saved
    results stand in for the analysis."""
    given = [flag for flag, on in (
        ("--corpus", args.corpus),
        ("--merge-duplicate-clauses", args.merge_duplicate_clauses),
        ("--no-include-baseline", not args.include_baseline),
        *((f"--{name}", getattr(args, name)) for name in others),
    ) if on]
    if given:
        raise SailstateError(
            f"{', '.join(given)} cannot be combined with {saved}: saved results replace the analysis"
        )


def _analysis_inputs(
    args,
) -> tuple[BackendConfig, dict[str, InstructionInsight], StateTable, ExplicitAccess]:
    """Honour --insights/--states when given, else analyse the corpus."""
    backend = load_backend(args.backend)
    if getattr(args, "insights", None) or getattr(args, "states", None):
        if not (args.insights and args.states):
            raise SailstateError("--insights and --states must be given together")
        _reject_corpus_flags(args, "--insights/--states")
        insights = load_insights_csv(_read_text(args.insights, "insights"), args.insights)
        table, explicit = load_states_csv(_read_text(args.states, "states"), args.states)
        return backend, insights, table, explicit
    _paths, _model, table, explicit, insights = _analyse_corpus(args, backend)
    return backend, insights, table, explicit


def _analyse_corpus(
    args, backend: BackendConfig
) -> tuple[list[Path], SailModel, StateTable, ExplicitAccess, dict[str, InstructionInsight]]:
    """Parse --corpus and derive its states, explicit access and insights."""
    paths = _corpus_paths(args.corpus)
    model = parse_corpus(paths, merge_duplicate_clauses=args.merge_duplicate_clauses)
    table = discover_states(model, backend)
    explicit = derive_explicit_access(model, backend, table)
    insights = instruction_insights(
        model, backend, include_baseline=args.include_baseline
    )
    return paths, model, table, explicit, insights


def cmd_scan(args) -> int:
    backend = load_backend(args.backend)
    paths, model, table, explicit, insights = _analyse_corpus(args, backend)
    out = Path(args.out)
    _write_csv(out / "insights.csv", INSIGHTS_COLUMNS, insight_rows(insights, backend))
    _write_csv(out / "states.csv", STATES_COLUMNS, state_rows(table, explicit, backend))
    print(
        f"parsed {len(paths)} files: {len(model.instructions())} instructions, "
        f"{len(model.functions)} functions, {len(model.registers)} registers, "
        f"{len(table)} states"
    )
    if model.opaque_spans:
        print(f"skipped {len(model.opaque_spans)} unrecognized top-level spans")
    print(f"wrote {out / 'insights.csv'} and {out / 'states.csv'}")
    return EXIT_OK


def _build_report(args) -> SensitivityReport:
    backend, insights, table, explicit = _analysis_inputs(args)
    matrix = build_access_matrix(insights, explicit, table, backend)
    return classify_all(args.source, args.target, matrix)


def cmd_classify(args) -> int:
    report = _build_report(args)
    out = Path(args.out)
    if args.format == "json":
        target = out / "sensitivity.json"
        _write_text(target, report_to_json(report))
    else:
        target = out / "sensitivity.csv"
        _write_csv(target, SENSITIVITY_COLUMNS, sensitivity_rows(report))
    print(
        f"({report.source} -> {report.target}): "
        f"{report.sensitive_count} of {report.total} states sensitive"
    )
    print(f"wrote {target}")
    return EXIT_OK


def cmd_validate(args) -> int:
    backend, insights, table, _explicit = _analysis_inputs(args)
    bundles = load_traces(args.traces)
    report = validate_traces(insights, bundles, table)
    out = Path(args.out)
    _write_text(out / "validation.json", validation_to_json(report))
    print(report_summary_text(report), end="")
    print(f"wrote {out / 'validation.json'}")
    if any(r.status == STATUS_VIOLATION for r in report.results):
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_audit(args) -> int:
    manifest = parse_manifest(_read_text(args.manifest, "manifest"), args.manifest)
    if args.report:
        _reject_corpus_flags(args, "--report", ("source", "target", "insights", "states"))
        try:
            report = report_from_json(_read_text(args.report, "report"))
        except MalformedLine as exc:
            raise MalformedLine(f"{args.report}: {exc}") from None
    else:
        if not (args.source and args.target):
            raise SailstateError(
                "audit needs either --report or both --source and --target"
            )
        report = _build_report(args)
    outcome = run_audit(manifest, report)
    out = Path(args.out)
    _write_text(out / "findings.json", outcome_to_json(outcome))
    _write_text(out / "findings.txt", outcome_to_text(outcome))
    counts = outcome.counts()
    print(
        f"({outcome.source} -> {outcome.target}): "
        + " ".join(f"{k}={v}" for k, v in counts.items())
    )
    print(f"wrote {out / 'findings.json'} and {out / 'findings.txt'}")
    if counts[VERDICT_MISHANDLED]:
        return EXIT_MISHANDLED
    if counts[VERDICT_TIMING]:
        return EXIT_TIMING
    return EXIT_OK


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--corpus",
        nargs="+",
        metavar="PATH",
        help="source files or directories (default: bundled model)",
    )
    sub.add_argument(
        "--merge-duplicate-clauses",
        action="store_true",
        help="union repeated execute clauses instead of rejecting them",
    )
    sub.add_argument(
        "--backend",
        default=bundled_backend_path(),
        help="backend config describing the target architecture",
    )
    sub.add_argument("--out", default=".", help="output directory (default: .)")
    sub.add_argument(
        "--include-baseline",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="fold the per-step dispatch footprint into every instruction",
    )


def _add_file_inputs(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--insights", help="insights.csv from a previous scan")
    sub.add_argument("--states", help="states.csv from a previous scan")


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="sailstate", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    scan = commands.add_parser("scan", help="parse a corpus and write access insights")
    _add_common(scan)
    scan.set_defaults(func=cmd_scan)

    classify = commands.add_parser(
        "classify", help="label state sensitivity for a mode pair"
    )
    _add_common(classify)
    _add_file_inputs(classify)
    classify.add_argument("--source", required=True, help="mode being switched out")
    classify.add_argument("--target", required=True, help="mode being switched in")
    classify.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="report format"
    )
    classify.set_defaults(func=cmd_classify)

    validate = commands.add_parser(
        "validate", help="check insights against execution traces"
    )
    _add_common(validate)
    _add_file_inputs(validate)
    validate.add_argument(
        "--traces", required=True, help="trace manifest (file, name, kind, mode rows)"
    )
    validate.set_defaults(func=cmd_validate)

    audit = commands.add_parser(
        "audit", help="grade a swap manifest against a sensitivity report"
    )
    _add_common(audit)
    _add_file_inputs(audit)
    audit.add_argument(
        "--manifest", required=True, help="swap manifest (state, action rows)"
    )
    audit.add_argument("--report", help="sensitivity.json from a previous classify")
    audit.add_argument("--source", help="mode being switched out")
    audit.add_argument("--target", help="mode being switched in")
    audit.set_defaults(func=cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SailstateError as exc:
        print(f"sailstate: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
