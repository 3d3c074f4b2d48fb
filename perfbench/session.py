"""One timed session in a fresh interpreter.

    python3 perfbench/session.py SPEC.json

The process imports sailstate.cli and loads the backend INI, then prints
`ready` and waits for a line on stdin, so the caller can time set-up alone;
the line `stop` ends the process there.
It then runs the commands listed in SPEC through `sailstate.cli.main` in
this process, one after another, and prints one JSON line with each
command's exit code, wall time, captured stdout and output digests, the
session's wall time and the process's peak resident memory. With
"trace": true in SPEC it also records spans and reports per-layer totals.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    from sailstate import cli
    from sailstate.backend import bundled_backend_path, load_backend

    load_backend(bundled_backend_path())
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    order = sys.stdin.readline().strip()
    if order != "go":
        return 0 if order == "stop" else 1

    results = []
    session_start = time.perf_counter()
    for command in spec["commands"]:
        buffer = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
                if tracer is None:
                    code = cli.main(command["argv"])
                else:
                    code = tracer.call(f"cli.{command['argv'][0]}", cli.main, command["argv"])
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else -1
        except Exception:  # a traceback is a failed command, not a failed run
            code = -1
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
        results.append({
            "label": command["label"], "exit": code, "seconds": seconds,
            "stdout": buffer.getvalue(), "error": error,
        })
    session_s = time.perf_counter() - session_start

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = Path(spec["out"])
    for command, result in zip(spec["commands"], results):
        result["digests"] = {name: sha256(out / name) for name in command["outputs"]}
    doc = {"commands": results, "session_s": session_s, "peak_rss_kb": peak_kb}
    if tracer is not None:
        doc["layers"] = {**tracer.summary(), "traced.session_s": session_s}
        if spec.get("spans"):
            tracer.dump(spec["spans"])
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
