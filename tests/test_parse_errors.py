"""Every parser error message, pinned.

`fixtures/golden/parse_errors.json` holds about a thousand broken versions of
the bundled corpus and what parsing each one gives: the error class and its
full `path:line:col: message`, or an empty string when it parses. Each case
is a list of edits `[file, start, end, text]` that replace `text[start:end]`
of one bundled file. The cases delete or duplicate a token, insert a stray
bracket, truncate a file, leave a comment or a string open, or copy a whole
function so that its bodies merge, within one file or across two, and then
break one copy.

Regenerate only for a deliberate, documented change of a message:

    PYTHONPATH=src python tests/test_parse_errors.py
"""

from __future__ import annotations

import functools
import json
import random
import re
import warnings
from pathlib import Path

from sailstate.backend import bundled_corpus_dir
from sailstate.errors import SailstateError
from sailstate.isa_model import extract_permission_rule
from sailstate.parser import merge_units, parse_unit
from sailstate.tokens import tokenize

GOLDEN = Path(__file__).parent / "fixtures" / "golden" / "parse_errors.json"
SEED = 20261018
CASES = 1000
PERMISSION_FUNCTION = "csr_access_ok"

# A lexer of its own, for picking edit points; it need not agree with
# sailstate's tokenizer.
_TOKEN = re.compile(
    r"""[A-Za-z_][\w']*|0x[0-9a-fA-F_]+|\d+|"[^"\n]*"|<->|[<>=!]=|->|=>|\.\.|\S"""
)
_TOP = re.compile(
    r"^(?:function|register|bitfield|mapping|val|type|enum|union|struct|overload|scattered|let)\b",
    re.MULTILINE,
)


@functools.cache
def _corpus() -> dict[str, str]:
    return {
        p.name: p.read_text(encoding="utf-8")
        for p in sorted(Path(bundled_corpus_dir()).glob("*.sail"))
    }


def _apply(files: dict[str, str], edits) -> dict[str, str]:
    out = dict(files)  # _corpus() is cached; never edit it in place
    for name, start, end, text in sorted(edits, key=lambda e: (e[0], e[1]), reverse=True):
        out[name] = out[name][:start] + text + out[name][end:]
    return out


@functools.cache
def _pristine(name: str):
    """An unedited bundled file's unit, parsed once."""
    return parse_unit(tokenize(_corpus()[name], name), name)


def _parse(name: str, text: str):
    if text == _corpus()[name]:
        return _pristine(name)
    return parse_unit(tokenize(text, name), name)


def outcome(files: dict[str, str]) -> str:
    """What parsing the corpus gives: '' or '<error class>: <message>'."""
    try:
        units = [_parse(name, text) for name, text in files.items()]
        model = merge_units(units)
        fn = model.functions.get(PERMISSION_FUNCTION)
        if fn is not None:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                extract_permission_rule(fn)
    except SailstateError as exc:
        return f"{type(exc).__name__}: {exc}"
    return ""


def _token_edit(rnd: random.Random, name: str, text: str, lo: int = 0, hi: int | None = None):
    """One random broken edit of `text`, inside [lo, hi) when given."""
    hi = len(text) if hi is None else hi
    toks = [m for m in _TOKEN.finditer(text, lo, hi)]
    tok = rnd.choice(toks)
    op = rnd.choice(("delete", "duplicate", "bracket", "truncate", "comment", "string"))
    if op == "delete":
        return [name, tok.start(), tok.end(), ""]
    if op == "duplicate":
        return [name, tok.end(), tok.end(), " " + tok.group()]
    if op == "bracket":
        at = rnd.choice((tok.start(), tok.end()))
        return [name, at, at, rnd.choice("()[]{}")]
    if op == "truncate":
        return [name, tok.start(), len(text), ""]
    if op == "comment":
        return [name, tok.start(), tok.start(), rnd.choice(("/* ", "/* /* */ "))]
    return [name, tok.start(), tok.start(), '"']


def _function_spans(text: str) -> list[tuple[int, int]]:
    starts = [m.start() for m in _TOP.finditer(text)] + [len(text)]
    return [
        (a, b) for a, b in zip(starts, starts[1:]) if text.startswith("function", a)
        and not text.startswith("function clause", a)
    ]


def _merge_case(rnd: random.Random, files: dict[str, str]):
    """Copy a function next to itself or into another file, then break the
    copy or the original."""
    name = rnd.choice([n for n in files if _function_spans(files[n])])
    text = files[name]
    start, end = rnd.choice(_function_spans(text))
    decl = text[start:end]
    if rnd.random() < 0.5:
        other = name
        copy_at = end
    else:
        other = rnd.choice([n for n in files if n != name])
        copy_at = len(files[other])
    edits = [[other, copy_at, copy_at, "\n" + decl]]
    if rnd.random() < 0.5:
        edits.append(_token_edit(rnd, name, text, start, end))
    else:
        # Break the copy: edit the decl, then place it.
        brk = _token_edit(rnd, "decl", decl)
        broken = decl[: brk[1]] + brk[3] + decl[brk[2]:]
        edits = [[other, copy_at, copy_at, "\n" + broken]]
    return edits


def generate() -> list[dict]:
    rnd = random.Random(SEED)
    files = _corpus()
    names = sorted(files)
    cases = []
    for k in range(CASES):
        if k % 8 == 7:
            edits = _merge_case(rnd, files)
        else:
            name = rnd.choice(names)
            edits = [_token_edit(rnd, name, files[name])]
        cases.append({"edits": edits, "outcome": outcome(_apply(files, edits))})
    return cases


def test_parse_errors_match_the_pinned_messages():
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(cases) == CASES
    files = _corpus()
    got = [outcome(_apply(files, case["edits"])) for case in cases]
    diffs = [(i, case["outcome"], g) for i, (case, g) in enumerate(zip(cases, got)) if case["outcome"] != g]
    assert not diffs, diffs[:5]


def test_pinned_cases_cover_every_kind_of_error():
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    outcomes = [c["outcome"] for c in cases]
    kinds = {o.split(":", 1)[0] for o in outcomes if o}
    assert {"MalformedDeclaration", "UnterminatedComment", "UnterminatedStringLiteral"} <= kinds
    assert any(":0:0: " in o for o in outcomes)  # the end-of-file fallback
    assert any("unbalanced" in o for o in outcomes)
    assert any(o.endswith("unbalanced ')'") for o in outcomes)  # a stray closer
    assert outcomes.count("") > 50


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=1) + "\n", encoding="utf-8")
