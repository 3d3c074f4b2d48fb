"""Tokenizer for the supported Sail subset.

Comments and string literals become single tokens; concatenating the text of
all tokens plus the skipped whitespace reproduces the input byte for byte.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import UnterminatedComment, UnterminatedStringLiteral

KEYWORDS = frozenset({
    "function", "clause", "register", "bitfield", "mapping", "val", "let",
    "if", "then", "else", "match", "enum", "union", "struct", "type",
    "scattered", "end", "overload", "forall", "foreach", "return",
    "true", "false",
})

# Longest operators first so the regex picks maximal munch.
_OPERATORS = [
    "<->", "<=", ">=", "==", "!=", "->", "=>", "<<", ">>", "&&", "||", "..",
    "=", "<", ">", "+", "-", "*", "/", "&", "|", "^", "@", "~", "!",
]

# One alternation, tried in order at each position: whitespace and comments
# first, then the tokens, each group named after its token kind, then an
# unterminated string opener and any other single character. Only
# whitespace and comments can span a newline; strings exclude `\n`.
_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<comment>//[^\n]*)
      | (?P<block_comment>/\*)
      | (?P<literal>"(?:[^"\\\n]|\\.)*" | 0x[0-9a-fA-F_]+ | 0b[01_]+ | \d+)
      | (?P<identifier>'?[A-Za-z_][A-Za-z0-9_']*)
      | (?P<operator>%s)
      | (?P<punctuation>[()\[\]{},;:.$\#?`])
      | (?P<open_string>")
      | (?P<other>[\s\S])
    """ % "|".join(re.escape(op) for op in _OPERATORS),
    re.VERBOSE,
)

COMPARISON_OPS = frozenset({"==", "!=", "<", "<=", ">", ">="})


class Token(NamedTuple):
    kind: str  # keyword | identifier | operator | literal | comment | punctuation
    text: str
    path: str
    line: int
    col: int
    offset: int

    @property
    def location(self) -> tuple[str, int, int]:
        return (self.path, self.line, self.col)

    def __repr__(self) -> str:  # compact, for test failure output
        return f"Token({self.kind} {self.text!r} @{self.line}:{self.col})"


def _block_comment_end(text: str, start: int) -> int:
    """Offset just past the block comment opened at `start`, or -1 when it
    never closes. Block comments nest."""
    depth = 1
    i = start + 2
    while depth > 0:
        nxt_open = text.find("/*", i)
        nxt_close = text.find("*/", i)
        if nxt_close < 0:
            return -1
        if 0 <= nxt_open < nxt_close:
            depth += 1
            i = nxt_open + 2
        else:
            depth -= 1
            i = nxt_close + 2
    return i


def tokenize(text: str, path: str = "<string>") -> list[Token]:
    """Tokenize Sail source. Raises on unterminated comments or strings."""
    tokens: list[Token] = []
    append = tokens.append
    new_token = tuple.__new__  # Token's own __new__ costs a Python call
    match = _TOKEN_RE.match
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of `line`
    n = len(text)
    while pos < n:
        m = match(text, pos)
        kind = m.lastgroup
        end = m.end()
        if kind == "ws" or kind == "block_comment":
            if kind == "block_comment":
                end = _block_comment_end(text, pos)
                col = pos - line_start + 1
                if end < 0:
                    raise UnterminatedComment("unterminated block comment", path, line, col)
                append(new_token(Token, ("comment", text[pos:end], path, line, col, pos)))
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", pos, end) + 1
            pos = end
            continue
        if kind == "open_string":
            raise UnterminatedStringLiteral(
                "unterminated string literal", path, line, pos - line_start + 1
            )
        raw = m.group()
        if kind == "identifier":
            if raw in KEYWORDS:
                kind = "keyword"
        elif kind == "other":
            kind = "operator"  # an unknown byte; tokenizing stays total
        append(new_token(Token, (kind, raw, path, line, pos - line_start + 1, pos)))
        pos = end
    return tokens


def significant(tokens: list[Token]) -> list[Token]:
    """Drop comment tokens; analysis never looks inside them."""
    return [t for t in tokens if t.kind != "comment"]
