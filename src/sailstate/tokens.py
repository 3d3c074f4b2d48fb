"""Tokenizer for the supported Sail subset.

`tokenize` returns one `Stream` per file: the kind, text and offset of
each token as three columns, plus `partner`, which links each `(`, `[` or
`{` to its closer, and `unbalanced`, the first bracket that breaks nesting.
Whitespace and comments are not tokens; the gap between two consecutive
tokens is only whitespace and comments. Line and column come from the
text, on request, through `Stream.location`.
"""

from __future__ import annotations

import operator
import re
from array import array

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

# Each match is one token: a prefix skips whitespace, line comments and
# block comments that hold no nested `/*`, then one group, named after its
# kind, takes the token. A block comment that nests or never closes stops
# the scan at its `block_comment` group, and `end` matches at the end of the
# text. The commonest tokens are tried first; `/*` must come before the
# operator `/`, `..` before the punctuation `.`, and a closed string before
# a lone `"`. Only whitespace and comments can span a newline; strings
# exclude `\n`.
_TOKEN_RE = re.compile(
    r"""(?: [ \t\r\n]+ | //[^\n]* | /\*[^*/]*(?:(?:/(?!\*)|\*(?!/))[^*/]*)*\*/ )*
      (?: (?P<identifier>'?[A-Za-z_][A-Za-z0-9_']*)
        | (?P<bracket>[()\[\]{}])
        | (?P<block_comment>/\*)
        | (?P<operator>%s)
        | (?P<punctuation>[,;:.$\#?`])
        | (?P<literal>"(?:[^"\\\n]|\\.)*" | 0x[0-9a-fA-F_]+ | 0b[01_]+ | \d+)
        | (?P<end>\Z)
        | (?P<open_string>")
        | (?P<other>[\s\S])
      )
    """ % "|".join(re.escape(op) for op in _OPERATORS),
    re.VERBOSE,
)
_GROUP = _TOKEN_RE.groupindex
_IDENT, _BLOCK = _GROUP["identifier"], _GROUP["block_comment"]
_END, _OPEN_STRING = _GROUP["end"], _GROUP["open_string"]
# Token kind by group number. Brackets are punctuation, and an unknown byte
# is an operator, so tokenizing stays total.
_KIND = [""] * (_TOKEN_RE.groups + 1)
for _name, _index in _GROUP.items():
    _KIND[_index] = _name
_KIND[_GROUP["bracket"]] = "punctuation"
_KIND[_GROUP["other"]] = "operator"

_BRACKET_TYPE = {"(": 0, "[": 1, "{": 2, ")": 0, "]": 1, "}": 2}

# Each comparison operator and the function that applies it.
COMPARISON_OPS = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


class Stream:
    """The tokens of one text, as columns; comments are not tokens.

    `kinds[i]` is keyword, identifier, operator, literal or punctuation;
    `texts[i]` is the token's text and `offsets[i]` where it starts; the
    offsets are an `array` of machine ints, which holds no int objects.
    `partner[i]` is the index of the closer of an opening `(`, `[` or `{`,
    paired with one stack per bracket type, and -1 for an opener with no
    closer and for every other token. `unbalanced` is the index of the first
    bracket, in text order, that breaks nesting, or -1 when the brackets
    nest. `len()` is the number of tokens.
    """

    __slots__ = ("path", "text", "kinds", "texts", "offsets", "partner", "unbalanced", "_mark")

    def __init__(self, path, text, kinds, texts, offsets, partner, unbalanced):
        self.path = path
        self.text = text
        self.kinds = kinds
        self.texts = texts
        self.offsets = offsets
        self.partner = partner
        self.unbalanced = unbalanced
        self._mark = (0, 1)  # (offset, its line): where the last count stopped

    def __len__(self) -> int:
        return len(self.kinds)

    # The columns follow from the path and the text, so those decide equality.
    def __eq__(self, other) -> bool:
        if not isinstance(other, Stream):
            return NotImplemented
        return (self.path, self.text) == (other.path, other.text)

    def __hash__(self) -> int:
        return hash((self.path, self.text))

    def location(self, i: int) -> tuple[int, int]:
        """(line, col) of token i, both from 1. Counting resumes where the
        previous call stopped, so calls in text order cost one pass."""
        offset = self.offsets[i]
        start, line = self._mark
        if offset < start:
            start, line = 0, 1
        line += self.text.count("\n", start, offset)
        self._mark = (offset, line)
        return line, offset - self.text.rfind("\n", 0, offset)

    def where(self, i: int) -> tuple[str, int, int]:
        """(path, line, col) of token i, for an error message."""
        return (self.path, *self.location(i))


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


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


def pair_brackets(texts: list[str]) -> tuple[list[int], int]:
    """The `partner` column for `texts`, and the index of the first bracket
    that breaks nesting, or -1: a closer that pairs with no opener, an opener
    with no closer, or an opener whose group the closer of an enclosing group
    cuts, as the `(` in `{ ( } )`."""
    partner = [-1] * len(texts)
    stacks: tuple[list[int], ...] = ([], [], [])
    brackets = [j for j, t in enumerate(texts) if t in _BRACKET_TYPE]
    for j in brackets:
        t = texts[j]
        stack = stacks[_BRACKET_TYPE[t]]
        if t in "([{":
            stack.append(j)
        elif stack:
            partner[stack.pop()] = j
    # While every bracket before j nests, j nests if it opens a group that
    # ends inside the innermost open one, or closes that one.
    ends = [len(texts)]  # the closers of the open groups, innermost last
    for j in brackets:
        if 0 <= partner[j] < ends[-1]:
            ends.append(partner[j])
        elif ends[-1] == j:
            ends.pop()
        else:
            return partner, j
    return partner, -1


def tokenize(text: str, path: str = "<string>") -> Stream:
    """Tokenize Sail source. Raises on unterminated comments or strings."""
    kinds: list[str] = []
    texts: list[str] = []
    offsets = array("q")
    pos = 0
    while True:
        # All tokens up to the end or to the next nested block comment.
        matches = list(_TOKEN_RE.finditer(text, pos))
        groups = [m.lastindex for m in matches]
        stop = groups.index(_END)
        if _BLOCK in groups[:stop]:
            stop = groups.index(_BLOCK)
        if _OPEN_STRING in groups[:stop]:
            at = matches[groups.index(_OPEN_STRING)].start(_OPEN_STRING)
            raise UnterminatedStringLiteral("unterminated string literal", path, *_line_col(text, at))
        found = matches[:stop]
        new = [m.group(m.lastindex) for m in found]
        offsets += array("q", [m.start(m.lastindex) for m in found])
        kinds += [
            _KIND[g] if g != _IDENT else "keyword" if t in KEYWORDS else "identifier"
            for g, t in zip(groups, new)
        ]
        texts += new
        if groups[stop] == _END:
            return Stream(path, text, kinds, texts, offsets, *pair_brackets(texts))
        at = matches[stop].start(_BLOCK)
        pos = _block_comment_end(text, at)
        if pos < 0:
            raise UnterminatedComment("unterminated block comment", path, *_line_col(text, at))
