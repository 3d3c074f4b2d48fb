"""Pragmatic parser for the supported Sail subset.

Top-level declarations (registers, bitfields, functions, execute clauses,
address mappings, enums, type aliases, val signatures) are recognized
structurally; everything inside a body is harvested by token patterns, never
evaluated. Unrecognized top-level constructs become opaque spans.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from .errors import (
    CrossFileDuplicate,
    DuplicateDefinition,
    IoError,
    MalformedDeclaration,
)
from .tokens import COMPARISON_OPS, Stream, pair_brackets, tokenize

# Keywords that can start a new top-level construct. Used to end open-ended
# spans (val signatures, expression bodies, opaque regions).
_TOP_ANCHORS = frozenset({
    "register", "bitfield", "function", "mapping", "enum", "union", "struct",
    "type", "val", "overload", "scattered", "end",
})

_OPENERS = frozenset({"(", "[", "{"})
_CLOSERS = frozenset({")", "]", "}"})
# Where a skip to the next anchor stops: an anchor, or a closer that no
# bracket the skip passed opened.
_ANCHOR_STOPS = _TOP_ANCHORS | _CLOSERS
_BRACE_STOPS = _CLOSERS | {"{"}


@dataclass(frozen=True)
class BitfieldField:
    name: str
    hi: int | None
    lo: int | None

    @property
    def width(self) -> int:
        if self.hi is None or self.lo is None:
            return 1
        return abs(self.hi - self.lo) + 1


@dataclass(frozen=True)
class BitfieldDecl:
    name: str
    width: int | None          # bits(N) when declared directly
    width_alias: str | None    # type-alias name otherwise
    fields: tuple[BitfieldField, ...]
    path: str
    line: int

    def field_names(self) -> frozenset[str]:
        return frozenset(f.name for f in self.fields)


@dataclass(frozen=True)
class RegisterType:
    base: str                  # "bits", "vector", or a type/bitfield name
    width: int | None = None
    size: int | None = None    # vector length
    elem: str | None = None    # vector element type name


@dataclass(frozen=True)
class RegisterDecl:
    name: str
    rtype: RegisterType
    path: str
    line: int


@dataclass(frozen=True)
class MatchInfo:
    subject: str | None
    arms: tuple[tuple[str, frozenset[str]], ...]  # (pattern head, called names)


@dataclass(frozen=True)
class Harvest:
    reads: frozenset[tuple[str, str | None]]
    writes: frozenset[tuple[str, str | None]]
    callees: frozenset[str]
    lvalue_callees: frozenset[str]
    comparisons: tuple[tuple[str, str, str], ...]
    matches: tuple[MatchInfo, ...]

    def union(self, other: "Harvest") -> "Harvest":
        return Harvest(
            self.reads | other.reads,
            self.writes | other.writes,
            self.callees | other.callees,
            self.lvalue_callees | other.lvalue_callees,
            self.comparisons + other.comparisons,
            self.matches + other.matches,
        )


class Segment(NamedTuple):
    """Tokens start..end-1 of a file's stream."""

    stream: Stream
    start: int
    end: int


@dataclass(frozen=True)
class Body:
    """One function or execute clause and what harvest_body found in it.

    A clause's name is its instruction; a function's params are those of the
    first of its clauses that has any. `tokens` holds one range per clause,
    in the order they merged; `view` reads them as one run.
    """

    name: str
    params: tuple[str, ...]
    tokens: tuple[Segment, ...]
    harvest: Harvest
    path: str
    line: int


@dataclass(frozen=True)
class OpaqueSpan:
    path: str
    start_line: int
    end_line: int
    head: str


@dataclass(frozen=True, eq=True)
class SourceUnit:
    path: str
    registers: tuple[RegisterDecl, ...]
    bitfield_types: tuple[BitfieldDecl, ...]
    functions: tuple[Body, ...]
    execute_clauses: tuple[Body, ...]
    mappings: tuple[tuple[str, int, str], ...]  # (mapping name, address, register)
    enums: tuple[tuple[str, tuple[str, ...]], ...]
    type_aliases: tuple[tuple[str, int | None], ...]
    val_decls: tuple[str, ...]
    opaque_spans: tuple[OpaqueSpan, ...]


@dataclass(frozen=True)
class SailModel:
    """Merged corpus with cross-file name resolution complete."""

    registers: dict[str, RegisterDecl]
    bitfield_types: dict[str, BitfieldDecl]
    functions: dict[str, Body]
    execute_clauses: dict[str, Body]
    mappings: dict[str, tuple[tuple[int, str], ...]]
    enums: dict[str, tuple[str, ...]]
    type_aliases: dict[str, int | None]
    val_decls: frozenset[str]
    opaque_spans: tuple[OpaqueSpan, ...]

    def instructions(self) -> list[str]:
        return sorted(self.execute_clauses)


def _register_fields(
    registers: dict[str, RegisterDecl],
    bitfields: dict[str, BitfieldDecl],
) -> dict[str, frozenset[str]]:
    table: dict[str, frozenset[str]] = {}
    for name, decl in registers.items():
        bf = bitfields.get(decl.rtype.base)
        table[name] = bf.field_names() if bf else frozenset()
    return table


def int_literal(tokens, i: int, what: str) -> int:
    """Value of numeric literal token i (decimal, 0x or 0b; `_` separators).

    `tokens` is a `Stream` or a `view` of merged bodies."""
    text = tokens.texts[i]
    try:
        return int(text.replace("_", ""), 0)
    except ValueError:
        shown = repr(text) if len(text) <= 32 else f"{text[:32]!r}... ({len(text)} characters)"
        raise MalformedDeclaration(
            f"bad numeric literal {shown} in {what}", *tokens.where(i)
        ) from None


def _closer(tokens, j: int, end: int) -> int:
    """Index of the token closing bracket j, which must come before `end`."""
    close = tokens.partner[j]
    if close < 0 or close >= end:
        raise MalformedDeclaration(f"unbalanced {tokens.texts[j]!r}", *tokens.where(j))
    return close


def _first(toks, i: int, end: int, stops) -> int:
    """Index of the first token from i whose text is in `stops`, or `end`.
    A bracket that is not a stop is skipped with its group, so nesting is
    read only from `partner`."""
    texts = toks.texts
    while i < end:
        text = texts[i]
        if text in stops:
            return i
        i = _closer(toks, i, end) + 1 if text in _OPENERS else i + 1
    return end


class _Joined:
    """Token ranges of several streams read as one run, as a merged body is
    read: brackets pair across the seams."""

    __slots__ = ("kinds", "texts", "partner", "_ranges")

    def __init__(self, ranges: tuple[Segment, ...]):
        self.kinds = [k for r in ranges for k in r.stream.kinds[r.start : r.end]]
        self.texts = [t for r in ranges for t in r.stream.texts[r.start : r.end]]
        self.partner = pair_brackets(self.texts)
        self._ranges = ranges

    def where(self, i: int) -> tuple[str, int, int]:
        for stream, start, end in self._ranges:
            if i < end - start:
                return stream.where(start + i)
            i -= end - start
        raise IndexError(i)


def view(ranges: tuple[Segment, ...]) -> tuple[Stream | _Joined, int, int]:
    """(tokens, start, end): a body's token ranges as one run to read."""
    if len(ranges) == 1:
        return ranges[0]
    joined = _Joined(ranges)
    return joined, 0, len(joined.texts)


def _find_matches(toks, start: int, end: int) -> tuple[MatchInfo, ...]:
    kinds, texts = toks.kinds, toks.texts
    out: list[MatchInfo] = []
    i = start
    while True:
        try:
            i = texts.index("match", i, end)
        except ValueError:
            break
        i += 1
        subject = None
        if i + 1 < end and kinds[i] == "identifier" and texts[i + 1] == "{":
            subject = texts[i]
        # A closer before the brace: the match sits in a wider expression.
        brace = _first(toks, i, end, _BRACE_STOPS)
        if brace == end or texts[brace] != "{":
            continue
        close = _closer(toks, brace, end)
        arms: list[tuple[str, frozenset[str]]] = []
        k = brace + 1
        while k < close:
            # pattern tokens until "=>", then the body until "," or the brace
            pat_start = k
            arrow = _first(toks, k, close, ("=>",))
            if arrow == close:
                break
            body_start = arrow + 1
            body_end = _first(toks, body_start, close, (",",))
            k = body_end + 1  # past the comma
            if arrow == pat_start:
                continue
            called = frozenset(
                texts[x]
                for x in range(body_start, body_end - 1)
                if kinds[x] == "identifier" and texts[x + 1] == "("
            )
            arms.append((texts[pat_start], called))
        out.append(MatchInfo(subject, tuple(arms)))
    return tuple(out)


def harvest_body(
    ranges: tuple[Segment, ...],
    reg_fields: dict[str, frozenset[str]],
) -> Harvest:
    """Token-pattern extraction of register accesses, calls, and comparisons."""
    toks, start, n = view(ranges)
    kinds, texts = toks.kinds, toks.texts
    reads: set[tuple[str, str | None]] = set()
    writes: set[tuple[str, str | None]] = set()
    calls: set[str] = set()
    lcalls: set[str] = set()
    comps: list[tuple[str, str, str]] = []
    i = start
    while i < n:
        kind = kinds[i]
        if kind == "identifier":
            name = texts[i]
            nxt = texts[i + 1] if i + 1 < n else None
            if name in reg_fields:
                if nxt == "[":
                    j = _closer(toks, i + 1, n)
                    fieldname = None
                    if j == i + 3 and kinds[i + 2] == "identifier" and texts[i + 2] in reg_fields[name]:
                        fieldname = texts[i + 2]
                    is_write = j + 1 < n and texts[j + 1] == "="
                    if is_write:
                        writes.add((name, fieldname))
                    else:
                        reads.add((name, fieldname))
                    if fieldname is None:
                        i += 2  # descend into the dynamic index expression
                    else:
                        i = j + 2 if is_write else j + 1
                elif nxt == "." and i + 2 < n and texts[i + 2] == "bits":
                    if i + 3 < n and texts[i + 3] == "=":
                        writes.add((name, None))
                        i += 4
                    else:
                        reads.add((name, None))
                        i += 3
                elif nxt == "=":
                    writes.add((name, None))
                    i += 2
                else:
                    reads.add((name, None))
                    i += 1
            elif nxt == "(":
                j = _closer(toks, i + 1, n)
                if j + 1 < n and texts[j + 1] == "=":
                    lcalls.add(name)
                else:
                    calls.add(name)
                i += 2  # descend into arguments
            else:
                i += 1
        elif kind == "operator" and texts[i] in COMPARISON_OPS:
            if i > start and i + 1 < n and kinds[i - 1] == "identifier" and kinds[i + 1] == "identifier":
                comps.append((texts[i - 1], texts[i], texts[i + 1]))
            i += 1
        else:
            i += 1
    return Harvest(
        frozenset(reads),
        frozenset(writes),
        frozenset(calls),
        frozenset(lcalls),
        tuple(comps),
        _find_matches(toks, start, n),
    )


class _UnitParser:
    def __init__(self, stream: Stream, path: str):
        self.stream = stream
        self.kinds = stream.kinds
        self.texts = stream.texts
        self.n = len(stream)
        self.path = path
        self.i = 0
        self.registers: list[RegisterDecl] = []
        self.bitfields: list[BitfieldDecl] = []
        self.raw_functions: list[tuple[str, tuple[str, ...], Segment, int]] = []
        self.raw_clauses: list[tuple[str, tuple[str, ...], Segment, int]] = []
        self.mappings: list[tuple[str, int, str]] = []
        self.enums: list[tuple[str, tuple[str, ...]]] = []
        self.type_aliases: list[tuple[str, int | None]] = []
        self.val_decls: list[str] = []
        self.opaque: list[OpaqueSpan] = []

    # -- small helpers -----------------------------------------------------

    def _text(self, k: int = 0) -> str | None:
        """Text of the token k ahead, or None past the end."""
        j = self.i + k
        return self.texts[j] if j < self.n else None

    def _named(self) -> bool:
        """Whether the current token is an identifier or a keyword."""
        return self.i < self.n and self.kinds[self.i] in ("identifier", "keyword")

    def _line(self, j: int) -> int:
        return self.stream.location(j)[0]

    def _error(self, message: str, j: int | None = None) -> MalformedDeclaration:
        """An error at token j, the current token by default; past the end
        of the file it has no position."""
        j = self.i if j is None else j
        where = self.stream.where(j) if j < self.n else (self.path, 0, 0)
        return MalformedDeclaration(message, *where)

    def _expect(self, text: str, what: str) -> None:
        if self._text() != text:
            raise self._error(f"expected {text!r} in {what}")
        self.i += 1

    def _ident(self, what: str) -> str:
        if not self._named():
            raise self._error(f"expected a name in {what}")
        self.i += 1
        return self.texts[self.i - 1]

    def _int_literal(self, what: str) -> int:
        if self.i >= self.n or self.kinds[self.i] != "literal":
            raise self._error(f"expected a numeric literal in {what}")
        self.i += 1
        return int_literal(self.stream, self.i - 1, what)

    def _close(self, open_i: int) -> int:
        return _closer(self.stream, open_i, self.n)

    def _consume_type_expr(self) -> None:
        """A type expression: name or name(...) or (...) tuples, arrows allowed."""
        while self.i < self.n:
            text = self.texts[self.i]
            kind = self.kinds[self.i]
            if text in _OPENERS:
                self.i = self._close(self.i) + 1
                continue
            if kind in ("identifier", "keyword") and text in _TOP_ANCHORS:
                break
            if kind in ("identifier", "keyword", "literal") or text in (
                "->", ",", ".", "'", ":",
            ):
                self.i += 1
                continue
            break

    def _consume_until_anchor(self) -> int:
        """Skip to the next top-level keyword outside brackets; returns
        where the skipped span started. Anchors are keywords, so their text
        alone finds them."""
        start = self.i
        self.i = _first(self.stream, start, self.n, _ANCHOR_STOPS)
        if self._text() in _CLOSERS:
            raise self._error(f"unbalanced {self.texts[self.i]!r}")
        return start

    def _consume_body(self) -> Segment:
        if self._text() == "{":
            close = self._close(self.i)
            body = Segment(self.stream, self.i + 1, close)
            self.i = close + 1
            return body
        start = self._consume_until_anchor()
        return Segment(self.stream, start, self.i)

    def _param_names(self, open_i: int) -> tuple[tuple[str, ...], int]:
        """Names of comma-separated parameters inside the parens at open_i."""
        close = self._close(open_i)
        names: list[str] = []
        expect_name = True
        j = open_i + 1
        while j < close:
            text = self.texts[j]
            if text in _OPENERS:
                j = _closer(self.stream, j, close)
            elif text == ",":
                expect_name = True
            elif expect_name and self.kinds[j] == "identifier":
                names.append(text)
                expect_name = False
            j += 1
        return tuple(names), close

    # -- top-level constructs ----------------------------------------------

    def parse(self) -> SourceUnit:
        while self.i < self.n:
            text = self.texts[self.i]
            if text == "register":
                self._parse_register()
            elif text == "bitfield":
                self._parse_bitfield()
            elif text == "function":
                self._parse_function()
            elif text == "mapping":
                self._parse_mapping()
            elif text == "enum":
                self._parse_enum()
            elif text == "type":
                self._parse_type_alias()
            elif text == "val":
                self._parse_val()
            elif text in ("union", "struct"):
                self._parse_ignored_braced()
            elif text == "overload":
                self.i += 1
                self._consume_until_anchor()
            elif text == "scattered":
                self.i += 1
                if self._text() in ("function", "union", "mapping"):
                    self.i += 1
                self._ident("scattered declaration")
            elif text == "end":
                self.i += 1
                if self._named():
                    self.i += 1
            elif text == "let":
                self.i += 1
                self._consume_until_anchor()
            else:
                self._parse_opaque()
        return self._build_unit()

    def _parse_register(self) -> None:
        head = self.i
        self.i += 1
        name = self._ident("register declaration")
        self._expect(":", f"register declaration of {name!r}")
        rtype = self._parse_register_type(name)
        if any(r.name == name for r in self.registers):
            raise DuplicateDefinition(
                f"register {name!r} declared twice", *self.stream.where(head)
            )
        self.registers.append(RegisterDecl(name, rtype, self.path, self._line(head)))

    def _parse_register_type(self, regname: str) -> RegisterType:
        if not self._named():
            raise self._error(f"register {regname!r} needs a type, e.g. 'register {regname} : bits(64)'")
        base = self.texts[self.i]
        self.i += 1
        nxt = self._text()
        if base == "bits" and nxt == "(":
            width = None
            close = self._close(self.i)
            if close == self.i + 2 and self.kinds[self.i + 1] == "literal":
                width = int_literal(self.stream, self.i + 1, f"register {regname!r} width")
            self.i = close + 1
            return RegisterType("bits", width=width)
        if base == "vector" and nxt == "(":
            close = self._close(self.i)
            first, last = self.i + 1, close - 1
            size = None
            elem = None
            if first <= last and self.kinds[first] == "literal":
                size = int_literal(self.stream, first, f"register {regname!r} vector size")
            if first <= last and self.kinds[last] in ("identifier", "keyword"):
                elem = self.texts[last]
            self.i = close + 1
            return RegisterType("vector", size=size, elem=elem)
        if nxt == "(":
            self.i = self._close(self.i) + 1
        return RegisterType(base)

    def _parse_bitfield(self) -> None:
        head = self.i
        self.i += 1
        name = self._ident("bitfield declaration")
        self._expect(":", f"bitfield {name!r}")
        width: int | None = None
        alias: str | None = None
        if self._text() == "bits":
            self.i += 1
            self._expect("(", f"bitfield {name!r} width")
            width = self._int_literal(f"bitfield {name!r} width")
            self._expect(")", f"bitfield {name!r} width")
        elif self._named():
            alias = self.texts[self.i]
            self.i += 1
        else:
            raise self._error(f"bitfield {name!r} needs a width, e.g. 'bitfield {name} : bits(64)'")
        self._expect("=", f"bitfield {name!r}")
        if self._text() != "{":
            raise self._error(f"bitfield {name!r} needs a field block '{{ ... }}'")
        close = self._close(self.i)
        fields = self._parse_bitfield_fields(self.i + 1, close, name)
        self.i = close + 1
        if any(b.name == name for b in self.bitfields):
            raise DuplicateDefinition(
                f"bitfield {name!r} declared twice", *self.stream.where(head)
            )
        self.bitfields.append(BitfieldDecl(name, width, alias, fields, self.path, self._line(head)))

    def _parse_bitfield_fields(self, start: int, close: int, bfname: str) -> tuple[BitfieldField, ...]:
        kinds, texts = self.kinds, self.texts
        fields: list[BitfieldField] = []
        j = start
        while j < close:
            if texts[j] == ",":
                j += 1
                continue
            if kinds[j] not in ("identifier", "keyword"):
                raise self._error(f"expected a field name in bitfield {bfname!r}", j)
            fname = texts[j]
            name_at = j
            j += 1
            if j >= close or texts[j] != ":":
                raise self._error(f"field {fname!r} in bitfield {bfname!r} needs ': hi .. lo'", name_at)
            j += 1
            # range tokens until the next comma outside brackets
            span_start = j
            j = _first(self.stream, j, close, (",",))
            nums = [
                int_literal(self.stream, x, f"field {fname!r} of bitfield {bfname!r}")
                for x in range(span_start, j) if kinds[x] == "literal"
            ]
            if len(nums) >= 2 and ".." in texts[span_start:j]:
                hi, lo = nums[0], nums[1]
            elif len(nums) == 1:
                hi = lo = nums[0]
            else:
                hi = lo = None
            fields.append(BitfieldField(fname, hi, lo))
        return tuple(fields)

    def _parse_function(self) -> None:
        head = self.i
        self.i += 1
        is_clause = self._text() == "clause"
        if is_clause:
            self.i += 1
        name = self._ident("function definition")
        if is_clause and name == "execute":
            self._parse_execute_clause(head)
            return
        params: tuple[str, ...] = ()
        if self._text() == "(":
            params, close = self._param_names(self.i)
            self.i = close + 1
        if self._text() == "->":
            self.i += 1
            self._consume_type_expr()
        self._expect("=", f"function {name!r}")
        body = self._consume_body()
        self.raw_functions.append((name, params, body, self._line(head)))

    def _parse_execute_clause(self, head: int) -> None:
        wrapped = self._text() == "("
        if wrapped:
            self.i += 1
        name = self._ident("execute clause")
        operands: tuple[str, ...] = ()
        if self._text() == "(":
            operands, close = self._param_names(self.i)
            self.i = close + 1
        if wrapped:
            self._expect(")", f"execute clause {name!r}")
        if self._text() == "->":
            self.i += 1
            self._consume_type_expr()
        self._expect("=", f"execute clause {name!r}")
        body = self._consume_body()
        if any(c[0] == name for c in self.raw_clauses):
            raise DuplicateDefinition(
                f"execute clause {name!r} defined twice in one file", *self.stream.where(head)
            )
        self.raw_clauses.append((name, operands, body, self._line(head)))

    def _parse_mapping(self) -> None:
        self.i += 1
        if self._text() == "clause":
            self.i += 1
            name = self._ident("mapping clause")
            if self._text() == "=":
                self.i += 1
                entry = self._try_parse_address_entry(name)
                if entry is not None:
                    self.mappings.append(entry)
                    return
        self._consume_until_anchor()

    def _try_parse_address_entry(self, mapping_name: str) -> tuple[str, int, str] | None:
        """LITERAL <-> "name" (either order) or None if shaped differently."""
        a = self.i
        if a + 2 >= self.n or self.texts[a + 1] != "<->":
            self._consume_until_anchor()
            return None
        kinds, texts = self.kinds, self.texts

        def as_addr(j: int) -> int | None:
            if kinds[j] == "literal" and not texts[j].startswith('"'):
                return int_literal(self.stream, j, f"mapping clause {mapping_name!r}")
            return None

        def as_name(j: int) -> str | None:
            if kinds[j] == "literal" and texts[j].startswith('"'):
                return texts[j][1:-1]
            return None

        addr, name = as_addr(a), as_name(a + 2)
        if addr is None or name is None:
            addr, name = as_addr(a + 2), as_name(a)
        self.i += 3
        if addr is None or name is None:
            return None
        return (mapping_name, addr, name)

    def _parse_enum(self) -> None:
        self.i += 1
        name = self._ident("enum declaration")
        if self._text() == "=":
            self.i += 1
        if self._text() != "{":
            self._consume_until_anchor()
            return
        close = self._close(self.i)
        members = tuple(
            self.texts[j] for j in range(self.i + 1, close)
            if self.kinds[j] in ("identifier", "keyword")
        )
        self.i = close + 1
        self.enums.append((name, members))

    def _parse_type_alias(self) -> None:
        self.i += 1
        name = self._ident("type alias")
        width: int | None = None
        if self._text() == "=":
            self.i += 1
            if self._text() == "bits" and self._text(1) == "(":
                close = self._close(self.i + 1)
                if close == self.i + 3 and self.kinds[self.i + 2] == "literal":
                    width = int_literal(self.stream, self.i + 2, f"type alias {name!r}")
                self.i = close + 1
                self.type_aliases.append((name, width))
                return
        self._consume_until_anchor()
        self.type_aliases.append((name, width))

    def _parse_val(self) -> None:
        self.i += 1
        name = self._ident("val declaration")
        if self._text() == ":":
            self.i += 1
        self._consume_until_anchor()
        self.val_decls.append(name)

    def _parse_ignored_braced(self) -> None:
        self.i += 1
        self._ident("declaration")
        if self._text() == "=":
            self.i += 1
        if self._text() == "{":
            self.i = self._close(self.i) + 1
        else:
            self._consume_until_anchor()

    def _parse_opaque(self) -> None:
        head = self.i
        self.i += 1
        self._consume_until_anchor()
        self.opaque.append(
            OpaqueSpan(self.path, self._line(head), self._line(self.i - 1), self.texts[head])
        )

    # -- assembly ----------------------------------------------------------

    def _build_unit(self) -> SourceUnit:
        reg_map = {r.name: r for r in self.registers}
        bf_map = {b.name: b for b in self.bitfields}
        reg_fields = _register_fields(reg_map, bf_map)

        def body(name: str, params: tuple[str, ...], tokens: Segment, line: int) -> Body:
            ranges = (tokens,)
            return Body(name, params, ranges, harvest_body(ranges, reg_fields), self.path, line)

        merged: dict[str, Body] = {}
        for raw in self.raw_functions:
            merged[raw[0]] = _merge_decls(merged.get(raw[0]), body(*raw))
        clauses = {raw[0]: body(*raw) for raw in self.raw_clauses}

        return SourceUnit(
            path=self.path,
            registers=tuple(self.registers),
            bitfield_types=tuple(self.bitfields),
            functions=tuple(merged[k] for k in sorted(merged)),
            execute_clauses=tuple(clauses[k] for k in sorted(clauses)),
            mappings=tuple(self.mappings),
            enums=tuple(self.enums),
            type_aliases=tuple(self.type_aliases),
            val_decls=tuple(self.val_decls),
            opaque_spans=tuple(self.opaque),
        )


def _merge_decls(prev: Body | None, new: Body) -> Body:
    """Join `new` onto an earlier same-name definition `prev`, if there is one.

    Bodies concatenate and harvests union; this is how scattered and
    overloaded functions, and repeated execute clauses when asked, combine.
    """
    if prev is None:
        return new
    return replace(
        prev,
        params=prev.params or new.params,
        tokens=prev.tokens + new.tokens,
        harvest=prev.harvest.union(new.harvest),
    )


def parse_unit(tokens: Stream, path: str = "<string>") -> SourceUnit:
    """Parse one tokenized file into a SourceUnit."""
    return _UnitParser(tokens, path).parse()


def parse_corpus(
    paths: list[str],
    *,
    merge_duplicate_clauses: bool = False,
) -> SailModel:
    """Parse and merge a corpus of Sail files into one SailModel.

    Cross-file duplicate registers, bitfields, or execute clauses are an
    error (set merge_duplicate_clauses to union duplicated clauses instead,
    for large real-world models). Same-name functions always merge, which is
    how scattered and overloaded definitions combine.
    """
    units: list[SourceUnit] = []
    for p in paths:
        try:
            with open(p, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise IoError(f"cannot read corpus file {p}: {exc}") from exc
        units.append(parse_unit(tokenize(text, str(p)), str(p)))
    return merge_units(units, merge_duplicate_clauses=merge_duplicate_clauses)


def merge_units(
    units: list[SourceUnit],
    *,
    merge_duplicate_clauses: bool = False,
) -> SailModel:
    units = sorted(units, key=lambda u: u.path)

    registers: dict[str, RegisterDecl] = {}
    bitfields: dict[str, BitfieldDecl] = {}
    for u in units:
        for r in u.registers:
            if r.name in registers:
                raise CrossFileDuplicate(
                    f"register {r.name!r} declared in both "
                    f"{registers[r.name].path} and {u.path}"
                )
            registers[r.name] = r
        for b in u.bitfield_types:
            if b.name in bitfields:
                raise CrossFileDuplicate(
                    f"bitfield {b.name!r} declared in both "
                    f"{bitfields[b.name].path} and {u.path}"
                )
            bitfields[b.name] = b

    reg_fields = _register_fields(registers, bitfields)

    def reharvest(decl: Body) -> Body:
        return replace(decl, harvest=harvest_body(decl.tokens, reg_fields))

    functions: dict[str, Body] = {}
    clauses: dict[str, Body] = {}
    for u in units:
        for f in u.functions:
            functions[f.name] = _merge_decls(functions.get(f.name), reharvest(f))
    for u in units:
        for c in u.execute_clauses:
            if c.name in clauses and not merge_duplicate_clauses:
                raise CrossFileDuplicate(
                    f"execute clause {c.name!r} defined in both "
                    f"{clauses[c.name].path} and {u.path}"
                )
            clauses[c.name] = _merge_decls(clauses.get(c.name), reharvest(c))

    enums: dict[str, tuple[str, ...]] = {}
    mappings: dict[str, list[tuple[int, str]]] = {}
    for u in units:
        for mname, addr, reg in u.mappings:
            mappings.setdefault(mname, []).append((addr, reg))

    type_aliases: dict[str, int | None] = {}
    val_decls: set[str] = set()
    opaque: list[OpaqueSpan] = []
    for u in units:
        for name, members in u.enums:
            enums.setdefault(name, members)
        for name, width in u.type_aliases:
            type_aliases.setdefault(name, width)
        val_decls.update(u.val_decls)
        opaque.extend(u.opaque_spans)

    return SailModel(
        registers={k: registers[k] for k in sorted(registers)},
        bitfield_types={k: bitfields[k] for k in sorted(bitfields)},
        functions={k: functions[k] for k in sorted(functions)},
        execute_clauses={k: clauses[k] for k in sorted(clauses)},
        mappings={k: tuple(sorted(v)) for k, v in sorted(mappings.items())},
        enums={k: enums[k] for k in sorted(enums)},
        type_aliases={k: type_aliases[k] for k in sorted(type_aliases)},
        val_decls=frozenset(val_decls),
        opaque_spans=tuple(opaque),
    )
