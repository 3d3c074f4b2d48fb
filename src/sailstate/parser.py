"""Pragmatic parser for the supported Sail subset.

Top-level declarations (registers, bitfields, functions, execute clauses,
address mappings, enums, type aliases, val signatures) are recognized
structurally; everything inside a body is harvested by token patterns, never
evaluated. Unrecognized top-level constructs become opaque spans.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import (
    CrossFileDuplicate,
    DuplicateDefinition,
    IoError,
    MalformedDeclaration,
)
from .tokens import COMPARISON_OPS, Token, significant, tokenize

# Keywords that can start a new top-level construct. Used to end open-ended
# spans (val signatures, expression bodies, opaque regions).
_TOP_ANCHORS = frozenset({
    "register", "bitfield", "function", "mapping", "enum", "union", "struct",
    "type", "val", "overload", "scattered", "end",
})

_OPENERS = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = {")": "(", "]": "[", "}": "{"}


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


@dataclass(frozen=True)
class FunctionDef:
    name: str
    params: tuple[str, ...]
    body_tokens: tuple[Token, ...]
    state_reads: frozenset[tuple[str, str | None]]
    state_writes: frozenset[tuple[str, str | None]]
    callees: frozenset[str]
    lvalue_callees: frozenset[str]
    comparisons: tuple[tuple[str, str, str], ...]
    matches: tuple[MatchInfo, ...]
    clause_count: int
    path: str
    line: int


@dataclass(frozen=True)
class ExecuteClause:
    instruction: str
    operands: tuple[str, ...]
    body_tokens: tuple[Token, ...]
    state_reads: frozenset[tuple[str, str | None]]
    state_writes: frozenset[tuple[str, str | None]]
    callees: frozenset[str]
    lvalue_callees: frozenset[str]
    comparisons: tuple[tuple[str, str, str], ...]
    matches: tuple[MatchInfo, ...]
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
    functions: tuple[FunctionDef, ...]
    execute_clauses: tuple[ExecuteClause, ...]
    mappings: tuple[tuple[str, int, str], ...]  # (mapping name, address, register)
    enums: tuple[tuple[str, tuple[str, ...]], ...]
    type_aliases: tuple[tuple[str, int | None], ...]
    val_decls: tuple[str, ...]
    opaque_spans: tuple[OpaqueSpan, ...]


@dataclass(frozen=True, eq=False)
class SailModel:
    """Merged corpus with cross-file name resolution complete."""

    registers: dict[str, RegisterDecl]
    bitfield_types: dict[str, BitfieldDecl]
    functions: dict[str, FunctionDef]
    execute_clauses: dict[str, ExecuteClause]
    mappings: dict[str, tuple[tuple[int, str], ...]]
    enums: dict[str, tuple[str, ...]]
    type_aliases: dict[str, int | None]
    val_decls: frozenset[str]
    externals: frozenset[str]
    opaque_spans: tuple[OpaqueSpan, ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SailModel):
            return NotImplemented
        return (
            self.registers == other.registers
            and self.bitfield_types == other.bitfield_types
            and self.functions == other.functions
            and self.execute_clauses == other.execute_clauses
            and self.mappings == other.mappings
            and self.enums == other.enums
            and self.type_aliases == other.type_aliases
            and self.val_decls == other.val_decls
            and self.externals == other.externals
        )

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


def _match_close(toks: list[Token], open_i: int) -> int:
    """Index of the token closing toks[open_i] (one of ( [ {)."""
    opener = toks[open_i].text
    closer = _OPENERS[opener]
    depth = 0
    for i in range(open_i, len(toks)):
        t = toks[i].text
        if t == opener:
            depth += 1
        elif t == closer:
            depth -= 1
            if depth == 0:
                return i
    raise MalformedDeclaration(
        f"unbalanced {opener!r}", toks[open_i].path, toks[open_i].line, toks[open_i].col
    )


def _find_matches(toks: list[Token]) -> tuple[MatchInfo, ...]:
    out: list[MatchInfo] = []
    n = len(toks)
    for i, t in enumerate(toks):
        if not (t.kind == "keyword" and t.text == "match"):
            continue
        subject = None
        if i + 2 < n and toks[i + 1].kind == "identifier" and toks[i + 2].text == "{":
            subject = toks[i + 1].text
        brace = None
        depth = 0
        for j in range(i + 1, n):
            txt = toks[j].text
            if txt in "([":
                depth += 1
            elif txt in ")]":
                depth -= 1
                if depth < 0:
                    break  # match inside a wider expression list; malformed here
            elif txt == "{" and depth == 0:
                brace = j
                break
        if brace is None:
            continue
        close = _match_close(toks, brace)
        arms: list[tuple[str, frozenset[str]]] = []
        k = brace + 1
        while k < close:
            # pattern tokens until "=>" at local depth 0
            depth = 0
            pat_start = k
            arrow = None
            while k < close:
                txt = toks[k].text
                if txt in _OPENERS:
                    depth += 1
                elif txt in _CLOSERS:
                    depth -= 1
                elif txt == "=>" and depth == 0:
                    arrow = k
                    break
                k += 1
            if arrow is None:
                break
            pattern = toks[pat_start:arrow]
            # body until "," at local depth 0, or the closing brace
            depth = 0
            k = arrow + 1
            body_start = k
            while k < close:
                txt = toks[k].text
                if txt in _OPENERS:
                    depth += 1
                elif txt in _CLOSERS:
                    depth -= 1
                elif txt == "," and depth == 0:
                    break
                k += 1
            body = toks[body_start:k]
            k += 1  # past the comma
            if not pattern:
                continue
            called = frozenset(
                body[x].text
                for x in range(len(body) - 1)
                if body[x].kind == "identifier" and body[x + 1].text == "("
            )
            arms.append((pattern[0].text, called))
        out.append(MatchInfo(subject, tuple(arms)))
    return tuple(out)


def harvest_body(
    toks: list[Token] | tuple[Token, ...],
    reg_fields: dict[str, frozenset[str]],
) -> Harvest:
    """Token-pattern extraction of register accesses, calls, and comparisons."""
    toks = list(toks)
    n = len(toks)
    reads: set[tuple[str, str | None]] = set()
    writes: set[tuple[str, str | None]] = set()
    calls: set[str] = set()
    lcalls: set[str] = set()
    comps: list[tuple[str, str, str]] = []
    i = 0
    while i < n:
        t = toks[i]
        if t.kind == "identifier":
            name = t.text
            nxt = toks[i + 1] if i + 1 < n else None
            if name in reg_fields:
                if nxt is not None and nxt.text == "[":
                    j = _match_close(toks, i + 1)
                    inner = toks[i + 2 : j]
                    fieldname = None
                    if (
                        len(inner) == 1
                        and inner[0].kind == "identifier"
                        and inner[0].text in reg_fields[name]
                    ):
                        fieldname = inner[0].text
                    after = toks[j + 1] if j + 1 < n else None
                    is_write = after is not None and after.kind == "operator" and after.text == "="
                    if is_write:
                        writes.add((name, fieldname))
                    else:
                        reads.add((name, fieldname))
                    if fieldname is None:
                        i += 2  # descend into the dynamic index expression
                    else:
                        i = j + 2 if is_write else j + 1
                elif nxt is not None and nxt.text == "." and i + 2 < n and toks[i + 2].text == "bits":
                    after = toks[i + 3] if i + 3 < n else None
                    if after is not None and after.kind == "operator" and after.text == "=":
                        writes.add((name, None))
                        i += 4
                    else:
                        reads.add((name, None))
                        i += 3
                elif nxt is not None and nxt.kind == "operator" and nxt.text == "=":
                    writes.add((name, None))
                    i += 2
                else:
                    reads.add((name, None))
                    i += 1
            elif nxt is not None and nxt.text == "(":
                j = _match_close(toks, i + 1)
                after = toks[j + 1] if j + 1 < n else None
                if after is not None and after.kind == "operator" and after.text == "=":
                    lcalls.add(name)
                else:
                    calls.add(name)
                i += 2  # descend into arguments
            else:
                i += 1
        elif t.kind == "operator" and t.text in COMPARISON_OPS:
            prev = toks[i - 1] if i > 0 else None
            nxt = toks[i + 1] if i + 1 < n else None
            if (
                prev is not None
                and nxt is not None
                and prev.kind == "identifier"
                and nxt.kind == "identifier"
            ):
                comps.append((prev.text, t.text, nxt.text))
            i += 1
        else:
            i += 1
    return Harvest(
        frozenset(reads),
        frozenset(writes),
        frozenset(calls),
        frozenset(lcalls),
        tuple(comps),
        _find_matches(toks),
    )


class _UnitParser:
    def __init__(self, tokens: list[Token], path: str):
        self.toks = significant(tokens)
        self.path = path
        self.i = 0
        self.registers: list[RegisterDecl] = []
        self.bitfields: list[BitfieldDecl] = []
        self.raw_functions: list[tuple[str, tuple[str, ...], tuple[Token, ...], int]] = []
        self.raw_clauses: list[tuple[str, tuple[str, ...], tuple[Token, ...], int]] = []
        self.mappings: list[tuple[str, int, str]] = []
        self.enums: list[tuple[str, tuple[str, ...]]] = []
        self.type_aliases: list[tuple[str, int | None]] = []
        self.val_decls: list[str] = []
        self.opaque: list[OpaqueSpan] = []

    # -- small helpers -----------------------------------------------------

    def _peek(self, k: int = 0) -> Token | None:
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else None

    def _error(self, message: str, tok: Token | None = None) -> MalformedDeclaration:
        tok = tok or self._peek() or Token("punctuation", "", self.path, 0, 0, 0)
        return MalformedDeclaration(message, tok.path, tok.line, tok.col)

    def _expect(self, text: str, what: str) -> Token:
        tok = self._peek()
        if tok is None or tok.text != text:
            raise self._error(f"expected {text!r} in {what}", tok)
        self.i += 1
        return tok

    def _ident(self, what: str) -> Token:
        tok = self._peek()
        if tok is None or tok.kind not in ("identifier", "keyword"):
            raise self._error(f"expected a name in {what}", tok)
        self.i += 1
        return tok

    def _int_literal(self, what: str) -> int:
        tok = self._peek()
        if tok is None or tok.kind != "literal":
            raise self._error(f"expected a numeric literal in {what}", tok)
        self.i += 1
        text = tok.text.replace("_", "")
        try:
            if text.startswith("0x"):
                return int(text, 16)
            if text.startswith("0b"):
                return int(text, 2)
            return int(text)
        except ValueError as exc:
            raise self._error(f"bad numeric literal {tok.text!r} in {what}", tok) from exc

    def _skip_balanced_from(self, open_i: int) -> int:
        close = _match_close(self.toks, open_i)
        return close + 1

    def _consume_type_expr(self) -> tuple[Token, ...]:
        """A type expression: name or name(...) or (...) tuples, arrows allowed."""
        start = self.i
        while True:
            tok = self._peek()
            if tok is None:
                break
            if tok.text in ("(", "[", "{"):
                self.i = self._skip_balanced_from(self.i)
                continue
            if tok.kind in ("identifier", "keyword") and tok.text in _TOP_ANCHORS:
                break
            if tok.kind in ("identifier", "keyword", "literal") or tok.text in (
                "->", ",", ".", "'", ":",
            ):
                self.i += 1
                continue
            break
        return tuple(self.toks[start : self.i])

    def _consume_until_anchor(self) -> tuple[Token, ...]:
        start = self.i
        depth = 0
        while self.i < len(self.toks):
            tok = self.toks[self.i]
            if tok.text in _OPENERS:
                depth += 1
            elif tok.text in _CLOSERS:
                depth -= 1
            elif depth == 0 and tok.kind == "keyword" and tok.text in _TOP_ANCHORS:
                break
            self.i += 1
        return tuple(self.toks[start : self.i])

    def _consume_body(self) -> tuple[Token, ...]:
        tok = self._peek()
        if tok is not None and tok.text == "{":
            close = _match_close(self.toks, self.i)
            body = tuple(self.toks[self.i + 1 : close])
            self.i = close + 1
            return body
        return self._consume_until_anchor()

    def _param_names(self, open_i: int) -> tuple[tuple[str, ...], int]:
        """Names of comma-separated parameters inside the parens at open_i."""
        close = _match_close(self.toks, open_i)
        names: list[str] = []
        depth = 0
        expect_name = True
        for j in range(open_i + 1, close):
            tok = self.toks[j]
            if tok.text in _OPENERS:
                depth += 1
            elif tok.text in _CLOSERS:
                depth -= 1
            elif depth == 0 and tok.text == ",":
                expect_name = True
            elif depth == 0 and expect_name and tok.kind == "identifier":
                names.append(tok.text)
                expect_name = False
        return tuple(names), close

    # -- top-level constructs ----------------------------------------------

    def parse(self) -> SourceUnit:
        while self.i < len(self.toks):
            tok = self.toks[self.i]
            text = tok.text
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
                if self._peek() is not None and self._peek().text in ("function", "union", "mapping"):
                    self.i += 1
                self._ident("scattered declaration")
            elif text == "end":
                self.i += 1
                if self._peek() is not None and self._peek().kind in ("identifier", "keyword"):
                    self.i += 1
            elif text == "let":
                self.i += 1
                self._consume_until_anchor()
            else:
                self._parse_opaque()
        return self._build_unit()

    def _parse_register(self) -> None:
        head = self.toks[self.i]
        self.i += 1
        name = self._ident("register declaration").text
        self._expect(":", f"register declaration of {name!r}")
        rtype = self._parse_register_type(name)
        if any(r.name == name for r in self.registers):
            raise DuplicateDefinition(
                f"register {name!r} declared twice", head.path, head.line, head.col
            )
        self.registers.append(RegisterDecl(name, rtype, self.path, head.line))

    def _parse_register_type(self, regname: str) -> RegisterType:
        tok = self._peek()
        if tok is None or tok.kind not in ("identifier", "keyword"):
            raise self._error(f"register {regname!r} needs a type, e.g. 'register {regname} : bits(64)'", tok)
        base = tok.text
        self.i += 1
        nxt = self._peek()
        if base == "bits" and nxt is not None and nxt.text == "(":
            width = None
            close = _match_close(self.toks, self.i)
            inner = self.toks[self.i + 1 : close]
            if len(inner) == 1 and inner[0].kind == "literal":
                width = int(inner[0].text.replace("_", ""), 0)
            self.i = close + 1
            return RegisterType("bits", width=width)
        if base == "vector" and nxt is not None and nxt.text == "(":
            close = _match_close(self.toks, self.i)
            inner = self.toks[self.i + 1 : close]
            size = None
            elem = None
            if inner and inner[0].kind == "literal":
                size = int(inner[0].text.replace("_", ""), 0)
            if inner and inner[-1].kind in ("identifier", "keyword"):
                elem = inner[-1].text
            self.i = close + 1
            return RegisterType("vector", size=size, elem=elem)
        if nxt is not None and nxt.text == "(":
            self.i = self._skip_balanced_from(self.i)
        return RegisterType(base)

    def _parse_bitfield(self) -> None:
        head = self.toks[self.i]
        self.i += 1
        name = self._ident("bitfield declaration").text
        self._expect(":", f"bitfield {name!r}")
        width: int | None = None
        alias: str | None = None
        tok = self._peek()
        if tok is not None and tok.text == "bits":
            self.i += 1
            self._expect("(", f"bitfield {name!r} width")
            width = self._int_literal(f"bitfield {name!r} width")
            self._expect(")", f"bitfield {name!r} width")
        elif tok is not None and tok.kind in ("identifier", "keyword"):
            alias = tok.text
            self.i += 1
        else:
            raise self._error(f"bitfield {name!r} needs a width, e.g. 'bitfield {name} : bits(64)'", tok)
        self._expect("=", f"bitfield {name!r}")
        open_tok = self._peek()
        if open_tok is None or open_tok.text != "{":
            raise self._error(f"bitfield {name!r} needs a field block '{{ ... }}'", open_tok)
        close = _match_close(self.toks, self.i)
        fields = self._parse_bitfield_fields(self.i + 1, close, name)
        self.i = close + 1
        if any(b.name == name for b in self.bitfields):
            raise DuplicateDefinition(
                f"bitfield {name!r} declared twice", head.path, head.line, head.col
            )
        self.bitfields.append(BitfieldDecl(name, width, alias, fields, self.path, head.line))

    def _parse_bitfield_fields(self, start: int, close: int, bfname: str) -> tuple[BitfieldField, ...]:
        fields: list[BitfieldField] = []
        j = start
        while j < close:
            tok = self.toks[j]
            if tok.text == ",":
                j += 1
                continue
            if tok.kind not in ("identifier", "keyword"):
                raise self._error(f"expected a field name in bitfield {bfname!r}", tok)
            fname = tok.text
            j += 1
            if j >= close or self.toks[j].text != ":":
                raise self._error(f"field {fname!r} in bitfield {bfname!r} needs ': hi .. lo'", tok)
            j += 1
            # range tokens until the next top-level comma
            span: list[Token] = []
            depth = 0
            while j < close:
                t2 = self.toks[j]
                if t2.text in _OPENERS:
                    depth += 1
                elif t2.text in _CLOSERS:
                    depth -= 1
                elif t2.text == "," and depth == 0:
                    break
                span.append(t2)
                j += 1
            nums = [int(t.text.replace("_", ""), 0) for t in span if t.kind == "literal"]
            if len(nums) >= 2 and any(t.text == ".." for t in span):
                hi, lo = nums[0], nums[1]
            elif len(nums) == 1:
                hi = lo = nums[0]
            else:
                hi = lo = None
            fields.append(BitfieldField(fname, hi, lo))
        return tuple(fields)

    def _parse_function(self) -> None:
        head = self.toks[self.i]
        self.i += 1
        tok = self._peek()
        is_clause = tok is not None and tok.text == "clause"
        if is_clause:
            self.i += 1
        name_tok = self._ident("function definition")
        if is_clause and name_tok.text == "execute":
            self._parse_execute_clause(head)
            return
        name = name_tok.text
        tok = self._peek()
        params: tuple[str, ...] = ()
        if tok is not None and tok.text == "(":
            params, close = self._param_names(self.i)
            self.i = close + 1
        tok = self._peek()
        if tok is not None and tok.text == "->":
            self.i += 1
            self._consume_type_expr()
        self._expect("=", f"function {name!r}")
        body = self._consume_body()
        self.raw_functions.append((name, params, body, head.line))

    def _parse_execute_clause(self, head: Token) -> None:
        tok = self._peek()
        wrapped = tok is not None and tok.text == "("
        if wrapped:
            self.i += 1
        name = self._ident("execute clause").text
        operands: tuple[str, ...] = ()
        tok = self._peek()
        if tok is not None and tok.text == "(":
            operands, close = self._param_names(self.i)
            self.i = close + 1
        if wrapped:
            self._expect(")", f"execute clause {name!r}")
        tok = self._peek()
        if tok is not None and tok.text == "->":
            self.i += 1
            self._consume_type_expr()
        self._expect("=", f"execute clause {name!r}")
        body = self._consume_body()
        if any(c[0] == name for c in self.raw_clauses):
            raise DuplicateDefinition(
                f"execute clause {name!r} defined twice in one file",
                head.path, head.line, head.col,
            )
        self.raw_clauses.append((name, operands, body, head.line))

    def _parse_mapping(self) -> None:
        self.i += 1
        tok = self._peek()
        if tok is not None and tok.text == "clause":
            self.i += 1
            name = self._ident("mapping clause").text
            tok = self._peek()
            if tok is not None and tok.text == "=":
                self.i += 1
                entry = self._try_parse_address_entry(name)
                if entry is not None:
                    self.mappings.append(entry)
                    return
            self._consume_until_anchor()
            return
        self._consume_until_anchor()

    def _try_parse_address_entry(self, mapping_name: str) -> tuple[str, int, str] | None:
        """LITERAL <-> "name" (either order) or None if shaped differently."""
        save = self.i
        a = self._peek()
        b = self._peek(1)
        c = self._peek(2)
        if a is None or b is None or c is None or b.text != "<->":
            self.i = save
            self._consume_until_anchor()
            return None
        def as_addr(t: Token) -> int | None:
            if t.kind == "literal" and not t.text.startswith('"'):
                return int(t.text.replace("_", ""), 0)
            return None
        def as_name(t: Token) -> str | None:
            if t.kind == "literal" and t.text.startswith('"'):
                return t.text[1:-1]
            return None
        addr, name = as_addr(a), as_name(c)
        if addr is None or name is None:
            addr, name = as_addr(c), as_name(a)
        self.i += 3
        if addr is None or name is None:
            return None
        return (mapping_name, addr, name)

    def _parse_enum(self) -> None:
        self.i += 1
        name = self._ident("enum declaration").text
        tok = self._peek()
        if tok is not None and tok.text == "=":
            self.i += 1
            tok = self._peek()
        if tok is None or tok.text != "{":
            self._consume_until_anchor()
            return
        close = _match_close(self.toks, self.i)
        members = tuple(
            t.text for t in self.toks[self.i + 1 : close] if t.kind in ("identifier", "keyword")
        )
        self.i = close + 1
        self.enums.append((name, members))

    def _parse_type_alias(self) -> None:
        self.i += 1
        name = self._ident("type alias").text
        width: int | None = None
        tok = self._peek()
        if tok is not None and tok.text == "=":
            self.i += 1
            tok = self._peek()
            if tok is not None and tok.text == "bits":
                nxt = self._peek(1)
                if nxt is not None and nxt.text == "(":
                    close = _match_close(self.toks, self.i + 1)
                    inner = self.toks[self.i + 2 : close]
                    if len(inner) == 1 and inner[0].kind == "literal":
                        width = int(inner[0].text.replace("_", ""), 0)
                    self.i = close + 1
                    self.type_aliases.append((name, width))
                    return
        self._consume_until_anchor()
        self.type_aliases.append((name, width))

    def _parse_val(self) -> None:
        self.i += 1
        name = self._ident("val declaration").text
        tok = self._peek()
        if tok is not None and tok.text == ":":
            self.i += 1
        self._consume_until_anchor()
        self.val_decls.append(name)

    def _parse_ignored_braced(self) -> None:
        self.i += 1
        self._ident("declaration")
        tok = self._peek()
        if tok is not None and tok.text == "=":
            self.i += 1
            tok = self._peek()
        if tok is not None and tok.text == "{":
            self.i = self._skip_balanced_from(self.i)
        else:
            self._consume_until_anchor()

    def _parse_opaque(self) -> None:
        start_tok = self.toks[self.i]
        self.i += 1
        span = self._consume_until_anchor()
        end_line = span[-1].line if span else start_tok.line
        self.opaque.append(OpaqueSpan(self.path, start_tok.line, end_line, start_tok.text))

    # -- assembly ----------------------------------------------------------

    def _build_unit(self) -> SourceUnit:
        reg_map = {r.name: r for r in self.registers}
        bf_map = {b.name: b for b in self.bitfields}
        reg_fields = _register_fields(reg_map, bf_map)

        merged: dict[str, FunctionDef] = {}
        for name, params, body, line in self.raw_functions:
            fn = FunctionDef(
                name=name, params=params, body_tokens=body, clause_count=1,
                path=self.path, line=line, **_harvest_fields(harvest_body(body, reg_fields)),
            )
            merged[name] = _merge_decls(merged.get(name), fn)

        clauses = {
            name: ExecuteClause(
                instruction=name, operands=operands, body_tokens=body,
                path=self.path, line=line, **_harvest_fields(harvest_body(body, reg_fields)),
            )
            for name, operands, body, line in self.raw_clauses
        }

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


def _harvest_fields(h: Harvest) -> dict:
    """Harvest results under the field names FunctionDef and ExecuteClause use."""
    return {
        "state_reads": h.reads,
        "state_writes": h.writes,
        "callees": h.callees,
        "lvalue_callees": h.lvalue_callees,
        "comparisons": h.comparisons,
        "matches": h.matches,
    }


def _merge_decls(
    prev: FunctionDef | ExecuteClause | None, new: FunctionDef | ExecuteClause
) -> FunctionDef | ExecuteClause:
    """Join `new` onto an earlier same-name definition `prev`, if there is one.

    Bodies concatenate and harvests union; this is how scattered and
    overloaded functions, and repeated execute clauses when asked, combine.
    """
    if prev is None:
        return new
    if isinstance(prev, FunctionDef):
        own = {
            "params": prev.params or new.params,
            "clause_count": prev.clause_count + new.clause_count,
        }
    else:
        own = {"operands": prev.operands or new.operands}
    return replace(
        prev,
        body_tokens=prev.body_tokens + new.body_tokens,
        state_reads=prev.state_reads | new.state_reads,
        state_writes=prev.state_writes | new.state_writes,
        callees=prev.callees | new.callees,
        lvalue_callees=prev.lvalue_callees | new.lvalue_callees,
        comparisons=prev.comparisons + new.comparisons,
        matches=prev.matches + new.matches,
        **own,
    )


def parse_unit(tokens: list[Token], path: str = "<string>") -> SourceUnit:
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

    def reharvest(decl):
        return replace(decl, **_harvest_fields(harvest_body(decl.body_tokens, reg_fields)))

    functions: dict[str, FunctionDef] = {}
    clauses: dict[str, ExecuteClause] = {}
    for u in units:
        for f in u.functions:
            functions[f.name] = _merge_decls(functions.get(f.name), reharvest(f))
    for u in units:
        for c in u.execute_clauses:
            if c.instruction in clauses and not merge_duplicate_clauses:
                raise CrossFileDuplicate(
                    f"execute clause {c.instruction!r} defined in both "
                    f"{clauses[c.instruction].path} and {u.path}"
                )
            clauses[c.instruction] = _merge_decls(clauses.get(c.instruction), reharvest(c))

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

    all_callees: set[str] = set()
    for f in functions.values():
        all_callees |= f.callees | f.lvalue_callees
    for c in clauses.values():
        all_callees |= c.callees | c.lvalue_callees
    externals = frozenset(all_callees - set(functions))

    return SailModel(
        registers={k: registers[k] for k in sorted(registers)},
        bitfield_types={k: bitfields[k] for k in sorted(bitfields)},
        functions={k: functions[k] for k in sorted(functions)},
        execute_clauses={k: clauses[k] for k in sorted(clauses)},
        mappings={k: tuple(sorted(v)) for k, v in sorted(mappings.items())},
        enums={k: enums[k] for k in sorted(enums)},
        type_aliases={k: type_aliases[k] for k in sorted(type_aliases)},
        val_decls=frozenset(val_decls),
        externals=externals,
        opaque_spans=tuple(opaque),
    )
