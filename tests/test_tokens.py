import re

import pytest
from hypothesis import example, given, settings, strategies as st

from sailstate.errors import UnterminatedComment, UnterminatedStringLiteral
from sailstate.tokens import COMPARISON_OPS, KEYWORDS, Stream, tokenize

# -- reference tokenizer -------------------------------------------------------
#
# The token-at-a-time loop that `tokenize` replaced, kept as an oracle. It
# yields (kind, text, line, col, offset) for every token, comments included.

_OPERATORS = [
    "<->", "<=", ">=", "==", "!=", "->", "=>", "<<", ">>", "&&", "||", "..",
    "=", "<", ">", "+", "-", "*", "/", "&", "|", "^", "@", "~", "!",
]
_REFERENCE_RE = re.compile(
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


def _reference_block_end(text, start):
    depth, i = 1, start + 2
    while depth > 0:
        nxt_open, nxt_close = text.find("/*", i), text.find("*/", i)
        if nxt_close < 0:
            return -1
        if 0 <= nxt_open < nxt_close:
            depth, i = depth + 1, nxt_open + 2
        else:
            depth, i = depth - 1, nxt_close + 2
    return i


def reference_tokens(text, path="<string>"):
    tokens = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        m = _REFERENCE_RE.match(text, pos)
        kind, end = m.lastgroup, m.end()
        if kind in ("ws", "block_comment"):
            if kind == "block_comment":
                end = _reference_block_end(text, pos)
                if end < 0:
                    raise UnterminatedComment("unterminated block comment", path, line, pos - line_start + 1)
                tokens.append(("comment", text[pos:end], line, pos - line_start + 1, pos))
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", pos, end) + 1
            pos = end
            continue
        if kind == "open_string":
            raise UnterminatedStringLiteral("unterminated string literal", path, line, pos - line_start + 1)
        raw = m.group()
        if kind == "identifier" and raw in KEYWORDS:
            kind = "keyword"
        elif kind == "other":
            kind = "operator"
        tokens.append((kind, raw, line, pos - line_start + 1, pos))
        pos = end
    return tokens


def reference_significant(text):
    return [t for t in reference_tokens(text) if t[0] not in ("comment",)]


def brute_partner(texts):
    """Rescan from each opener, counting only its own bracket type."""
    closer_of = {"(": ")", "[": "]", "{": "}"}
    out = []
    for i, t in enumerate(texts):
        found = -1
        if t in closer_of:
            depth = 0
            for j in range(i, len(texts)):
                if texts[j] == t:
                    depth += 1
                elif texts[j] == closer_of[t]:
                    depth -= 1
                    if depth == 0:
                        found = j
                        break
        out.append(found)
    return out


def one_stack_nests(texts):
    """Whether the brackets nest: one stack for every type, and each closer
    must close the innermost open group."""
    stack = []
    for t in texts:
        if t in "([{":
            stack.append(t)
        elif t in ")]}" and (not stack or "([{"[")]}".index(t)] != stack.pop()):
            return False
    return not stack


def brute_unbalanced(texts):
    """The first bracket that breaks nesting, or -1, read off its definition:
    a closer that pairs with no opener, an opener with no closer, or an
    opener whose group the closer of an enclosing group cuts."""
    partner = brute_partner(texts)
    for j, t in enumerate(texts):
        if t in ")]}" and j not in partner:
            return j
        if t in "([{" and (partner[j] < 0 or any(a < j < partner[a] < partner[j] for a in range(j))):
            return j
    return -1


def reconstruct(text: str, stream: Stream) -> str:
    """Rebuild the source from the tokens plus the gaps between them, and
    check that every gap is only whitespace and comments."""
    out: list[str] = []
    prev_end = 0
    for tok_text, offset in zip(stream.texts + [""], [*stream.offsets, len(text)]):
        gap = text[prev_end:offset]
        assert all(t[0] == "comment" for t in reference_tokens(gap)), gap
        out.append(gap)
        out.append(tok_text)
        prev_end = offset + len(tok_text)
    return "".join(out)


def test_reconstruct_round_trips_bundled_corpus(corpus_paths):
    for path in corpus_paths:
        text = path.read_text(encoding="utf-8")
        stream = tokenize(text, str(path))
        assert reconstruct(text, stream) == text, path
        got = list(zip(stream.kinds, stream.texts, stream.offsets))
        assert got == [(k, t, o) for k, t, _, _, o in reference_significant(text)], path


def test_kinds_and_positions():
    text = 'register mepc : xlenbits /* trap pc */ = 0x0\n'
    stream = tokenize(text)
    assert list(zip(stream.kinds, stream.texts)) == [
        ("keyword", "register"),
        ("identifier", "mepc"),
        ("punctuation", ":"),
        ("identifier", "xlenbits"),
        ("operator", "="),
        ("literal", "0x0"),
    ]
    assert list(stream.offsets) == [0, 9, 14, 16, 39, 41]
    assert stream.location(0) == (1, 1)
    assert stream.location(1) == (1, 10)
    assert stream.where(4) == ("<string>", 1, 40)
    assert stream.partner == [-1] * 6


def test_nested_comments_are_skipped_whole():
    text = "a /* outer /* inner */ still outer */ b"
    stream = tokenize(text)
    assert stream.texts == ["a", "b"]
    assert text[stream.offsets[0] + 1 : stream.offsets[1]].strip() == "/* outer /* inner */ still outer */"


def test_line_comment_and_multiline_tracking():
    text = "x // to eol\ny\n/* a\nb */ z"
    stream = tokenize(text)
    assert [(t, stream.location(i)[0]) for i, t in enumerate(stream.texts)] == [
        ("x", 1), ("y", 2), ("z", 4),
    ]
    # Asking out of text order gives the same answers.
    assert [stream.location(i) for i in (2, 0, 1)] == [(4, 6), (1, 1), (2, 1)]


def test_unterminated_comment_raises():
    with pytest.raises(UnterminatedComment):
        tokenize("a /* never closed")
    with pytest.raises(UnterminatedComment):
        tokenize("/* outer /* inner */ still open")


def test_unterminated_string_raises():
    with pytest.raises(UnterminatedStringLiteral):
        tokenize('mapping x = 0x1 <-> "oops')


def test_string_with_escapes():
    stream = tokenize(r'"a \" b"')
    assert stream.kinds == ["literal"]
    assert stream.texts == [r'"a \" b"']


def test_maximal_munch_operators():
    stream = tokenize("a <-> b <= c .. d")
    ops = [t for k, t in zip(stream.kinds, stream.texts) if k == "operator"]
    assert ops == ["<->", "<=", ".."]
    assert set(COMPARISON_OPS) == {"==", "!=", "<", "<=", ">", ">="}


def test_keywords_classified():
    stream = tokenize("function clause execute foo")
    assert stream.kinds == ["keyword", "keyword", "identifier", "identifier"]
    assert "execute" not in KEYWORDS  # stays an identifier; clause kinds vary


def test_partner_pairs_each_bracket_type_on_its_own():
    stream = tokenize("f ( ] ) { [ } ] (")
    assert stream.partner == [-1, 3, -1, -1, 6, 7, -1, -1, -1]
    assert stream.partner == brute_partner(stream.texts)
    assert stream.unbalanced == 2  # the `]` that no `[` opens


@pytest.mark.parametrize("text, unbalanced", [
    ("f ( [ ] ) { }", -1),
    ("{ ( } )", 1),   # the `}` cuts the `(` group
    ("( { ) }", 1),
    ("( { [ } ] )", 2),
    ("( [ { ( } ) ] )", 3),
    ("( ] )", 1),
    ("( { }", 0),
    ("x )", 1),
], ids=["nested", "cut", "cut_brace", "cut_two", "cut_deep", "stray", "unclosed", "stray_first"])
def test_unbalanced_is_the_first_bracket_that_breaks_nesting(text, unbalanced):
    texts = tokenize(text).texts
    assert tokenize(text).unbalanced == brute_unbalanced(texts) == unbalanced
    assert one_stack_nests(texts) == (unbalanced < 0)


def test_length_is_the_significant_token_count(corpus_paths):
    # The benchmark's tracer counts tokens as len(tokenize(...)).
    for path in corpus_paths:
        text = path.read_text(encoding="utf-8")
        assert len(tokenize(text)) == len(reference_significant(text)), path
    assert len(tokenize("// only a comment")) == 0
    assert len(tokenize("a /* b */ c // d")) == 2


_word = st.one_of(
    st.sampled_from(sorted(KEYWORDS)),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True),
    st.from_regex(r"0x[0-9a-f]{1,4}|0b[01]{1,8}|[0-9]{1,4}", fullmatch=True),
    st.sampled_from(["<->", "==", "..", "=", "(", ")", "{", "}", "[", "]", ",", ";", ":"]),
    st.just('"str lit"'),
    st.just("/* c /* nested */ c */"),
)


@given(st.lists(_word, max_size=40), st.sampled_from([" ", "\n", "\t", "  "]))
def test_reconstruct_round_trips_generated(words, sep):
    text = sep.join(words)
    assert reconstruct(text, tokenize(text)) == text


# -- oracle properties ---------------------------------------------------------

_piece = st.one_of(
    _word,
    st.sampled_from([
        "'a", "x.y", "0x_F", "0b1_0", "<<", "=>", "$", "#", "?", "`", "%", "\x0b", "\x0c", "é",
        r'"esc \\ \" q"', '""', "// line comment\n", "//\n", "/", "*", "*/", "/*/ x */",
        "/* one\nline */", "/*\n\n*/", "/* a /* b\n c */ d\n */", "/**/", "/* ** / * */",
        "/* // x */", "// /* x\n", "(", ")", "[", "]", "{", "}",
    ]),
)
_gap = st.sampled_from(["", " ", "\n", "\t", "\r\n", "  \n\n  ", "\n\t"])
# Endings that leave a comment or string open, or end on a line comment.
_tail = st.sampled_from(["", "// at the end", "//", "/* open", "/* a /* b */", '"open', '"', "/"])


@settings(derandomize=True, max_examples=300)
@given(st.lists(st.tuples(_piece, _gap), max_size=40), _tail)
def test_token_positions_match_the_text(parts, tail):
    text = "".join(piece + gap for piece, gap in parts) + tail
    try:
        want = reference_significant(text)
    except (UnterminatedComment, UnterminatedStringLiteral) as exc:
        with pytest.raises(type(exc)) as info:
            tokenize(text, "<string>")
        assert str(info.value) == str(exc)
        return
    stream = tokenize(text, "p.sail")
    assert reconstruct(text, stream) == text
    assert list(zip(stream.kinds, stream.texts, stream.offsets)) == [(k, t, o) for k, t, _, _, o in want]
    assert [stream.location(i) for i in range(len(stream))] == [(ln, col) for _, _, ln, col, _ in want]
    assert all(stream.where(i)[0] == "p.sail" for i in range(len(stream)))


def _spaced(text):
    return [(piece, " ") for piece in text.split()]


# Random pieces seldom pair every bracket yet cross two groups, so the
# examples do: the first bracket that breaks nesting is one that a closer cuts.
@settings(derandomize=True, max_examples=200)
@given(st.lists(st.tuples(st.one_of(_piece, st.sampled_from("()[]{}")), _gap), max_size=60))
@example(_spaced("{ ( } )"))
@example(_spaced("f ( [ { ( } ) ] ) ]"))
@example(_spaced("[ ( ] ) {"))
def test_partner_matches_a_rescan_per_bracket_type(parts):
    text = "".join(piece + gap for piece, gap in parts)
    try:
        stream = tokenize(text)
    except (UnterminatedComment, UnterminatedStringLiteral):
        return
    partner = brute_partner(stream.texts)
    assert stream.partner == partner
    assert stream.unbalanced == brute_unbalanced(stream.texts)
    assert (stream.unbalanced < 0) == one_stack_nests(stream.texts)


@pytest.mark.parametrize("text, error, where", [
    ("a\n  b /* open /* nested */\n", UnterminatedComment, ("p.sail", 2, 5)),
    ("/* ok\n */ x = \"open\n", UnterminatedStringLiteral, ("p.sail", 2, 9)),
])
def test_unterminated_literals_name_their_start(text, error, where):
    with pytest.raises(error) as info:
        tokenize(text, "p.sail")
    assert (info.value.path, info.value.line, info.value.col) == where
    assert str(info.value).startswith("%s:%d:%d: " % where)
