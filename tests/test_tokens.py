import pytest
from hypothesis import given, settings, strategies as st

from sailstate.errors import UnterminatedComment, UnterminatedStringLiteral
from sailstate.tokens import COMPARISON_OPS, KEYWORDS, reconstruct, significant, tokenize


def test_reconstruct_round_trips_bundled_corpus(corpus_paths):
    for path in corpus_paths:
        text = path.read_text(encoding="utf-8")
        tokens = tokenize(text, str(path))
        assert reconstruct(text, tokens) == text, path


def test_kinds_and_positions():
    text = 'register mepc : xlenbits /* trap pc */ = 0x0\n'
    toks = tokenize(text)
    kinds = [(t.kind, t.text) for t in toks]
    assert kinds == [
        ("keyword", "register"),
        ("identifier", "mepc"),
        ("punctuation", ":"),
        ("identifier", "xlenbits"),
        ("comment", "/* trap pc */"),
        ("operator", "="),
        ("literal", "0x0"),
    ]
    assert toks[0].location == ("<string>", 1, 1)
    assert toks[1].col == 10
    assert significant(toks) == [t for t in toks if t.kind != "comment"]


def test_nested_comments_stay_one_token():
    text = "a /* outer /* inner */ still outer */ b"
    toks = tokenize(text)
    assert [t.text for t in toks] == ["a", "/* outer /* inner */ still outer */", "b"]


def test_line_comment_and_multiline_tracking():
    text = "x // to eol\ny\n/* a\nb */ z"
    toks = significant(tokenize(text))
    assert [(t.text, t.line) for t in toks] == [("x", 1), ("y", 2), ("z", 4)]


def test_unterminated_comment_raises():
    with pytest.raises(UnterminatedComment):
        tokenize("a /* never closed")
    with pytest.raises(UnterminatedComment):
        tokenize("/* outer /* inner */ still open")


def test_unterminated_string_raises():
    with pytest.raises(UnterminatedStringLiteral):
        tokenize('mapping x = 0x1 <-> "oops')


def test_string_with_escapes():
    toks = tokenize(r'"a \" b"')
    assert toks[0].kind == "literal"
    assert toks[0].text == r'"a \" b"'


def test_maximal_munch_operators():
    toks = tokenize("a <-> b <= c .. d")
    ops = [t.text for t in toks if t.kind == "operator"]
    assert ops == ["<->", "<=", ".."]
    assert set(COMPARISON_OPS) == {"==", "!=", "<", "<=", ">", ">="}


def test_keywords_classified():
    toks = tokenize("function clause execute foo")
    assert [t.kind for t in toks] == ["keyword", "keyword", "identifier", "identifier"]
    assert "execute" not in KEYWORDS  # stays an identifier; clause kinds vary


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


# -- position oracle ---------------------------------------------------------

_piece = st.one_of(
    _word,
    st.sampled_from([
        "'a", "x.y", "0x_F", "0b1_0", "<<", "=>", "$", "#", "?", "`", "%", "\x0b", "é",
        r'"esc \\ \" q"', '""', "// line comment\n", "//\n",
        "/* one\nline */", "/*\n\n*/", "/* a /* b\n c */ d\n */", "/**/", "/* ** / * */",
    ]),
)
_gap = st.sampled_from(["", " ", "\n", "\t", "\r\n", "  \n\n  ", "\n\t"])


@settings(derandomize=True, max_examples=300)
@given(st.lists(st.tuples(_piece, _gap), max_size=40))
def test_token_positions_match_the_text(parts):
    text = "".join(piece + gap for piece, gap in parts)
    tokens = tokenize(text, "p.sail")
    assert reconstruct(text, tokens) == text
    for tok in tokens:
        assert text[tok.offset:tok.offset + len(tok.text)] == tok.text
        assert tok.line == text.count("\n", 0, tok.offset) + 1
        assert tok.col == tok.offset - text.rfind("\n", 0, tok.offset)
        assert tok.path == "p.sail"


def test_tokens_are_immutable_hashable_tuples():
    tok = tokenize("mepc")[0]
    assert tok == ("identifier", "mepc", "<string>", 1, 1, 0)
    assert {tok: 1}[tokenize("mepc")[0]] == 1
    with pytest.raises(AttributeError):
        tok.line = 2
    with pytest.raises(AttributeError):
        tok.extra = 1


@pytest.mark.parametrize("text, error, where", [
    ("a\n  b /* open /* nested */\n", UnterminatedComment, ("p.sail", 2, 5)),
    ("/* ok\n */ x = \"open\n", UnterminatedStringLiteral, ("p.sail", 2, 9)),
])
def test_unterminated_literals_name_their_start(text, error, where):
    with pytest.raises(error) as info:
        tokenize(text, "p.sail")
    assert (info.value.path, info.value.line, info.value.col) == where
    assert str(info.value).startswith("%s:%d:%d: " % where)
