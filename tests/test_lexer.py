import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from vulngraph.errors import DataError, LexError
from vulngraph.lexer import (BOS, BOS_ID, EOS, EOS_ID, MAX_PAYLOAD, PAD,
                             PAD_ID, STREAM_CAPACITY, UNK_ID, Token, TokenKind,
                             Vocabulary, build_vocab, encode, lex, tokenize)
from conftest import fuzz_snippet
from lexer_oracle import oracle_lex

#: C-ish pieces, some repeated hundreds of times so that streams both
#: fit the window and overflow it.
C_PIECES = st.sampled_from([
    "int ", "x", " = ", "1", ";", "\n", "(", ")", "{", "}", "a->b", "<<=",
    '"s"', "'c'", "// c\n", "/* c */", "\\", "\u2028", "\x85", "\r",
])
C_TEXT = st.lists(st.tuples(C_PIECES, st.integers(1, 400)), max_size=8).map(
    lambda parts: "".join(piece * count for piece, count in parts))
#: Non-ASCII characters, which take the pattern's fallback branch, next to
#: the ASCII pieces they can follow or start: "." numbers, exponents,
#: splices, stray backslashes, and unterminated literals and comments.
EDGE_TEXT = st.lists(st.sampled_from([
    "\u00b2", "\u00bd", "\u0663", "\u00e9", "\x1c", "\x85", "\U0001f600",
    "\u00a0", ".", "..", "x", "_", "1", "0x", "e", "p", "+", "-", "'", '"',
    "/*", "*/", "//", "\\", "\\\n", "\n", " ", "\r", "#", "->*", ".*",
]), max_size=30).map("".join)


def outcome(lexer, source):
    """The tokens, or the ``LexError`` text (which holds the line)."""
    try:
        return lexer(source)
    except LexError as exc:
        return str(exc)


def lexes(source):
    try:
        return lex(source)
    except LexError:
        return None


class TestTokenize:
    def test_hand_lexed_example(self):
        stream = tokenize("int f(){\nreturn 0;\n}")
        texts = [(t.text, t.line) for t in stream.tokens]
        assert texts == [
            (BOS, 0), ("int", 1), ("f", 1), ("(", 1), (")", 1), ("{", 1),
            ("return", 2), ("0", 2), (";", 2), ("}", 3), (EOS, 0),
        ]
        assert stream.content_len == len(stream.tokens) == 11
        assert not stream.truncated

    def test_comment_only_source(self):
        stream = tokenize("/*x*/")
        assert stream.content_len == 2
        assert [t.text for t in stream.tokens] == [BOS, EOS]

    def test_truncation_at_capacity(self):
        source = "int f() {\n" + "\n".join(f"x{i} = {i};" for i in range(200)) + "\n}"
        stream = tokenize(source)
        assert len(stream.tokens) == STREAM_CAPACITY
        assert stream.content_len == STREAM_CAPACITY
        assert stream.truncated
        assert stream.tokens[-1].text == EOS
        assert stream.payload() == tuple(lex(source)[:MAX_PAYLOAD])

    @pytest.mark.parametrize("extra,truncated", [(0, False), (1, True)])
    def test_truncated_exactly_past_the_window(self, extra, truncated):
        source = "x " * (MAX_PAYLOAD + extra)
        stream = tokenize(source)
        assert stream.truncated is truncated
        assert stream.content_len == STREAM_CAPACITY

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.text(), C_TEXT))
    def test_stream_is_the_window_of_lex(self, source):
        """``lex`` (uncapped) is the oracle of the early-stopping stream."""
        tokens = lexes(source)
        assume(source and tokens is not None)
        stream = tokenize(source)
        assert stream.tokens == (Token(BOS, TokenKind.SPECIAL, 0),
                                 *tokens[:MAX_PAYLOAD],
                                 Token(EOS, TokenKind.SPECIAL, 0))
        assert stream.truncated == (len(tokens) > MAX_PAYLOAD)

    @pytest.mark.parametrize("tail", [
        '"never closed', "'x", "/* never closed", 'ok; "never closed',
    ])
    def test_text_past_the_window_is_not_lexed(self, tail):
        source = "x " * (MAX_PAYLOAD + 1) + tail
        with pytest.raises(LexError):
            lex(source)
        stream = tokenize(source)
        assert stream.truncated
        assert stream.content_len == STREAM_CAPACITY

    def test_multichar_operators_are_single_tokens(self):
        stream = tokenize("p->next <= q += 1; a <<= 2;")
        texts = [t.text for t in stream.payload()]
        for op in ("->", "<=", "+=", "<<="):
            assert op in texts

    def test_strings_and_chars_are_single_tokens(self):
        stream = tokenize('s = "a }{ \\" z"; c = \'}\';')
        payload = stream.payload()
        strings = [t for t in payload if t.kind is TokenKind.STRING_LIT]
        chars = [t for t in payload if t.kind is TokenKind.CHAR_LIT]
        assert len(strings) == 1 and strings[0].text == '"a }{ \\" z"'
        assert len(chars) == 1 and chars[0].text == "'}'"

    def test_comments_are_skipped_but_lines_advance(self):
        stream = tokenize("a = 1; /* long\ncomment\n*/ b = 2;")
        b = [t for t in stream.payload() if t.text == "b"][0]
        assert b.line == 3

    def test_preprocessor_is_lexed_not_expanded(self):
        stream = tokenize("#define N 4\nint x = N;")
        texts = [(t.text, t.kind) for t in stream.payload()]
        assert ("#", TokenKind.PUNCTUATION) in texts
        assert ("define", TokenKind.IDENTIFIER) in texts

    @pytest.mark.parametrize("source,line", [
        ('x = "abc;\ny = 1;', 1),
        ("c = 'a;\n", 1),
        ("a = 1;\n/* never closed", 2),
    ])
    def test_unterminated_raises_with_line(self, source, line):
        with pytest.raises(LexError) as err:
            tokenize(source)
        assert err.value.line == line

    def test_lines_count_from_the_first_line(self):
        stream = tokenize("int f() {\n  return 0;\n}", first_line=40)
        assert [t.line for t in stream.payload()] == [40] * 5 + [41] * 3 + [42]
        with pytest.raises(LexError, match="^line 41: unterminated string"):
            tokenize('a;\nb = "open;', first_line=40)

    def test_empty_source_rejected(self):
        with pytest.raises(DataError):
            tokenize("")

    def test_line_map_soundness_on_fuzz_corpus(self):
        rng = random.Random(11)
        for _ in range(60):
            source = fuzz_snippet(rng)
            lines = source.split("\n")
            for token in tokenize(source).payload():
                if token.kind in (TokenKind.STRING_LIT, TokenKind.CHAR_LIT):
                    continue
                assert token.text in lines[token.line - 1], (
                    f"{token.text!r} not on line {token.line} of {source!r}")

    def test_mean_payload_length_statistic(self):
        rng = random.Random(2)
        sources = [fuzz_snippet(rng) for _ in range(10)]
        streams = [tokenize(s) for s in sources]
        mean_len = sum(s.content_len for s in streams) / len(streams)
        assert mean_len == pytest.approx(
            sum(len(lex(s)) + 2 for s in sources) / len(sources))


IDENT, KW, NUM, STR, CHR, OP = (
    TokenKind.IDENTIFIER, TokenKind.KEYWORD, TokenKind.NUMBER,
    TokenKind.STRING_LIT, TokenKind.CHAR_LIT, TokenKind.OPERATOR)


class TestCharacterLoopOracle:
    """``lex`` against the character loop it replaced (``lexer_oracle``)."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.text(), C_TEXT, EDGE_TEXT))
    def test_equals_the_character_loop(self, source):
        assert outcome(lex, source) == outcome(oracle_lex, source)

    @pytest.mark.parametrize("source,expected", [
        # "." before a non-ASCII digit is a one-character number
        ("..\u00b2", [(".", OP, 1), (".", NUM, 1), ("\u00b2", NUM, 1)]),
        (".\u06635", [(".", NUM, 1), ("\u06635", NUM, 1)]),
        ("x\u00b2", [("x\u00b2", IDENT, 1)]),
        ("\u00e91 if", [("\u00e91", IDENT, 1), ("if", KW, 1)]),
        ("\u00bd", [("\u00bd", OP, 1)]),
        ("a\x85b", [("a", IDENT, 1), ("\x85", OP, 1), ("b", IDENT, 1)]),
        ("\U0001f600", [("\U0001f600", OP, 1)]),
        ("1'000", [("1'000", NUM, 1)]),
        ("0x1p-3", [("0x1p-3", NUM, 1)]),
        ("1e+5-2", [("1e+5", NUM, 1), ("-", OP, 1), ("2", NUM, 1)]),
        ("\u0663e+5", [("\u0663e+5", NUM, 1)]),
        ('"a\\\nb" c', [('"a\\\nb"', STR, 1), ("c", IDENT, 2)]),
        ("'\\'' x", [("'\\''", CHR, 1), ("x", IDENT, 1)]),
        ("a\\", [("a", IDENT, 1), ("\\", OP, 1)]),
        # a backslash-newline continues a line comment onto the next line
        ("// a \\\nb;\nc", [("c", IDENT, 3)]),
        ("x // a \\\n b \\\nc\nd", [("x", IDENT, 1), ("d", IDENT, 4)]),
        ("// a \\ b\nc", [("c", IDENT, 2)]),
        ("// a \\\\\nb\nc", [("c", IDENT, 3)]),
        ('"a\\\nb" // c \\\nd\ne', [('"a\\\nb"', STR, 1), ("e", IDENT, 4)]),
    ])
    def test_edge_cases(self, source, expected):
        assert [(t.text, t.kind, t.line) for t in lex(source)] == expected
        assert lex(source) == oracle_lex(source)

    @pytest.mark.parametrize("source,message", [
        ('a;\n"open', "line 2: unterminated string literal"),
        ('"a\\\nb\n"', "line 1: unterminated string literal"),
        ('"ends in a backslash\\', "line 1: unterminated string literal"),
        ("x\n\n'\\", "line 3: unterminated character literal"),
        ("'ab\nc'", "line 1: unterminated character literal"),
        ("/* a\n*/ b\n/*", "line 3: unterminated block comment"),
        ("/*/", "line 1: unterminated block comment"),
    ])
    def test_unterminated_forms(self, source, message):
        assert outcome(lex, source) == message == outcome(oracle_lex, source)


class TestVocabulary:
    def test_single_record_corpus(self):
        vocab = build_vocab([tokenize("int f(){return 0;}")], min_count=1)
        assert len(vocab) == 13  # nine distinct tokens + four reserved
        for text in ("int", "f", "(", ")", "{", "return", "0", ";", "}"):
            assert vocab.id_for(text) != UNK_ID

    def test_min_count_prunes_everything(self):
        vocab = build_vocab([tokenize("int f(){return 0;}")], min_count=99)
        assert len(vocab) == 4

    def test_equal_token_multisets_give_equal_vocabs(self):
        a = build_vocab(map(tokenize, ["int a; int b;", "b = a;"]))
        b = build_vocab(map(tokenize, ["int a;", "int b; b = a;"]))
        assert a.items() == b.items()

    def test_ordering_by_count_then_text(self):
        vocab = build_vocab([tokenize("z z z a a b")])
        assert vocab.id_for("z") == 4
        assert vocab.id_for("a") == 5
        assert vocab.id_for("b") == 6

    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocab([tokenize("int f(){return 0;}")])
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        assert Vocabulary.load(path).items() == vocab.items()
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == "<PAD>\t0"

    @pytest.mark.parametrize("source", [
        's = "a\fb";', 's = "a\u2028b";', 's = "a\rb";', 's = "a\\\nb";',
        "a \x85 b;", "a \x1c\x1d\x1e\v b;", 's = "\u2029";',
    ])
    def test_round_trip_keeps_line_break_characters(self, tmp_path, source):
        vocab = build_vocab([tokenize(source)])
        vocab.save(tmp_path / "vocab.tsv")
        assert Vocabulary.load(tmp_path / "vocab.tsv").items() == vocab.items()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.text(), C_TEXT), min_size=1, max_size=3))
    def test_round_trip_on_arbitrary_text(self, tmp_path_factory, sources):
        sources = [s for s in sources if s and lexes(s) is not None]
        vocab = build_vocab(map(tokenize, sources))
        path = tmp_path_factory.mktemp("vocab") / "vocab.tsv"
        vocab.save(path)
        assert Vocabulary.load(path).items() == vocab.items()

    def test_spliced_literal_encodes_as_unknown(self):
        source = 's = "a\\\nb";'
        vocab = build_vocab([tokenize(source)])
        literal = tokenize(source).payload()[2]
        assert "\n" in literal.text and vocab.id_for(literal.text) == UNK_ID
        assert encode(tokenize(source), vocab)[3] == UNK_ID
        assert len(vocab) == 4 + 3  # s, =, ;

    def test_newline_entry_rejected(self):
        with pytest.raises(DataError, match="newline"):
            Vocabulary(['"a\\\nb"'])


class TestEncode:
    def test_reserved_ids(self):
        stream = tokenize("/*x*/")
        vocab = build_vocab([])
        assert encode(stream, vocab) == [BOS_ID, EOS_ID] == [1, 2]
        assert vocab.id_for(PAD) == PAD_ID == 0
        assert PAD_ID not in encode(tokenize("int f(){return 0;}"), vocab)

    def test_unknown_token_maps_to_unk(self):
        stream = tokenize("mystery_name;")
        vocab = build_vocab([tokenize("other;")])
        ids = encode(stream, vocab)
        assert ids[1] == 3  # <UNK>
        assert ids[2] == vocab.id_for(";")

    def test_deterministic(self):
        source = "int f(){return 0;}"
        vocab = build_vocab([tokenize(source)])
        assert encode(tokenize(source), vocab) == encode(tokenize(source), vocab)
