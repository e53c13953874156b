"""Word-level C/C++ lexer with exact token-to-line provenance.

A function becomes <BOS>, at most 510 payload tokens and <EOS>, with no
padding. Lexing stops at the 511th payload token, which only marks the
stream truncated: text after it is never lexed, so it cannot raise.
Every payload token remembers the 1-based source line of its first
character; localization and root cause depend on that map being exact,
which is why this is a deterministic lexer rather than a sub-word
tokenizer.

Preprocessor directives are lexed as ordinary tokens ('#' is
punctuation, directive words are identifiers); comments are skipped;
string and character literals are single tokens, so downstream brace
or parenthesis matching is literal-safe.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import DataError, LexError

#: Largest stream length, including <BOS> and <EOS>.
STREAM_CAPACITY = 512
#: Payload tokens that fit alongside the two markers.
MAX_PAYLOAD = STREAM_CAPACITY - 2

BOS = "<BOS>"
EOS = "<EOS>"
PAD = "<PAD>"
UNK = "<UNK>"

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
RESERVED = ((PAD, PAD_ID), (BOS, BOS_ID), (EOS, EOS_ID), (UNK, UNK_ID))


class TokenKind(Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING_LIT = "string_lit"
    CHAR_LIT = "char_lit"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    SPECIAL = "special"


@dataclass(frozen=True)
class Token:
    text: str
    kind: TokenKind
    line: int  # 1-based source line; 0 for <BOS>/<EOS>

    @property
    def is_special(self) -> bool:
        return self.kind is TokenKind.SPECIAL


_BOS_TOKEN = Token(BOS, TokenKind.SPECIAL, 0)
_EOS_TOKEN = Token(EOS, TokenKind.SPECIAL, 0)


@dataclass(frozen=True)
class TokenStream:
    """<BOS>, at most ``MAX_PAYLOAD`` payload tokens, <EOS>; no padding."""

    tokens: tuple[Token, ...]
    truncated: bool

    @property
    def content_len(self) -> int:  # the two markers included
        return len(self.tokens)

    def payload(self) -> tuple[Token, ...]:
        """The tokens between <BOS> and <EOS>."""
        return self.tokens[1:-1]


KEYWORDS = frozenset("""
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    _Bool _Complex _Atomic _Noreturn _Static_assert _Thread_local
    bool catch class constexpr delete explicit false friend mutable
    namespace new noexcept nullptr operator private protected public
    template this throw true try typeid typename using virtual wchar_t
""".split())

_PUNCTUATION = frozenset({"(", ")", "{", "}", "[", "]", ",", ";", "#", "##"})

_OPERATORS_3 = ("<<=", ">>=", "...", "->*")
_OPERATORS_2 = (
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=", "::", ".*", "##",
)
_OPERATORS_1 = frozenset("+-*/%=<>!&|^~.?:#") | frozenset("(){}[],;")

_NUMBER_BODY = frozenset("0123456789abcdefABCDEFxXpP._uUlL'")


def _is_ident_start(ch: str) -> bool:
    return ch == "_" or ch.isalpha()


def _is_ident_part(ch: str) -> bool:
    return ch == "_" or ch.isalnum()


def lex(source: str) -> list[Token]:
    """Lex an arbitrary amount of C/C++ text into raw tokens.

    No capacity limit and no special markers; the repo scanner's function
    extractor builds on it. Raises LexError for unterminated strings,
    chars, or block comments.
    """
    return list(_lex_tokens(source))


def _lex_tokens(source: str) -> Iterator[Token]:
    """The tokens of ``lex``, produced lazily so a caller can stop early."""
    i = 0
    line = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r\v\f":
            i += 1
            continue
        if source.startswith("//", i):
            j = source.find("\n", i)
            i = n if j == -1 else j
            continue
        if source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j == -1:
                raise LexError("unterminated block comment", line)
            line += source.count("\n", i, j)
            i = j + 2
            continue
        if ch == '"' or ch == "'":
            text, i = _scan_quoted(source, i, line)
            kind = TokenKind.STRING_LIT if ch == '"' else TokenKind.CHAR_LIT
            yield Token(text, kind, line)
            line += text.count("\n")
            continue
        if _is_ident_start(ch):
            j = i + 1
            while j < n and _is_ident_part(source[j]):
                j += 1
            text = source[i:j]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
            yield Token(text, kind, line)
            i = j
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i + 1
            while j < n:
                c = source[j]
                if c in _NUMBER_BODY:
                    j += 1
                elif c in "+-" and source[j - 1] in "eEpP":
                    j += 1
                else:
                    break
            yield Token(source[i:j], TokenKind.NUMBER, line)
            i = j
            continue
        op = _match_operator(source, i)
        if op is not None:
            kind = (TokenKind.PUNCTUATION if op in _PUNCTUATION
                    else TokenKind.OPERATOR)
            yield Token(op, kind, line)
            i += len(op)
            continue
        # Anything else (stray backslash, unicode symbol) passes through
        # as a single-character operator token.
        yield Token(ch, TokenKind.OPERATOR, line)
        i += 1


def _scan_quoted(source: str, start: int, line: int) -> tuple[str, int]:
    quote = source[start]
    i = start + 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\\" and i + 1 < n:
            i += 2
            continue
        if ch == quote:
            return source[start:i + 1], i + 1
        if ch == "\n":
            break
        i += 1
    what = "string literal" if quote == '"' else "character literal"
    raise LexError(f"unterminated {what}", line)


def _match_operator(source: str, i: int) -> str | None:
    for op in _OPERATORS_3:
        if source.startswith(op, i):
            return op
    for op in _OPERATORS_2:
        if source.startswith(op, i):
            return op
    ch = source[i]
    if ch in _OPERATORS_1:
        return ch
    return None


def tokenize(source: str) -> TokenStream:
    """Lex a function into a stream of at most 512 tokens.

    Lexing stops after ``MAX_PAYLOAD + 1`` tokens, the last only marking
    the stream truncated; reports propagate the flag.
    """
    if not source:
        raise DataError("cannot tokenize empty source")
    payload = list(islice(_lex_tokens(source), MAX_PAYLOAD + 1))
    truncated = len(payload) > MAX_PAYLOAD
    return TokenStream(tokens=(_BOS_TOKEN, *payload[:MAX_PAYLOAD], _EOS_TOKEN),
                       truncated=truncated)


class Vocabulary:
    """Token-text to integer-id map with four reserved entries.

    Ids 0..3 are <PAD>, <BOS>, <EOS>, <UNK>; corpus tokens start at 4,
    ordered by descending count then ascending text so the mapping is
    deterministic for a fixed corpus. <PAD> is in no stream: attribution
    occludes a token by giving it the <PAD> id. No entry holds a newline.
    """

    def __init__(self, corpus_tokens: Sequence[str]):
        self._ids: dict[str, int] = {text: i for text, i in RESERVED}
        for offset, text in enumerate(corpus_tokens):
            if text in self._ids:
                raise DataError(f"duplicate vocabulary entry {text!r}")
            if "\n" in text:
                raise DataError(f"vocabulary entry {text!r} holds a newline")
            self._ids[text] = len(RESERVED) + offset

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, text: str) -> bool:
        return text in self._ids

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocabulary) and self._ids == other._ids

    def id_for(self, text: str) -> int:
        return self._ids.get(text, UNK_ID)

    def items(self) -> list[tuple[str, int]]:
        return sorted(self._ids.items(), key=lambda kv: kv[1])

    def save(self, path: str | Path) -> None:
        lines = [f"{text}\t{idx}" for text, idx in self.items()]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        # bytes, split on "\n" only: token texts may hold "\r", "\x85"...
        text = Path(path).read_bytes().decode("utf-8")
        entries: list[str] = []
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not line:
                continue
            try:
                text, idx = line.rsplit("\t", 1)
                idx = int(idx)
            except ValueError as exc:
                raise DataError(
                    f"{path}:{lineno}: malformed vocabulary line"
                ) from exc
            if idx < len(RESERVED):
                expected = RESERVED[idx][0]
                if text != expected:
                    raise DataError(
                        f"{path}:{lineno}: reserved id {idx} must be "
                        f"{expected!r}, got {text!r}"
                    )
                continue
            entries.append((idx, text))
        entries.sort()
        for pos, (idx, _) in enumerate(entries):
            if idx != pos + len(RESERVED):
                raise DataError(f"{path}: vocabulary ids are not contiguous")
        return cls([text for _, text in entries])


def build_vocab(records: Iterable, min_count: int = 1) -> Vocabulary:
    """Count payload tokens over a corpus and keep those seen often enough.

    ``records`` may be FunctionRecords (their ``source`` is lexed),
    plain strings, or token streams already made from them. Tokens below
    ``min_count`` or holding a newline (spliced literals) fall back to
    <UNK> at encode time.
    """
    counts: Counter[str] = Counter()
    for record in records:
        if isinstance(record, TokenStream):
            stream = record
        else:
            stream = tokenize(record if isinstance(record, str)
                              else record.source)
        for token in stream.payload():
            counts[token.text] += 1
    kept = [t for t, c in counts.items() if c >= min_count and "\n" not in t]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept)


def encode(stream: TokenStream, vocab: Vocabulary) -> list[int]:
    """Id per stream position: the markers are reserved entries, unknown
    payload tokens map to <UNK> (no payload token reads "<BOS>")."""
    return [vocab.id_for(t.text) for t in stream.tokens]
