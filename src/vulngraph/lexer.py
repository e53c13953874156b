"""Word-level C/C++ lexer with exact token-to-line provenance.

A function becomes <BOS>, at most 510 payload tokens and <EOS>, with no
padding. Lexing stops at the 511th payload token, which only marks the
stream truncated: text after it is never lexed, so it cannot raise.
Every payload token remembers the source line of its first character,
counted from the text's first line; localization and root cause depend
on that map being exact, which is why this is a deterministic lexer
rather than a sub-word tokenizer.

Preprocessor directives are lexed as ordinary tokens ('#' is
punctuation, directive words are identifiers); comments are skipped,
and a '//' comment runs on past a backslash-newline, as C splices lines
before it removes comments; string and character literals are single
tokens, so downstream brace or parenthesis matching is literal-safe.

The grammar is one compiled pattern of named groups, one per token
class, matched at each position in turn. It holds the ASCII rules. A
character no group claims, which is every non-ASCII character and a few
stray ASCII ones such as '\\' or '@', follows ``str`` rules: a letter
(``str.isalpha``) starts an identifier whose tail is word characters, a
digit (``str.isdigit``, so also '²' or '٣') starts a number with the
ASCII number tail, and anything else is a one-character operator. A '.'
before such a digit is a number of its own, as '.' before '5' starts
one. An unterminated string, character literal or block comment raises
LexError on the line where it opens.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

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


class Token(NamedTuple):
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

    @classmethod
    def of(cls, tokens: Iterable[Token]) -> "TokenStream":
        """The stream of the first ``MAX_PAYLOAD`` of ``tokens``.

        At most one token more is taken from the iterable, and only to
        mark the stream truncated.
        """
        payload = list(islice(tokens, MAX_PAYLOAD + 1))
        return cls(tokens=(_BOS_TOKEN, *payload[:MAX_PAYLOAD], _EOS_TOKEN),
                   truncated=len(payload) > MAX_PAYLOAD)


KEYWORDS = frozenset("""
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    _Bool _Complex _Atomic _Noreturn _Static_assert _Thread_local
    bool catch class constexpr delete explicit false friend mutable
    namespace new noexcept nullptr operator private protected public
    template this throw true try typeid typename using virtual wchar_t
""".split())

#: What may follow a number's first character.
_NUMBER_TAIL = r"(?:[0-9a-fA-FxXpP._uUlL']|(?<=[eEpP])[+-])*"
#: The token grammar as one pattern: each alternative is a named group,
#: tried in order, and the first that matches at a position wins.
#: Operators are listed longest first, so "<<=" wins over "<<" and "<".
_TOKEN = re.compile("|".join(f"(?P<{name}>{regex})" for name, regex in (
    ("skip", r"[ \t\n\r\v\f]+|//(?:\\\n|[^\n])*|/\*.*?\*/"),
    ("string_lit", r'"(?:\\.|[^"\\\n])*"'),
    ("char_lit", r"'(?:\\.|[^'\\\n])*'"),
    ("unterminated", r"/\*|[\"']"),
    ("identifier", r"[A-Za-z_]\w*"),
    ("number", r"(?:[0-9]|\.[0-9])" + _NUMBER_TAIL),
    ("punctuation", r"##|[(){}\[\],;#]"),
    # a "." before a non-ASCII character is left to "other": before a
    # digit such as "²" it is a number
    ("operator", r"<<=|>>=|\.\.\.|->\*|->|\+\+|--|<<|>>|[-+*/%=<>!&^|]="
                 r"|&&|\|\||::|\.\*|\.(?![^\x00-\x7f])|[-+*/%=<>!&|^~?:]"),
    ("other", r"."),
)), re.DOTALL)
#: The rest of a number or identifier whose first character is not ASCII.
_NUMBER_REST = re.compile(_NUMBER_TAIL)
_WORD_REST = re.compile(r"\w*")

_KINDS = {kind.value: kind for kind in TokenKind}
_UNTERMINATED = {"/": "unterminated block comment",
                 '"': "unterminated string literal",
                 "'": "unterminated character literal"}


def lex(source: str) -> list[Token]:
    """Lex an arbitrary amount of C/C++ text into raw tokens.

    No capacity limit and no special markers; the repo scanner's function
    extractor builds on it. Raises LexError for unterminated strings,
    chars, or block comments.
    """
    return list(_lex_tokens(source))


def _lex_tokens(source: str, line: int = 1) -> Iterator[Token]:
    """The tokens of ``lex``, produced lazily so a caller can stop early;
    ``source`` starts on ``line``."""
    match = _TOKEN.match
    make = tuple.__new__  # Token's fields without its __new__ call
    pos = 0
    n = len(source)
    while pos < n:
        m = match(source, pos)
        group = m.lastgroup
        end = m.end()
        if group == "unterminated":
            raise LexError(_UNTERMINATED[source[pos]], line)
        if group != "skip":
            kind = _KINDS.get(group)
            if kind is None:  # "other": a non-ASCII or stray character
                ch = source[pos]
                if ch.isalpha():
                    kind = TokenKind.IDENTIFIER
                    end = _WORD_REST.match(source, end).end()
                elif ch.isdigit() or ch == "." and source[end].isdigit():
                    kind = TokenKind.NUMBER
                    end = _NUMBER_REST.match(source, end).end()
                else:
                    kind = TokenKind.OPERATOR
            text = source[pos:end]
            if kind is TokenKind.IDENTIFIER and text in KEYWORDS:
                kind = TokenKind.KEYWORD
            yield make(Token, (text, kind, line))
        # whitespace, comments and spliced literals hold the newlines
        line += source.count("\n", pos, end)
        pos = end


def closers(tokens: Sequence[Token], open_text: str,
            close_text: str) -> dict[int, int]:
    """Position of the token balancing each ``open_text`` token that has one.

    One stack pass, so bracket matching stays linear in the tokens.
    """
    found: dict[int, int] = {}
    stack: list[int] = []
    for i, tok in enumerate(tokens):
        if tok.text == open_text:
            stack.append(i)
        elif tok.text == close_text and stack:
            found[stack.pop()] = i
    return found


def tokenize(source: str, first_line: int = 1) -> TokenStream:
    """Lex a function into a stream of at most 512 tokens.

    Token lines and a LexError count from ``first_line``, the source's
    first line. Lexing stops after ``MAX_PAYLOAD + 1`` tokens, the last
    only marking the stream truncated; reports propagate the flag.
    """
    if not source:
        raise DataError("cannot tokenize empty source")
    return TokenStream.of(_lex_tokens(source, first_line))


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
        try:
            text = Path(path).read_bytes().decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read vocabulary {path}: {exc}") from exc
        entries: list[str] = []
        seen = {name for name, _ in RESERVED}
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not line:
                continue
            try:
                text, idx = line.rsplit("\t", 1)
                idx = int(idx)
                if idx < 0:
                    raise ValueError(f"negative id {idx}")
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
            if text in seen:
                raise DataError(
                    f"{path}:{lineno}: duplicate vocabulary entry {text!r}")
            seen.add(text)
            entries.append((idx, text))
        entries.sort()
        for pos, (idx, _) in enumerate(entries):
            if idx != pos + len(RESERVED):
                raise DataError(f"{path}: vocabulary ids are not contiguous")
        return cls([text for _, text in entries])


def build_vocab(streams: Iterable[TokenStream] = (), min_count: int = 1,
                counts: Counter[str] | None = None) -> Vocabulary:
    """Count payload tokens over a corpus's token streams, added to
    ``counts`` where a caller has counted some already, and keep those
    seen often enough; tokens below ``min_count`` or holding a newline
    (spliced literals) fall back to <UNK> at encode time."""
    counts = Counter() if counts is None else counts
    for stream in streams:
        for token in stream.payload():
            counts[token.text] += 1
    kept = [t for t, c in counts.items() if c >= min_count and "\n" not in t]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept)


def encode(stream: TokenStream, vocab: Vocabulary) -> list[int]:
    """Id per stream position: the markers are reserved entries, unknown
    payload tokens map to <UNK> (no payload token reads "<BOS>")."""
    return [vocab.id_for(t.text) for t in stream.tokens]
