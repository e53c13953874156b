"""The character-loop lexer that ``vulngraph.lexer`` once used: the oracle.

``lexer._lex_tokens`` now runs one compiled pattern. This is the earlier
hand-written scanner, kept so tests can require that both give the same
tokens, kinds, lines and ``LexError`` texts. Its one change since is the
line splice that continues a ``//`` comment.
"""

from __future__ import annotations

from typing import Iterator

from vulngraph.errors import LexError
from vulngraph.lexer import KEYWORDS, Token, TokenKind

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


def oracle_lex(source: str) -> list[Token]:
    """The tokens of ``lexer.lex``, by the character loop."""
    return list(_lex_tokens(source))


def _lex_tokens(source: str) -> Iterator[Token]:
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
            # a backslash-newline splices the next line into the comment
            j = source.find("\n", i)
            while j != -1 and source[j - 1] == "\\":
                line += 1
                j = source.find("\n", j + 1)
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
