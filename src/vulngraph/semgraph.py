"""Token-level semantic graph: four edge families over a token stream.

The graph connects the n positions of a token stream (<BOS>, at most
510 payload tokens, <EOS>; n = ``content_len``) with typed edges:

* sequential — each token to its successor, BOS/EOS included;
* control   — control keywords to the first token of the lexically
  next statement, plus if/else pairing;
* data      — consecutive occurrences of the same identifier (def-use
  chain surrogate);
* poacher   — risk sources to sinks: allocation/copy calls to their
  argument identifiers, array subscripts and pointer dereferences to
  the identifier they apply to.

These are explicit lexical surrogates: deterministic and computable
without a parser, not a reproduction of any parser-based construction.
Each family returns its edges as two index arrays, (src, dst).

The graph is kept only as its operator. ``build_graph`` turns the edge
multiset into a sparse operator over the stream's n positions, built
from the index arrays without an n x n array: multiplicity counts are
symmetrized (elementwise max with the transpose) and given self-loops,
then each row is normalized to sum to 1. The result is a
``tensor.SparseOperator`` with a few entries per row. Streams carry no
padding, so the operator only ever mixes the function's own tokens.
``model_inputs`` is the one step from a stream to the model's inputs:
its ids and its operator.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphBuildError
from .lexer import Token, TokenKind, TokenStream, Vocabulary, closers, encode
from .tensor import SparseOperator


#: Keywords that introduce control flow.
CONTROL_KEYWORDS = frozenset({
    "if", "else", "for", "while", "do", "switch", "case", "goto",
    "return", "break", "continue",
})
_PAREN_CONDITION = frozenset({"if", "for", "while", "switch"})
_JUMP_STATEMENTS = frozenset({"return", "break", "continue", "goto"})

#: Call targets treated as risk sources for poacher edges.
RISK_CALLS = frozenset({
    "malloc", "calloc", "realloc", "free", "memcpy", "memmove",
    "strcpy", "strncpy", "strcat", "sprintf",
})


#: A family's edges: the (src, dst) positions, one pair per edge.
Edges = tuple[np.ndarray, np.ndarray]


def _edges(src: list[int], dst: list[int]) -> Edges:
    return np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)


def sequential_edges(stream: TokenStream) -> Edges:
    """Chain every token to its successor."""
    src = np.arange(stream.content_len - 1)
    return src, src + 1


def _find_text(tokens: tuple[Token, ...], start: int, text: str,
               end: int) -> int | None:
    for i in range(start, end):
        if tokens[i].text == text:
            return i
    return None


def control_edges(stream: TokenStream, parens: dict[int, int]) -> Edges:
    """Edges from control keywords to their lexically next statement.

    Parenthesized conditions (if/for/while/switch) jump past the matching
    ')'; jump statements (return/break/continue/goto) past their ';';
    'case' past its ':'; 'do' and 'else' to the token right after them.
    Each 'else' is additionally paired with the nearest unpaired 'if'.
    ``parens`` maps each '(' to its ')', as ``lexer.closers`` finds them.
    Unbalanced condition parentheses raise GraphBuildError unless the
    stream was truncated, in which case the edge is simply dropped.
    """
    tokens = stream.tokens
    last_payload = stream.content_len - 2  # position of the final payload token
    src: list[int] = []
    dst: list[int] = []
    open_ifs: list[int] = []
    for i in range(1, last_payload + 1):
        tok = tokens[i]
        if tok.kind is not TokenKind.KEYWORD or tok.text not in CONTROL_KEYWORDS:
            continue
        if tok.text == "if":
            open_ifs.append(i)
        elif tok.text == "else" and open_ifs:
            src.append(open_ifs.pop())
            dst.append(i)

        target: int | None = None
        if tok.text in _PAREN_CONDITION:
            if i + 1 > last_payload or tokens[i + 1].text != "(":
                continue  # no condition follows (macro-mangled source)
            close = parens.get(i + 1)
            if close is None:
                if stream.truncated:
                    continue
                raise GraphBuildError(f"unbalanced parentheses after "
                                      f"{tok.text!r} on line {tok.line}")
            target = close + 1
        elif tok.text in _JUMP_STATEMENTS:
            semi = _find_text(tokens, i + 1, ";", last_payload + 1)
            target = None if semi is None else semi + 1
        elif tok.text == "case":
            colon = _find_text(tokens, i + 1, ":", last_payload + 1)
            target = None if colon is None else colon + 1
        else:  # do, else
            target = i + 1
        if target is not None and target <= last_payload:
            src.append(i)
            dst.append(target)
    return _edges(src, dst)


def data_edges(stream: TokenStream) -> Edges:
    """Chain consecutive occurrences of the same identifier."""
    src: list[int] = []
    dst: list[int] = []
    last_seen: dict[str, int] = {}
    for i in range(1, stream.content_len - 1):
        tok = stream.tokens[i]
        if tok.kind is not TokenKind.IDENTIFIER:
            continue
        prev = last_seen.get(tok.text)
        if prev is not None:
            src.append(prev)
            dst.append(i)
        last_seen[tok.text] = i
    return _edges(src, dst)


def poacher_edges(stream: TokenStream, parens: dict[int, int]) -> Edges:
    """Risk-source-to-sink surrogate edges.

    (a) allocation/copy call identifiers to every identifier in their
    argument list, (b) '[' to the identifier right before it, (c) '*'
    to the identifier right after it and '->' to the one before it.
    ``parens`` maps each '(' to its ')'; an unclosed call's arguments run
    to the end of the stream.
    """
    tokens = stream.tokens
    last_payload = stream.content_len - 2
    src: list[int] = []
    dst: list[int] = []
    for i in range(1, last_payload + 1):
        tok = tokens[i]
        if (tok.kind is TokenKind.IDENTIFIER and tok.text in RISK_CALLS
                and i + 1 <= last_payload and tokens[i + 1].text == "("):
            close = parens.get(i + 1)
            end = last_payload if close is None else close - 1
            for j in range(i + 2, end + 1):
                if tokens[j].kind is TokenKind.IDENTIFIER:
                    src.append(i)
                    dst.append(j)
        elif tok.text == "[":
            if i - 1 >= 1 and tokens[i - 1].kind is TokenKind.IDENTIFIER:
                src.append(i)
                dst.append(i - 1)
        elif tok.text == "*" and tok.kind is TokenKind.OPERATOR:
            if i + 1 <= last_payload and tokens[i + 1].kind is TokenKind.IDENTIFIER:
                src.append(i)
                dst.append(i + 1)
        elif tok.text == "->":
            if i - 1 >= 1 and tokens[i - 1].kind is TokenKind.IDENTIFIER:
                src.append(i)
                dst.append(i - 1)
    return _edges(src, dst)


def build_graph(stream: TokenStream) -> SparseOperator:
    """The row-normalized operator of the union of the four edge families
    over the stream's ``content_len`` positions.

    The operator is row-stochastic, its pattern is symmetric, and every
    row holds its self-loop. Multi-edges from different families stack:
    the multiplicity count feeds normalization, so overlapping evidence
    weighs more.
    """
    parens = closers(stream.tokens, "(", ")")
    families = [sequential_edges(stream), control_edges(stream, parens),
                data_edges(stream), poacher_edges(stream, parens)]
    return _operator(stream.content_len,
                     np.concatenate([edges[0] for edges in families]),
                     np.concatenate([edges[1] for edges in families]))


def _operator(n: int, src: np.ndarray, dst: np.ndarray) -> SparseOperator:
    """The row-normalized operator of an edge multiset over n positions.

    Entry (r, c) counts the edges r -> c or the edges c -> r, whichever
    are more, plus 1 on the diagonal, over the row's total. Pairs are keys
    r * n + c, so one sort finds every entry without an n x n array.
    """
    directed = src * n + dst
    keys, inverse = np.unique(
        np.concatenate([directed, dst * n + src, np.arange(0, n * n, n + 1)]),
        return_inverse=True)
    m = directed.size
    counts = np.maximum(
        np.bincount(inverse[:m], minlength=keys.size),
        np.bincount(inverse[m:2 * m], minlength=keys.size)).astype(np.float64)
    counts[inverse[2 * m:]] += 1.0
    rows, cols = np.divmod(keys, n)
    # the counts are symmetric, so A[c, r] is the count over c's degree
    degree = np.bincount(rows, weights=counts, minlength=n)
    start = np.searchsorted(rows, np.arange(n + 1))
    return SparseOperator(start, cols, counts / degree[rows],
                          counts / degree[cols])


def model_inputs(stream: TokenStream, vocab: Vocabulary
                 ) -> tuple[np.ndarray, SparseOperator]:
    """Token ids of the stream and the graph's operator over them.

    Raises GraphBuildError for a stream that cannot be graphed.
    """
    operator = build_graph(stream)
    return np.asarray(encode(stream, vocab), dtype=np.int64), operator
