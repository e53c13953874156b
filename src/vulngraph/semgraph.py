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
Each family can be toggled off for ablations.

The edge multiset becomes a dense n x n operator over the stream's n
positions in two steps: multiplicity counts are symmetrized (elementwise
max with the transpose) and given self-loops, then each row is
normalized to sum to 1. Streams carry no padding, so the operator only
ever mixes the function's own tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GraphBuildError
from .lexer import Token, TokenKind, TokenStream, Vocabulary, encode


class EdgeKind(Enum):
    SEQUENTIAL = "sequential"
    CONTROL = "control"
    DATA = "data"
    POACHER = "poacher"


@dataclass(frozen=True)
class TypedEdge:
    src: int
    dst: int
    kind: EdgeKind


@dataclass(frozen=True)
class GraphConfig:
    sequential: bool = True
    control: bool = True
    data: bool = True
    poacher: bool = True


@dataclass(frozen=True)
class SemanticGraph:
    """A stream, its typed edges, and the derived dense operators.

    Both operators are ``content_len`` x ``content_len``: ``counts`` is
    the symmetrized multiplicity matrix with self-loops (symmetric by
    construction); ``adjacency`` is its row-normalized, row-stochastic
    form.
    """

    stream: TokenStream
    edges: tuple[TypedEdge, ...]
    counts: np.ndarray
    adjacency: np.ndarray


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


def sequential_edges(stream: TokenStream) -> list[TypedEdge]:
    """Chain every token to its successor."""
    return [
        TypedEdge(i, i + 1, EdgeKind.SEQUENTIAL)
        for i in range(stream.content_len - 1)
    ]


def _match_forward(tokens: tuple[Token, ...], open_pos: int, close_text: str,
                   end: int) -> int | None:
    """Index of the token balancing ``tokens[open_pos]``, or None."""
    open_text = tokens[open_pos].text
    depth = 0
    for i in range(open_pos, end):
        text = tokens[i].text
        if text == open_text:
            depth += 1
        elif text == close_text:
            depth -= 1
            if depth == 0:
                return i
    return None


def _find_text(tokens: tuple[Token, ...], start: int, text: str,
               end: int) -> int | None:
    for i in range(start, end):
        if tokens[i].text == text:
            return i
    return None


def control_edges(stream: TokenStream) -> list[TypedEdge]:
    """Edges from control keywords to their lexically next statement.

    Parenthesized conditions (if/for/while/switch) jump past the matching
    ')'; jump statements (return/break/continue/goto) past their ';';
    'case' past its ':'; 'do' and 'else' to the token right after them.
    Each 'else' is additionally paired with the nearest unpaired 'if'.
    Unbalanced condition parentheses raise GraphBuildError unless the
    stream was truncated, in which case the edge is simply dropped.
    """
    tokens = stream.tokens
    last_payload = stream.content_len - 2  # position of the final payload token
    edges: list[TypedEdge] = []
    open_ifs: list[int] = []
    for i in range(1, last_payload + 1):
        tok = tokens[i]
        if tok.kind is not TokenKind.KEYWORD or tok.text not in CONTROL_KEYWORDS:
            continue
        if tok.text == "if":
            open_ifs.append(i)
        elif tok.text == "else" and open_ifs:
            edges.append(TypedEdge(open_ifs.pop(), i, EdgeKind.CONTROL))

        target: int | None = None
        if tok.text in _PAREN_CONDITION:
            if i + 1 > last_payload or tokens[i + 1].text != "(":
                continue  # no condition follows (macro-mangled source)
            close = _match_forward(tokens, i + 1, ")", last_payload + 1)
            if close is None:
                if stream.truncated:
                    continue
                raise GraphBuildError(
                    f"unbalanced parentheses after {tok.text!r} "
                    f"on line {tok.line}"
                )
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
            edges.append(TypedEdge(i, target, EdgeKind.CONTROL))
    return edges


def data_edges(stream: TokenStream) -> list[TypedEdge]:
    """Chain consecutive occurrences of the same identifier."""
    edges: list[TypedEdge] = []
    last_seen: dict[str, int] = {}
    for i in range(1, stream.content_len - 1):
        tok = stream.tokens[i]
        if tok.kind is not TokenKind.IDENTIFIER:
            continue
        prev = last_seen.get(tok.text)
        if prev is not None:
            edges.append(TypedEdge(prev, i, EdgeKind.DATA))
        last_seen[tok.text] = i
    return edges


def poacher_edges(stream: TokenStream) -> list[TypedEdge]:
    """Risk-source-to-sink surrogate edges.

    (a) allocation/copy call identifiers to every identifier in their
    argument list, (b) '[' to the identifier right before it, (c) '*'
    to the identifier right after it and '->' to the one before it.
    """
    tokens = stream.tokens
    last_payload = stream.content_len - 2
    edges: list[TypedEdge] = []
    for i in range(1, last_payload + 1):
        tok = tokens[i]
        if (tok.kind is TokenKind.IDENTIFIER and tok.text in RISK_CALLS
                and i + 1 <= last_payload and tokens[i + 1].text == "("):
            close = _match_forward(tokens, i + 1, ")", last_payload + 1)
            end = last_payload if close is None else close - 1
            for j in range(i + 2, end + 1):
                if tokens[j].kind is TokenKind.IDENTIFIER:
                    edges.append(TypedEdge(i, j, EdgeKind.POACHER))
        elif tok.text == "[":
            if i - 1 >= 1 and tokens[i - 1].kind is TokenKind.IDENTIFIER:
                edges.append(TypedEdge(i, i - 1, EdgeKind.POACHER))
        elif tok.text == "*" and tok.kind is TokenKind.OPERATOR:
            if i + 1 <= last_payload and tokens[i + 1].kind is TokenKind.IDENTIFIER:
                edges.append(TypedEdge(i, i + 1, EdgeKind.POACHER))
        elif tok.text == "->":
            if i - 1 >= 1 and tokens[i - 1].kind is TokenKind.IDENTIFIER:
                edges.append(TypedEdge(i, i - 1, EdgeKind.POACHER))
    return edges


def collect_edges(stream: TokenStream,
                  config: GraphConfig = GraphConfig()) -> list[TypedEdge]:
    edges: list[TypedEdge] = []
    if config.sequential:
        edges.extend(sequential_edges(stream))
    if config.control:
        edges.extend(control_edges(stream))
    if config.data:
        edges.extend(data_edges(stream))
    if config.poacher:
        edges.extend(poacher_edges(stream))
    return edges


def build_graph(stream: TokenStream,
                config: GraphConfig = GraphConfig()) -> SemanticGraph:
    """Union the enabled edge families and derive the dense operators.

    Multi-edges from different families stack: the multiplicity count
    feeds normalization, so overlapping evidence weighs more.
    """
    edges = collect_edges(stream, config)
    active = stream.content_len
    counts = np.zeros((active, active), dtype=np.float64)
    for edge in edges:
        counts[edge.src, edge.dst] += 1.0
    counts = np.maximum(counts, counts.T)
    counts[np.arange(active), np.arange(active)] += 1.0
    adjacency = counts / counts.sum(axis=1, keepdims=True)
    return SemanticGraph(stream=stream, edges=tuple(edges), counts=counts,
                         adjacency=adjacency)


def model_inputs(graph: SemanticGraph, vocab: Vocabulary
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Token ids of the stream and the operator over them."""
    ids = np.asarray(encode(graph.stream, vocab), dtype=np.int64)
    return ids, graph.adjacency
