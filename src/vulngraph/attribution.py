"""Token attribution over a frozen model, and root-cause line selection.

A token's score is the drop in the predicted class's probability when
that token is occluded, i.e. its embedding input is replaced by the
padding embedding (occlusion with singleton subsets). Scores are summed
per source line; the root cause is the highest-scoring line strictly
before the predicted vulnerable range, never the declaration line.

Occlusion is computed incrementally when the model offers
``occluded_probabilities`` (``VulnModel`` does): it starts from the
caller's base pass, and per token only the rows within ``gcn_layers``
hops of it are recomputed, so ``attribute_tokens`` runs one full forward
(all tokens occluded) whatever the length, besides the caller's base
pass. Other models get one full forward per token; that loop is also the
oracle the incremental path is tested against.

``shapley_oracle`` computes exact Shapley values by enumerating all
present/occluded coalitions of payload tokens. It is test-scale only
(at most 12 payload tokens) and exists to validate that the cheap
occlusion scores rank tokens consistently with the game-theoretic
ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import AttributionError
from .lexer import STREAM_CAPACITY, TokenStream, Vocabulary
from .model import ForwardOutput, denormalize_lines
from .semgraph import SemanticGraph, model_inputs

#: Payload-size cap for exact coalition enumeration.
ORACLE_MAX_TOKENS = 12


@dataclass(frozen=True)
class Attribution:
    """Per-token and per-line scores for one prediction.

    ``baseline`` is the predicted class's probability with every payload
    token occluded (the model's output on an empty function, serialized
    as "phi0" in dumps). One score per stream position; specials score 0.
    """

    token_scores: np.ndarray
    line_scores: dict[int, float]
    target_class: int
    baseline: float


@dataclass(frozen=True)
class RootCause:
    line: int
    score: float
    fallback_used: bool


def _payload_positions(stream: TokenStream) -> list[int]:
    return list(range(1, stream.content_len - 1))


def _check_frozen(model) -> None:
    if not getattr(model, "frozen", False):
        raise AttributionError(
            "attribution requires a frozen model; call model.freeze() first")


def _target_prob(model, inputs: tuple[np.ndarray, np.ndarray],
                 target: int, occlude: Sequence[int] | None,
                 baseline: str) -> float:
    output = model.forward(*inputs, occlude=occlude,
                           occlusion_baseline=baseline)
    return float(output.probabilities[target])


def attribute_tokens(model, stream: TokenStream,
                     inputs: tuple[np.ndarray, np.ndarray],
                     base: ForwardOutput,
                     baseline: str = "pad") -> Attribution:
    """Occlusion score per payload token for the predicted class.

    ``base`` is the model's ``forward`` on ``inputs``, the stream's
    ``model_inputs``.
    """
    _check_frozen(model)
    probs = base.probabilities
    target = int(np.argmax(probs))
    full_prob = float(probs[target])

    payload = _payload_positions(stream)
    if hasattr(model, "occluded_probabilities"):
        occluded = model.occluded_probabilities(*inputs, target, payload,
                                                baseline, base)
    else:  # one full forward per position: the oracle of the fast path
        occluded = np.array([_target_prob(model, inputs, target, [position],
                                          baseline) for position in payload])
    token_scores = np.zeros(len(stream.tokens))
    token_scores[payload] = full_prob - occluded
    empty_prob = _target_prob(model, inputs, target, payload, baseline)
    return Attribution(
        token_scores=token_scores,
        line_scores=aggregate_lines(token_scores, stream),
        target_class=target,
        baseline=empty_prob,
    )


def shapley_oracle(model, stream: TokenStream, graph: SemanticGraph,
                   vocab: Vocabulary, baseline: str = "pad") -> np.ndarray:
    """Exact Shapley value per payload token (test-scale only).

    The coalition value is the predicted class's probability with the
    coalition's tokens present and everything else occluded. Satisfies
    efficiency: the values sum to f(all present) - f(all occluded).
    """
    _check_frozen(model)
    payload = _payload_positions(stream)
    n = len(payload)
    if n > ORACLE_MAX_TOKENS:
        raise AttributionError(
            f"oracle enumerates 2^n coalitions; {n} payload tokens exceed "
            f"the cap of {ORACLE_MAX_TOKENS}")
    inputs = model_inputs(graph, vocab)
    target = int(np.argmax(model.forward(*inputs).probabilities))

    values: dict[int, float] = {}
    for subset in range(1 << n):
        occlude = [payload[i] for i in range(n) if not subset & (1 << i)]
        values[subset] = _target_prob(model, inputs, target, occlude or None,
                                      baseline)

    # weight[k] = k! (n-k-1)! / n! for a coalition of size k not containing i
    weights = [
        math.factorial(k) * math.factorial(n - k - 1) / math.factorial(n)
        for k in range(n)
    ]
    scores = np.zeros(len(stream.tokens))
    for i in range(n):
        bit = 1 << i
        total = 0.0
        for subset in range(1 << n):
            if subset & bit:
                continue
            k = bin(subset).count("1")
            total += weights[k] * (values[subset | bit] - values[subset])
        scores[payload[i]] = total
    return scores


def aggregate_lines(token_scores: np.ndarray,
                    stream: TokenStream) -> dict[int, float]:
    """Sum token scores per source line; token-less lines are absent."""
    line_scores: dict[int, float] = {}
    for position, token in enumerate(stream.tokens):
        if token.is_special:
            continue
        line_scores[token.line] = (line_scores.get(token.line, 0.0)
                                   + float(token_scores[position]))
    return line_scores


def select_root_cause(line_scores: Mapping[int, float], predicted_start: int,
                      line_count: int) -> RootCause:
    """Highest-scoring line strictly before the predicted vulnerable range.

    Line 1 (the declaration) is never admissible. When no line before
    ``predicted_start`` exists or none scores positive, falls back to the
    best line anywhere in [2, line_count] and flags it.
    """
    if line_count < 2:
        raise AttributionError(
            "single-line functions have no admissible root-cause line")
    if not line_scores:
        raise AttributionError("no line scores to select from")

    def best(candidates: dict[int, float]) -> tuple[int, float]:
        line = min(candidates, key=lambda l: (-candidates[l], l))
        return line, candidates[line]

    primary = {l: s for l, s in line_scores.items()
               if 2 <= l < predicted_start}
    if primary:
        line, score = best(primary)
        if score > 0.0:
            return RootCause(line=line, score=score, fallback_used=False)
    fallback = {l: s for l, s in line_scores.items() if 2 <= l <= line_count}
    if not fallback:
        raise AttributionError(
            "no admissible root-cause line (all tokens on the declaration line)")
    line, score = best(fallback)
    return RootCause(line=line, score=score, fallback_used=True)


@dataclass(frozen=True)
class Localization:
    """Predicted vulnerable lines and the root cause before them.

    Lines are 1-based within the function. ``root_cause`` is None when
    no line is admissible, and ``problem`` then says why.
    """

    vul_lines: tuple[int, int]
    root_cause: RootCause | None
    problem: str | None = None


def localize(loc_pred: tuple[float, float], line_scores: Mapping[int, float],
             line_count: int) -> Localization:
    """Denormalize the predicted range and pick the root cause before it."""
    start, end = denormalize_lines(loc_pred, line_count)
    try:
        root = select_root_cause(line_scores, start, line_count)
    except AttributionError as exc:
        return Localization((start, end), None, str(exc))
    return Localization((start, end), root)


def normalize_scores(line_scores: Mapping[int, float]) -> dict[int, float]:
    """Min-max normalize to [0, 1]; a constant map becomes all 0.5."""
    if not line_scores:
        raise AttributionError("no line scores to normalize")
    low = min(line_scores.values())
    high = max(line_scores.values())
    if high == low:
        return {line: 0.5 for line in line_scores}
    return {line: (score - low) / (high - low)
            for line, score in line_scores.items()}


def attribution_dump(attribution: Attribution,
                     root_cause: RootCause | None) -> dict:
    """JSON-ready dump; token_scores are zero-padded to STREAM_CAPACITY."""
    scores = [float(s) for s in attribution.token_scores]
    return {
        "token_scores": scores + [0.0] * (STREAM_CAPACITY - len(scores)),
        "line_scores": {str(line): score
                        for line, score in sorted(attribution.line_scores.items())},
        "root_cause": None if root_cause is None else {
            "line": root_cause.line,
            "score": root_cause.score,
            "fallback_used": root_cause.fallback_used,
        },
        "phi0": attribution.baseline,
        "target_class": attribution.target_class,
    }
