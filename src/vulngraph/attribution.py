"""Token attribution over a model, and root-cause line selection.

A token's score is the drop in the predicted class's probability when
that token is occluded, i.e. its id is replaced by the ``<PAD>`` id,
which no stream holds (occlusion with singleton subsets). Scores are
summed per source line, in the stream's lines; the root cause is the
highest-scoring line strictly before the predicted vulnerable range,
never the function's first line, its declaration.

Occlusion is computed incrementally by the model's
``occluded_probabilities``: it starts from the caller's base pass, and
per token only the rows within ``gcn_layers`` hops of it are
recomputed, for a chunk of tokens at a time as arrays of (token, row)
pairs, so ``attribute_tokens`` runs no full forward besides the
caller's base pass. ``baseline``, which only the ``attribute`` dump
reads, runs one: every payload token occluded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import AttributionError
from .lexer import PAD_ID, STREAM_CAPACITY, TokenStream
from .model import ForwardOutput, denormalize_lines
from .tensor import SparseOperator


@dataclass(frozen=True)
class Attribution:
    """Per-token and per-line scores for one prediction.

    One score per stream position; specials score 0.
    """

    token_scores: np.ndarray
    line_scores: dict[int, float]
    target_class: int


@dataclass(frozen=True)
class RootCause:
    line: int
    score: float
    fallback_used: bool


def _payload_positions(stream: TokenStream) -> list[int]:
    return list(range(1, stream.content_len - 1))


def _occluded(ids: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """A copy of ``ids`` with ``positions`` set to ``PAD_ID``."""
    ids = np.array(ids)
    ids[list(positions)] = PAD_ID
    return ids


def _target_prob(model, inputs: tuple[np.ndarray, SparseOperator],
                 target: int, occlude: Sequence[int]) -> float:
    ids, operator = inputs
    output = model.forward(_occluded(ids, occlude), operator)
    return float(output.probabilities[target])


def attribute_tokens(model, stream: TokenStream,
                     base: ForwardOutput) -> Attribution:
    """Occlusion score per payload token for the predicted class.

    ``base`` is the model's ``forward`` on the stream's ``model_inputs``.
    """
    probs = base.probabilities
    target = int(np.argmax(probs))
    full_prob = float(probs[target])

    payload = _payload_positions(stream)
    occluded = model.occluded_probabilities(base, target, payload)
    token_scores = np.zeros(len(stream.tokens))
    token_scores[payload] = full_prob - occluded
    return Attribution(
        token_scores=token_scores,
        line_scores=aggregate_lines(token_scores, stream),
        target_class=target,
    )


def baseline(model, stream: TokenStream, base: ForwardOutput) -> float:
    """The predicted class's probability with every payload token
    occluded: the model's output on an empty function, "phi0" in dumps.

    ``base`` is the model's ``forward`` on the stream's ``model_inputs``.
    """
    target = int(np.argmax(base.probabilities))
    return _target_prob(model, (base.ids, base.operator), target,
                        _payload_positions(stream))


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
                      span: tuple[int, int]) -> RootCause:
    """Highest-scoring line strictly before the predicted vulnerable range.

    ``span``'s first line (the declaration) is never admissible. When no
    line before ``predicted_start`` exists or none scores positive,
    falls back to the best line anywhere else in ``span`` and flags it.
    """
    first, last = span
    if last <= first:
        raise AttributionError(
            "single-line functions have no admissible root-cause line")
    if not line_scores:
        raise AttributionError("no line scores to select from")

    def best(candidates: dict[int, float]) -> tuple[int, float]:
        line = min(candidates, key=lambda l: (-candidates[l], l))
        return line, candidates[line]

    primary = {l: s for l, s in line_scores.items()
               if first < l < predicted_start}
    if primary:
        line, score = best(primary)
        if score > 0.0:
            return RootCause(line=line, score=score, fallback_used=False)
    fallback = {l: s for l, s in line_scores.items() if first < l <= last}
    if not fallback:
        raise AttributionError(
            "no admissible root-cause line (all tokens on the declaration line)")
    line, score = best(fallback)
    return RootCause(line=line, score=score, fallback_used=True)


@dataclass(frozen=True)
class Localization:
    """Predicted vulnerable lines and the root cause before them.

    Lines are those of the span localized over. ``root_cause`` is None
    when no line is admissible, and ``problem`` then says why.
    """

    vul_lines: tuple[int, int]
    root_cause: RootCause | None
    problem: str | None = None


def localize(loc_pred: tuple[float, float], line_scores: Mapping[int, float],
             span: tuple[int, int]) -> Localization:
    """Denormalize the predicted range over ``span``, the function's first
    and last line, and pick the root cause before it."""
    start, end = (span[0] - 1 + line for line in
                  denormalize_lines(loc_pred, span[1] - span[0] + 1))
    try:
        root = select_root_cause(line_scores, start, span)
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


def attribution_dump(attribution: Attribution, root_cause: RootCause | None,
                     phi0: float) -> dict:
    """JSON-ready dump, with the prediction's ``baseline`` as phi0;
    token_scores are zero-padded to STREAM_CAPACITY."""
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
        "phi0": phi0,
        "target_class": attribution.target_class,
    }
