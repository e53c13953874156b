"""The network: token embedding, residual graph convolution, fused heads.

Layout per forward pass (n = number of stream positions, at most 512;
A_hat the n x n operator of ``semgraph.build_graph``):

    ids (n,)            -> embedding lookup       -> H0 (n x embed_dim)
    H0 @ W_in                                     -> H  (n x gcn_dim)
    per layer:  H <- H + relu(A_hat @ H @ W_layer)        (residual)
    pooled_graph = mean of final H over its n rows         (1 x gcn_dim)
    pooled_embed = mean of H0, projected by W_in           (1 x gcn_dim)
    fused = embed_weight * pooled_embed + graph_weight * pooled_graph
    class_logits = fused @ W_cls + b_cls                   (1 x classes)
    loc_pred     = sigmoid(fused @ W_loc + b_loc)          (1 x 2)

The residual is identity-shaped because the only dimension change
(embed_dim -> gcn_dim) happens in a single input projection before the
first graph layer. The embedding table is a trainable stand-in for a
pretrained encoder; since ``pooled_embed`` is a mean over tokens it is
order-invariant over the payload, an accepted desk-scale limitation.

``forward`` is the inference pass: plain numpy, no autodiff tape, each
layer checked for non-finite values; its per-layer results are the base
pass that ``occluded_probabilities`` builds on. ``forward_nodes`` runs the
same layers on the ``tensor`` tape for training and is ``forward``'s
bit-exact oracle.

``loc_pred`` regresses normalized line fractions: the target for line L
in an N-line function is (L - 0.5) / N, so the loss does not scale with
function length. ``denormalize_lines`` inverts that mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (AttributionError, ConfigError, DataError, GradientError,
                     ShapeError)
from . import tensor
from .tensor import Matrix, Parameter


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embed_dim: int = 768
    gcn_dim: int = 512
    gcn_layers: int = 2
    num_classes: int = 11  # benign + ten weakness classes; 2 in binary mode
    embed_weight: float = 0.5
    graph_weight: float = 0.5

    def __post_init__(self) -> None:
        if self.vocab_size < 4:
            raise ConfigError("vocab_size must cover the reserved ids")
        for name in ("embed_dim", "gcn_dim", "gcn_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        _check_fusion(self.embed_weight, self.graph_weight)

    def to_text(self) -> str:
        lines = [f"{k}={getattr(self, k)}" for k in (
            "vocab_size", "embed_dim", "gcn_dim", "gcn_layers",
            "num_classes", "embed_weight", "graph_weight")]
        return "\n".join(lines) + "\n"


def _check_fusion(embed_weight: float, graph_weight: float) -> None:
    if embed_weight < 0.0 or graph_weight < 0.0:
        raise ConfigError("fusion weights must be non-negative")
    if abs(embed_weight + graph_weight - 1.0) > 1e-9:
        raise ConfigError(
            f"fusion weights must sum to 1, got "
            f"{embed_weight} + {graph_weight}"
        )


def _require_finite(where: str, *values: np.ndarray) -> None:
    if not all(np.isfinite(v).all() for v in values):
        raise GradientError(f"non-finite values in the {where}")


def fuse(pooled_embed: Matrix, pooled_graph: Matrix,
         embed_weight: float, graph_weight: float) -> Matrix:
    """Convex combination of the two pooled feature paths."""
    _check_fusion(embed_weight, graph_weight)
    return tensor.add(tensor.scale(pooled_embed, embed_weight),
                      tensor.scale(pooled_graph, graph_weight))


@dataclass
class Forward:
    """Live computation-graph nodes from one forward pass."""

    class_logits: Matrix
    loc_pred: Matrix


@dataclass(frozen=True)
class ForwardOutput:
    """Detached forward results for inference."""

    class_logits: np.ndarray
    loc_pred: tuple[float, float]
    pooled_embed: np.ndarray
    pooled_graph: np.ndarray
    fused: np.ndarray
    # each layer's (A @ H) @ W of an unoccluded pass, for occlusion to reuse
    _mixed: list[np.ndarray] | None = field(default=None, compare=False,
                                            repr=False)

    @property
    def probabilities(self) -> np.ndarray:
        z = self.class_logits - self.class_logits.max()
        e = np.exp(z)
        return e / e.sum()

    @property
    def predicted_class(self) -> int:
        return int(np.argmax(self.class_logits))


class VulnModel:
    """Residual graph-convolutional classifier/localizer over token graphs."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.frozen = False
        rng = np.random.default_rng(seed)
        self.embedding = Parameter(
            tensor.embedding_init(config.vocab_size, config.embed_dim, rng),
            "embedding")
        self.input_proj = Parameter(
            tensor.glorot_uniform(config.embed_dim, config.gcn_dim, rng),
            "input_proj")
        self.gcn_weights = [
            Parameter(tensor.glorot_uniform(config.gcn_dim, config.gcn_dim, rng),
                      f"gcn_{layer}")
            for layer in range(config.gcn_layers)
        ]
        self.cls_weight = Parameter(
            tensor.glorot_uniform(config.gcn_dim, config.num_classes, rng),
            "cls_weight")
        self.cls_bias = Parameter(tensor.zeros(1, config.num_classes), "cls_bias")
        self.loc_weight = Parameter(
            tensor.glorot_uniform(config.gcn_dim, 2, rng), "loc_weight")
        self.loc_bias = Parameter(tensor.zeros(1, 2), "loc_bias")

    def parameters(self) -> list[Parameter]:
        return [self.embedding, self.input_proj, *self.gcn_weights,
                self.cls_weight, self.cls_bias, self.loc_weight, self.loc_bias]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def freeze(self) -> "VulnModel":
        self.frozen = True
        return self

    # -- forward pieces ------------------------------------------------------

    def embed(self, ids: Sequence[int] | np.ndarray) -> Matrix:
        """Embedding rows for a sequence of token ids."""
        return tensor.gather_rows(self.embedding.value, self._checked_ids(ids))

    def _checked_ids(self, ids: Sequence[int] | np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.config.vocab_size):
            raise ShapeError(
                f"token id out of range [0, {self.config.vocab_size})"
            )
        return ids

    def gcn_forward(self, token_embeddings: Matrix, adjacency: np.ndarray
                    ) -> tuple[Matrix, Matrix]:
        """Project, run the residual graph layers, pool the rows.

        Returns (final per-token features, pooled graph feature row).
        """
        n = token_embeddings.rows
        adjacency = np.asarray(adjacency, dtype=np.float64)
        if adjacency.shape != (n, n):
            raise ShapeError(
                f"adjacency {adjacency.shape} does not match {n} tokens"
            )
        operator = Matrix(adjacency)
        h = tensor.matmul(token_embeddings, self.input_proj.value)
        for weight in self.gcn_weights:
            mixed = tensor.matmul(tensor.matmul(operator, h), weight.value)
            h = tensor.add(h, tensor.relu(mixed))
        return h, tensor.mean_rows(h)

    def pooled_embedding(self, token_embeddings: Matrix) -> Matrix:
        """Mean of the raw embeddings, projected into graph space.

        Shares the input projection with the graph path so both pooled
        features live in the same space.
        """
        return tensor.matmul(tensor.mean_rows(token_embeddings),
                             self.input_proj.value)

    def heads(self, fused: Matrix) -> tuple[Matrix, Matrix]:
        """Class logits (index 0 = benign) and sigmoid line fractions."""
        class_logits = tensor.add(
            tensor.matmul(fused, self.cls_weight.value), self.cls_bias.value)
        loc_pred = tensor.sigmoid(tensor.add(
            tensor.matmul(fused, self.loc_weight.value), self.loc_bias.value))
        return class_logits, loc_pred

    # -- full passes ----------------------------------------------------------

    def forward_nodes(self, ids: np.ndarray, adjacency: np.ndarray) -> Forward:
        """One forward pass on the tape, for training and gradient checks."""
        token_embeddings = self.embed(ids)
        _, pooled_graph = self.gcn_forward(token_embeddings, adjacency)
        pooled_embed = self.pooled_embedding(token_embeddings)
        fused = fuse(pooled_embed, pooled_graph, self.config.embed_weight,
                     self.config.graph_weight)
        class_logits, loc_pred = self.heads(fused)
        return Forward(class_logits=class_logits, loc_pred=loc_pred)

    @np.errstate(over="ignore", invalid="ignore")
    def forward(self, ids: np.ndarray, adjacency: np.ndarray,
                occlude: Sequence[int] | None = None,
                occlusion_baseline: str = "pad",
                fusion: tuple[float, float] | None = None) -> ForwardOutput:
        """Inference pass in plain numpy; equals ``forward_nodes`` bit for bit.

        ``occlude`` replaces the listed positions' embedding inputs with
        the padding embedding (baseline "pad") or with zeros ("zero").
        ``fusion`` overrides the configured mixing weights.
        """
        embeddings = self.embedding.data[self._checked_ids(ids)]
        if occlude is not None:
            embeddings[list(occlude)] = self._replacement(occlusion_baseline)
        pooled_embed, pooled_graph, mixed = self._graph_pass(embeddings,
                                                             adjacency)
        embed_w, graph_w = fusion if fusion is not None else (
            self.config.embed_weight, self.config.graph_weight)
        _check_fusion(embed_w, graph_w)
        fused = embed_w * pooled_embed + graph_w * pooled_graph
        class_logits = fused @ self.cls_weight.data + self.cls_bias.data
        loc_pred = tensor.logistic(
            fused @ self.loc_weight.data + self.loc_bias.data)
        _require_finite("heads", class_logits, loc_pred)
        return ForwardOutput(
            class_logits=class_logits[0],
            loc_pred=(float(loc_pred[0, 0]), float(loc_pred[0, 1])),
            pooled_embed=pooled_embed,
            pooled_graph=pooled_graph,
            fused=fused,
            _mixed=mixed if occlude is None else None,
        )

    def _replacement(self, baseline: str) -> np.ndarray:
        if baseline == "pad":
            return self.embedding.data[0]
        if baseline == "zero":
            return np.zeros(self.config.embed_dim)
        raise ConfigError(f"unknown occlusion baseline {baseline!r}")

    def _graph_pass(self, embeddings: np.ndarray, adjacency: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Pooled embedding and graph features, and each layer's ``A @ H @ W``.

        Callers silence numpy's overflow and invalid-value warnings: the
        results are checked here and raise ``GradientError`` instead.
        ``np.maximum`` keeps a NaN that the tape's ``relu`` would zero.
        """
        n = embeddings.shape[0]
        adjacency = np.asarray(adjacency, dtype=np.float64)
        if n == 0 or adjacency.shape != (n, n):
            raise ShapeError(
                f"adjacency {adjacency.shape} does not fit {n} tokens")
        w_in = self.input_proj.data
        h = embeddings @ w_in
        _require_finite("input projection", h)
        mixed_per_layer = []
        for layer, weight in enumerate(self.gcn_weights):
            mixed = (adjacency @ h) @ weight.data
            mixed_per_layer.append(mixed)
            h = h + np.maximum(mixed, 0.0)
            _require_finite(f"layer gcn_{layer}", h)
        pooled_embed = embeddings.mean(axis=0) @ w_in
        pooled_graph = h.mean(axis=0)
        _require_finite("pooled features", pooled_embed, pooled_graph)
        return pooled_embed, pooled_graph, mixed_per_layer

    @np.errstate(over="ignore", invalid="ignore")
    def occluded_probabilities(self, ids: np.ndarray, adjacency: np.ndarray,
                               target: int, positions: Sequence[int],
                               baseline: str = "pad",
                               base: ForwardOutput | None = None
                               ) -> np.ndarray:
        """Probability of ``target`` with each of ``positions`` occluded alone.

        Entry k equals ``forward(..., occlude=[positions[k]]).probabilities
        [target]`` up to rounding; ``forward`` stays the oracle. The base
        pass keeps every layer's pre-activation ``(A @ H_l) @ W_l``; it is
        taken from ``base``, this model's unoccluded ``forward`` on the
        same inputs, when given, and run here otherwise.
        Occluding position p changes H0 in row p only, and each layer
        spreads a row change to the rows that read it, so only the rows
        within ``gcn_layers`` hops of p are recomputed; the pooled means
        then move by the summed row changes over n.
        """
        ids = self._checked_ids(ids)
        n = ids.size
        adjacency = np.asarray(adjacency, dtype=np.float64)
        replacement = self._replacement(baseline)
        w_in = self.input_proj.data
        embeddings = self.embedding.data[ids]
        if base is not None and base._mixed is not None:
            pooled_embed, pooled_graph, mixed_per_layer = (
                base.pooled_embed, base.pooled_graph, base._mixed)
        else:
            try:
                pooled_embed, pooled_graph, mixed_per_layer = \
                    self._graph_pass(embeddings, adjacency)
            except GradientError as exc:
                raise AttributionError(
                    f"occluded probabilities are not finite: {exc}") from exc
        reads = adjacency != 0

        positions = np.asarray(positions, dtype=np.int64)
        input_deltas = (replacement - embeddings[positions]) @ w_in
        graph_shifts = np.empty_like(input_deltas)
        for k, position in enumerate(positions):
            # rows: the sorted rows of H_l that differ; delta: by how much
            rows, delta = position[None], input_deltas[k:k + 1]
            for weight, mixed in zip(self.gcn_weights, mixed_per_layer):
                readers = reads[:, rows].any(axis=1)
                hit = np.flatnonzero(readers)
                before = mixed[hit]
                after = before + (
                    adjacency[np.ix_(hit, rows)] @ delta) @ weight.data
                readers[rows] = True  # the residual keeps every changed row
                grown = np.flatnonzero(readers)
                grown_delta = np.zeros((grown.size, delta.shape[1]))
                grown_delta[np.searchsorted(grown, rows)] = delta
                grown_delta[np.searchsorted(grown, hit)] += (
                    np.maximum(after, 0.0) - np.maximum(before, 0.0))
                rows, delta = grown, grown_delta
            graph_shifts[k] = delta.sum(axis=0)

        embed_w, graph_w = self.config.embed_weight, self.config.graph_weight
        fused = (embed_w * (pooled_embed + input_deltas / n)
                 + graph_w * (pooled_graph + graph_shifts / n))
        logits = fused @ self.cls_weight.data + self.cls_bias.data
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probabilities = e[:, target] / e.sum(axis=1)
        if not np.isfinite(probabilities).all():
            raise AttributionError(
                "occluded probabilities are not finite; the parameters "
                "hold non-finite or overflowing values")
        return probabilities

    # -- persistence -----------------------------------------------------------

    def save_npz(self, path: str | Path) -> None:
        tensor.save_params(path, self.parameters())

    def load_values(self, arrays: dict[str, np.ndarray]) -> None:
        unexpected = set(arrays) - {p.name for p in self.parameters()}
        if unexpected:
            raise DataError(
                f"checkpoint has unexpected parameters {sorted(unexpected)}")
        for p in self.parameters():
            if p.name not in arrays:
                raise DataError(f"checkpoint missing parameter {p.name!r}")
            if arrays[p.name].shape != p.shape:
                raise DataError(
                    f"checkpoint parameter {p.name!r} has shape "
                    f"{arrays[p.name].shape}, expected {p.shape}"
                )
            if not np.isfinite(arrays[p.name]).all():
                raise DataError(
                    f"checkpoint parameter {p.name!r} has non-finite values")
            p.value.data[...] = arrays[p.name]

    @classmethod
    def load_npz(cls, path: str | Path, config: ModelConfig) -> "VulnModel":
        model = cls(config, seed=0)
        model.load_values(tensor.load_params(path))
        return model.freeze()


def denormalize_lines(loc_pred: tuple[float, float],
                      line_count: int) -> tuple[int, int]:
    """Map normalized (start, end) fractions back to 1-based line numbers.

    Inverts target = (line - 0.5) / line_count with round-half-even,
    clamps into [1, line_count], and swaps if rounding inverted the pair.
    """
    if line_count < 1:
        raise ConfigError(f"line_count must be >= 1, got {line_count}")

    def to_line(fraction: float) -> int:
        return min(max(round(fraction * line_count + 0.5), 1), line_count)

    start, end = to_line(loc_pred[0]), to_line(loc_pred[1])
    if start > end:
        start, end = end, start
    return start, end


def normalize_line_range(start: int, end: int,
                         line_count: int) -> tuple[float, float]:
    """Training targets for an inclusive 1-based line range."""
    return ((start - 0.5) / line_count, (end - 0.5) / line_count)
