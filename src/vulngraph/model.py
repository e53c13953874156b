"""The network: token embedding, residual graph convolution, fused heads.

Layout per forward pass (n = number of stream positions, at most 512;
A_hat the sparse n x n operator of ``semgraph.build_graph``):

    u, inverse = unique ids (n,)                  (u: the d distinct ids)
    P = E[u] @ W_in                               (d x gcn_dim)
    H0 = P[inverse]                               (n x gcn_dim)
    layer 1:    H <- H0 + relu(A_hat @ (P @ W_1)[inverse])
    layer l>1:  H <- H + relu(A_hat @ (H @ W_l))           (residual)
    pooled_graph = mean of final H over its n rows         (1 x gcn_dim)
    pooled_embed = mean of H0                              (1 x gcn_dim)
    fused = embed_weight * pooled_embed + graph_weight * pooled_graph
    class_logits = fused @ W_cls + b_cls                   (1 x classes)
    loc_pred     = sigmoid(fused @ W_loc + b_loc)          (1 x 2)

The residual is identity-shaped because the only dimension change
(embed_dim -> gcn_dim) happens in a single input projection before the
first graph layer. A stream repeats few ids (about 64 distinct in 400
positions), so the projection, and the first layer's product with W_1,
run over the distinct rows and are gathered back per position: H0 @ W_1
equals (P @ W_1)[inverse]. Each later layer multiplies all n rows. A_hat
has a few entries per row, so each product with it costs O(n) rows, not
O(n^2). By linearity ``pooled_embed`` equals the mean embedding projected
by W_in. The embedding table is a trainable stand-in for a pretrained
encoder; since ``pooled_embed`` is a mean over tokens it is
order-invariant over the payload, an accepted desk-scale limitation.

``forward``, built from ``embed``, ``gcn_forward``, ``pooled_embedding``
and ``heads``, is the one pass that scan, attribution, validation and
training run: plain numpy, each layer checked for non-finite values. Its
output keeps P and each layer's pre-activation A_hat @ (H_l @ W_l), from
which ``backward`` gives each parameter's gradient. ``forward_nodes``
runs the same layers on the ``tensor`` tape, with no caller here: it is
the oracle that tests compare both passes with, bit for bit.

Occlusion is an input, not a mode: occluding a position means giving it
the ``<PAD>`` id, which no stream holds, and running the ordinary pass.
``occluded_probabilities`` reaches the same probabilities without a pass
per position: starting from the base pass, it follows each position's
row change through the layers as arrays of (position, row) pairs, for a
chunk of positions at a time.

``loc_pred`` regresses normalized line fractions: the target for line L
in an N-line function is (L - 0.5) / N, so the loss does not scale with
function length. ``denormalize_lines`` inverts that mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (AttributionError, ConfigError, DataError, GradientError,
                     ShapeError)
from . import tensor
from .lexer import PAD_ID
from .tensor import Matrix, Parameter, SparseOperator


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
    if not (embed_weight >= 0.0 and graph_weight >= 0.0):  # NaN fails too
        raise ConfigError(f"fusion weights must be non-negative, got "
                          f"{embed_weight} and {graph_weight}")
    if abs(embed_weight + graph_weight - 1.0) > 1e-9:
        raise ConfigError(
            f"fusion weights must sum to 1, got "
            f"{embed_weight} + {graph_weight}"
        )


def _sum_into(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + b``, written into ``a``: one array fewer than a new sum."""
    a += b
    return a


def _require_finite(where: str, *values: np.ndarray) -> None:
    if not all(np.isfinite(v).all() for v in values):
        raise GradientError(f"non-finite values in the {where}")


#: Work per chunk of ``occluded_probabilities``. Positions are grouped so
#: that each group expands to about this many (position, row) pairs at the
#: last layer, counted as walks. The pair arrays then stay cache-sized on
#: long functions and small on hub functions, whose positions each reach
#: most rows.
OCCLUSION_CHUNK_PAIRS = 2048


def _walk_counts(readers: tuple[np.ndarray, np.ndarray, np.ndarray],
                 length: int) -> np.ndarray:
    """Per row s, the number of ``length``-step walks from s that step
    from a row to one of its readers: an upper bound on the pairs that
    occluding s expands to at the last of ``length`` layers."""
    start, reader_rows, _ = readers
    n = start.size - 1
    columns = np.repeat(np.arange(n), np.diff(start))
    walks = np.ones(n)
    for _ in range(length):
        walks = np.bincount(columns, weights=walks[reader_rows], minlength=n)
    return walks


def _pooled_shifts(positions: np.ndarray, input_deltas: np.ndarray,
                   readers: tuple[np.ndarray, np.ndarray, np.ndarray],
                   layers: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
                   ) -> np.ndarray:
    """Summed change of the final H's rows for each position occluded alone.

    The changed rows are (position, row) pairs, held as sorted keys
    k * n + row with one delta row each; at H0 that is one pair per
    position. A layer expands each pair (k, s) to every reader r of s,
    weighs its delta by A[r, s] and sums by (k, r), then applies W_l
    and the relu difference against the base pre-activations. The new
    pairs include the old ones, and the residual adds each old pair's
    delta to its new self. ``layers`` holds each layer's (W_l, base
    pre-activation, its relu).
    """
    start, reader_rows, reader_weights = readers
    n = start.size - 1
    k = positions.size
    keys = np.arange(k) * n + positions
    delta = input_deltas
    for weight, mixed, relu_mixed in layers:
        rows = keys % n
        count = start[rows + 1] - start[rows]
        ends = np.cumsum(count)
        edges = (np.repeat(start[rows] - ends + count, count)
                 + np.arange(ends[-1]))
        read_keys = np.repeat(keys - rows, count) + reader_rows[edges]
        # the residual keeps every changed row, also one without the
        # self-loop that ``build_graph`` gives every row
        grown, slot = np.unique(np.concatenate([keys, read_keys]),
                                return_inverse=True)

        spread = delta[np.repeat(np.arange(keys.size), count)]
        spread *= reader_weights[edges, None]
        after = tensor.segment_sum(spread, slot[keys.size:],
                                   grown.size) @ weight
        grown_rows = grown % n
        after += mixed[grown_rows]
        grown_delta = np.maximum(after, 0.0, out=after)
        grown_delta -= relu_mixed[grown_rows]
        grown_delta[slot[:keys.size]] += delta
        keys, delta = grown, grown_delta
    return tensor.segment_sum(delta, keys // n, k)


def fuse(pooled_embed: np.ndarray, pooled_graph: np.ndarray,
         embed_weight: float, graph_weight: float) -> np.ndarray:
    """Convex combination of the two pooled feature paths."""
    _check_fusion(embed_weight, graph_weight)
    return embed_weight * pooled_embed + graph_weight * pooled_graph


@dataclass
class Forward:
    """Live tape nodes from one ``forward_nodes`` pass."""

    class_logits: Matrix
    loc_pred: Matrix
    pooled_embed: Matrix
    pooled_graph: Matrix


@dataclass(frozen=True)
class ForwardOutput:
    """Detached forward results for inference."""

    class_logits: np.ndarray
    loc_pred: tuple[float, float]
    pooled_embed: np.ndarray
    pooled_graph: np.ndarray
    # for occlusion and ``backward``: P, and each layer's A @ (H @ W)
    _projected: np.ndarray = field(compare=False, repr=False)
    _mixed: list[np.ndarray] = field(compare=False, repr=False)

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

    def __init__(self, config: ModelConfig, seed: int = 0,
                 values: dict[str, np.ndarray] | None = None):
        """Parameters drawn from ``seed``, or else taken from ``values``
        by name, which must hold exactly the config's finite arrays; the
        parameters hold those arrays themselves, not copies."""
        self.config = config
        self.frozen = False
        shapes = _parameter_shapes(config)
        if values is None:  # weights drawn in ``shapes`` order, zero biases
            rng = np.random.default_rng(seed)
            values = {name: (
                tensor.embedding_init(*shape, rng) if name == "embedding"
                else tensor.zeros(*shape) if name.endswith("_bias")
                else tensor.glorot_uniform(*shape, rng))
                for name, shape in shapes.items()}
        else:
            _check_values(shapes, values)
        (self.embedding, self.input_proj, *self.gcn_weights, self.cls_weight,
         self.cls_bias, self.loc_weight, self.loc_bias) = [
            Parameter(values[name], name) for name in shapes]

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

    def embed(self, ids: Sequence[int] | np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """The distinct ids' rows in graph space, and each position's row.

        Returns (P, inverse): row j of P is ``E[u_j] @ W_in`` for the j-th
        distinct id, and position i holds row ``inverse[i]``, so the
        stream's rows H0 are ``P[inverse]``.
        """
        distinct, inverse = self._distinct(ids)
        return self.embedding.data[distinct] @ self.input_proj.data, inverse

    def _distinct(self, ids: Sequence[int] | np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        """The distinct ids in order, and each position's index in them."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.config.vocab_size):
            raise ShapeError(
                f"token id out of range [0, {self.config.vocab_size})"
            )
        return np.unique(ids, return_inverse=True)

    def gcn_forward(self, projected: np.ndarray, inverse: np.ndarray,
                    operator: SparseOperator
                    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """The residual graph layers' final per-token features from
        ``embed``'s rows, and each layer's pre-activation A @ (H @ W).

        Callers silence numpy's overflow and invalid-value warnings: the
        results are checked here instead.
        """
        n = inverse.size
        if n == 0 or operator.n != n:
            raise ShapeError(
                f"operator over {operator.n} rows does not fit {n} tokens")
        _require_finite("input projection", projected)
        h = projected[inverse]
        mixed_per_layer = []
        for layer, weight in enumerate(self.gcn_weights):
            mixed = operator.apply((projected @ weight.data)[inverse]
                                   if layer == 0 else h @ weight.data)
            mixed_per_layer.append(mixed)
            h = _sum_into(np.maximum(mixed, 0.0), h)  # H + relu(mixed)
            # the relu would hide a -inf in ``mixed``
            _require_finite(f"layer gcn_{layer}", mixed, h)
        return h, mixed_per_layer

    def pooled_embedding(self, projected: np.ndarray,
                         inverse: np.ndarray) -> np.ndarray:
        """Mean of ``embed``'s rows over the positions; by linearity the
        mean embedding projected by W_in, so both pooled features live in
        graph space."""
        return projected[inverse].mean(axis=0)

    def heads(self, fused: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Class logits (index 0 = benign) and sigmoid line fractions."""
        class_logits = fused @ self.cls_weight.data + self.cls_bias.data
        loc_pred = tensor.logistic(
            fused @ self.loc_weight.data + self.loc_bias.data)
        _require_finite("heads", class_logits, loc_pred)
        return class_logits, loc_pred

    # -- full passes ----------------------------------------------------------

    @np.errstate(over="ignore", invalid="ignore")
    def forward(self, ids: np.ndarray,
                operator: SparseOperator) -> ForwardOutput:
        """The model's one pass, in plain numpy; ``forward_nodes`` is its
        oracle."""
        projected, inverse = self.embed(ids)
        h, mixed = self.gcn_forward(projected, inverse, operator)
        pooled_graph = h.mean(axis=0)
        pooled_embed = self.pooled_embedding(projected, inverse)
        _require_finite("pooled features", pooled_embed, pooled_graph)
        class_logits, loc_pred = self.heads(fuse(
            pooled_embed, pooled_graph, self.config.embed_weight,
            self.config.graph_weight))
        return ForwardOutput(
            class_logits=class_logits[0],
            loc_pred=(float(loc_pred[0, 0]), float(loc_pred[0, 1])),
            pooled_embed=pooled_embed,
            pooled_graph=pooled_graph,
            _projected=projected,
            _mixed=mixed,
        )

    def backward(self, ids: np.ndarray, operator: SparseOperator,
                 out: ForwardOutput, class_grad: np.ndarray,
                 loc_grad: np.ndarray | None,
                 add: Callable[[Parameter, object, np.ndarray], None]) -> None:
        """Call ``add(parameter, index, contribution)`` per parameter,
        heads first: adding each contribution into
        ``parameter.grad[index]`` adds one sample's gradient. The
        embedding's index is the distinct ids.

        ``out`` is ``forward`` on ``ids`` and ``operator``; ``class_grad``
        and ``loc_grad`` are the loss's gradients with respect to its class
        logits and line fractions (None: the loss does not read them). A
        later layer's input is recomputed from H0 and the relus of the kept
        pre-activations, and a relu's mask is its pre-activation > 0. The
        steps are the tape's in its push order, so each contribution equals
        the tape's bit for bit.
        """
        distinct, inverse = self._distinct(ids)
        embed_w, graph_w = self.config.embed_weight, self.config.graph_weight
        fused = fuse(out.pooled_embed, out.pooled_graph, embed_w,
                     graph_w).reshape(1, -1)
        g = class_grad.reshape(1, -1)
        add(self.cls_bias, ..., g)
        add(self.cls_weight, ..., fused.T @ g)
        g_fused = g @ self.cls_weight.data.T
        if loc_grad is not None:
            loc = np.array([out.loc_pred])
            g = loc_grad.reshape(1, -1) * loc * (1.0 - loc)
            add(self.loc_bias, ..., g)
            add(self.loc_weight, ..., fused.T @ g)
            g_fused = g_fused + g @ self.loc_weight.data.T

        g = np.broadcast_to(g_fused * graph_w / inverse.size,
                            (inverse.size, fused.shape[1]))
        inputs = []  # layer l's input H_l, for l >= 1
        for mixed in out._mixed[:-1]:
            inputs.append(_sum_into(np.maximum(mixed, 0.0), inputs[-1]
                                    if inputs else out._projected[inverse]))
        for layer in range(len(self.gcn_weights) - 1, 0, -1):
            weight = self.gcn_weights[layer]
            back = operator.apply_transposed(g * (out._mixed[layer] > 0))
            add(weight, ..., inputs.pop().T @ back)
            g = _sum_into(back @ weight.data.T, g)
            del back  # before the next layer's product
        # layer 1 multiplied the distinct rows, gathered per position
        weight = self.gcn_weights[0]
        back = tensor.segment_sum(
            operator.apply_transposed(g * (out._mixed[0] > 0)), inverse,
            distinct.size)
        add(weight, ..., out._projected.T @ back)
        g_projected = tensor.segment_sum(
            g + g_fused * embed_w / inverse.size, inverse, distinct.size)
        del g
        g_projected += back @ weight.data.T
        rows = self.embedding.data[distinct]
        add(self.input_proj, ..., rows.T @ g_projected)
        add(self.embedding, distinct, g_projected @ self.input_proj.data.T)

    def forward_nodes(self, ids: np.ndarray,
                      operator: SparseOperator) -> Forward:
        """``forward`` on the ``tensor`` tape, the oracle of ``forward``
        and ``backward``: per layer a ``tensor.matmul`` node for the
        product with W_l (over the distinct rows in layer 1) and a
        ``tensor.graph_layer`` node for ``H + relu(A_hat @ .)``."""
        distinct, inverse = self._distinct(ids)
        projected = tensor.matmul(
            tensor.gather_rows(self.embedding.value, distinct),
            self.input_proj.value)
        h = h0 = tensor.gather_rows(projected, inverse)
        for layer, weight in enumerate(self.gcn_weights):
            rows = projected if layer == 0 else h
            h = tensor.graph_layer(h, tensor.matmul(rows, weight.value),
                                   operator, inverse if layer == 0 else None)
        pooled_graph = tensor.mean_rows(h)
        pooled_embed = tensor.mean_rows(h0)
        fused = tensor.add(
            tensor.scale(pooled_embed, self.config.embed_weight),
            tensor.scale(pooled_graph, self.config.graph_weight))
        class_logits = tensor.add(
            tensor.matmul(fused, self.cls_weight.value), self.cls_bias.value)
        loc_pred = tensor.sigmoid(tensor.add(
            tensor.matmul(fused, self.loc_weight.value), self.loc_bias.value))
        return Forward(class_logits, loc_pred, pooled_embed, pooled_graph)

    @np.errstate(over="ignore", invalid="ignore")
    def occluded_probabilities(self, ids: np.ndarray,
                               operator: SparseOperator, target: int,
                               positions: Sequence[int],
                               base: ForwardOutput) -> np.ndarray:
        """Probability of ``target`` with each of ``positions`` occluded alone.

        Entry k equals ``forward`` on ``ids`` with ``positions[k]`` set to
        ``PAD_ID``, up to rounding; ``forward`` stays the oracle. ``base``
        is this model's ``forward`` on ``ids`` and ``operator``; its
        projected rows P and its per-layer pre-activations
        ``A @ (H_l @ W_l)`` are the starting point. Occluding position p
        changes H0 in row p only, by ``E[PAD] @ W_in - P[inverse[p]]``, and
        each layer spreads a row change to the rows that read it, so only
        the rows within ``gcn_layers`` hops of p are recomputed; the pooled
        means then move by the summed row changes over n. Positions go
        through in chunks of about ``OCCLUSION_CHUNK_PAIRS`` changed
        (position, row) pairs, held as arrays, with no Python loop per
        position.
        """
        _, inverse = self._distinct(ids)
        n = inverse.size
        # the pattern is symmetric: row s's columns are the rows reading it
        readers = operator.start, operator.cols, operator.mirror

        positions = np.asarray(positions, dtype=np.int64)
        input_deltas = (self.embedding.data[PAD_ID] @ self.input_proj.data
                        - base._projected[inverse[positions]])
        layers = [(weight.data, mixed, np.maximum(mixed, 0.0))
                  for weight, mixed in zip(self.gcn_weights, base._mixed)]
        graph_shifts = np.empty_like(input_deltas)
        work = np.cumsum(_walk_counts(readers, len(layers))[positions])
        starts = np.flatnonzero(np.diff(work // OCCLUSION_CHUNK_PAIRS,
                                        prepend=-1))
        for lo, hi in zip(starts, [*starts[1:], positions.size]):
            graph_shifts[lo:hi] = _pooled_shifts(
                positions[lo:hi], input_deltas[lo:hi], readers, layers)

        embed_w, graph_w = self.config.embed_weight, self.config.graph_weight
        fused = (embed_w * (base.pooled_embed + input_deltas / n)
                 + graph_w * (base.pooled_graph + graph_shifts / n))
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

    @classmethod
    def load_npz(cls, path: str | Path, config: ModelConfig) -> "VulnModel":
        return cls(config, values=tensor.load_params(path)).freeze()


def _parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """Each parameter's shape by name, in ``VulnModel.parameters`` order."""
    gcn, classes = config.gcn_dim, config.num_classes
    return {"embedding": (config.vocab_size, config.embed_dim),
            "input_proj": (config.embed_dim, gcn),
            **{f"gcn_{layer}": (gcn, gcn)
               for layer in range(config.gcn_layers)},
            "cls_weight": (gcn, classes), "cls_bias": (1, classes),
            "loc_weight": (gcn, 2), "loc_bias": (1, 2)}


def _check_values(shapes: dict[str, tuple[int, int]],
                  arrays: dict[str, np.ndarray]) -> None:
    """Raise DataError unless ``arrays`` holds exactly the parameters of
    ``shapes``, each of its shape and finite."""
    unexpected = set(arrays) - set(shapes)
    if unexpected:
        raise DataError(
            f"checkpoint has unexpected parameters {sorted(unexpected)}")
    for name, shape in shapes.items():
        if name not in arrays:
            raise DataError(f"checkpoint missing parameter {name!r}")
        if arrays[name].shape != shape:
            raise DataError(
                f"checkpoint parameter {name!r} has shape "
                f"{arrays[name].shape}, expected {shape}"
            )
        if not np.isfinite(arrays[name]).all():
            raise DataError(
                f"checkpoint parameter {name!r} has non-finite values")


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
