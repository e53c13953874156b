"""Test-only helpers that ``vulngraph`` itself has no use for.

``sum_all`` reduces a matrix to one differentiable scalar, so a test can
backpropagate through any op without a model loss.
``tape_sample_loss`` is a training sample's loss on the nodes of
``VulnModel.forward_nodes``, its squared error built from the tape ops
``sub``, ``mul`` and ``mean_all``: the oracle of the numpy losses and
``VulnModel.backward``. ``loss_node`` and ``backward_node`` put a numpy
loss and its gradient on the tape, so that ``grad_check`` audits them by
finite differences against the gradients that the tape or ``backward``
leaves on the parameters' leaf nodes.

``occluded_by_forward_loop`` runs one full forward per occluded token:
the oracle of ``VulnModel.occluded_probabilities``. ``shapley_oracle``
computes exact Shapley values by enumerating all present/occluded
coalitions of payload tokens, at most ``ORACLE_MAX_TOKENS`` of them, to
validate that the cheap occlusion scores rank tokens consistently with
the game-theoretic ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from vulngraph import tensor
from vulngraph.attribution import _payload_positions, _target_prob
from vulngraph.errors import AttributionError, GradientError
from vulngraph.model import normalize_line_range
from vulngraph.objectives import focal_loss, mse_loss
from vulngraph.semgraph import model_inputs
from vulngraph.tensor import Matrix, from_op


def sum_all(a: Matrix) -> Matrix:
    def push(g: np.ndarray) -> None:
        if a.wants_grad:
            a._accumulate(np.full_like(a.data, g[0, 0]))

    return from_op(np.array([[a.data.sum()]]), (a,), push)


def sub(a: Matrix, b: Matrix) -> Matrix:
    def push(g: np.ndarray) -> None:
        if a.wants_grad:
            a._accumulate(g)
        if b.wants_grad:
            b._accumulate(-g)

    return from_op(a.data - b.data, (a, b), push)


def mul(a: Matrix, b: Matrix) -> Matrix:
    """Elementwise (Hadamard) product."""
    def push(g: np.ndarray) -> None:
        if a.wants_grad:
            a._accumulate(g * b.data)
        if b.wants_grad:
            b._accumulate(g * a.data)

    return from_op(a.data * b.data, (a, b), push)


def mean_all(a: Matrix) -> Matrix:
    size = a.data.size

    def push(g: np.ndarray) -> None:
        if a.wants_grad:
            a._accumulate(np.full_like(a.data, g[0, 0] / size))

    return from_op(np.array([[a.data.mean()]]), (a,), push)


def loss_node(value: float, grad: np.ndarray, x: Matrix) -> Matrix:
    """A loss of ``x`` with the given value and gradient, as a 1x1 node."""
    def push(g: np.ndarray) -> None:
        if x.wants_grad:
            x._accumulate(g[0, 0] * grad.reshape(x.shape))

    return from_op(np.array([[value]]), (x,), push)


def tape_sample_loss(class_logits: Matrix, loc_pred: Matrix, sample,
                     cfg) -> Matrix:
    """A training sample's loss on the tape, from its head nodes.

    The focal term pushes the gradient that ``focal_loss`` returns; the
    squared error is built from ``sub``, ``mul`` and ``mean_all``.
    """
    focal = loss_node(*focal_loss(class_logits.data[0], sample.label,
                                  cfg.focal), class_logits)
    loss = tensor.scale(focal, cfg.w_cls)
    if sample.truth_range is not None:
        target = Matrix([normalize_line_range(*sample.truth_range,
                                              sample.line_count)])
        diff = sub(loc_pred, target)
        loss = tensor.add(loss, tensor.scale(mean_all(mul(diff, diff)),
                                             cfg.w_loc))
    return loss


def backward_node(model, ids, operator, true_class, loc_target,
                  cfg) -> tuple[Matrix, dict[str, Matrix]]:
    """Focal plus squared-error loss of ``model.forward`` as a 1x1 node
    whose push is ``model.backward``, and a leaf per parameter, by name,
    into whose gradient that push adds."""
    out = model.forward(ids, operator)
    value, class_grad = focal_loss(out.class_logits, true_class, cfg)
    loc_value, loc_grad = mse_loss(out.loc_pred, loc_target)
    leaves = {name: tensor.leaf(values)
              for name, values in model.params.items()}

    def add(name: str, index, contribution: np.ndarray) -> None:
        node = leaves[name]
        if node.grad is None:
            node.grad = np.zeros(node.shape)
        node.grad[index] += contribution

    def push(g: np.ndarray) -> None:
        model.backward(out, g[0, 0] * class_grad, g[0, 0] * loc_grad, add)

    return from_op(np.array([[value + loc_value]]), list(leaves.values()),
                   push), leaves


@dataclass
class GradCheckReport:
    """Outcome of comparing analytic gradients to central differences."""

    max_rel_error: float
    tol: float
    n_checked: int
    n_skipped: int
    per_param: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol


def grad_check(f: Callable[[], tuple[Matrix, dict[str, Matrix]]],
               params: dict[str, np.ndarray],
               h: float = 1e-5, tol: float = 1e-4,
               max_coords_per_param: int | None = None,
               rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` rebuilds the loss from the current values of ``params``, the
    arrays by name, on every call, and returns it with a leaf node per
    name; ``tensor.backward`` on the loss leaves the analytic gradients
    on those leaves (none: zero). Coordinates where the two one-sided
    slopes disagree are treated as sitting within ``h`` of a kink (e.g.
    relu at 0) and skipped rather than failed; the report counts them.
    """
    loss, leaves = f()
    base = loss.item()
    if not math.isfinite(base):
        raise GradientError("grad_check: loss is not finite")
    tensor.backward(loss)
    analytic = {name: np.zeros(values.shape) if leaves[name].grad is None
                else leaves[name].grad for name, values in params.items()}

    def eval_at(values: np.ndarray, i: int, j: int, value: float) -> float:
        original = values[i, j]
        values[i, j] = value
        try:
            out = f()[0].item()
        finally:
            values[i, j] = original
        if not math.isfinite(out):
            raise GradientError("grad_check: perturbed loss is not finite")
        return out

    max_rel = 0.0
    checked = 0
    skipped = 0
    per_param: dict[str, float] = {}
    for name, values in params.items():
        rows, cols = values.shape
        coords = [(i, j) for i in range(rows) for j in range(cols)]
        if max_coords_per_param is not None and len(coords) > max_coords_per_param:
            picker = rng or np.random.default_rng(0)
            chosen = picker.choice(len(coords), size=max_coords_per_param,
                                   replace=False)
            coords = [coords[int(c)] for c in sorted(chosen)]
        worst = 0.0
        for i, j in coords:
            theta = values[i, j]
            f_plus = eval_at(values, i, j, theta + h)
            f_minus = eval_at(values, i, j, theta - h)
            slope_plus = (f_plus - base) / h
            slope_minus = (base - f_minus) / h
            if abs(slope_plus - slope_minus) > 1e-2 * max(
                    1.0, abs(slope_plus), abs(slope_minus)):
                skipped += 1  # within h of a kink
                continue
            fd = (f_plus - f_minus) / (2.0 * h)
            a = analytic[name][i, j]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
            worst = max(worst, rel)
            checked += 1
        per_param[name] = worst
        max_rel = max(max_rel, worst)
    return GradCheckReport(max_rel_error=max_rel, tol=tol, n_checked=checked,
                           n_skipped=skipped, per_param=per_param)


#: Payload-size cap for exact coalition enumeration.
ORACLE_MAX_TOKENS = 12


def occluded_by_forward_loop(model, base, target, payload) -> np.ndarray:
    """``occluded_probabilities`` by one full ``model.forward`` per
    payload position of ``base``'s inputs, with only that position
    occluded."""
    inputs = base.ids, base.operator
    return np.array([_target_prob(model, inputs, target, [position])
                     for position in payload])


def shapley_oracle(model, stream, vocab) -> np.ndarray:
    """Exact Shapley value per payload token (test-scale only).

    The coalition value is the predicted class's probability with the
    coalition's tokens present and everything else occluded. Satisfies
    efficiency: the values sum to f(all present) - f(all occluded).
    """
    payload = _payload_positions(stream)
    n = len(payload)
    if n > ORACLE_MAX_TOKENS:
        raise AttributionError(
            f"oracle enumerates 2^n coalitions; {n} payload tokens exceed "
            f"the cap of {ORACLE_MAX_TOKENS}")
    inputs = model_inputs(stream, vocab)
    target = int(np.argmax(model.forward(*inputs).probabilities))

    values: dict[int, float] = {}
    for subset in range(1 << n):
        occlude = [payload[i] for i in range(n) if not subset & (1 << i)]
        values[subset] = _target_prob(model, inputs, target, occlude)

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
