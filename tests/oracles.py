"""Test-only helpers that ``vulngraph`` itself has no use for.

``sum_all`` reduces a matrix to one differentiable scalar, so a test can
backpropagate through any op without a model loss. ``relu`` is the
elementwise op that ``tensor.graph_layer`` folds into its node; the
dense tape oracle and the tape's own tests build layers from it.
``tape_sample_loss`` is a training sample's loss on the nodes of
``VulnModel.forward_nodes``, its squared error built from the tape ops
``sub``, ``mul`` and ``mean_all``: the oracle of the numpy losses and
``VulnModel.backward``. ``loss_node`` and ``backward_node`` put a numpy
loss and its gradient on the tape, so that ``tensor.grad_check`` audits
them by finite differences.
"""

from __future__ import annotations

import numpy as np

from vulngraph import tensor
from vulngraph.model import normalize_line_range
from vulngraph.objectives import focal_loss, mse_loss
from vulngraph.tensor import Matrix, from_op
from vulngraph.trainer import _add


def sum_all(a: Matrix) -> Matrix:
    def push(g: np.ndarray) -> None:
        if a.wants_grad:
            a._accumulate(np.full_like(a.data, g[0, 0]))

    return from_op(np.array([[a.data.sum()]]), (a,), push)


def relu(a: Matrix) -> Matrix:
    mask = a.data > 0

    def push(g: np.ndarray) -> None:
        if a.wants_grad:
            a._accumulate(g * mask)

    return from_op(np.maximum(a.data, 0.0), (a,), push)


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
                  cfg) -> Matrix:
    """Focal plus squared-error loss of ``model.forward`` as a 1x1 node
    whose push is ``model.backward``, adding into the parameters'
    gradients."""
    out = model.forward(ids, operator)
    value, class_grad = focal_loss(out.class_logits, true_class, cfg)
    loc_value, loc_grad = mse_loss(out.loc_pred, loc_target)

    def push(g: np.ndarray) -> None:
        model.backward(ids, operator, out, g[0, 0] * class_grad,
                       g[0, 0] * loc_grad, _add)

    return from_op(np.array([[value + loc_value]]),
                   [p.value for p in model.parameters()], push)
