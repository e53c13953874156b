"""Test-only helpers that ``vulngraph`` itself has no use for.

``sum_all`` reduces a matrix to one differentiable scalar, so a test can
backpropagate through any op without a model loss. ``relu`` is the
elementwise op that ``tensor.graph_layer`` folds into its node; the
dense tape oracle and the tape's own tests build layers from it.
"""

from __future__ import annotations

import numpy as np

from vulngraph.tensor import Matrix, from_op


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
