"""The sparse graph operator, and the reverse-mode tape that is the
gradient oracle.

The graph operator is a ``SparseOperator``: the model's forward pass
applies it and its hand-written backward its transpose, in plain numpy.
Its products and ``segment_sum``, which adds its remainder and the
model's gradients by row, hold their input and output and one block of
scratch: a product gathers ``PRODUCT_BLOCK_BYTES`` of rows at a time,
and a segment sum indexes ``SEGMENT_BLOCK`` columns at a time.

The tape is ``Matrix`` and the primitive ops built on ``from_op``: each
op returns a Matrix that remembers its inputs and a closure that pushes
a gradient back to them; ``backward`` on a 1x1 loss walks that history
in reverse topological order and frees each node once it has pushed.
``leaf`` puts a parameter's array on the tape, and the leaf keeps its
gradient. Nothing in the package calls it: ``VulnModel.forward_nodes``
keeps it as the reference that tests check the numpy passes against.
Shapes are never broadcast, and mismatches raise ShapeError naming both
shapes. A node copies the first gradient pushed to it and adds any later
one in place, so no op writes into an array that another node or a view
also holds.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import GradientError, ShapeError


class Matrix:
    """A 2-D float64 value, optionally part of a computation graph."""

    __slots__ = ("data", "grad", "_parents", "_push", "wants_grad",
                 "_consumed")

    def __init__(self, data, *, wants_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ShapeError(f"Matrix must be 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise GradientError("Matrix entries must be finite")
        self.data = arr
        self.grad: np.ndarray | None = None
        self._parents: tuple[Matrix, ...] = ()
        self._push: Callable[[np.ndarray], None] | None = None
        self.wants_grad = wants_grad
        self._consumed = False

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a 1x1 matrix, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Matrix(shape={self.shape})"

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g)
        else:
            self.grad += g


def from_op(data: np.ndarray, parents: Sequence[Matrix],
            push: Callable[[np.ndarray], None]) -> Matrix:
    """Wrap an op result so gradients can flow back to ``parents``.

    ``push`` receives the upstream gradient and is responsible for
    calling ``_accumulate`` on whichever parents want gradients.
    """
    out = Matrix(data)
    out.wants_grad = any(p.wants_grad for p in parents)
    if out.wants_grad:
        out._parents = tuple(parents)
        out._push = push
    return out


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")

    def push(g: np.ndarray) -> None:
        if a.wants_grad:
            a._accumulate(g @ b.data.T)
        if b.wants_grad:
            b._accumulate(a.data.T @ g)

    return from_op(a.data @ b.data, (a, b), push)


def add(a: Matrix, b: Matrix) -> Matrix:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")

    def push(g: np.ndarray) -> None:
        if a.wants_grad:
            a._accumulate(g)
        if b.wants_grad:
            b._accumulate(g)

    return from_op(a.data + b.data, (a, b), push)


def scale(a: Matrix, factor: float) -> Matrix:
    def push(g: np.ndarray) -> None:
        if a.wants_grad:
            a._accumulate(g * factor)

    return from_op(a.data * factor, (a,), push)


def relu(a: Matrix) -> Matrix:
    mask = a.data > 0

    def push(g: np.ndarray) -> None:
        if a.wants_grad:
            a._accumulate(g * mask)

    return from_op(np.maximum(a.data, 0.0), (a,), push)


def logistic(x: np.ndarray) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-x)); exp only sees -|x|, so cannot overflow."""
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def sigmoid(a: Matrix) -> Matrix:
    out = logistic(a.data)

    def push(g: np.ndarray) -> None:
        if a.wants_grad:
            a._accumulate(g * out * (1.0 - out))

    return from_op(out, (a,), push)


def mean_rows(a: Matrix) -> Matrix:
    """Mean over all rows; result is 1 x cols."""
    if a.rows == 0:
        raise ShapeError("mean_rows: no rows to average")

    def push(g: np.ndarray) -> None:
        if a.wants_grad:
            a._accumulate(np.broadcast_to(g / a.rows, a.shape))

    return from_op(a.data.mean(axis=0, keepdims=True), (a,), push)


def gather_rows(table: Matrix, ids: np.ndarray) -> Matrix:
    """Row lookup: result row i is ``table`` row ``ids[i]``."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"gather_rows: ids must be 1-D, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.rows):
        raise ShapeError(
            f"gather_rows: id out of range [0, {table.rows}): "
            f"min {ids.min()}, max {ids.max()}"
        )

    def push(g: np.ndarray) -> None:
        if not table.wants_grad:
            return
        if table.grad is None:
            # in float64 without ``segment_sum``, whose sums the tape checks
            grad = np.zeros((table.rows, g.shape[1]))
            np.add.at(grad, ids, g)
            table.grad = grad.astype(g.dtype, copy=False)
        else:
            np.add.at(table.grad, ids, g)

    return from_op(table.data[ids], (table,), push)


#: Widest padded neighbour list of a ``SparseOperator``. A row's entries
#: past it go to the remainder, so one hub row does not widen every row.
OPERATOR_WIDTH = 8
#: Largest n whose products run on a dense n x n copy of the entries, at
#: most 72 KiB. Up to about 100 rows a BLAS product is cheaper to set up
#: and to run than the padded neighbour lists (measured at widths 48 and
#: 512); short functions, such as a scan's typical 40-70 tokens, take it.
DENSE_ROWS = 96
#: Bytes of gathered rows that one call of a product holds. A short
#: function's product takes one call; a long one runs in row blocks whose
#: gathered rows stay cache-sized.
PRODUCT_BLOCK_BYTES = 2**18
#: Columns that one ``np.bincount`` of ``segment_sum`` adds, so its flat
#: index and float64 weights hold n x 64 entries, not n x width. On a
#: 2-core host, a 512 x 512 float32 input summed into 70 segments took
#: 0.63-0.76 ms against 2.1-2.5 ms as one call over all columns (300 x
#: 512: 0.39-0.44 against 0.49-0.59 ms), and traced 0.80 MiB against 4.27
#: MiB. Of blocks of 16 to 256 columns, 64 was about the fastest.
SEGMENT_BLOCK = 64


class SparseOperator:
    """An n x n matrix whose nonzero pattern is symmetric, stored by rows.

    Row r's entries are ``cols[start[r]:start[r + 1]]`` in ascending
    order, with ``weights`` holding A[r, c] and ``mirror`` holding
    A[c, r]. The pattern is symmetric, so the same lists give each
    column: ``cols[start[s]:start[s + 1]]`` are also the rows that read
    row s, and ``mirror`` their A[r, s].

    Products run over padded neighbour lists, the ELL format: each row's
    first ``OPERATOR_WIDTH`` entries sit in an (n, k) array, padded with
    weight 0, and the entries past that width form a remainder that is
    added by segment sums. Memory is O(n + entries). An operator of at
    most ``DENSE_ROWS`` rows keeps a dense copy of its entries instead and
    multiplies with BLAS. Entries and products are in the dtype of
    ``weights``.
    """

    __slots__ = ("n", "start", "cols", "weights", "mirror", "_dense",
                 "_ell_cols", "_ell_weights", "_ell_mirror", "_rest_cols",
                 "_rest_weights", "_rest_mirror", "_rest_rows",
                 "_rest_segments")

    def __init__(self, start: np.ndarray, cols: np.ndarray,
                 weights: np.ndarray, mirror: np.ndarray):
        self.n = start.size - 1
        self.start, self.cols = start, cols
        self.weights, self.mirror = weights, mirror
        count = np.diff(start)
        rows = np.repeat(np.arange(self.n), count)
        self._dense = None
        if self.n <= DENSE_ROWS:
            self._dense = np.zeros((self.n, self.n), dtype=weights.dtype)
            self._dense[rows, cols] = weights
            return
        width = min(int(count.max(initial=0)), OPERATOR_WIDTH)
        slot = np.arange(cols.size) - start[rows]
        packed = slot < width
        at = rows[packed], slot[packed]
        # padding reads the row itself with weight 0; the weights are
        # (n, 1, width), the left operand of a batched matmul
        self._ell_cols = np.repeat(np.arange(self.n)[:, None], width, axis=1)
        self._ell_cols[at] = cols[packed]
        self._ell_weights = np.zeros((self.n, 1, width), dtype=weights.dtype)
        self._ell_weights[at[0], 0, at[1]] = weights[packed]
        self._ell_mirror = np.zeros((self.n, 1, width), dtype=weights.dtype)
        self._ell_mirror[at[0], 0, at[1]] = mirror[packed]
        # a row's entries past the width follow each other
        rest = ~packed
        self._rest_cols = cols[rest]
        self._rest_weights = weights[rest]
        self._rest_mirror = mirror[rest]
        self._rest_rows = np.flatnonzero(count > width)
        self._rest_segments = np.repeat(np.arange(self._rest_rows.size),
                                        count[self._rest_rows] - width)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The product A @ x."""
        if self._dense is not None:
            return self._dense @ x
        return self._product(x, self._ell_weights, self._rest_weights)

    def apply_transposed(self, x: np.ndarray) -> np.ndarray:
        """The product A.T @ x, read from the mirrored entries."""
        if self._dense is not None:
            return self._dense.T @ x
        return self._product(x, self._ell_mirror, self._rest_mirror)

    def _product(self, x: np.ndarray, ell: np.ndarray,
                 rest: np.ndarray) -> np.ndarray:
        n, width = self._ell_cols.shape
        out = np.empty((n, 1, x.shape[1]), dtype=x.dtype)
        step = max(1, PRODUCT_BLOCK_BYTES
                   // max(1, width * x.shape[1] * x.itemsize))
        for lo in range(0, n, step):
            hi = lo + step
            np.matmul(ell[lo:hi], np.take(x, self._ell_cols[lo:hi], axis=0),
                      out=out[lo:hi])
        out = out.reshape(n, x.shape[1])
        if rest.size:
            out[self._rest_rows] += segment_sum(
                rest[:, None] * x[self._rest_cols], self._rest_segments,
                self._rest_rows.size)
        return out


def apply(operator: SparseOperator, a: Matrix) -> Matrix:
    """The sparse product ``operator @ a``; its push applies the
    transpose."""
    if operator.n != a.rows:
        raise ShapeError(f"apply: operator over {operator.n} rows does not "
                         f"fit {a.shape}")

    def push(g: np.ndarray) -> None:
        if a.wants_grad:
            a._accumulate(operator.apply_transposed(g))

    return from_op(operator.apply(a.data), (a,), push)


def segment_sum(values: np.ndarray, segments: np.ndarray,
                count: int) -> np.ndarray:
    """Sums of the rows of ``values`` that share a segment id, in id order.

    Row s of the result adds the rows with segment s in their order, from
    zero, as ``np.add.at`` into zeros does, in float64; the sums are
    returned in the values' dtype.

    One ``np.bincount`` adds ``SEGMENT_BLOCK`` columns at a time, over one
    block-sized flat index, so neither that index nor bincount's float64
    copy of the values grows with the width. Each (segment, column) sum
    still adds the same rows in the same order, so blocking keeps its
    bits. Where one block is the whole width, bincount's sums are the
    result, cast at most once.
    """
    width = values.shape[1]
    block = min(width, SEGMENT_BLOCK)
    flat = (segments[:, None] * block + np.arange(block)).ravel()
    if block == width:
        return np.bincount(flat, weights=values.ravel(),
                           minlength=count * width).reshape(
            count, width).astype(values.dtype, copy=False)
    out = np.empty((count, width), dtype=values.dtype)
    for lo in range(0, width, SEGMENT_BLOCK):
        part = values[:, lo:lo + block]
        if part.shape[1] < block:  # the last, narrower block
            flat = (segments[:, None] * part.shape[1]
                    + np.arange(part.shape[1])).ravel()
        out[:, lo:lo + block] = np.bincount(
            flat, weights=part.ravel(), minlength=count * part.shape[1]
        ).reshape(count, part.shape[1])
    return out


def backward(loss: Matrix) -> None:
    """Populate gradients of everything reachable from a 1x1 loss.

    Nodes push in reverse topological order, and each one drops its
    gradient, closure and inputs right after its push, so the walk frees
    the history as it goes: an intermediate's value lasts until the last
    node that reads it has pushed. Leaves (parameters and constants) keep
    their gradients. Calling backward a second time on the same loss
    raises.
    """
    if loss.shape != (1, 1):
        raise ShapeError(f"backward needs a 1x1 loss, got {loss.shape}")
    if loss._consumed:
        raise GradientError("backward already called on this loss")
    loss._consumed = True
    if not loss.wants_grad:
        return  # loss does not depend on any parameter

    order: list[Matrix] = []
    seen: set[int] = set()
    stack: list[tuple[Matrix, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.wants_grad and id(parent) not in seen:
                stack.append((parent, False))

    loss._accumulate(np.ones((1, 1)))
    while order:
        node = order.pop()
        if node._push is not None:
            node._push(node.grad)
            node._push, node._parents, node.grad = None, (), None


def leaf(values: np.ndarray) -> Matrix:
    """A parameter's array on the tape: a Matrix over ``values`` whose
    gradient, once ``backward`` has run, is the parameter's."""
    return Matrix(values, wants_grad=True)


# -- initialization ----------------------------------------------------------

def glorot_uniform(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def embedding_init(rows: int, cols: int, rng: np.random.Generator,
                   std: float = 0.02) -> np.ndarray:
    return rng.normal(0.0, std, size=(rows, cols))
