"""Parameters, the sparse graph operator, checkpoints, and the
reverse-mode tape that is the gradient oracle.

The graph operator is a ``SparseOperator``: the model's forward pass
applies it and its hand-written backward its transpose, in plain numpy.

The tape is ``Matrix`` and the ops built on ``from_op``: each op returns
a Matrix that remembers its inputs and a closure that pushes a gradient
back to them; ``backward`` on a 1x1 loss walks that history in reverse
topological order and frees each node once it has pushed, and
``graph_layer`` records a residual graph layer as one node. Nothing in
the package calls it: ``VulnModel.forward_nodes`` and ``grad_check`` keep
it as the reference that tests check the numpy passes against. Shapes
are never broadcast, and mismatches raise ShapeError naming both shapes.

Gradients are not copied on the way back. A node keeps the first array
pushed to it as its ``grad``, and that array may also be another node's
gradient (``add`` pushes one array to both parents) or a read-only view
(``mean_rows`` pushes a broadcast row). So no code writes in place into
a gradient array that its node did not allocate: a second contribution
makes a new sum, which the node then owns and may add into. Parameters
own their gradient buffers from the start.
"""

from __future__ import annotations

import math
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DataError, GradientError, ShapeError

CHECKPOINT_FORMAT_VERSION = 1


class Matrix:
    """A 2-D float64 value, optionally part of a computation graph."""

    __slots__ = ("data", "grad", "_parents", "_push", "wants_grad",
                 "_consumed", "_owns_grad")

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
        self._owns_grad = False  # may ``grad`` be written in place

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
            self.grad, self._owns_grad = g, False
        elif self._owns_grad:
            self.grad += g
        else:
            self.grad, self._owns_grad = self.grad + g, True


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
            table.grad = segment_sum(g, ids, table.rows)
        else:
            if not table._owns_grad:
                table.grad = table.grad.copy()
            np.add.at(table.grad, ids, g)
        table._owns_grad = True

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
    multiplies with BLAS.
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
            self._dense = np.zeros((self.n, self.n))
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
        self._ell_weights = np.zeros((self.n, 1, width))
        self._ell_weights[at[0], 0, at[1]] = weights[packed]
        self._ell_mirror = np.zeros((self.n, 1, width))
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
        out = np.empty((n, 1, x.shape[1]))
        step = max(1, PRODUCT_BLOCK_BYTES // max(1, width * x.shape[1] * 8))
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


def graph_layer(h: Matrix, rows: Matrix, operator: SparseOperator,
                inverse: np.ndarray | None = None) -> Matrix:
    """One residual graph layer as one node: ``h + relu(operator @ t)``.

    ``t`` is ``rows``, or ``rows[inverse]`` when the layer's product with
    its weight ran over distinct rows. ``t``, the pre-activation and its
    relu are transients: the node keeps only the relu mask. Its push
    sends ``operator.T @ (g * mask)`` to ``rows``, summed over
    ``inverse`` when given, and ``g`` to ``h``. A non-finite
    pre-activation raises GradientError, although the relu would hide a
    -inf, and so does a non-finite result.
    """
    shape = rows.shape if inverse is None else (inverse.size, rows.cols)
    if operator.n != shape[0]:
        raise ShapeError(
            f"graph_layer: operator over {operator.n} rows does not fit "
            f"{shape}")
    if shape != h.shape:
        raise ShapeError(f"graph_layer: shapes {h.shape} and {shape} differ")
    with np.errstate(over="ignore", invalid="ignore"):
        out = operator.apply(rows.data if inverse is None
                             else rows.data[inverse])
        if not np.isfinite(out).all():
            raise GradientError(
                "graph_layer: non-finite values before the relu")
        mask = out > 0
        np.maximum(out, 0.0, out=out)
        out += h.data

    def push(g: np.ndarray) -> None:
        if h.wants_grad:
            h._accumulate(g)
        if rows.wants_grad:
            back = operator.apply_transposed(g * mask)
            rows._accumulate(back if inverse is None
                             else segment_sum(back, inverse, rows.rows))

    return from_op(out, (h, rows), push)


def segment_sum(values: np.ndarray, segments: np.ndarray,
                count: int) -> np.ndarray:
    """Sums of the rows of ``values`` that share a segment id, in id order.

    Row s of the result adds the rows with segment s in their order, from
    zero, as ``np.add.at`` into zeros does.
    """
    width = values.shape[1]
    flat = (segments[:, None] * width + np.arange(width)).ravel()
    return np.bincount(flat, weights=values.ravel(),
                       minlength=count * width).reshape(count, width)


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


class Parameter:
    """A named, trainable matrix with a persistent gradient buffer."""

    def __init__(self, value, name: str):
        self.value = value if isinstance(value, Matrix) else Matrix(value)
        self.value.wants_grad = True
        self.value.grad = np.zeros_like(self.value.data)
        self.value._owns_grad = True
        self.name = name

    @property
    def data(self) -> np.ndarray:
        return self.value.data

    @property
    def grad(self) -> np.ndarray:
        return self.value.grad

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.value.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


# -- initialization ----------------------------------------------------------

def glorot_uniform(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def embedding_init(rows: int, cols: int, rng: np.random.Generator,
                   std: float = 0.02) -> np.ndarray:
    return rng.normal(0.0, std, size=(rows, cols))


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols))


# -- checkpointing -----------------------------------------------------------

def save_params(path: str | Path, params: Iterable[Parameter]) -> None:
    """Write parameters to an .npz container; round-trips bit-exactly."""
    arrays = {"__format_version__": np.array([CHECKPOINT_FORMAT_VERSION])}
    for p in params:
        if p.name in arrays:
            raise GradientError(f"duplicate parameter name {p.name!r}")
        arrays[p.name] = p.data
    np.savez(path, **arrays)


def load_params(path: str | Path) -> dict[str, np.ndarray]:
    """Read a container written by ``save_params``.

    Raises DataError when the file is not one: not an .npz archive,
    truncated or corrupt, without a supported format version, or holding
    entries that are not numeric arrays.
    """
    # Own the handle: np.load leaks it when the zip directory is unreadable.
    with open(path, "rb") as handle:
        try:
            archive = np.load(handle)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise DataError(f"{path} is not an .npz parameter archive")
            version = int(archive["__format_version__"][0])
            if version != CHECKPOINT_FORMAT_VERSION:
                raise DataError(
                    f"unsupported checkpoint format version {version}"
                )
            return {
                name: np.asarray(archive[name], dtype=np.float64)
                for name in archive.files if name != "__format_version__"
            }
        except (KeyError, IndexError, ValueError, OSError, EOFError,
                zipfile.BadZipFile, zlib.error) as exc:
            raise DataError(
                f"unreadable parameter file {path}: {exc!r}") from exc


# -- finite-difference gradient checking -------------------------------------

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


def grad_check(f: Callable[[], Matrix], params: Sequence[Parameter],
               h: float = 1e-5, tol: float = 1e-4,
               max_coords_per_param: int | None = None,
               rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` rebuilds the loss from the parameters' current values on every
    call. Coordinates where the two one-sided slopes disagree are treated
    as sitting within ``h`` of a kink (e.g. relu at 0) and skipped rather
    than failed; the report counts them.
    """
    for p in params:
        p.zero_grad()
    loss = f()
    base = loss.item()
    if not math.isfinite(base):
        raise GradientError("grad_check: loss is not finite")
    backward(loss)
    analytic = {p.name: p.grad.copy() for p in params}

    def eval_at(p: Parameter, i: int, j: int, value: float) -> float:
        original = p.data[i, j]
        p.data[i, j] = value
        try:
            out = f().item()
        finally:
            p.data[i, j] = original
        if not math.isfinite(out):
            raise GradientError("grad_check: perturbed loss is not finite")
        return out

    max_rel = 0.0
    checked = 0
    skipped = 0
    per_param: dict[str, float] = {}
    for p in params:
        coords = [(i, j) for i in range(p.shape[0]) for j in range(p.shape[1])]
        if max_coords_per_param is not None and len(coords) > max_coords_per_param:
            picker = rng or np.random.default_rng(0)
            chosen = picker.choice(len(coords), size=max_coords_per_param,
                                   replace=False)
            coords = [coords[int(c)] for c in sorted(chosen)]
        worst = 0.0
        for i, j in coords:
            theta = p.data[i, j]
            f_plus = eval_at(p, i, j, theta + h)
            f_minus = eval_at(p, i, j, theta - h)
            slope_plus = (f_plus - base) / h
            slope_minus = (base - f_minus) / h
            if abs(slope_plus - slope_minus) > 1e-2 * max(
                    1.0, abs(slope_plus), abs(slope_minus)):
                skipped += 1  # within h of a kink
                continue
            fd = (f_plus - f_minus) / (2.0 * h)
            a = analytic[p.name][i, j]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
            worst = max(worst, rel)
            checked += 1
        per_param[p.name] = worst
        max_rel = max(max_rel, worst)
    return GradCheckReport(max_rel_error=max_rel, tol=tol, n_checked=checked,
                           n_skipped=skipped, per_param=per_param)
