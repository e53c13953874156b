"""Dense float64 matrices with reverse-mode differentiation.

Every operation returns a new Matrix that remembers its inputs and a
closure that pushes an incoming gradient back to them; ``backward`` on a
1x1 loss walks that history in reverse topological order. The sizes this
package works with are small enough that plain numpy plus a Python tape
is fast, and float64 keeps the finite-difference checks tight.

Shapes are never broadcast: operands must conform exactly, and shape
mismatches raise ShapeError naming both shapes.
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

    __slots__ = ("data", "grad", "_parents", "_push", "wants_grad", "_consumed")

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
            self.grad = g.copy()
        else:
            self.grad += g


def from_op(data: np.ndarray, parents: Sequence[Matrix],
            push: Callable[[np.ndarray], None]) -> Matrix:
    """Wrap an op result so gradients can flow back to ``parents``.

    ``push`` receives the upstream gradient and is responsible for
    calling ``_accumulate`` on whichever parents want gradients. Shared
    between this module and the loss functions built on top of it.
    """
    out = Matrix(data)
    out.wants_grad = any(p.wants_grad for p in parents)
    if out.wants_grad:
        out._parents = tuple(parents)
        out._push = push
    return out


def _require_same_shape(a: Matrix, b: Matrix, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


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
    _require_same_shape(a, b, "add")

    def push(g: np.ndarray) -> None:
        if a.wants_grad:
            a._accumulate(g)
        if b.wants_grad:
            b._accumulate(g)

    return from_op(a.data + b.data, (a, b), push)


def sub(a: Matrix, b: Matrix) -> Matrix:
    _require_same_shape(a, b, "sub")

    def push(g: np.ndarray) -> None:
        if a.wants_grad:
            a._accumulate(g)
        if b.wants_grad:
            b._accumulate(-g)

    return from_op(a.data - b.data, (a, b), push)


def mul(a: Matrix, b: Matrix) -> Matrix:
    """Elementwise (Hadamard) product."""
    _require_same_shape(a, b, "mul")

    def push(g: np.ndarray) -> None:
        if a.wants_grad:
            a._accumulate(g * b.data)
        if b.wants_grad:
            b._accumulate(g * a.data)

    return from_op(a.data * b.data, (a, b), push)


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

    return from_op(np.where(mask, a.data, 0.0), (a,), push)


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


def sum_all(a: Matrix) -> Matrix:
    def push(g: np.ndarray) -> None:
        if a.wants_grad:
            a._accumulate(np.full_like(a.data, g[0, 0]))

    return from_op(np.array([[a.data.sum()]]), (a,), push)


def mean_all(a: Matrix) -> Matrix:
    size = a.data.size

    def push(g: np.ndarray) -> None:
        if a.wants_grad:
            a._accumulate(np.full_like(a.data, g[0, 0] / size))

    return from_op(np.array([[a.data.mean()]]), (a,), push)


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
        if table.wants_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids, g)

    return from_op(table.data[ids], (table,), push)


def backward(loss: Matrix) -> None:
    """Populate gradients of everything reachable from a 1x1 loss.

    The recorded history is released afterwards, so calling backward a
    second time on the same loss raises.
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
    for node in reversed(order):
        if node._push is not None:
            node._push(node.grad)
    # Release the tape so intermediates can be collected; leaf (parameter)
    # gradients stay in place until explicitly zeroed.
    for node in order:
        if node._push is not None:
            node._push = None
            node._parents = ()
            node.grad = None


class Parameter:
    """A named, trainable matrix with a persistent gradient buffer."""

    def __init__(self, value, name: str):
        self.value = value if isinstance(value, Matrix) else Matrix(value)
        self.value.wants_grad = True
        self.value.grad = np.zeros_like(self.value.data)
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
                name: archive[name].astype(np.float64)
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
