"""Deterministic multitask training: focal classification + MSE localization.

Per sample the loss is ``w_cls * focal + w_loc * mse``, where the MSE
term exists only for vulnerable-labeled samples (benign functions have
no line range to regress, so they contribute zero gradient to the
localization head). Batches are shuffled per epoch from the run seed and
processed in a fixed order, so a (config, seed) pair reproduces the same
parameter trajectory bit for bit.

A batch's loss is the mean of its samples' losses. Each sample runs
``VulnModel.forward``, the pass inference runs; the numpy objectives give
its loss and gradients, and ``VulnModel.backward`` each parameter's
contribution, added in sample order, so one sample's arrays are alive at
a time; Adam then steps once per batch. Validation runs the same
``forward``, and its loss and metrics both read that output. A
fusion-ratio sweep prepares the samples once and trains one model per
ratio from them.

Training runs on one process per usable CPU (at most one per sample of
a batch): the training process and helpers forked from it once per run,
which hold every sample already. Each runs the same epoch and batch
loop: sample j of a batch and validation sample j run in process
j mod N, and each process steps Adam on its own slice of the parameters.
The gradients are added in sample order and the update is elementwise,
so the log and the parameters are the same bit for bit at any CPU count.
Where the platform cannot fork, training runs in one process.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import cpus, tensor
from .corpus import (BINARY_VULNERABLE_LABEL, DatasetSplit, FunctionRecord,
                     default_catalog, select)
from .errors import ConfigError, DataError, GradientError, TrainingError
from .lexer import TokenStream, Vocabulary, build_vocab, tokenize
from .model import (ForwardOutput, ModelConfig, VulnModel, denormalize_lines,
                    normalize_line_range)
from .objectives import (FocalConfig, MetricsReport, classification_metrics,
                         focal_loss, iou_1d, mse_loss)
from .semgraph import build_graph, model_inputs
from .tensor import SparseOperator


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 6e-6
    batch_size: int = 8
    seed: int = 0
    w_cls: float = 1.0
    w_loc: float = 1.0
    focal: FocalConfig = field(default_factory=FocalConfig)
    optimizer: str = "adam"  # the only optimizer; configs name it
    min_count: int = 1  # vocabulary threshold

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        # 0 is allowed so a no-op run can serve as a determinism probe.
        if not 0.0 <= self.learning_rate < math.inf:  # NaN fails too
            raise ConfigError(
                f"learning_rate must be finite and >= 0, got "
                f"{self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 <= self.w_cls < math.inf and 0.0 <= self.w_loc < math.inf):
            raise ConfigError(
                f"loss weights must be finite and >= 0, got w_cls="
                f"{self.w_cls}, w_loc={self.w_loc}")
        if self.optimizer != "adam":
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")


#: Elements of the flat parameter vector that ``Adam.step`` updates at a
#: time. Its two scratch blocks take 1 MiB, and a block's operands are
#: reread from cache.
ADAM_BLOCK = 2**16
#: Adam's decay rates of the two moments, and the term that keeps its
#: division finite.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adaptive update (``ADAM_BETA1``, ``ADAM_BETA2``, ``ADAM_EPS``) of
    the ``part`` slice of the flat parameter vector laid out by ``_share``.

    ``state`` holds four rows over that vector: the values, the
    gradients and the two moments. The update is elementwise, so the
    bits do not depend on where the slices break: each training process
    steps its own slice, and one process steps the whole vector.
    """

    def __init__(self, state: np.ndarray, lr: float, part: slice = slice(None)):
        self.values, self.grads, self.m, self.v = state[:, part]
        self.lr = lr
        self.t = 0
        self._scratch = np.empty((2, min(ADAM_BLOCK, self.values.size)))

    def step(self) -> None:
        """Update the slice in place, a block at a time, and zero its
        gradients.

        Per element this runs ``m = b1*m + (1-b1)*g``,
        ``v = b2*v + (1-b2)*g*g`` and ``p -= lr * m_hat / (sqrt(v_hat) +
        eps)``, with ``m_hat = m / (1-b1^t)`` and ``v_hat = v / (1-b2^t)``,
        as the same operations in the same order, so the values are equal
        bit for bit. Only the slice and two scratch blocks are written; an
        empty slice steps nothing.
        """
        self.t += 1
        m_scale = 1 - ADAM_BETA1 ** self.t
        v_scale = 1 - ADAM_BETA2 ** self.t
        for lo in range(0, self.values.size, ADAM_BLOCK):
            at = slice(lo, lo + ADAM_BLOCK)
            g, m, v, x = self.grads[at], self.m[at], self.v[at], self.values[at]
            a, b = self._scratch[:, :g.size]
            m *= ADAM_BETA1
            m += np.multiply(g, 1 - ADAM_BETA1, out=a)
            np.multiply(g, 1 - ADAM_BETA2, out=a)
            a *= g
            v *= ADAM_BETA2
            v += a
            np.divide(v, v_scale, out=a)
            np.sqrt(a, out=a)
            a += ADAM_EPS
            np.divide(m, m_scale, out=b)
            b *= self.lr
            b /= a
            x -= b
            g[...] = 0.0


@dataclass(frozen=True)
class EncodedSample:
    """A record made model-ready: its stream's n ids and their operator.

    The operator is the graph's ``SparseOperator``, which holds O(n)
    entries: a sample holds no n x n array, except the dense copy of at
    most ``tensor.DENSE_ROWS`` rows that a short function's operator keeps.
    """

    ids: np.ndarray
    operator: SparseOperator
    label: int
    line_count: int
    truth_range: tuple[int, int] | None


def label_index(record: FunctionRecord, num_classes: int) -> int:
    """Class index for a record: 0 benign, 1..10 by catalog, 1 in binary mode."""
    if record.cwe is None:
        return 0
    if num_classes == 2:
        return 1
    if record.cwe == BINARY_VULNERABLE_LABEL:
        raise DataError(
            f"record {record.id!r} carries the class-free label "
            f"{BINARY_VULNERABLE_LABEL!r}; use a binary (num_classes=2) model"
        )
    return default_catalog().class_index(record.cwe)


def prepare_sample(record: FunctionRecord, vocab: Vocabulary, num_classes: int,
                   stream: TokenStream | None = None) -> EncodedSample:
    """Encode a record; ``stream`` is its token stream, when already made."""
    graph = build_graph(stream if stream is not None
                        else tokenize(record.source))
    ids, operator = model_inputs(graph, vocab)
    return EncodedSample(
        ids=ids, operator=operator,
        label=label_index(record, num_classes),
        line_count=record.line_count,
        truth_range=((record.vul_start, record.vul_end)
                     if record.is_vulnerable else None),
    )


def _sample_loss(class_logits: np.ndarray, loc_pred: tuple[float, float],
                 sample: EncodedSample, cfg: TrainConfig, scale: float = 1.0
                 ) -> tuple[float, np.ndarray, np.ndarray | None]:
    """The sample's loss from its heads, and the gradients of ``scale``
    times the loss with respect to the class logits and to the line
    fractions, which a benign sample's loss does not read (None)."""
    value, class_grad = focal_loss(class_logits, sample.label, cfg.focal)
    value *= cfg.w_cls
    class_grad = (scale * cfg.w_cls) * class_grad
    loc_grad = None
    if sample.truth_range is not None:
        target = normalize_line_range(*sample.truth_range, sample.line_count)
        loc_value, loc_grad = mse_loss(loc_pred, target)
        value += loc_value * cfg.w_loc
        loc_grad = (scale * cfg.w_loc) * loc_grad
    return value, class_grad, loc_grad


def _backward_batch(model: VulnModel, batch: Sequence[EncodedSample],
                    cfg: TrainConfig, helpers: _Helpers | None = None) -> float:
    """Add the gradients of the batch's mean loss; return that loss.

    Each sample's loss, scaled by 1/len(batch), is differentiated right
    after its own forward pass. Its gradients are added to the
    parameters' at the sample's turn, after every earlier sample's: as
    they are made when the turn is free, as it always is in one process,
    and otherwise from contributions held until the turn.

    With ``helpers`` of N processes, every process calls this on the same
    batch, and sample j runs in process j mod N. A process that waits for
    its turn runs its next sample's forward pass meanwhile. A sample's
    exception is recorded at its turn, unless an earlier sample's was,
    and process 0 raises it once the batch is over: the same exception
    as in one process.
    """
    helpers = helpers if helpers is not None else _Helpers(1, len(batch))
    scale = 1.0 / len(batch)
    count, step = len(batch), helpers.processes
    ahead = None
    for j in range(helpers.rank, count, step):
        out = ahead if ahead is not None else _sample_output(model, batch[j])
        ahead = None
        ready = helpers.turn(j, block=False)
        result = _sample_gradients(model, batch[j], out, cfg, scale,
                                   hold=not ready)
        if not ready and not helpers.turn(j, block=False):
            if j + step < count:
                ahead = _sample_output(model, batch[j + step])
            helpers.turn(j)
        if isinstance(result, Exception):
            helpers.fail(j, result)
        elif not helpers.failed():
            value, held = result
            for contribution in held:
                _add(*contribution)
            helpers.losses[j] = value
        helpers.pass_turn(j, count)
    helpers.meet()
    helpers.raise_failure()
    total = 0.0
    for value in helpers.losses[:count].tolist():
        total += value
    return total * scale


def _sample_output(model: VulnModel, sample: EncodedSample
                   ) -> ForwardOutput | Exception:
    """The sample's forward pass, or the exception raised."""
    try:
        return model.forward(sample.ids, sample.operator)
    except Exception as exc:  # raised at the sample's turn
        return exc


def _sample_gradients(model: VulnModel, sample: EncodedSample,
                      out: ForwardOutput | Exception, cfg: TrainConfig,
                      scale: float, hold: bool
                      ) -> tuple[float, list[tuple]] | Exception:
    """Differentiate ``scale`` times the sample's loss from its forward
    output ``out``: return the loss and ``VulnModel.backward``'s
    contributions if ``hold``, or else add them to the gradients and
    return none; or return the exception raised, ``out`` included."""
    if isinstance(out, Exception):
        return out
    held: list[tuple] = []
    try:
        value, class_grad, loc_grad = _sample_loss(
            out.class_logits, out.loc_pred, sample, cfg, scale)
        model.backward(sample.ids, sample.operator, out, class_grad,
                       loc_grad, (lambda *c: held.append(c)) if hold
                       else _add)
        return value, held
    except Exception as exc:  # raised at the sample's turn
        return exc


def _add(parameter: tensor.Parameter, index, contribution) -> None:
    parameter.grad[index] += contribution


def _processes(batch_size: int, n_samples: int) -> int:
    """Processes that share each batch: one per usable CPU and sample of
    a batch at most, and 1 where the platform cannot fork."""
    wanted = min(batch_size, n_samples)
    if wanted < 2:
        return 1
    count, can_fork = cpus.usable_cpus()
    return min(wanted, count) if can_fork else 1


#: Seconds a training process waits on another before it checks that
#: the other is still alive.
_POLL_S = 0.1


class _Helpers:
    """The processes that train together: this one, process 0, and
    ``processes - 1`` helpers forked from it, which each call ``run`` on
    their own copy of this object, as process ``rank``, and then exit.

    Whatever ``run`` needs, the parameters and the samples included,
    they inherit: the parameters live in ``_share``'s mapping, so every
    write is seen by all. The processes pace each other through
    semaphores: ``turn`` orders the adds of a batch's samples and
    ``meet`` is a barrier. The batch's sample losses and its first failed
    sample sit in a small shared mapping. A helper sends process 0 only
    its exception and its validation share, through its own pipe. With
    one process nothing is forked, and no call waits.
    """

    def __init__(self, processes: int, batch_size: int,
                 run: Callable[[_Helpers], object] | None = None):
        self.processes = processes
        self.rank = 0
        self._error: Exception | None = None
        self._links = []
        self._procs = []
        self._arrivals = []
        import mmap
        control = mmap.mmap(-1, 8 * (batch_size + 1))
        self._failed = np.frombuffer(control, dtype=np.int64, count=1)
        self._failed[0] = -1
        self.losses = np.frombuffer(control, dtype=np.float64, offset=8)
        if processes == 1:
            return
        import multiprocessing
        context = multiprocessing.get_context("fork")
        self._turns = [context.Semaphore(0) for _ in range(processes)]
        self._arrivals = [context.Semaphore(0) for _ in range(processes)]
        self._parent = os.getpid()
        try:
            for rank in range(1, processes):
                ours, theirs = context.Pipe(duplex=False)
                proc = context.Process(target=_helper,
                                       args=(self, rank, theirs, run),
                                       daemon=True)
                proc.start()
                theirs.close()
                self._links.append(ours)
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> _Helpers:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def part(self, size: int) -> slice:
        """This process's contiguous share of ``size`` elements."""
        return slice(size * self.rank // self.processes,
                     size * (self.rank + 1) // self.processes)

    def turn(self, j: int, block: bool = True) -> bool:
        """Take sample j's turn, which comes once sample j - 1 of the same
        batch has passed its own; return whether it was taken, which it
        always is when ``block``."""
        if j == 0 or self.processes == 1:
            return True
        if not block:
            return self._turns[self.rank].acquire(False)
        self._wait(self._turns[self.rank])
        return True

    def pass_turn(self, j: int, count: int) -> None:
        """Give the turn to sample j + 1 of a batch of ``count``."""
        if self.processes > 1 and j + 1 < count:
            self._turns[(j + 1) % self.processes].release()

    def failed(self) -> bool:
        return self._failed[0] >= 0

    def fail(self, j: int, exc: Exception) -> None:
        """Record that sample j raised ``exc``, at its turn, unless an
        earlier sample did; a helper sends ``exc`` to process 0."""
        if self.failed():
            return
        self._failed[0] = j
        self._error = exc
        if self.rank:
            self._link.send(exc)

    def raise_failure(self) -> None:
        """After ``meet``: raise the exception of the batch's failed
        sample in process 0, and a TrainingError in any other process."""
        if not self.failed():
            return
        owner = int(self._failed[0]) % self.processes
        if owner == self.rank:
            raise self._error
        if self.rank:
            raise TrainingError("a sample of another process failed")
        raise self._receive(owner)

    def meet(self) -> None:
        """Wait until every process has called ``meet`` as often."""
        for k, arrivals in enumerate(self._arrivals):
            if k != self.rank:
                arrivals.release()
        for _ in range(self.processes - 1):
            self._wait(self._arrivals[self.rank])

    def gather(self, share: list) -> list[list] | None:
        """Every process's ``share`` in process order, in process 0; a
        helper sends its own and gets None."""
        if self.rank:
            self._link.send(share)
            return None
        return [share] + [self._receive(k) for k in range(1, self.processes)]

    def _receive(self, k: int):
        try:
            return self._links[k - 1].recv()
        except (EOFError, OSError) as exc:
            raise self._died(k) from exc

    def _wait(self, semaphore) -> None:
        """Acquire ``semaphore``, checking every ``_POLL_S`` that the
        processes that could release it live: in process 0, every helper
        that has not finished its ``run``, and in a helper, process 0."""
        while not semaphore.acquire(timeout=_POLL_S):
            if self.rank and os.getppid() != self._parent:
                raise TrainingError("the training process died")
            for k, proc in enumerate(self._procs, start=1):
                if proc.exitcode:
                    raise self._died(k)

    def _died(self, k: int) -> TrainingError:
        proc = self._procs[k - 1]
        proc.join(timeout=10)
        return TrainingError(
            f"a training worker process died: exit code {proc.exitcode}")

    def close(self) -> None:
        """End and reap every helper."""
        for link in self._links:
            link.close()
        for proc in self._procs:
            proc.terminate()
            proc.join()


def _share(params: Sequence[tensor.Parameter]) -> np.ndarray:
    """Move each parameter's value and gradient, unchanged, into one
    anonymous shared mapping, which processes forked later inherit.

    The mapping is returned as four rows over the flat parameter vector:
    the values, the gradients, and Adam's two moments, which start at 0.
    """
    import mmap
    total = sum(p.data.size for p in params)
    state = np.frombuffer(mmap.mmap(-1, 4 * total * 8),
                          dtype=np.float64).reshape(4, total)
    start = 0
    for p in params:
        value, grad = state[:2, start:start + p.data.size]
        value[...] = p.data.ravel()
        grad[...] = p.grad.ravel()
        p.value.data = value.reshape(p.shape)
        p.value.grad = grad.reshape(p.shape)
        start += p.data.size
    return state


def _helper(helpers: _Helpers, rank: int, link,
            run: Callable[[_Helpers], object]) -> None:
    """A helper process: call ``run`` as process ``rank``, sending to
    process 0 through ``link``.

    It leaves through ``os._exit``, so the output buffers it shares with
    the parent are not flushed twice, and no traceback is printed.
    """
    code = 1
    try:
        helpers.rank, helpers._link = rank, link
        run(helpers)
        code = 0
    finally:
        os._exit(code)


def _diagnostics(model: VulnModel, epoch: int, batch_idx: int) -> str:
    norms = {p.name: float(np.linalg.norm(p.data)) for p in model.parameters()}
    return (f"epoch {epoch}, batch {batch_idx}, parameter norms: "
            + ", ".join(f"{k}={v:.3g}" for k, v in norms.items()))


@dataclass
class TrainResult:
    model: VulnModel
    vocab: Vocabulary
    log: list[dict]


def _prepare(records: Sequence[FunctionRecord], split: DatasetSplit,
             num_classes: int, min_count: int
             ) -> tuple[Vocabulary, list[EncodedSample], list[EncodedSample]]:
    """The train split's vocabulary, and the train and val samples."""
    train_records = select(records, split.train)
    val_records = select(records, split.val)
    if not train_records:
        raise TrainingError("empty train split")
    streams = [tokenize(r.source) for r in train_records]
    vocab = build_vocab(streams, min_count=min_count)
    samples = [prepare_sample(r, vocab, num_classes, s)
               for r, s in zip(train_records, streams)]
    val_samples = [prepare_sample(r, vocab, num_classes) for r in val_records]
    return vocab, samples, val_samples


def train(records: Sequence[FunctionRecord], split: DatasetSplit,
          model_cfg: ModelConfig, train_cfg: TrainConfig) -> TrainResult:
    """Train on the split's train ids, tracking loss/metrics on val.

    The vocabulary is built from the train split only, and each record
    is tokenized once. One sample's arrays are alive at a time. The
    caller saves the returned model.
    """
    vocab, samples, val_samples = _prepare(
        records, split, model_cfg.num_classes, train_cfg.min_count)
    return _fit(vocab, samples, val_samples, model_cfg, train_cfg)


def _fit(vocab: Vocabulary, samples: Sequence[EncodedSample],
         val_samples: Sequence[EncodedSample], model_cfg: ModelConfig,
         train_cfg: TrainConfig) -> TrainResult:
    """A model trained on ``samples`` at the vocabulary's size."""
    model_cfg = replace(model_cfg, vocab_size=len(vocab))
    model = VulnModel(model_cfg, seed=train_cfg.seed)
    state = _share(model.parameters())

    def run(helpers: _Helpers) -> list[dict]:
        return _train(helpers, model, state, samples, val_samples, train_cfg)

    processes = _processes(train_cfg.batch_size, len(samples))
    with _Helpers(processes, train_cfg.batch_size, run) as helpers:
        log = run(helpers)
    return TrainResult(model=model.freeze(), vocab=vocab, log=log)


@np.errstate(over="ignore", invalid="ignore")
def _train(helpers: _Helpers, model: VulnModel, state: np.ndarray,
           samples: Sequence[EncodedSample],
           val_samples: Sequence[EncodedSample],
           cfg: TrainConfig) -> list[dict]:
    """The epoch loop that every training process runs; the log, which
    only process 0 fills.

    numpy does not warn about overflow here: it ends in non-finite
    values, which ``forward`` and the loss check reject, and training
    stops with a TrainingError.
    """
    optimizer = Adam(state, cfg.learning_rate, helpers.part(state.shape[1]))
    rng = np.random.default_rng(cfg.seed)
    log: list[dict] = []
    order = np.arange(len(samples))
    for epoch in range(1, cfg.epochs + 1):
        rng.shuffle(order)
        epoch_losses: list[float] = []
        for batch_idx, start in enumerate(
                range(0, len(order), cfg.batch_size)):
            batch = [samples[i] for i in order[start:start + cfg.batch_size]]
            try:
                value = _backward_batch(model, batch, cfg, helpers)
            except GradientError as exc:
                # Overflow inside the forward pass surfaces here: it
                # rejects non-finite values eagerly.
                raise TrainingError(
                    f"non-finite values in forward pass ({exc}); "
                    + _diagnostics(model, epoch, batch_idx)) from exc
            if not np.isfinite(value):
                raise TrainingError("non-finite loss; "
                                    + _diagnostics(model, epoch, batch_idx))
            optimizer.step()
            helpers.meet()
            epoch_losses.append(value)

        val_loss = val_f1 = val_iou = None
        if val_samples:
            try:
                heads = _validate(model, val_samples, helpers)
            except GradientError as exc:
                # the last step overflowed and only validation saw it
                raise TrainingError(
                    f"non-finite values in validation ({exc}); "
                    + _diagnostics(model, epoch, batch_idx)) from exc
            if heads is None:  # a helper: process 0 keeps the log
                continue
            val_loss = float(np.mean([
                _sample_loss(logits, loc, s, cfg)[0]
                for s, (logits, loc) in zip(val_samples, heads)]))
            report = _metrics(val_samples, heads, model.config.num_classes)
            val_f1 = report.f1
            val_iou = report.mean_iou
        log.append({
            "epoch": epoch,
            "train_loss": float(np.mean(epoch_losses)),
            "val_loss": val_loss,
            "val_f1": val_f1,
            "val_iou": val_iou,
        })
    return log


def _validate(model: VulnModel, samples: Sequence[EncodedSample],
              helpers: _Helpers) -> list[tuple[np.ndarray, tuple]] | None:
    """Each sample's heads (class logits, line range) in order, in
    process 0, and None in a helper.

    Process k runs samples k, k + N, ... up to its first exception, and
    process 0 raises the exception of the earliest sample that raised.
    """
    share: list = []
    for sample in samples[helpers.rank::helpers.processes]:
        try:
            out = model.forward(sample.ids, sample.operator)
        except Exception as exc:  # raised by process 0 in sample order
            share.append(exc)
            break
        share.append((out.class_logits, out.loc_pred))
    shares = helpers.gather(share)
    if shares is None:
        return None
    heads = []
    for j in range(len(samples)):
        head = shares[j % helpers.processes][j // helpers.processes]
        if isinstance(head, Exception):
            raise head
        heads.append(head)
    return heads


def evaluate_samples(model: VulnModel, samples: Sequence[EncodedSample],
                     num_classes: int) -> MetricsReport:
    outputs = [model.forward(s.ids, s.operator) for s in samples]
    return _metrics(samples, [(out.class_logits, out.loc_pred)
                              for out in outputs], num_classes)


def _metrics(samples: Sequence[EncodedSample],
             heads: Sequence[tuple[np.ndarray, tuple]],
             num_classes: int) -> MetricsReport:
    """Classification and localization metrics of the samples, given
    each one's heads: its class logits and its predicted line range."""
    if not samples:
        raise DataError("evaluate: empty split")
    preds: list[int] = []
    truths: list[int] = []
    tp_ious: list[float] = []
    vulnerable_ious: list[float] = []
    for sample, (class_logits, loc_pred) in zip(samples, heads):
        pred = int(np.argmax(class_logits))
        preds.append(pred)
        truths.append(sample.label)
        if sample.truth_range is not None:
            predicted_range = denormalize_lines(loc_pred, sample.line_count)
            iou = iou_1d(predicted_range, sample.truth_range)
            vulnerable_ious.append(iou)
            if pred != 0:
                tp_ious.append(iou)
    report = classification_metrics(preds, truths, num_classes)
    report.mean_iou = float(np.mean(tp_ious)) if tp_ious else None
    report.mean_iou_vulnerable = (
        float(np.mean(vulnerable_ious)) if vulnerable_ious else None)
    return report


def evaluate(model: VulnModel, records: Sequence[FunctionRecord],
             vocab: Vocabulary) -> MetricsReport:
    """Classification metrics over records, plus localization IoU.

    ``mean_iou`` averages over records that are truly vulnerable and
    predicted vulnerable; ``mean_iou_vulnerable`` over all truly
    vulnerable records regardless of the predicted class.
    """
    num_classes = model.config.num_classes
    samples = [prepare_sample(r, vocab, num_classes) for r in records]
    return evaluate_samples(model, samples, num_classes)


def sweep_ensemble(records: Sequence[FunctionRecord], split: DatasetSplit,
                   ratios: Sequence[tuple[float, float]],
                   model_cfg: ModelConfig, train_cfg: TrainConfig
                   ) -> list[dict]:
    """Test-split metrics per fusion ratio, one row per (embed, graph) pair.

    Every ratio's model configuration is checked before any record is
    prepared. The vocabulary and the train, val and test samples are
    prepared once; each ratio then trains a fresh model on them from the
    same seed and config, so the rows differ only in the ratio the model
    was trained at.
    """
    configs = [replace(model_cfg, embed_weight=embed_w, graph_weight=graph_w)
               for embed_w, graph_w in ratios]
    test_records = select(records, split.test)
    if not test_records:
        raise DataError("sweep: empty test split")
    vocab, samples, val_samples = _prepare(
        records, split, model_cfg.num_classes, train_cfg.min_count)
    test_samples = [prepare_sample(r, vocab, model_cfg.num_classes)
                    for r in test_records]

    rows: list[dict] = []
    for cfg in configs:
        model = _fit(vocab, samples, val_samples, cfg, train_cfg).model
        report = evaluate_samples(model, test_samples, cfg.num_classes)
        rows.append({
            "embed_weight": cfg.embed_weight,
            "graph_weight": cfg.graph_weight,
            "iou": report.mean_iou,
            "accuracy": report.accuracy,
            "f1": report.f1,
            "precision": report.precision,
            "recall": report.recall,
        })
    return rows


def format_sweep_table(rows: Sequence[dict]) -> str:
    header = f"{'Embed':>6} {'Graph':>6} {'IoU':>6} {'Acc':>6} " \
             f"{'F1':>6} {'Pre.':>6} {'Rec.':>6}"
    lines = [header, "-" * len(header)]
    for row in rows:
        iou = "-" if row["iou"] is None else f"{row['iou']:.2f}"
        lines.append(
            f"{row['embed_weight']:>6.2f} {row['graph_weight']:>6.2f} "
            f"{iou:>6} {row['accuracy']:>6.2f} {row['f1']:>6.2f} "
            f"{row['precision']:>6.2f} {row['recall']:>6.2f}")
    return "\n".join(lines)


# -- checkpoint directories ---------------------------------------------------

def save_checkpoint(path: str | Path, model: VulnModel, vocab: Vocabulary,
                    train_cfg: TrainConfig | None = None) -> None:
    """Write a self-describing checkpoint directory.

    Contents: params.npz (bit-exact parameter values), config.txt
    (model and training settings as key=value text), vocab.tsv. The
    training settings are a record of the run; ``load_checkpoint`` reads
    only the model settings back.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    model.save_npz(path / "params.npz")
    vocab.save(path / "vocab.tsv")
    config_text = model.config.to_text()
    if train_cfg is not None:
        config_text += train_config_to_text(train_cfg)
    (path / "config.txt").write_text(config_text, encoding="utf-8")


def load_checkpoint(path: str | Path) -> tuple[VulnModel, Vocabulary]:
    """Read a directory written by ``save_checkpoint``.

    Raises DataError when a file is missing, when config.txt lacks a
    model key or holds a bad value, or when config.txt, the vocabulary
    and the parameters disagree. Other keys in config.txt are not read.
    """
    path = Path(path)
    for name in ("params.npz", "config.txt", "vocab.tsv"):
        if not (path / name).is_file():
            raise DataError(f"no checkpoint at {path} (missing {name})")
    try:
        model_kwargs = _typed(
            _settings((path / "config.txt").read_text(encoding="utf-8")),
            _MODEL_KEYS)
        missing = [key for key in _MODEL_KEYS if key not in model_kwargs]
        if missing:
            raise ConfigError(f"missing keys {', '.join(missing)}")
        config = ModelConfig(**model_kwargs)
    except ConfigError as exc:
        raise DataError(f"{path / 'config.txt'}: {exc}") from exc
    vocab = Vocabulary.load(path / "vocab.tsv")
    if len(vocab) != config.vocab_size:
        raise DataError(
            f"{path / 'vocab.tsv'} has {len(vocab)} entries, config.txt "
            f"says vocab_size={config.vocab_size}")
    model = VulnModel.load_npz(path / "params.npz", config)
    return model, vocab


_MODEL_KEYS = {
    "vocab_size": int, "embed_dim": int, "gcn_dim": int,
    "gcn_layers": int, "num_classes": int,
    "embed_weight": float, "graph_weight": float,
}
_TRAIN_KEYS = {
    "epochs": int, "learning_rate": float, "batch_size": int,
    "seed": int, "w_cls": float, "w_loc": float,
    "focal_alpha": float, "focal_delta": float,
    "optimizer": str, "min_count": int,
}


def train_config_to_text(cfg: TrainConfig) -> str:
    settings = {f.name: getattr(cfg, f.name) for f in fields(cfg)
                if f.name != "focal"}
    settings.update(focal_alpha=cfg.focal.alpha, focal_delta=cfg.focal.delta)
    return "".join(f"{key}={value}\n" for key, value in settings.items())


def _settings(text: str) -> dict[str, tuple[int, str]]:
    """Each key of flat key=value text, with its line number and raw value."""
    settings: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config line {lineno}: expected key=value")
        settings[key.strip()] = (lineno, value.strip())
    return settings


def _typed(settings: dict[str, tuple[int, str]], types: dict) -> dict:
    """The settings that ``types`` names, each converted to its type."""
    typed = {}
    for key, convert in types.items():
        if key not in settings:
            continue
        lineno, value = settings[key]
        try:
            typed[key] = convert(value)
        except ValueError as exc:
            raise ConfigError(
                f"config line {lineno}: bad value for {key!r}: {value!r}"
            ) from exc
    return typed


def parse_run_config(text: str) -> tuple[dict, dict]:
    """Split flat key=value text into model and training settings.

    Returns (model_kwargs, train_kwargs); unknown keys raise ConfigError
    so typos in config files fail loudly.
    """
    settings = _settings(text)
    for key, (lineno, _) in settings.items():
        if key not in _MODEL_KEYS and key not in _TRAIN_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
    model_kwargs = _typed(settings, _MODEL_KEYS)
    train_kwargs = _typed(settings, _TRAIN_KEYS)
    focal_alpha = train_kwargs.pop("focal_alpha", None)
    focal_delta = train_kwargs.pop("focal_delta", None)
    if focal_alpha is not None or focal_delta is not None:
        train_kwargs["focal"] = FocalConfig(
            alpha=focal_alpha if focal_alpha is not None else 0.25,
            delta=focal_delta if focal_delta is not None else 2.0,
        )
    return model_kwargs, train_kwargs


def write_log(log: Sequence[dict], path: str | Path) -> None:
    """One JSON line per epoch: epoch, train_loss, val_loss, val_f1, val_iou."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for entry in log:
            fh.write(json.dumps(entry, sort_keys=True))
            fh.write("\n")
