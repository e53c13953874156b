"""Deterministic multitask training: focal classification + MSE localization.

Per sample the loss is ``w_cls * focal + w_loc * mse``, where the MSE
term exists only for vulnerable-labeled samples (benign functions have
no line range to regress, so they contribute zero gradient to the
localization head). Batches are shuffled per epoch from the run seed and
processed in a fixed order, so a (config, seed) pair reproduces the same
parameter trajectory bit for bit.

A batch's loss is the mean of its samples' losses. Each sample runs
``VulnModel.forward``, the pass inference runs; the numpy objectives give
its loss and gradients, and ``VulnModel.backward``, from that pass's
output alone, each parameter's contribution by name, held until the
sample's turn, then added in sample order into that parameter's
gradient sum and freed, so that one sample's arrays are alive at a time;
Adam then steps once per batch. The model holds only its values: the
gradient sums and Adam's moments are the trainer's. Validation runs the
same ``forward``, and its loss and metrics both read that output. A
fusion-ratio sweep prepares the samples once and trains one model per
ratio from them.

A prepared sample, an ``EncodedSample``, holds O(n + entries) bytes: its
ids and its operator's row lists at the narrowest index dtypes, and its
entries in the passes' dtype. Each pass builds the padded lists that its
products run on, and they go with the pass. The train records are
prepared one at a time, each tokenized and graphed once: only its token
counts and provisional indices outlive its stream, and the vocabulary
built from the counts then turns the indices into ids.

The passes run in float32 (``COMPUTE_DTYPE``), on float32 operators and
a private float32 copy of the values that each process refreshes after
every step. The values, the gradient sums, Adam's moments and the
checkpoints stay float64: each float32 contribution is added into the
float64 sums, as in mixed-precision training (Micikevicius et al. 2017).

Training runs on one process per usable CPU (at most one per sample of
a batch): the training process and helpers forked from it once per run,
which hold every sample already. Each runs the same epoch and batch
loop, and one turn loop for both kinds of work: sample j of a batch and
validation sample j run in process j mod N, and each waits for turn j,
after sample j - 1's, to hand in its result. A batch sample adds its
contributions and writes its loss; a validation sample writes its heads
into a shared row, which process 0 reads in order. Each process steps
Adam on its own slice of the parameters. These are drawn, one at a
time, straight into one mapping shared before the fork; their gradient
sums and Adam's moments lie in a second one, so no process holds
another float64 copy of them, and the trained model keeps only the
first. The gradients are added in sample order and the update is
elementwise, so the log and the parameters are the same bit for bit at
any CPU count. Where the platform cannot fork, training runs in one
process.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from . import cpus
from .corpus import DatasetSplit, FunctionRecord, class_index, select
from .errors import ConfigError, DataError, GradientError, TrainingError
from .lexer import Vocabulary, build_vocab, tokenize
from .model import (ModelConfig, VulnModel, denormalize_lines,
                    initial_values, normalize_line_range, parameter_shapes)
from .objectives import (MetricsReport, classification_metrics, focal_loss,
                         iou_1d, mse_loss)
from .runfiles import TrainConfig
# perfbench's fixture script, set-up probe and traced targets name these
# here, and perfbench changes only with the benchmark itself.
from .runfiles import load_checkpoint, save_checkpoint  # noqa: F401
from .semgraph import build_graph, model_inputs
from .tensor import SparseOperator


#: The dtype of training's passes and of its samples' operators. It is
#: not a run setting: tests set float64 to run the passes' oracle.
COMPUTE_DTYPE = np.float32

#: Elements of the flat parameter vector that ``Adam.step`` updates at a
#: time. Its two scratch blocks take 256 KiB, and a block's operands are
#: reread from cache. On the paper-width training benchmark (2-core host,
#: one BLAS thread), ``Adam.step`` took 45-52 ms per pass and process at
#: blocks of 2**13, 2**14 and 2**16 alike.
ADAM_BLOCK = 2**14
#: Adam's decay rates of the two moments, and the term that keeps its
#: division finite.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adaptive update (``ADAM_BETA1``, ``ADAM_BETA2``, ``ADAM_EPS``) of
    the ``part`` slice of the flat parameter vector ``values`` laid out by
    ``_shared_model``.

    ``state`` holds three rows over that vector: the gradient sums and
    the two moments. The update is elementwise, so the bits do not
    depend on where the slices break: each training process steps its
    own slice, and one process steps the whole vector.
    """

    def __init__(self, values: np.ndarray, state: np.ndarray, lr: float,
                 part: slice = slice(None)):
        self.values = values[part]
        self.grads, self.m, self.v = state[:, part]
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
    """A record made model-ready, stored in O(n + entries) bytes: its
    stream's n ids, int32, and its graph operator's lists, ``start`` int32
    and ``cols`` int16 (n is at most ``STREAM_CAPACITY``), with ``weights``
    and ``mirror`` in the dtype of the passes that run it.

    ``operator`` builds the padded lists that products run on, or the
    dense copy of a short function's operator, for one pass, so that only
    the sample being run holds them.
    """

    ids: np.ndarray
    start: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    mirror: np.ndarray
    label: int
    line_count: int
    truth_range: tuple[int, int] | None

    @classmethod
    def of(cls, ids: np.ndarray, operator: SparseOperator, dtype, label: int,
           line_count: int, truth_range: tuple[int, int] | None
           ) -> EncodedSample:
        """The stored form of ``ids`` and ``operator``, its entries in
        ``dtype``."""
        return cls(ids.astype(np.int32, copy=False),
                   operator.start.astype(np.int32, copy=False),
                   operator.cols.astype(np.int16, copy=False),
                   operator.weights.astype(dtype, copy=False),
                   operator.mirror.astype(dtype, copy=False),
                   label, line_count, truth_range)

    def operator(self) -> SparseOperator:
        """The sample's operator, its padded lists built anew."""
        return SparseOperator(self.start, self.cols, self.weights, self.mirror)

    @property
    def nbytes(self) -> int:
        """Bytes of the sample's arrays."""
        return sum(a.nbytes for a in (self.ids, self.start, self.cols,
                                      self.weights, self.mirror))


@contextmanager
def _naming(record: FunctionRecord) -> Iterator[None]:
    """A DataError raised inside names the record, as a class error does."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"record {record.id!r}: {exc}") from exc


def prepare_sample(record: FunctionRecord, vocab: Vocabulary,
                   num_classes: int, dtype=np.float64) -> EncodedSample:
    """Encode a record, its operator's entries in ``dtype``. A source that
    cannot be lexed or graphed is a DataError naming it."""
    with _naming(record):
        ids, operator = model_inputs(tokenize(record.source), vocab)
    return _stored(record, ids, operator, num_classes, dtype)


def _stored(record: FunctionRecord, ids: np.ndarray,
            operator: SparseOperator, num_classes: int,
            dtype) -> EncodedSample:
    return EncodedSample.of(
        ids, operator, dtype, class_index(record, num_classes),
        record.line_count, ((record.vul_start, record.vul_end)
                            if record.is_vulnerable else None))


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
                    cfg: TrainConfig, helpers: _Helpers,
                    grads: dict[str, np.ndarray]) -> float:
    """Add the gradients of the batch's mean loss into ``grads``, the
    sums by parameter name; return that loss.

    Every process of ``helpers`` calls this on the same batch. Each
    sample's loss, scaled by 1/len(batch), is differentiated right after
    its own forward pass, into contributions held until the sample's
    turn, when they are added to the sums after every earlier sample's.
    """
    scale = 1.0 / len(batch)

    def work(j: int) -> tuple[float, list[tuple]]:
        sample, held = batch[j], []
        out = model.forward(sample.ids, sample.operator())
        value, class_grad, loc_grad = _sample_loss(
            out.class_logits, out.loc_pred, sample, cfg, scale)
        model.backward(out, class_grad, loc_grad, lambda *c: held.append(c))
        return value, held

    def hand_in(j: int, result: tuple[float, list[tuple]]) -> None:
        value, held = result
        for name, index, contribution in held:
            grads[name][index] += contribution
        helpers.losses[j] = value

    helpers.take_turns(len(batch), work, hand_in)
    total = 0.0
    for value in helpers.losses[:len(batch)].tolist():
        total += value
    return total * scale


def _processes(batch_size: int) -> int:
    """Processes that share each batch of at most ``batch_size`` samples:
    one per usable CPU and sample at most, and 1 where the platform
    cannot fork."""
    if batch_size < 2:
        return 1
    count, can_fork = cpus.usable_cpus()
    return min(batch_size, count) if can_fork else 1


#: Seconds a training process waits on another before it checks that
#: the other is still alive.
_POLL_S = 0.1


class _Helpers:
    """The processes that train together: this one, process 0, and
    ``processes - 1`` helpers forked from it, which each call ``run`` on
    their own copy of this object, as process ``rank``, and then exit.

    Whatever ``run`` needs, the parameters and the samples included,
    they inherit: the parameters, their gradient sums and Adam's moments
    live in ``_shared`` mappings, so every write is seen by all. The
    processes pace each other through semaphores: ``take_turns`` orders
    the results of a batch's or of validation's samples, and ``meet`` is
    a barrier. The batch's sample losses and the first failed sample sit
    in shared arrays. A helper sends process 0 only its exception,
    through its own pipe. With one process nothing is forked, and no call
    waits.
    """

    def __init__(self, processes: int, batch_size: int,
                 run: Callable[[_Helpers], object] | None = None):
        self.processes = processes
        self.rank = 0
        self._error: Exception | None = None
        self._links = []
        self._procs = []
        self._arrivals = []
        self._failed = _shared(1, np.int64)
        self._failed[0] = -1
        self.losses = _shared(batch_size)
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

    def take_turns(self, count: int, work: Callable[[int], object],
                   hand_in: Callable[[int, object], None]) -> None:
        """Run items rank, rank + N, ... of ``count``, where N is the
        number of processes, in every process alike.

        Item j runs ``work(j)``, waits for its turn, which comes once item
        j - 1 has passed its own, and then, unless an earlier item failed,
        calls ``hand_in(j, result)``; then it drops the result, so that
        the next item's work runs without it, and passes the turn. After a
        barrier, if the ``work`` of an item raised, every process raises:
        process 0 the first such item's exception, as one process would.
        """
        for j in range(self.rank, count, self.processes):
            try:
                result, error = work(j), None
            except Exception as exc:  # raised at the item's turn
                result, error = None, exc
            if j and self.processes > 1:
                self._wait(self._turns[self.rank])
            if self._failed[0] < 0 and error is None:
                hand_in(j, result)
            elif self._failed[0] < 0:  # the first failure, sent to process 0
                self._failed[0], self._error = j, error
                if self.rank:
                    self._link.send(error)
            del result  # before the next item's work
            if self.processes > 1 and j + 1 < count:
                self._turns[(j + 1) % self.processes].release()
        self.meet()
        if self._failed[0] < 0:
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


def _shared(shape, dtype=np.float64) -> np.ndarray:
    """A zeroed array in an anonymous shared mapping, which processes
    forked later inherit, so that each sees what any writes into it."""
    import mmap
    size = int(np.prod(shape))
    itemsize = np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, max(size, 1) * itemsize), dtype=dtype,
                         count=size).reshape(shape)


def _shared_model(config: ModelConfig, seed: int
                  ) -> tuple[VulnModel, np.ndarray]:
    """``VulnModel(config, seed)`` with its values in one ``_shared``
    mapping, and that mapping's flat vector.

    The vector is sized from ``config.parameter_count``, and
    ``initial_values`` draws into it one parameter at a time, so that no
    copy of all the values is made.
    """
    flat = _shared(config.parameter_count)
    values = _views(flat, parameter_shapes(config))
    for name, drawn in initial_values(config, seed):
        values[name][...] = drawn
        del drawn  # before the next parameter's draw
    return VulnModel(config, values=values), flat


def _views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]
           ) -> dict[str, np.ndarray]:
    """``flat`` cut, in order, into views of ``shapes`` by their names."""
    views, start = {}, 0
    for name, shape in shapes.items():
        size = int(np.prod(shape))
        views[name] = flat[start:start + size].reshape(shape)
        start += size
    return views


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
    norms = {name: float(np.linalg.norm(values))
             for name, values in model.params.items()}
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
    """The train split's vocabulary, and the train and val samples,
    their entries in ``COMPUTE_DTYPE``.

    One record's stream is alive at a time: each train record is
    tokenized and graphed, and its sample holds each token's provisional
    index, in order of first sight, until the vocabulary is built from the
    payload counts; one lookup then turns those indices into ids.
    """
    train_records = select(records, split.train)
    val_records = select(records, split.val)
    if not train_records:
        raise TrainingError("empty train split")
    index: dict[str, int] = {}
    counts: Counter[str] = Counter()
    samples = []
    for record in train_records:
        with _naming(record):
            stream = tokenize(record.source)
            operator = build_graph(stream)
        counts.update(token.text for token in stream.payload())
        provisional = np.fromiter(
            (index.setdefault(token.text, len(index))
             for token in stream.tokens), np.int32, stream.content_len)
        samples.append(_stored(record, provisional, operator, num_classes,
                               COMPUTE_DTYPE))
        del stream, operator  # before the next record's
    vocab = build_vocab(counts=counts, min_count=min_count)
    lookup = np.array([vocab.id_for(text) for text in index], np.int32)
    for sample in samples:
        sample.ids[...] = lookup[sample.ids]
    val_samples = [prepare_sample(r, vocab, num_classes, COMPUTE_DTYPE)
                   for r in val_records]
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


def _check_fits(cfg: ModelConfig, processes: int, min_count: int,
                sample_bytes: int) -> None:
    """A ConfigError where what training holds would outgrow the
    machine's physical memory: per parameter, the float64 value, gradient
    sum and two moments that it maps, and a ``COMPUTE_DTYPE`` copy in each
    of ``processes``; and the ``sample_bytes`` of the prepared samples,
    which the processes share. Where the platform does not report that
    memory, nothing is checked."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return
    size = (4 * 8 + processes * np.dtype(COMPUTE_DTYPE).itemsize
            ) * cfg.parameter_count
    if size + sample_bytes > memory:
        raise ConfigError(
            f"vocab_size={cfg.vocab_size} (the reserved ids and the train "
            f"split's tokens seen min_count={min_count} times), embed_dim="
            f"{cfg.embed_dim}, gcn_dim={cfg.gcn_dim} and gcn_layers="
            f"{cfg.gcn_layers} make training hold {size} bytes for the "
            f"parameters and {sample_bytes} for the samples, more than the "
            f"machine's {memory} bytes of memory")


def _fit(vocab: Vocabulary, samples: Sequence[EncodedSample],
         val_samples: Sequence[EncodedSample], model_cfg: ModelConfig,
         train_cfg: TrainConfig) -> TrainResult:
    """A model trained on ``samples`` at the vocabulary's size."""
    model_cfg = replace(model_cfg, vocab_size=len(vocab))
    batch_size = min(train_cfg.batch_size, len(samples))
    processes = _processes(batch_size)
    _check_fits(model_cfg, processes, train_cfg.min_count,
                sum(s.nbytes for s in (*samples, *val_samples)))
    model, values = _shared_model(model_cfg, train_cfg.seed)
    state = _shared((3, values.size))
    heads = _shared((len(val_samples), model_cfg.num_classes + 2))

    def run(helpers: _Helpers) -> list[dict]:
        return _train(helpers, model, values, state, heads, samples,
                      val_samples, train_cfg)

    with _Helpers(processes, batch_size, run) as helpers:
        log = run(helpers)
    return TrainResult(model=model, vocab=vocab, log=log)


@np.errstate(over="ignore", invalid="ignore")
def _train(helpers: _Helpers, model: VulnModel, values: np.ndarray,
           state: np.ndarray, heads: np.ndarray,
           samples: Sequence[EncodedSample],
           val_samples: Sequence[EncodedSample],
           cfg: TrainConfig) -> list[dict]:
    """The epoch loop that every training process runs; the log, which
    only process 0 fills. ``values`` is the flat vector of the model's
    values and ``state`` Adam's three rows over it; ``heads`` has a
    shared row per validation sample.

    The passes run on this process's ``COMPUTE_DTYPE`` copy of the
    values, refreshed after each step.

    numpy does not warn about overflow here, nor about a value cast past
    float32's range: it ends in non-finite values, which ``forward`` and
    the loss check reject, and training stops with a TrainingError.
    """
    optimizer = Adam(values, state, cfg.learning_rate,
                     helpers.part(values.size))
    grads = _views(state[0], parameter_shapes(model.config))
    compute = VulnModel(  # whose contributions add into the float64 sums
        model.config, values={name: master.astype(COMPUTE_DTYPE)
                              for name, master in model.params.items()})
    pairs = list(zip(compute.params.values(), model.params.values()))
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
                value = _backward_batch(compute, batch, cfg, helpers, grads)
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
            for ours, master in pairs:
                ours[...] = master
            epoch_losses.append(value)

        val_loss = val_f1 = val_iou = None
        if val_samples:
            try:
                val_heads = _validate(compute, val_samples, heads, helpers)
            except GradientError as exc:
                # the last step overflowed and only validation saw it
                raise TrainingError(
                    f"non-finite values in validation ({exc}); "
                    + _diagnostics(model, epoch, batch_idx)) from exc
            if val_heads is None:  # a helper: process 0 keeps the log
                continue
            val_loss = float(np.mean([
                _sample_loss(logits, loc, s, cfg)[0]
                for s, (logits, loc) in zip(val_samples, val_heads)]))
            report = _metrics(model, val_samples, val_heads)
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
              heads: np.ndarray, helpers: _Helpers
              ) -> list[tuple[np.ndarray, tuple]] | None:
    """Each sample's heads (class logits, line range) in order, in
    process 0, and None in a helper.

    At its turn, sample j writes its class logits and then its line
    fractions into row j of the shared ``heads``.
    """
    def hand_in(j: int, result: tuple[np.ndarray, tuple]) -> None:
        heads[j, :-2], heads[j, -2:] = result

    helpers.take_turns(len(samples), lambda j: _heads(model, samples[j]),
                       hand_in)
    if helpers.rank:
        return None
    return [(row[:-2], tuple(row[-2:].tolist())) for row in heads]


def _heads(model: VulnModel, sample: EncodedSample
           ) -> tuple[np.ndarray, tuple[float, float]]:
    """The sample's class logits and line fractions: its forward pass
    keeps nothing else."""
    out = model.forward(sample.ids, sample.operator())
    return out.class_logits, out.loc_pred


def evaluate_samples(model: VulnModel, samples: Sequence[EncodedSample]
                     ) -> MetricsReport:
    return _metrics(model, samples, [_heads(model, s) for s in samples])


def _metrics(model: VulnModel, samples: Sequence[EncodedSample],
             heads: Sequence[tuple[np.ndarray, tuple]]) -> MetricsReport:
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
    report = classification_metrics(preds, truths, model.config.num_classes)
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
    samples = [prepare_sample(r, vocab, model.config.num_classes)
               for r in records]
    return evaluate_samples(model, samples)


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
        # no earlier ratio's model stays bound while the next one trains
        report = evaluate_samples(
            _fit(vocab, samples, val_samples, cfg, train_cfg).model,
            test_samples)
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
