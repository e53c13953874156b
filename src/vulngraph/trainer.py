"""Deterministic multitask training: focal classification + MSE localization.

Per sample the loss is ``w_cls * focal + w_loc * mse``, where the MSE
term exists only for vulnerable-labeled samples (benign functions have
no line range to regress, so they contribute zero gradient to the
localization head). Batches are shuffled per epoch from the run seed and
processed in a fixed order, so a (config, seed) pair reproduces the same
parameter trajectory bit for bit.

A batch's loss is the mean of its samples' losses. Each sample's share
is backpropagated right after its own forward pass, and the parameter
gradients accumulate across the calls, so one sample's tape is alive at
a time; Adam then steps once per batch. Validation runs the tape-free
``VulnModel.forward`` once per sample, and its loss and metrics both
read that output. A fusion-ratio sweep prepares the samples once and
trains one model per ratio from them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor
from .corpus import (BINARY_VULNERABLE_LABEL, DatasetSplit, FunctionRecord,
                     default_catalog, select)
from .errors import ConfigError, DataError, GradientError, TrainingError
from .lexer import TokenStream, Vocabulary, build_vocab, tokenize
from .model import (ForwardOutput, ModelConfig, VulnModel, denormalize_lines,
                    normalize_line_range)
from .objectives import (FocalConfig, MetricsReport, classification_metrics,
                         focal_loss, iou_1d, mse_loss)
from .semgraph import build_graph, model_inputs
from .tensor import Matrix, SparseOperator


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


class Adam:
    """Adaptive per-parameter update (beta1 0.9, beta2 0.999, eps 1e-8)."""

    def __init__(self, params: Sequence[tensor.Parameter], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad
            self._m[i] = self.beta1 * self._m[i] + (1 - self.beta1) * g
            self._v[i] = self.beta2 * self._v[i] + (1 - self.beta2) * g * g
            m_hat = self._m[i] / (1 - self.beta1 ** self.t)
            v_hat = self._v[i] / (1 - self.beta2 ** self.t)
            p.value.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


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


def _sample_loss(class_logits: Matrix, loc_pred: Matrix,
                 sample: EncodedSample, cfg: TrainConfig) -> Matrix:
    """The sample's loss; on the tape only when its inputs are."""
    loss = tensor.scale(
        focal_loss(class_logits, sample.label, cfg.focal), cfg.w_cls)
    if sample.truth_range is not None:
        target = normalize_line_range(*sample.truth_range, sample.line_count)
        loss = tensor.add(
            loss, tensor.scale(mse_loss(loc_pred, target), cfg.w_loc))
    return loss


def _backward_batch(model: VulnModel, batch: Sequence[EncodedSample],
                    cfg: TrainConfig) -> float:
    """Add the gradients of the batch's mean loss; return that loss.

    Each sample's loss, scaled by 1/len(batch), is walked right after its
    own forward pass. One tape over the whole batch would push the same
    values and add them to the parameters in the same sample order, so
    the gradients are equal bit for bit.
    """
    total = 0.0
    for sample in batch:
        nodes = model.forward_nodes(sample.ids, sample.operator)
        loss = _sample_loss(nodes.class_logits, nodes.loc_pred, sample, cfg)
        total += loss.item()
        tensor.backward(tensor.scale(loss, 1.0 / len(batch)))
    return total * (1.0 / len(batch))


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
    is tokenized once. One sample's tape is alive at a time, and
    validation records none. The caller saves the returned model.
    """
    vocab, samples, val_samples = _prepare(
        records, split, model_cfg.num_classes, train_cfg.min_count)
    return _fit(vocab, samples, val_samples, model_cfg, train_cfg)


@np.errstate(over="ignore", invalid="ignore")
def _fit(vocab: Vocabulary, samples: Sequence[EncodedSample],
         val_samples: Sequence[EncodedSample], model_cfg: ModelConfig,
         train_cfg: TrainConfig) -> TrainResult:
    """A model trained on ``samples`` at the vocabulary's size.

    numpy does not warn about overflow here: it ends in non-finite
    values, which the tape, the loss check and ``forward`` reject, and
    training stops with a TrainingError.
    """
    model_cfg = replace(model_cfg, vocab_size=len(vocab))
    model = VulnModel(model_cfg, seed=train_cfg.seed)
    optimizer = Adam(model.parameters(), train_cfg.learning_rate)
    rng = np.random.default_rng(train_cfg.seed)

    log: list[dict] = []
    order = np.arange(len(samples))

    for epoch in range(1, train_cfg.epochs + 1):
        rng.shuffle(order)
        epoch_losses: list[float] = []
        for batch_idx, start in enumerate(
                range(0, len(order), train_cfg.batch_size)):
            batch = [samples[i] for i in order[start:start + train_cfg.batch_size]]
            try:
                value = _backward_batch(model, batch, train_cfg)
            except GradientError as exc:
                # Overflow inside the forward pass surfaces here: the
                # matrix layer rejects non-finite values eagerly.
                raise TrainingError(
                    f"non-finite values in forward pass ({exc}); "
                    + _diagnostics(model, epoch, batch_idx)) from exc
            if not np.isfinite(value):
                raise TrainingError(
                    "non-finite loss; " + _diagnostics(model, epoch, batch_idx))
            optimizer.step()
            model.zero_grad()
            epoch_losses.append(value)

        val_loss = val_f1 = val_iou = None
        if val_samples:
            try:
                pairs = [(s, model.forward(s.ids, s.operator))
                         for s in val_samples]
            except GradientError as exc:
                # the last step overflowed and only validation saw it
                raise TrainingError(
                    f"non-finite values in validation ({exc}); "
                    + _diagnostics(model, epoch, batch_idx)) from exc
            val_loss = float(np.mean([
                _sample_loss(Matrix(out.class_logits), Matrix(out.loc_pred),
                             s, train_cfg).item()
                for s, out in pairs]))
            report = _metrics(pairs, model_cfg.num_classes)
            val_f1 = report.f1
            val_iou = report.mean_iou
        log.append({
            "epoch": epoch,
            "train_loss": float(np.mean(epoch_losses)),
            "val_loss": val_loss,
            "val_f1": val_f1,
            "val_iou": val_iou,
        })

    return TrainResult(model=model.freeze(), vocab=vocab, log=log)


def evaluate_samples(model: VulnModel, samples: Sequence[EncodedSample],
                     num_classes: int) -> MetricsReport:
    return _metrics([(s, model.forward(s.ids, s.operator)) for s in samples],
                    num_classes)


def _metrics(pairs: Sequence[tuple[EncodedSample, ForwardOutput]],
             num_classes: int) -> MetricsReport:
    """Classification and localization metrics of (sample, output) pairs."""
    if not pairs:
        raise DataError("evaluate: empty split")
    preds: list[int] = []
    truths: list[int] = []
    tp_ious: list[float] = []
    vulnerable_ious: list[float] = []
    for sample, out in pairs:
        pred = out.predicted_class
        preds.append(pred)
        truths.append(sample.label)
        if sample.truth_range is not None:
            predicted_range = denormalize_lines(out.loc_pred, sample.line_count)
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
