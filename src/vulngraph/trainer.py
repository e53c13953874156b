"""Deterministic multitask training: focal classification + MSE localization.

Per sample the loss is ``w_cls * focal + w_loc * mse``, where the MSE
term exists only for vulnerable-labeled samples (benign functions have
no line range to regress, so they contribute zero gradient to the
localization head). Batches are shuffled per epoch from the run seed and
processed in a fixed order, so a (config, seed) pair reproduces the same
parameter trajectory bit for bit.

The optimizer is an adaptive (Adam-style) update by default; plain SGD
is available as a toggle for gradient-audit tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor
from .corpus import (BINARY_VULNERABLE_LABEL, CweCatalog, DatasetSplit,
                     FunctionRecord, default_catalog, select)
from .errors import ConfigError, DataError, GradientError, TrainingError
from .lexer import Vocabulary, build_vocab, tokenize
from .model import (ModelConfig, VulnModel, denormalize_lines,
                    normalize_line_range)
from .objectives import (FocalConfig, MetricsReport, classification_metrics,
                         focal_loss, iou_1d, mse_loss)
from .semgraph import GraphConfig, build_graph, model_inputs
from .tensor import Matrix


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 6e-6
    batch_size: int = 8
    seed: int = 0
    w_cls: float = 1.0
    w_loc: float = 1.0
    focal: FocalConfig = field(default_factory=FocalConfig)
    optimizer: str = "adam"  # "adam" or "sgd"
    min_count: int = 1  # vocabulary threshold
    checkpoint_dir: str | None = None
    sweep_mode: str = "retrain"  # "retrain" or "shared"

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        # 0 is allowed so a no-op run can serve as a determinism probe.
        if self.learning_rate < 0.0:
            raise ConfigError("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.w_cls < 0.0 or self.w_loc < 0.0:
            raise ConfigError("loss weights must be >= 0")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.sweep_mode not in ("retrain", "shared"):
            raise ConfigError(f"unknown sweep_mode {self.sweep_mode!r}")


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


class Sgd:
    def __init__(self, params: Sequence[tensor.Parameter], lr: float):
        self.params = list(params)
        self.lr = lr

    def step(self) -> None:
        for p in self.params:
            p.value.data -= self.lr * p.grad


@dataclass(frozen=True)
class EncodedSample:
    """A record made model-ready: its stream's n ids, their n x n operator."""

    record_id: str
    ids: np.ndarray
    adjacency: np.ndarray
    label: int
    loc_target: tuple[float, float] | None
    line_count: int
    truth_range: tuple[int, int] | None


def label_index(record: FunctionRecord, num_classes: int,
                catalog: CweCatalog) -> int:
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
    return catalog.class_index(record.cwe)


def prepare_sample(record: FunctionRecord, vocab: Vocabulary, num_classes: int,
                   catalog: CweCatalog,
                   graph_config: GraphConfig = GraphConfig()) -> EncodedSample:
    graph = build_graph(tokenize(record.source), graph_config)
    ids, adjacency = model_inputs(graph, vocab)
    loc_target = None
    truth_range = None
    if record.is_vulnerable:
        truth_range = (record.vul_start, record.vul_end)
        loc_target = normalize_line_range(record.vul_start, record.vul_end,
                                          record.line_count)
    return EncodedSample(
        record_id=record.id,
        ids=ids, adjacency=adjacency,
        label=label_index(record, num_classes, catalog),
        loc_target=loc_target,
        line_count=record.line_count,
        truth_range=truth_range,
    )


def _sample_loss(model: VulnModel, sample: EncodedSample,
                 cfg: TrainConfig) -> Matrix:
    nodes = model.forward_nodes(sample.ids, sample.adjacency)
    loss = tensor.scale(
        focal_loss(nodes.class_logits, sample.label, cfg.focal), cfg.w_cls)
    if sample.loc_target is not None:
        loss = tensor.add(
            loss, tensor.scale(mse_loss(nodes.loc_pred, sample.loc_target),
                               cfg.w_loc))
    return loss


def _batch_loss(model: VulnModel, batch: Sequence[EncodedSample],
                cfg: TrainConfig) -> Matrix:
    total = None
    for sample in batch:
        loss = _sample_loss(model, sample, cfg)
        total = loss if total is None else tensor.add(total, loss)
    return tensor.scale(total, 1.0 / len(batch))


def _diagnostics(model: VulnModel, epoch: int, batch_idx: int) -> str:
    norms = {p.name: float(np.linalg.norm(p.data)) for p in model.parameters()}
    return (f"epoch {epoch}, batch {batch_idx}, parameter norms: "
            + ", ".join(f"{k}={v:.3g}" for k, v in norms.items()))


@dataclass
class TrainResult:
    model: VulnModel
    vocab: Vocabulary
    log: list[dict]


def train(records: Sequence[FunctionRecord], split: DatasetSplit,
          model_cfg: ModelConfig, train_cfg: TrainConfig,
          vocab: Vocabulary | None = None,
          catalog: CweCatalog | None = None,
          graph_config: GraphConfig = GraphConfig()) -> TrainResult:
    """Train on the split's train ids, tracking loss/metrics on val.

    The vocabulary is built from the train split only unless one is
    passed in. Writes per-epoch and best-validation checkpoints when
    ``train_cfg.checkpoint_dir`` is set.
    """
    catalog = catalog or default_catalog()
    train_records = select(records, split.train)
    val_records = select(records, split.val)
    if not train_records:
        raise TrainingError("empty train split")
    if vocab is None:
        vocab = build_vocab(train_records, min_count=train_cfg.min_count)
    if len(vocab) != model_cfg.vocab_size:
        model_cfg = replace(model_cfg, vocab_size=len(vocab))

    samples = [prepare_sample(r, vocab, model_cfg.num_classes, catalog,
                              graph_config) for r in train_records]
    val_samples = [prepare_sample(r, vocab, model_cfg.num_classes, catalog,
                                  graph_config) for r in val_records]

    model = VulnModel(model_cfg, seed=train_cfg.seed)
    params = model.parameters()
    optimizer = (Adam(params, train_cfg.learning_rate)
                 if train_cfg.optimizer == "adam"
                 else Sgd(params, train_cfg.learning_rate))
    rng = np.random.default_rng(train_cfg.seed)

    checkpoint_dir = (Path(train_cfg.checkpoint_dir)
                      if train_cfg.checkpoint_dir else None)
    best_val = float("inf")
    log: list[dict] = []
    order = np.arange(len(samples))

    for epoch in range(1, train_cfg.epochs + 1):
        rng.shuffle(order)
        epoch_losses: list[float] = []
        for batch_idx, start in enumerate(
                range(0, len(order), train_cfg.batch_size)):
            batch = [samples[i] for i in order[start:start + train_cfg.batch_size]]
            try:
                loss = _batch_loss(model, batch, train_cfg)
                value = loss.item()
            except GradientError as exc:
                # Overflow inside the forward pass surfaces here: the
                # matrix layer rejects non-finite values eagerly.
                raise TrainingError(
                    f"non-finite values in forward pass ({exc}); "
                    + _diagnostics(model, epoch, batch_idx)) from exc
            if not np.isfinite(value):
                raise TrainingError(
                    "non-finite loss; " + _diagnostics(model, epoch, batch_idx))
            tensor.backward(loss)
            optimizer.step()
            model.zero_grad()
            epoch_losses.append(value)

        val_loss = None
        val_f1 = None
        val_iou = None
        if val_samples:
            val_loss = float(np.mean([
                _sample_loss(model, s, train_cfg).item() for s in val_samples]))
            report = evaluate_samples(model, val_samples, model_cfg.num_classes)
            val_f1 = report.f1
            val_iou = report.mean_iou
        entry = {
            "epoch": epoch,
            "train_loss": float(np.mean(epoch_losses)),
            "val_loss": val_loss,
            "val_f1": val_f1,
            "val_iou": val_iou,
        }
        log.append(entry)

        if checkpoint_dir is not None:
            save_checkpoint(checkpoint_dir / f"epoch_{epoch:03d}", model, vocab,
                            train_cfg)
            if val_loss is not None and val_loss < best_val:
                best_val = val_loss
                save_checkpoint(checkpoint_dir / "best", model, vocab, train_cfg)

    model.freeze()
    return TrainResult(model=model, vocab=vocab, log=log)


def evaluate_samples(model: VulnModel, samples: Sequence[EncodedSample],
                     num_classes: int,
                     fusion: tuple[float, float] | None = None) -> MetricsReport:
    if not samples:
        raise DataError("evaluate: empty split")
    preds: list[int] = []
    truths: list[int] = []
    tp_ious: list[float] = []
    vulnerable_ious: list[float] = []
    for sample in samples:
        out = model.forward(sample.ids, sample.adjacency, fusion=fusion)
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
             vocab: Vocabulary, catalog: CweCatalog | None = None,
             graph_config: GraphConfig = GraphConfig()) -> MetricsReport:
    """Classification metrics over records, plus localization IoU.

    ``mean_iou`` averages over records that are truly vulnerable and
    predicted vulnerable; ``mean_iou_vulnerable`` over all truly
    vulnerable records regardless of the predicted class.
    """
    catalog = catalog or default_catalog()
    num_classes = model.config.num_classes
    samples = [prepare_sample(r, vocab, num_classes, catalog, graph_config)
               for r in records]
    return evaluate_samples(model, samples, num_classes)


def sweep_ensemble(records: Sequence[FunctionRecord], split: DatasetSplit,
                   ratios: Sequence[tuple[float, float]],
                   model_cfg: ModelConfig, train_cfg: TrainConfig,
                   catalog: CweCatalog | None = None) -> list[dict]:
    """Metrics per fusion ratio, shaped one row per (embed, graph) pair.

    In "retrain" mode every ratio trains a fresh model from the same
    seed; in "shared" mode one model is trained at the base config and
    re-fused per ratio at evaluation time.
    """
    catalog = catalog or default_catalog()
    for embed_w, graph_w in ratios:
        if abs(embed_w + graph_w - 1.0) > 1e-9:
            raise ConfigError(
                f"sweep ratio ({embed_w}, {graph_w}) does not sum to 1")
    test_records = select(records, split.test)
    if not test_records:
        raise DataError("sweep: empty test split")

    rows: list[dict] = []
    shared: TrainResult | None = None
    if train_cfg.sweep_mode == "shared":
        shared = train(records, split, model_cfg,
                       replace(train_cfg, checkpoint_dir=None), catalog=catalog)
        test_samples = [prepare_sample(r, shared.vocab, model_cfg.num_classes,
                                       catalog) for r in test_records]

    for embed_w, graph_w in ratios:
        if shared is not None:
            report = evaluate_samples(shared.model, test_samples,
                                      model_cfg.num_classes,
                                      fusion=(embed_w, graph_w))
        else:
            cfg = replace(model_cfg, embed_weight=embed_w, graph_weight=graph_w)
            result = train(records, split, cfg,
                           replace(train_cfg, checkpoint_dir=None),
                           catalog=catalog)
            report = evaluate(result.model, test_records, result.vocab, catalog)
        rows.append({
            "embed_weight": embed_w,
            "graph_weight": graph_w,
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
    (model and training settings as key=value text), vocab.tsv.
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

    Raises DataError when a file is missing or when config.txt, the
    vocabulary and the parameters disagree.
    """
    path = Path(path)
    for name in ("params.npz", "config.txt", "vocab.tsv"):
        if not (path / name).is_file():
            raise DataError(f"no checkpoint at {path} (missing {name})")
    try:
        model_kwargs, _ = parse_run_config(
            (path / "config.txt").read_text(encoding="utf-8"))
        missing = [f.name for f in fields(ModelConfig)
                   if f.name not in model_kwargs]
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


_TRAIN_KEYS = ("epochs", "learning_rate", "batch_size", "seed", "w_cls",
               "w_loc", "optimizer", "min_count", "sweep_mode")


def train_config_to_text(cfg: TrainConfig) -> str:
    lines = [f"{key}={getattr(cfg, key)}" for key in _TRAIN_KEYS]
    lines.append(f"focal_alpha={cfg.focal.alpha}")
    lines.append(f"focal_delta={cfg.focal.delta}")
    if cfg.checkpoint_dir:
        lines.append(f"checkpoint_dir={cfg.checkpoint_dir}")
    return "\n".join(lines) + "\n"


def parse_run_config(text: str) -> tuple[dict, dict]:
    """Split flat key=value text into model and training settings.

    Returns (model_kwargs, train_kwargs); unknown keys raise ConfigError
    so typos in config files fail loudly.
    """
    model_keys = {
        "vocab_size": int, "embed_dim": int, "gcn_dim": int,
        "gcn_layers": int, "num_classes": int,
        "embed_weight": float, "graph_weight": float,
    }
    train_keys = {
        "epochs": int, "learning_rate": float, "batch_size": int,
        "seed": int, "w_cls": float, "w_loc": float,
        "focal_alpha": float, "focal_delta": float,
        "optimizer": str, "min_count": int, "checkpoint_dir": str,
        "sweep_mode": str,
    }
    model_kwargs: dict = {}
    train_kwargs: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config line {lineno}: expected key=value")
        key = key.strip()
        value = value.strip()
        if key in model_keys:
            target, convert = model_kwargs, model_keys[key]
        elif key in train_keys:
            target, convert = train_kwargs, train_keys[key]
        else:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        try:
            target[key] = convert(value)
        except ValueError as exc:
            raise ConfigError(
                f"config line {lineno}: bad value for {key!r}: {value!r}"
            ) from exc
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
