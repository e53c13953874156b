"""Training objectives and evaluation metrics.

The classification loss is a focal loss: cross-entropy scaled by
``alpha * (1 - p_t) ** delta`` so confidently-classified samples stop
dominating the gradient on imbalanced corpora. With ``delta = 0`` and
``alpha = 1`` it reduces to plain cross-entropy exactly. Localization
uses mean squared error on normalized line fractions, and localization
quality is scored with a one-dimensional intersection-over-union on
inclusive integer line ranges. Both losses are plain numpy: each returns
its value and its gradient with respect to its input, which the trainer
hands to ``VulnModel.backward``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, ShapeError


@dataclass(frozen=True)
class FocalConfig:
    """alpha balances classes; delta focuses on hard examples."""

    alpha: float = 0.25
    delta: float = 2.0

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError(f"focal alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.delta < math.inf:  # NaN fails too
            raise ConfigError(
                f"focal delta must be finite and >= 0, got {self.delta}")


def focal_loss(class_logits: np.ndarray, true_class: int,
               cfg: FocalConfig = FocalConfig()) -> tuple[float, np.ndarray]:
    """Focal loss of one row of C logits, and its gradient with respect
    to them.

    The target probability is computed through log-sum-exp, so the loss
    is finite for any finite logits.
    """
    z = np.asarray(class_logits, dtype=np.float64)
    if z.ndim != 1:
        raise ShapeError(f"focal_loss expects one row of C logits, got "
                         f"shape {z.shape}")
    num_classes = z.size
    if not (0 <= true_class < num_classes):
        raise DataError(
            f"true_class {true_class} out of range for {num_classes} classes"
        )
    shifted = z - z.max()
    log_norm = np.log(np.exp(shifted).sum())
    log_p = float(shifted[true_class] - log_norm)
    p = float(np.exp(log_p))
    miss = 1.0 - p
    value = -cfg.alpha * (miss ** cfg.delta) * log_p

    softmax = np.exp(shifted - log_norm)
    onehot = np.zeros(num_classes)
    onehot[true_class] = 1.0
    # max() keeps (1-p)^(delta-1) finite when p has saturated.
    focus_term = (-cfg.delta * max(miss, 1e-15) ** (cfg.delta - 1.0)
                  * p * log_p if cfg.delta > 0.0 else 0.0)
    return value, -cfg.alpha * (onehot - softmax) * (
        focus_term + miss ** cfg.delta)


def mse_loss(loc_pred: Sequence[float] | np.ndarray,
             loc_target: Sequence[float]) -> tuple[float, np.ndarray]:
    """Mean squared error between predicted and target fraction pairs,
    and its gradient with respect to the prediction."""
    pred = np.asarray(loc_pred, dtype=np.float64)
    target = np.asarray(loc_target, dtype=np.float64)
    if target.shape != pred.shape:
        raise ShapeError(
            f"mse_loss: prediction {pred.shape} vs target {target.shape}"
        )
    diff = pred - target
    return float(np.mean(diff * diff)), diff * (2.0 / diff.size)


def iou_1d(pred: tuple[int, int], truth: tuple[int, int]) -> float:
    """Intersection over union of two inclusive 1-based line ranges."""
    for name, (start, end) in (("pred", pred), ("truth", truth)):
        if start < 1 or end < start:
            raise DataError(f"iou_1d: invalid {name} range ({start}, {end})")
    inter = min(pred[1], truth[1]) - max(pred[0], truth[0]) + 1
    if inter <= 0:
        return 0.0
    union = (pred[1] - pred[0] + 1) + (truth[1] - truth[0] + 1) - inter
    return inter / union


@dataclass
class MetricsReport:
    """Classification metrics plus optional localization IoU.

    ``precision``/``recall`` are macro averages over the classes present
    in the ground truth (or the positive class in binary mode) and ``f1``
    is their harmonic mean; ``macro_f1`` averages per-class F1 instead,
    and ``micro_f1`` pools decisions over all samples. ``mean_iou`` is
    averaged over true positives only and ``mean_iou_vulnerable`` over
    every truly-vulnerable record; both stay None when no record
    qualifies.
    """

    accuracy: float
    precision: float
    recall: float
    f1: float
    macro_f1: float
    micro_f1: float
    n_samples: int
    per_class: dict[int, dict[str, float]] = field(default_factory=dict)
    mean_iou: float | None = None
    mean_iou_vulnerable: float | None = None

    def to_json(self) -> str:
        payload = {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "macro_f1": self.macro_f1,
            "micro_f1": self.micro_f1,
            "mean_iou": self.mean_iou,
            "mean_iou_vulnerable": self.mean_iou_vulnerable,
            "n_samples": self.n_samples,
            "per_class": {str(k): v for k, v in sorted(self.per_class.items())},
        }
        return json.dumps(payload, sort_keys=True)


def _harmonic(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0


def classification_metrics(preds: Sequence[int], truths: Sequence[int],
                           num_classes: int) -> MetricsReport:
    """Accuracy plus per-class precision/recall/F1.

    Binary mode (num_classes == 2) scores class 1 as the positive class;
    multiclass mode macro-averages over the classes present in truths.
    Classes with no predictions or no true samples score 0 rather than
    being undefined.
    """
    if len(preds) == 0:
        raise DataError("classification_metrics: empty input")
    if len(preds) != len(truths):
        raise DataError(
            f"classification_metrics: {len(preds)} predictions vs "
            f"{len(truths)} truths"
        )
    preds = np.asarray(preds, dtype=np.int64)
    truths = np.asarray(truths, dtype=np.int64)
    accuracy = float((preds == truths).mean())

    per_class: dict[int, dict[str, float]] = {}
    for cls in range(num_classes):
        tp = int(((preds == cls) & (truths == cls)).sum())
        fp = int(((preds == cls) & (truths != cls)).sum())
        fn = int(((preds != cls) & (truths == cls)).sum())
        precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
        recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
        per_class[cls] = {
            "precision": precision,
            "recall": recall,
            "f1": _harmonic(precision, recall),
            "support": float((truths == cls).sum()),
        }

    if num_classes == 2:
        averaged = [1]
    else:
        averaged = sorted(set(int(t) for t in truths))
    precision = float(np.mean([per_class[c]["precision"] for c in averaged]))
    recall = float(np.mean([per_class[c]["recall"] for c in averaged]))
    macro_f1 = float(np.mean([per_class[c]["f1"] for c in averaged]))

    # Micro scores pool the one-vs-rest decisions of the averaged classes.
    tp_total = sum(((preds == c) & (truths == c)).sum() for c in averaged)
    fp_total = sum(((preds == c) & (truths != c)).sum() for c in averaged)
    fn_total = sum(((preds != c) & (truths == c)).sum() for c in averaged)
    micro_p = tp_total / (tp_total + fp_total) if (tp_total + fp_total) else 0.0
    micro_r = tp_total / (tp_total + fn_total) if (tp_total + fn_total) else 0.0

    return MetricsReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=_harmonic(precision, recall),
        macro_f1=macro_f1,
        micro_f1=_harmonic(micro_p, micro_r),
        n_samples=len(preds),
        per_class=per_class,
    )
