import math

import numpy as np
import pytest

from vulngraph import tensor
from vulngraph.errors import ConfigError, DataError, ShapeError
from vulngraph.objectives import (FocalConfig, classification_metrics,
                                  focal_loss, iou_1d, mse_loss)
from vulngraph.tensor import Parameter
from oracles import loss_node


def logits_with_target_prob(p_target, num_classes=4, target=0):
    """Logit row whose softmax puts exactly p_target on the target class."""
    rest = (1.0 - p_target) / (num_classes - 1)
    probs = np.full(num_classes, rest)
    probs[target] = p_target
    return np.log(probs)


def cross_entropy(logits, target):
    z = logits - logits.max()
    return float(np.log(np.exp(z).sum()) - z[target])


class TestFocalLoss:
    def test_reduces_to_cross_entropy(self):
        cfg = FocalConfig(alpha=1.0, delta=0.0)
        rng = np.random.default_rng(0)
        for _ in range(100):
            logits = rng.normal(scale=3.0, size=6)
            target = int(rng.integers(0, 6))
            loss, _ = focal_loss(logits, target, cfg)
            assert loss == pytest.approx(cross_entropy(logits, target),
                                         abs=1e-12)

    def test_alpha_scales_cross_entropy_exactly(self):
        logits = np.array([0.4, -1.2, 2.0])
        for alpha in (0.25, 0.5, 1.0):
            cfg = FocalConfig(alpha=alpha, delta=0.0)
            loss, _ = focal_loss(logits, 2, cfg)
            assert loss / alpha == pytest.approx(cross_entropy(logits, 2),
                                                 abs=1e-15)

    def test_derived_point(self):
        cfg = FocalConfig(alpha=0.25, delta=2.0)
        logits = np.log([0.9, 0.1])
        expected = 0.25 * 0.1 ** 2 * -math.log(0.9)  # = 2.634e-4
        assert focal_loss(logits, 0, cfg)[0] == pytest.approx(
            expected, abs=1e-9)

    def test_saturated_prediction_loses_nothing(self):
        cfg = FocalConfig(alpha=0.25, delta=2.0)
        logits = np.array([60.0, 0.0])  # p ~ 1 - 1e-26
        loss, grad = focal_loss(logits, 0, cfg)
        assert loss == pytest.approx(0.0, abs=1e-15)
        assert np.isfinite(grad).all()

    def test_finite_for_extreme_logits(self):
        cfg = FocalConfig(alpha=0.5, delta=2.0)
        loss, grad = focal_loss(np.array([-700.0, 700.0]), 0, cfg)
        assert math.isfinite(loss)
        assert np.isfinite(grad).all()

    def test_monotone_decreasing_in_target_probability(self):
        cfg = FocalConfig(alpha=0.25, delta=2.0)
        grid = np.linspace(0.02, 0.98, 40)
        losses = [
            focal_loss(logits_with_target_prob(p), 0, cfg)[0]
            for p in grid
        ]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_gradient_check(self):
        for delta in (0.0, 1.0, 2.0):
            cfg = FocalConfig(alpha=0.25, delta=delta)
            logits = Parameter(np.array([[0.3, -0.8, 1.4, 0.0]]), "logits")

            def f():
                return loss_node(*focal_loss(logits.data[0], 2, cfg),
                                 logits.value)

            report = tensor.grad_check(f, [logits], tol=1e-4)
            assert report.passed, (delta, report)

    def test_invalid_target(self):
        with pytest.raises(DataError):
            focal_loss(np.zeros(2), 2, FocalConfig())

    def test_logits_must_be_one_row(self):
        with pytest.raises(ShapeError, match="one row"):
            focal_loss(np.zeros((1, 2)), 0, FocalConfig())

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            FocalConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            FocalConfig(delta=-1.0)


class TestMseLoss:
    def test_exact_match_is_zero(self):
        loss, grad = mse_loss((0.3, 0.7), (0.3, 0.7))
        assert loss == 0.0
        assert not grad.any()

    def test_componentwise_mean(self):
        assert mse_loss((0.2, 0.6), (0.4, 0.6))[0] == pytest.approx(0.02)

    def test_symmetric(self):
        a, b = (0.1, 0.9), (0.5, 0.3)
        assert mse_loss(a, b)[0] == pytest.approx(mse_loss(b, a)[0])

    def test_gradient_check(self):
        pred = Parameter(np.array([[0.2, 0.8]]), "pred")

        def f():
            return loss_node(*mse_loss(pred.data[0], (0.5, 0.1)),
                             pred.value)

        assert tensor.grad_check(f, [pred], tol=1e-6).passed


def brute_force_iou(pred, truth):
    """Bitmask oracle: materialize both line sets and count."""
    a = set(range(pred[0], pred[1] + 1))
    b = set(range(truth[0], truth[1] + 1))
    return len(a & b) / len(a | b)


class TestIou:
    def test_identical_ranges(self):
        assert iou_1d((3, 7), (3, 7)) == 1.0

    def test_disjoint_ranges(self):
        assert iou_1d((1, 2), (5, 9)) == 0.0

    def test_partial_overlap(self):
        assert iou_1d((5, 10), (3, 7)) == 0.375

    def test_symmetric_and_bounded(self):
        ranges = [(s, e) for s in range(1, 9) for e in range(s, 9)]
        for a in ranges:
            for b in ranges:
                v = iou_1d(a, b)
                assert v == iou_1d(b, a)
                assert 0.0 <= v <= 1.0

    def test_matches_brute_force_oracle(self):
        ranges = [(s, e) for s in range(1, 13) for e in range(s, 13)]
        for a in ranges:
            for b in ranges:
                assert iou_1d(a, b) == pytest.approx(brute_force_iou(a, b))

    def test_invalid_range(self):
        with pytest.raises(DataError):
            iou_1d((3, 2), (1, 1))
        with pytest.raises(DataError):
            iou_1d((1, 1), (0, 4))


class TestMetrics:
    def test_perfect_predictions(self):
        report = classification_metrics([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert report.accuracy == 1.0
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0

    def test_binary_confusion_matrix_example(self):
        # TP=2, FP=1, FN=1, TN=6
        preds = [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
        truth = [1, 1, 0, 1, 0, 0, 0, 0, 0, 0]
        report = classification_metrics(preds, truth, 2)
        assert report.precision == pytest.approx(2 / 3)
        assert report.recall == pytest.approx(2 / 3)
        assert report.f1 == pytest.approx(2 / 3)
        assert report.accuracy == pytest.approx(0.8)

    def test_absent_class_excluded_from_macro(self):
        # class 2 never appears in truths: per-class scores stay 0 and it
        # does not drag the macro average down
        report = classification_metrics([0, 1, 1], [0, 1, 1], 3)
        assert report.per_class[2]["precision"] == 0.0
        assert report.per_class[2]["recall"] == 0.0
        assert report.precision == 1.0

    def test_f1_is_harmonic_mean_of_reported_precision_recall(self):
        rng = np.random.default_rng(4)
        preds = rng.integers(0, 4, size=60).tolist()
        truth = rng.integers(0, 4, size=60).tolist()
        report = classification_metrics(preds, truth, 4)
        p, r = report.precision, report.recall
        expected = 2 * p * r / (p + r) if p + r else 0.0
        assert report.f1 == pytest.approx(expected)

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            classification_metrics([], [], 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            classification_metrics([0], [0, 1], 2)

    def test_json_dump_contains_all_scalars(self):
        report = classification_metrics([0, 1], [0, 1], 2)
        payload = report.to_json()
        for key in ("accuracy", "precision", "recall", "f1", "macro_f1",
                    "micro_f1", "mean_iou", "per_class"):
            assert key in payload
