"""Unit tests for the module-style losses."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F


def _logits(rng, n=6, classes=4):
    return nn.Tensor(rng.normal(size=(n, classes)).astype(np.float32), requires_grad=True)


class TestCrossEntropyLoss:
    def test_matches_functional(self, rng):
        logits = _logits(rng)
        labels = rng.integers(0, 4, size=6)
        module_loss = nn.CrossEntropyLoss()(logits, labels)
        functional_loss = F.cross_entropy(logits, labels)
        assert module_loss.item() == pytest.approx(functional_loss.item())

    def test_label_smoothing_increases_loss_on_confident_predictions(self):
        logits = nn.Tensor(np.array([[10.0, -10.0], [-10.0, 10.0]], dtype=np.float32))
        labels = np.array([0, 1])
        plain = nn.CrossEntropyLoss()(logits, labels).item()
        smoothed = nn.CrossEntropyLoss(label_smoothing=0.2)(logits, labels).item()
        assert smoothed > plain

    def test_invalid_smoothing_rejected(self):
        with pytest.raises(ValueError):
            nn.CrossEntropyLoss(label_smoothing=1.0)

    def test_gradient_flows(self, rng):
        logits = _logits(rng)
        nn.CrossEntropyLoss()(logits, rng.integers(0, 4, size=6)).backward()
        assert logits.grad is not None


    def test_gradient_rounds_once_for_ragged_batch(self, rng):
        """The 1/N scale is a float64 scalar, so each gradient element is
        rounded once even when N (a ragged last batch) is not a power of two."""
        logits = _logits(rng, n=24, classes=10)
        labels = rng.integers(0, 10, size=24)
        F.cross_entropy(logits, labels).backward()
        probs = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        unscaled = probs - np.eye(10, dtype=np.float32)[labels]
        expected = (unscaled.astype(np.float64) / 24).astype(np.float32)
        np.testing.assert_array_equal(logits.grad, expected)


class TestSoftTargetCrossEntropy:
    def test_one_hot_targets_match_hard_labels(self, rng):
        logits = _logits(rng)
        labels = rng.integers(0, 4, size=6)
        soft = nn.SoftTargetCrossEntropy()(logits, F.one_hot(labels, 4)).item()
        hard = nn.CrossEntropyLoss()(logits, labels).item()
        assert soft == pytest.approx(hard, rel=1e-5)

    def test_mixture_targets_between_pure_losses(self, rng):
        logits = _logits(rng, n=4)
        a = F.one_hot(np.array([0, 1, 2, 3]), 4)
        b = F.one_hot(np.array([1, 2, 3, 0]), 4)
        mixed = nn.SoftTargetCrossEntropy()(logits, 0.5 * a + 0.5 * b).item()
        loss_a = nn.SoftTargetCrossEntropy()(logits, a).item()
        loss_b = nn.SoftTargetCrossEntropy()(logits, b).item()
        assert mixed == pytest.approx(0.5 * loss_a + 0.5 * loss_b, rel=1e-5)
