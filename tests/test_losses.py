"""Unit tests for the module-style losses and the new activations."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F

from helpers import make_tensor


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


class TestDistillationAndRegression:
    def test_kl_zero_for_identical_logits(self, rng):
        logits = _logits(rng)
        loss = nn.KLDivergenceLoss(temperature=2.0)(logits.detach(), logits)
        assert loss.item() == pytest.approx(0.0, abs=1e-5)

    def test_kl_requires_positive_temperature(self):
        with pytest.raises(ValueError):
            nn.KLDivergenceLoss(temperature=0.0)

    def test_mse_quadratic(self):
        pred = nn.Tensor(np.array([2.0, 4.0], dtype=np.float32), requires_grad=True)
        target = np.array([0.0, 0.0], dtype=np.float32)
        assert nn.MSELoss()(pred, target).item() == pytest.approx(10.0)

    def test_smooth_l1_below_beta_is_quadratic(self):
        pred = nn.Tensor(np.array([0.5], dtype=np.float32))
        assert nn.SmoothL1Loss(beta=1.0)(pred, np.array([0.0])).item() == pytest.approx(0.125)

    def test_smooth_l1_above_beta_is_linear(self):
        pred = nn.Tensor(np.array([3.0], dtype=np.float32))
        assert nn.SmoothL1Loss(beta=1.0)(pred, np.array([0.0])).item() == pytest.approx(2.5)

    def test_bce_with_logits_matches_closed_form(self):
        logits = nn.Tensor(np.array([0.0, 0.0], dtype=np.float32))
        targets = np.array([1.0, 0.0], dtype=np.float32)
        assert nn.BCEWithLogitsLoss()(logits, targets).item() == pytest.approx(np.log(2.0), rel=1e-4)


class TestFocalLoss:
    def test_gamma_zero_matches_cross_entropy(self, rng):
        logits = _logits(rng)
        labels = rng.integers(0, 4, size=6)
        focal = nn.FocalLoss(gamma=0.0)(logits, labels).item()
        ce = nn.CrossEntropyLoss()(logits, labels).item()
        assert focal == pytest.approx(ce, rel=1e-4)

    def test_down_weights_easy_examples(self):
        easy = nn.Tensor(np.array([[8.0, -8.0]], dtype=np.float32))
        hard = nn.Tensor(np.array([[0.5, -0.5]], dtype=np.float32))
        labels = np.array([0])
        loss = nn.FocalLoss(gamma=2.0)
        ce = nn.CrossEntropyLoss()
        easy_ratio = loss(easy, labels).item() / max(ce(easy, labels).item(), 1e-12)
        hard_ratio = loss(hard, labels).item() / ce(hard, labels).item()
        assert easy_ratio < hard_ratio

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            nn.FocalLoss(gamma=-1.0)


class TestNewActivations:
    def test_swish_matches_definition(self, rng):
        x = make_tensor((4, 3), rng)
        expected = x.numpy() / (1.0 + np.exp(-x.numpy()))
        np.testing.assert_allclose(nn.Swish()(x).numpy(), expected, rtol=1e-5)

    def test_hard_swish_limits(self):
        x = nn.Tensor(np.array([-10.0, 0.0, 10.0], dtype=np.float32))
        out = nn.HardSwish()(x).numpy()
        np.testing.assert_allclose(out, [0.0, 0.0, 10.0], atol=1e-5)

    def test_hard_sigmoid_range(self, rng):
        x = make_tensor((20,), rng)
        out = nn.HardSigmoid()(x).numpy()
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_gelu_close_to_exact(self):
        from scipy.stats import norm as gaussian

        x = np.linspace(-3, 3, 31).astype(np.float32)
        out = nn.GELU()(nn.Tensor(x)).numpy()
        exact = x * gaussian.cdf(x)
        np.testing.assert_allclose(out, exact, atol=2e-2)

    def test_prelu_learns_slope(self, rng):
        act = nn.PReLU(num_parameters=3)
        x = make_tensor((2, 3, 4, 4), rng)
        act(x).sum().backward()
        assert act.weight.grad is not None
        assert act.weight.grad.shape == (3,)

    def test_prelu_positive_part_is_identity(self):
        act = nn.PReLU()
        x = nn.Tensor(np.array([1.0, 2.0], dtype=np.float32))
        np.testing.assert_allclose(act(x).numpy(), [1.0, 2.0], atol=1e-6)

    def test_prelu_negative_part_scaled(self):
        act = nn.PReLU(initial_slope=0.1)
        x = nn.Tensor(np.array([-2.0], dtype=np.float32))
        np.testing.assert_allclose(act(x).numpy(), [-0.2], atol=1e-6)

    def test_tanh_module(self, rng):
        x = make_tensor((5,), rng)
        np.testing.assert_allclose(nn.Tanh()(x).numpy(), np.tanh(x.numpy()), rtol=1e-5)

    def test_softmax_sums_to_one(self, rng):
        x = make_tensor((4, 7), rng)
        out = nn.Softmax()(x).numpy()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-5)
        assert (out >= 0).all()

    def test_softmax_gradient_flows(self, rng):
        x = make_tensor((2, 3), rng)
        (nn.Softmax()(x) * nn.Tensor(np.eye(3, dtype=np.float32)[:2])).sum().backward()
        assert x.grad is not None
