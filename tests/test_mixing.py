"""Unit tests for MixUp batch augmentation."""

import numpy as np
import pytest

from repro import nn
from repro.data import ClassificationDataset, MixingLoss, mixup
from repro.train import Trainer
from repro.utils import ExperimentConfig


@pytest.fixture
def batch(rng):
    images = rng.uniform(0, 1, size=(8, 3, 12, 12)).astype(np.float32)
    labels = np.arange(8) % 4
    return images, labels


class TestMixup:
    def test_targets_are_distributions(self, batch, rng):
        images, labels = batch
        mixed, targets = mixup(images, labels, num_classes=4, alpha=0.4, rng=rng)
        assert mixed.shape == images.shape
        assert targets.shape == (8, 4)
        np.testing.assert_allclose(targets.sum(axis=1), 1.0, atol=1e-5)

    def test_mixed_images_stay_in_convex_hull(self, batch, rng):
        images, labels = batch
        mixed, _ = mixup(images, labels, num_classes=4, alpha=1.0, rng=rng)
        assert mixed.min() >= images.min() - 1e-6
        assert mixed.max() <= images.max() + 1e-6

    def test_alpha_zero_returns_original(self, batch, rng):
        images, labels = batch
        mixed, targets = mixup(images, labels, num_classes=4, alpha=0.0, rng=rng)
        np.testing.assert_allclose(mixed, images, atol=1e-6)
        assert set(np.unique(targets)) <= {0.0, 1.0}

    def test_does_not_modify_input(self, batch, rng):
        images, labels = batch
        before = images.copy()
        mixup(images, labels, num_classes=4, alpha=1.0, rng=rng)
        np.testing.assert_array_equal(images, before)


class TestMixingLoss:
    def _model(self):
        return nn.Sequential(
            nn.Conv2d(3, 4, 3, stride=2, padding=1),
            nn.ReLU(),
            nn.GlobalAvgPool2d(),
            nn.Flatten(),
            nn.Linear(4, 4),
        )

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            MixingLoss(num_classes=4, probability=1.5)

    def test_returns_scalar_loss_and_logits(self, batch):
        images, labels = batch
        loss_computer = MixingLoss(num_classes=4, alpha=1.0)
        loss, logits = loss_computer(self._model(), nn.Tensor(images), labels)
        assert loss.size == 1
        assert logits.shape == (8, 4)

    def test_probability_zero_falls_back_to_cross_entropy(self, batch):
        images, labels = batch
        loss_computer = MixingLoss(num_classes=4, probability=0.0)
        loss, _ = loss_computer(self._model(), nn.Tensor(images), labels)
        assert np.isfinite(loss.item())

    def test_trainer_integration(self, batch):
        images, labels = batch
        dataset = ClassificationDataset(images, labels, 4)
        trainer = Trainer(
            self._model(),
            ExperimentConfig(epochs=1, batch_size=4, lr=0.05),
            loss_computer=MixingLoss(num_classes=4, alpha=0.4),
        )
        history = trainer.fit(dataset, dataset)
        assert len(history.train_loss) == 1
        assert np.isfinite(history.train_loss[0])
