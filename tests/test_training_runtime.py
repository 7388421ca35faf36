"""Behaviour tests for the training step and its supporting machinery.

Covers ``Trainer.train_step`` (batch-norm statistics, flat-buffer gradients,
live PLT alphas), the flat-buffer optimisers (`repro.optim.flat`) and the data
pipeline's RNG stability.
"""

import numpy as np
import pytest

from repro import nn
from repro.data import (
    ClassificationDataset,
    Compose,
    DataLoader,
    Normalize,
    RandomCrop,
    RandomHorizontalFlip,
)
from repro.models import mobilenet_v2
from repro.optim import (
    SGD,
    FlatParams,
    FlatSGD,
)
from repro.train import StandardLoss, Trainer
from repro.utils import ExperimentConfig, seed_everything


def _dataset(n=64, classes=4, size=16, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % classes
    images = rng.normal(0.4, 0.2, size=(n, 3, size, size)).astype(np.float32)
    for i, label in enumerate(labels):
        images[i, 0] += 0.3 * label
    return ClassificationDataset(images, np.asarray(labels), classes)


class TestTrainStep:
    """Behaviour of ``Trainer.train_step`` (one eager forward+backward)."""

    def test_bn_running_stats_updated_in_train_mode(self):
        seed_everything(0)
        model = mobilenet_v2("tiny", num_classes=4)
        before = {
            name: value.copy()
            for name, value in model.state_dict().items()
            if "running_" in name
        }
        trainer = Trainer(model, ExperimentConfig(batch_size=8, lr=0.01))
        rng = np.random.default_rng(0)
        model.train()
        trainer.train_step(
            rng.normal(size=(8, 3, 16, 16)).astype(np.float32), rng.integers(0, 4, size=8)
        )
        after = model.state_dict()
        changed = [name for name in before if not np.allclose(after[name], before[name])]
        assert changed, "a train step must update BN running statistics"

    def test_grads_land_in_flat_buffer(self):
        seed_everything(0)
        model = mobilenet_v2("tiny", num_classes=4)
        trainer = Trainer(model, ExperimentConfig(batch_size=4, lr=0.01))
        rng = np.random.default_rng(0)
        trainer.train_step(
            rng.normal(size=(4, 3, 16, 16)).astype(np.float32), rng.integers(0, 4, size=4)
        )
        flat_grad = trainer.optimizer.flat.grad
        assert float(np.abs(flat_grad).sum()) > 0.0
        for param in trainer.optimizer.params:
            assert param.grad is not None
            assert param.grad.base is flat_grad or param.grad is flat_grad

    def test_decayable_alpha_change_applies_next_step(self):
        """A PLT-style alpha change mid-fit shows in the very next step."""
        act = nn.DecayableReLU(alpha=0.0)
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, bias=True), act, nn.GlobalAvgPool2d(), nn.Flatten(),
            nn.Linear(4, 2),
        )
        logits_seen = []

        class Recording(StandardLoss):
            def __call__(self, model, images, labels):
                loss, logits = super().__call__(model, images, labels)
                logits_seen.append(logits.numpy().copy())
                return loss, logits

        dataset = ClassificationDataset(
            np.full((4, 3, 4, 4), -1.0, dtype=np.float32), np.zeros(4, dtype=np.int64), 2
        )
        trainer = Trainer(
            model,
            ExperimentConfig(epochs=1, batch_size=2, lr=0.0, weight_decay=0.0),
            loss_computer=Recording(),
            iteration_callbacks=[lambda iteration: act.set_alpha(1.0)],  # identity now
        )
        trainer.fit(dataset)
        relu_logits, linear_logits = logits_seen
        assert not np.allclose(relu_logits, linear_logits)
        with nn.no_grad():
            expected = model(nn.Tensor(dataset.images[:2])).numpy()
        np.testing.assert_array_equal(linear_logits, expected)


class TestFlatOptim:
    def _model(self):
        seed_everything(3)
        return mobilenet_v2("tiny", num_classes=4)

    def test_flat_sgd_matches_sgd_bitwise(self):
        def train(opt_cls):
            seed_everything(1)
            model = mobilenet_v2("tiny", num_classes=4)
            opt = opt_cls(model.parameters(), lr=0.1, momentum=0.9, weight_decay=1e-4, nesterov=True)
            rng = np.random.default_rng(5)
            from repro.nn import functional as F

            for _ in range(5):
                opt.zero_grad()
                x = nn.Tensor(rng.normal(size=(4, 3, 16, 16)).astype(np.float32))
                loss = F.cross_entropy(model(x), rng.integers(0, 4, size=4))
                loss.backward()
                opt.step()
            return model.state_dict()

        ref, flat = train(SGD), train(FlatSGD)
        for key in ref:
            np.testing.assert_array_equal(ref[key], flat[key], err_msg=key)

    def test_flat_params_views_are_live(self):
        p1 = nn.Parameter(np.ones((2, 2), dtype=np.float32))
        p2 = nn.Parameter(np.full(3, 2.0, dtype=np.float32))
        flat = FlatParams([p1, p2])
        assert flat.size == 7
        flat.data += 1.0
        np.testing.assert_allclose(p1.numpy(), np.full((2, 2), 2.0))
        np.testing.assert_allclose(p2.numpy(), np.full(3, 3.0))
        p1.data *= 2.0
        np.testing.assert_allclose(flat.data[:4], 4.0)
        assert flat.check_bound()

    def test_flat_params_dedupes_shared_parameters(self):
        shared = nn.Parameter(np.ones(4, dtype=np.float32))
        flat = FlatParams([shared, shared])
        assert flat.size == 4

    def test_flat_sgd_recovers_from_model_zero_grad(self):
        model = self._model()
        opt = FlatSGD(model.parameters(), lr=0.1, momentum=0.0)
        model.zero_grad()  # sets grads to None, bypassing the flat buffer
        from repro.nn import functional as F

        rng = np.random.default_rng(0)
        loss = F.cross_entropy(
            model(nn.Tensor(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))),
            rng.integers(0, 4, size=2),
        )
        loss.backward()
        before = model.classifier.weight.numpy().copy()
        opt.step()  # must gather the stray grads
        assert not np.allclose(model.classifier.weight.numpy(), before)

class TestPrefetchingLoader:
    def _loader(self, transform=None, seed=9):
        return DataLoader(
            _dataset(), batch_size=16, shuffle=True, transform=transform, seed=seed,
        )

    def test_same_seed_replays_identically_across_epochs(self):
        transform = Compose([RandomHorizontalFlip(), RandomCrop(2), Normalize()])
        a, b = self._loader(transform), self._loader(transform)
        epochs = []
        for _ in range(3):  # RNG state must advance identically epoch to epoch
            batches_a, batches_b = list(a), list(b)
            assert len(batches_a) == len(batches_b) == 4
            for (img_a, lab_a), (img_b, lab_b) in zip(batches_a, batches_b):
                np.testing.assert_array_equal(img_a, img_b)
                np.testing.assert_array_equal(lab_a, lab_b)
            epochs.append(np.concatenate([images for images, _ in batches_a]))
        assert not np.array_equal(epochs[0], epochs[1])

    def test_early_break_then_reiterate(self):
        loader = self._loader()
        iterator = iter(loader)
        next(iterator)
        del iterator  # abandon mid-epoch; the next epoch must still be full
        batches = list(loader)
        assert len(batches) == 4

    def test_producer_exception_propagates(self):
        class Boom(Exception):
            pass

        class Exploding:
            def __call__(self, image, rng):
                raise Boom()

        loader = DataLoader(_dataset(), batch_size=16, transform=Exploding())
        with pytest.raises(Boom):
            next(iter(loader))

    def test_batched_transforms_match_shapes_and_determinism(self):
        transform = Compose([RandomHorizontalFlip(), RandomCrop(2), Normalize()])
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        images = np.random.default_rng(0).random((8, 3, 12, 12)).astype(np.float32)
        out_a = transform.batch(images, rng_a)
        out_b = transform.batch(images, rng_b)
        assert out_a.shape == images.shape
        np.testing.assert_array_equal(out_a, out_b)

    def test_per_image_callable_still_supported(self):
        calls = []

        class Marker:
            def __call__(self, image, rng):
                calls.append(1)
                return image

        loader = DataLoader(_dataset(n=8), batch_size=8, transform=Marker())
        next(iter(loader))
        assert len(calls) == 8
