"""Unit tests for the classification trainer, metrics and transfer recipes."""

import numpy as np
import pytest

from repro import nn
from repro.data import ClassificationDataset, RandomHorizontalFlip, SyntheticImageNet
from repro.models import mobilenet_v2
from repro.train import (
    StandardLoss,
    Trainer,
    TrainingHistory,
    accuracy,
    evaluate,
    finetune,
    reset_classifier,
    top_k_accuracy,
)
from repro.train.metrics import AverageMeter
from repro.utils import ExperimentConfig


def _toy_dataset(n=32, classes=4, size=12, seed=0):
    """Linearly separable toy dataset: channel mean encodes the class."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % classes
    images = rng.normal(0.3, 0.05, size=(n, 3, size, size)).astype(np.float32)
    for i, label in enumerate(labels):
        images[i, 0] += 0.5 * label
    return ClassificationDataset(images, labels, classes)


class SmallNet(nn.Module):
    def __init__(self, classes=4):
        super().__init__()
        self.features = nn.Sequential(nn.Conv2d(3, 8, 3, stride=2, padding=1), nn.ReLU())
        self.pool = nn.GlobalAvgPool2d()
        self.flatten = nn.Flatten()
        self.classifier = nn.Linear(8, classes)

    def forward(self, x):
        return self.classifier(self.flatten(self.pool(self.features(x))))


class TestMetrics:
    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(200 / 3)

    def test_top_k(self):
        logits = np.array([[3.0, 2.0, 1.0, 0.0]])
        assert top_k_accuracy(logits, np.array([2]), k=3) == 100.0
        assert top_k_accuracy(logits, np.array([3]), k=3) == 0.0

    def test_average_meter(self):
        meter = AverageMeter()
        meter.update(1.0, n=2)
        meter.update(4.0, n=1)
        assert meter.average == pytest.approx(2.0)
        meter.reset()
        assert meter.average == 0.0


class TestTrainer:
    def test_learns_separable_toy_problem(self):
        dataset = _toy_dataset(n=64)
        model = SmallNet()
        trainer = Trainer(model, ExperimentConfig(epochs=25, batch_size=16, lr=0.05))
        history = trainer.fit(dataset, dataset)
        assert history.val_accuracy[-1] > 80.0
        assert history.train_loss[0] > history.train_loss[-1]

    def test_history_lengths_and_lr_schedule(self):
        dataset = _toy_dataset()
        trainer = Trainer(SmallNet(), ExperimentConfig(epochs=3, batch_size=8, lr=0.1))
        history = trainer.fit(dataset, dataset)
        assert len(history.train_loss) == 3
        assert len(history.val_accuracy) == 3
        assert len(history.learning_rate) == 3
        assert history.learning_rate[0] == pytest.approx(0.1)
        assert history.learning_rate[-1] < 0.1  # cosine decays

    def test_iteration_and_epoch_callbacks_invoked(self):
        dataset = _toy_dataset(n=16)
        iteration_calls, epoch_calls = [], []
        trainer = Trainer(
            SmallNet(),
            ExperimentConfig(epochs=2, batch_size=8, lr=0.01),
            iteration_callbacks=[iteration_calls.append],
            epoch_callbacks=[lambda epoch, history: epoch_calls.append(epoch)],
        )
        trainer.fit(dataset)
        assert len(iteration_calls) == 4  # 2 batches x 2 epochs
        assert epoch_calls == [0, 1]

    def test_custom_loss_computer_used(self):
        dataset = _toy_dataset(n=16)
        calls = []

        class Recording(StandardLoss):
            def __call__(self, model, images, labels):
                calls.append(len(labels))
                return super().__call__(model, images, labels)

        trainer = Trainer(SmallNet(), ExperimentConfig(epochs=1, batch_size=8, lr=0.01), loss_computer=Recording())
        trainer.fit(dataset)
        assert sum(calls) == 16

    def test_train_transform_applied(self):
        dataset = _toy_dataset(n=8)
        trainer = Trainer(
            SmallNet(),
            ExperimentConfig(epochs=1, batch_size=8, lr=0.01),
            train_transform=RandomHorizontalFlip(p=1.0),
        )
        history = trainer.fit(dataset, dataset)
        assert len(history.train_loss) == 1

    def test_evaluate_matches_module_function(self):
        dataset = _toy_dataset(n=16)
        model = SmallNet()
        trainer = Trainer(model, ExperimentConfig(epochs=1, batch_size=8, lr=0.01))
        trainer.fit(dataset)
        assert trainer.evaluate(dataset) == pytest.approx(evaluate(model, dataset))

    def test_invalid_schedule_name_raises(self):
        with pytest.raises(ValueError):
            Trainer(SmallNet(), ExperimentConfig(epochs=1, lr_schedule="exotic"))

    def test_history_extend_and_best(self):
        a = TrainingHistory(train_loss=[1.0], train_accuracy=[10.0], val_accuracy=[20.0], learning_rate=[0.1])
        b = TrainingHistory(train_loss=[0.5], train_accuracy=[30.0], val_accuracy=[40.0], learning_rate=[0.05])
        a.extend(b)
        assert a.best_val_accuracy == 40.0
        assert a.final_val_accuracy == 40.0
        assert len(a.train_loss) == 2


class TestTransfer:
    def test_reset_classifier_on_model_zoo(self):
        model = mobilenet_v2("tiny", num_classes=10)
        reset_classifier(model, 3)
        assert model.classifier.out_features == 3

    def test_reset_classifier_fallback_linear_attribute(self):
        model = SmallNet(classes=5)
        reset_classifier(model, 2)
        assert model.classifier.out_features == 2

    def test_reset_classifier_unsupported_model(self):
        with pytest.raises(TypeError):
            reset_classifier(nn.Sequential(nn.ReLU()), 2)

    def test_finetune_changes_head_and_trains(self):
        corpus = SyntheticImageNet(num_classes=3, samples_per_class=6, val_samples_per_class=2, resolution=16)
        model = mobilenet_v2("tiny", num_classes=3)
        history = finetune(
            model,
            corpus.train,
            corpus.val,
            ExperimentConfig(epochs=1, batch_size=8, lr=0.01),
            new_num_classes=3,
        )
        assert len(history.val_accuracy) == 1

    def test_finetune_freeze_backbone_only_updates_head(self):
        corpus = SyntheticImageNet(num_classes=3, samples_per_class=4, val_samples_per_class=2, resolution=16)
        model = mobilenet_v2("tiny", num_classes=3)
        stem_before = model.features[0].conv.weight.numpy().copy()
        head_before = model.classifier.weight.numpy().copy()
        finetune(
            model,
            corpus.train,
            corpus.val,
            ExperimentConfig(epochs=1, batch_size=8, lr=0.05),
            freeze_backbone=True,
        )
        np.testing.assert_allclose(model.features[0].conv.weight.numpy(), stem_before)
        assert not np.allclose(model.classifier.weight.numpy(), head_before)


class TestCheckpoint:
    def _setup(self, epochs=4, warmup=1):
        from repro.utils.seed import seed_everything

        config = ExperimentConfig(epochs=epochs, batch_size=8, lr=0.1, warmup_epochs=warmup)
        seed_everything(config.seed)
        model = SmallNet()
        return model, Trainer(model, config), config

    def test_resume_is_bitwise_identical(self, tmp_path):
        """Train 2 epochs, checkpoint, diverge, restore, train 2 more: the
        resumed run matches the uninterrupted one to the last bit (params,
        buffers, momentum and schedule position all round-trip)."""
        train_set = _toy_dataset()
        ckpt = str(tmp_path / "mid")

        model_full, trainer_full, config = self._setup()
        trainer_full.fit(train_set, epochs=2)
        trainer_full.save_checkpoint(ckpt, extra={"epoch": 2})

        model_res, trainer_res, _ = self._setup()
        trainer_res.fit(train_set, epochs=1)  # diverge so restore does real work
        extra = trainer_res.load_checkpoint(ckpt)
        assert int(extra["epoch"]) == 2
        assert trainer_res.global_iteration == trainer_full.global_iteration

        history_full = trainer_full.fit(train_set, epochs=2)
        history_res = trainer_res.fit(train_set, epochs=2)
        assert history_full.train_loss == history_res.train_loss
        assert history_full.learning_rate == history_res.learning_rate
        state_full, state_res = model_full.state_dict(), model_res.state_dict()
        for name in state_full:
            np.testing.assert_array_equal(state_full[name], state_res[name], err_msg=name)

    def test_momentum_buffer_round_trips(self, tmp_path):
        train_set = _toy_dataset()
        _, trainer, _ = self._setup()
        trainer.fit(train_set, epochs=1)
        velocity = trainer.optimizer._velocity_flat.copy()
        trainer.save_checkpoint(str(tmp_path / "ck"))
        trainer.optimizer._velocity_flat.fill(0.0)
        trainer.load_checkpoint(str(tmp_path / "ck"))
        np.testing.assert_array_equal(trainer.optimizer._velocity_flat, velocity)

    def test_flat_views_stay_bound_after_load(self, tmp_path):
        _, trainer, _ = self._setup()
        trainer.fit(_toy_dataset(), epochs=1)
        trainer.save_checkpoint(str(tmp_path / "ck"))
        trainer.load_checkpoint(str(tmp_path / "ck"))
        assert trainer.optimizer.flat.check_bound()

class TestEvaluateCompileErrors:
    """evaluate() never falls back to the eager tape: compile errors propagate."""

    def _trained(self):
        dataset = _toy_dataset(n=16)
        model = SmallNet()
        Trainer(model, ExperimentConfig(epochs=1, batch_size=8, lr=0.05)).fit(dataset)
        return model, dataset

    def test_compile_error_evaluates_eagerly(self, monkeypatch):
        """Only ``compiled=False`` evaluates eagerly; a CompileError propagates."""
        import repro.runtime
        from repro.runtime import CompileError

        model, dataset = self._trained()
        eager = evaluate(model, dataset, compiled=False)

        def reject(model, mode="infer", **kwargs):
            raise CompileError("not lowerable")

        monkeypatch.setattr(repro.runtime, "compile_model", reject)
        assert evaluate(model, dataset, compiled=False) == eager
        model.train()
        with pytest.raises(CompileError, match="not lowerable"):
            evaluate(model, dataset)
        assert model.training  # the failed compile left the mode alone

    def test_other_compile_failures_propagate(self, monkeypatch):
        import repro.runtime

        model, dataset = self._trained()

        def broken(model, mode="infer", **kwargs):
            raise RuntimeError("compiler bug")

        monkeypatch.setattr(repro.runtime, "compile_model", broken)
        with pytest.raises(RuntimeError, match="compiler bug"):
            evaluate(model, dataset)
