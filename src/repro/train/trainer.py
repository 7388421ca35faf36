"""Classification training loop shared by every experiment in the repo.

The :class:`Trainer` implements the paper's recipe — SGD with momentum,
cosine-annealed learning rate, optional label smoothing — and is deliberately
pluggable:

* the loss is computed by a *loss computer* object so that knowledge
  distillation, NetAug auxiliary supervision and RocketLaunching joint
  training can reuse the same loop;
* per-iteration callbacks allow Progressive Linearization Tuning to decay the
  activation slopes between optimiser steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from .. import nn
from ..data.dataloader import DataLoader
from ..data.datasets import ClassificationDataset
from ..data.transforms import Transform
from ..nn import functional as F
from ..optim import FlatSGD, SGD, ConstantLR, CosineAnnealingLR, LinearWarmup, StepLR
from ..runtime.training import TrainStep
from ..utils.config import ExperimentConfig
from .metrics import AverageMeter, accuracy

__all__ = ["LossComputer", "StandardLoss", "TrainingHistory", "Trainer", "evaluate"]


class LossComputer(Protocol):
    """Interface for pluggable loss computation.

    Implementations receive the model plus a batch and return the scalar loss
    tensor and the logits used for accuracy tracking.
    """

    def __call__(
        self, model: nn.Module, images: nn.Tensor, labels: np.ndarray
    ) -> tuple[nn.Tensor, nn.Tensor]: ...


class StandardLoss:
    """Plain cross-entropy with optional label smoothing."""

    def __init__(self, label_smoothing: float = 0.0):
        self.label_smoothing = label_smoothing

    def __call__(
        self, model: nn.Module, images: nn.Tensor, labels: np.ndarray
    ) -> tuple[nn.Tensor, nn.Tensor]:
        logits = model(images)
        loss = F.cross_entropy(logits, labels, label_smoothing=self.label_smoothing)
        return loss, logits


@dataclass
class TrainingHistory:
    """Per-epoch statistics collected by :meth:`Trainer.fit`."""

    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    learning_rate: list[float] = field(default_factory=list)

    @property
    def best_val_accuracy(self) -> float:
        return max(self.val_accuracy) if self.val_accuracy else float("nan")

    @property
    def final_val_accuracy(self) -> float:
        return self.val_accuracy[-1] if self.val_accuracy else float("nan")

    def extend(self, other: "TrainingHistory") -> None:
        """Append another history (used when training happens in phases)."""
        self.train_loss.extend(other.train_loss)
        self.train_accuracy.extend(other.train_accuracy)
        self.val_accuracy.extend(other.val_accuracy)
        self.learning_rate.extend(other.learning_rate)


def _build_scheduler(optimizer: SGD, config: ExperimentConfig, total_epochs: int):
    if config.lr_schedule == "cosine":
        main = CosineAnnealingLR(optimizer, total_steps=max(total_epochs - config.warmup_epochs, 1), min_lr=config.min_lr)
    elif config.lr_schedule == "step":
        main = StepLR(optimizer, step_size=max(total_epochs // 3, 1))
    elif config.lr_schedule == "constant":
        main = ConstantLR(optimizer)
    else:
        raise ValueError(f"unknown lr_schedule {config.lr_schedule!r}")
    if config.warmup_epochs > 0:
        return LinearWarmup(optimizer, warmup_steps=config.warmup_epochs, after=main)
    return main


def evaluate(
    model: nn.Module,
    dataset: ClassificationDataset,
    batch_size: int = 128,
    compiled: bool = True,
) -> float:
    """Top-1 accuracy (percent) of ``model`` on ``dataset``.

    By default the model is lowered through :mod:`repro.runtime` (BatchNorm
    folding + fused conv/bias/activation kernels), which is substantially
    faster than the eager tape on CPU.  Set ``compiled=False`` to force the
    eager path.  Compile errors propagate: every model the tracer accepts
    compiles, with unrecognised modules run eagerly inside the program.
    """
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    forward = None
    if compiled:
        from ..runtime import compile_model

        forward = compile_model(model, mode="infer").numpy_forward
    was_training = model.training
    model.eval()
    correct_meter = AverageMeter("accuracy")
    with nn.no_grad():
        for images, labels in loader:
            if forward is not None:
                logits = forward(np.ascontiguousarray(images, dtype=np.float32))
            else:
                logits = model(nn.Tensor(images)).numpy()
            correct_meter.update(accuracy(logits, labels), n=len(labels))
    model.train(was_training)
    return correct_meter.average


class Trainer:
    """Generic classification trainer.

    Parameters
    ----------
    model:
        Network to optimise.
    config:
        Hyper-parameters (epochs, batch size, optimiser settings, ...).
    loss_computer:
        Pluggable loss; defaults to cross-entropy with the config's label
        smoothing.
    train_transform:
        Optional data augmentation applied to training batches.
    iteration_callbacks:
        Called (with the iteration index) after every optimiser step — PLT
        hooks its alpha schedule in here.
    epoch_callbacks:
        Called (with the epoch index and the running history) after every
        epoch.
    optimizer:
        Optional pre-built optimiser (the distributed trainer injects its
        gradient-synchronising :class:`~repro.optim.FlatSGD` subclass here).
        Defaults to a fresh ``FlatSGD`` over ``model.parameters()``.
    """

    def __init__(
        self,
        model: nn.Module,
        config: ExperimentConfig,
        loss_computer: LossComputer | None = None,
        train_transform: Transform | None = None,
        iteration_callbacks: list[Callable[[int], None]] | None = None,
        epoch_callbacks: list[Callable[[int, TrainingHistory], None]] | None = None,
        optimizer: SGD | None = None,
    ):
        self.model = model
        self.config = config
        self.loss_computer = loss_computer or StandardLoss(config.label_smoothing)
        self.train_transform = train_transform
        self.iteration_callbacks = list(iteration_callbacks or [])
        self.epoch_callbacks = list(epoch_callbacks or [])
        # FlatSGD applies the exact same per-element update as SGD but as a
        # handful of whole-model vectorised ops over a flat buffer.
        self.optimizer = optimizer if optimizer is not None else FlatSGD(
            model.parameters(),
            lr=config.lr,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        self.scheduler = _build_scheduler(self.optimizer, config, config.epochs)
        self.global_iteration = 0
        self._step = TrainStep(model, self.loss_computer)

    def fit(
        self,
        train_set: ClassificationDataset,
        val_set: ClassificationDataset | None = None,
        epochs: int | None = None,
    ) -> TrainingHistory:
        """Train for ``epochs`` (default: the config value) and return history."""
        epochs = epochs if epochs is not None else self.config.epochs
        history = TrainingHistory()
        loader = DataLoader(
            train_set,
            batch_size=self.config.batch_size,
            shuffle=True,
            transform=self.train_transform,
            seed=self.config.seed,
        )
        for epoch in range(epochs):
            lr = self.scheduler.step()
            loss_meter = AverageMeter("loss")
            acc_meter = AverageMeter("accuracy")
            self.model.train()
            for images, labels in loader:
                loss, logits = self.train_step(images, labels)
                loss_meter.update(loss, n=len(labels))
                acc_meter.update(accuracy(logits, labels), n=len(labels))
            history.train_loss.append(loss_meter.average)
            history.train_accuracy.append(acc_meter.average)
            history.learning_rate.append(lr)
            if val_set is not None:
                history.val_accuracy.append(evaluate(self.model, val_set, self.config.batch_size))
            for callback in self.epoch_callbacks:
                callback(epoch, history)
        return history

    def train_step(self, images: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        """One optimiser update; returns the loss value and detached logits."""
        self.optimizer.zero_grad()
        loss_value, logits_arr = self._step(images, labels)
        self.optimizer.step()
        self.global_iteration += 1
        for callback in self.iteration_callbacks:
            callback(self.global_iteration)
        return loss_value, logits_arr

    def evaluate(self, dataset: ClassificationDataset) -> float:
        """Top-1 accuracy (percent) on ``dataset``."""
        return evaluate(self.model, dataset, self.config.batch_size)

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def save_checkpoint(self, path: str, extra: dict | None = None) -> None:
        """Write model + optimiser + schedule state to one ``.npz`` artifact.

        The archive holds the full model state dict (parameters *and*
        buffers, i.e. batch-norm running statistics), the optimiser's flat
        momentum buffer, the scheduler position and the iteration counter —
        everything needed for a bitwise resume.  Pass ``extra`` for scalar
        caller metadata (epoch index, best accuracy, ...).  Restore with
        :meth:`load_checkpoint` on a trainer built over an
        identically-constructed model.
        """
        import os

        payload: dict[str, np.ndarray] = {}
        for name, value in self.model.state_dict().items():
            payload[f"model::{name}"] = value
        if hasattr(self.optimizer, "state_dict"):
            for name, value in self.optimizer.state_dict().items():
                payload[f"opt::{name}"] = np.asarray(value)
        payload["sched::last_step"] = np.asarray(self.scheduler.last_step)
        after = getattr(self.scheduler, "after", None)
        if after is not None:
            payload["sched::after_last_step"] = np.asarray(after.last_step)
        payload["trainer::global_iteration"] = np.asarray(self.global_iteration)
        for key, value in (extra or {}).items():
            payload[f"extra::{key}"] = np.asarray(value)
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        np.savez(path, **payload)

    def load_checkpoint(self, path: str) -> dict:
        """Restore a :meth:`save_checkpoint` artifact in place; returns ``extra``.

        Model state is copied *into* the existing parameter arrays (the flat
        buffer views stay bound), the momentum buffer and scheduler position
        are restored, and the learning rate is set so the next
        ``train_step``/``fit`` continues the schedule exactly where the saved
        run left off — resumed trajectories are bitwise identical to
        uninterrupted ones.
        """
        if not path.endswith(".npz"):
            path = path + ".npz"
        archive = np.load(path, allow_pickle=False)
        model_state, opt_state, extra = {}, {}, {}
        for key in archive.files:
            prefix, _, name = key.partition("::")
            if prefix == "model":
                model_state[name] = archive[key]
            elif prefix == "opt":
                opt_state[name] = archive[key]
            elif prefix == "extra":
                extra[name] = archive[key]
        self.model.load_state_dict(model_state)
        if opt_state and hasattr(self.optimizer, "load_state_dict"):
            self.optimizer.load_state_dict(opt_state)
        self.scheduler.last_step = int(archive["sched::last_step"])
        after = getattr(self.scheduler, "after", None)
        if after is not None and "sched::after_last_step" in archive.files:
            after.last_step = int(archive["sched::after_last_step"])
        self.global_iteration = int(archive["trainer::global_iteration"])
        return extra
