"""Learning-rate schedules.

The paper trains the deep giant with a cosine-annealed learning rate and uses
warmup-free SGD; downstream finetuning recipes reuse the same schedulers with
shorter horizons.
"""

from __future__ import annotations

import math

from .sgd import Optimizer

__all__ = [
    "LRScheduler",
    "CosineAnnealingLR",
    "StepLR",
    "LinearWarmup",
    "ConstantLR",
]


class LRScheduler:
    """Base scheduler: call :meth:`step` once per epoch (or iteration)."""

    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.last_step = -1

    def get_lr(self, step: int) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def step(self) -> float:
        """Advance the schedule and write the new learning rate to the optimiser."""
        self.last_step += 1
        lr = self.get_lr(self.last_step)
        self.optimizer.lr = lr
        return lr


class ConstantLR(LRScheduler):
    """Keep the learning rate fixed (useful as a baseline in tests)."""

    def get_lr(self, step: int) -> float:
        return self.base_lr


class CosineAnnealingLR(LRScheduler):
    """Cosine decay from the base LR to ``min_lr`` over ``total_steps``."""

    def __init__(self, optimizer: Optimizer, total_steps: int, min_lr: float = 0.0):
        super().__init__(optimizer)
        self.total_steps = max(int(total_steps), 1)
        self.min_lr = min_lr

    def get_lr(self, step: int) -> float:
        progress = min(step / self.total_steps, 1.0)
        cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.min_lr + (self.base_lr - self.min_lr) * cosine


class StepLR(LRScheduler):
    """Multiply the LR by ``gamma`` every ``step_size`` steps."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1):
        super().__init__(optimizer)
        self.step_size = max(int(step_size), 1)
        self.gamma = gamma

    def get_lr(self, step: int) -> float:
        return self.base_lr * (self.gamma ** (step // self.step_size))


class LinearWarmup(LRScheduler):
    """Linear warmup into another scheduler.

    During the first ``warmup_steps`` the LR ramps from ``warmup_start`` to the
    base LR; afterwards the wrapped scheduler (re-based to the post-warmup
    step count) takes over.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        warmup_steps: int,
        after: LRScheduler | None = None,
        warmup_start: float = 0.0,
    ):
        super().__init__(optimizer)
        self.warmup_steps = max(int(warmup_steps), 0)
        self.after = after
        self.warmup_start = warmup_start

    def get_lr(self, step: int) -> float:
        if step < self.warmup_steps:
            fraction = (step + 1) / max(self.warmup_steps, 1)
            return self.warmup_start + (self.base_lr - self.warmup_start) * fraction
        if self.after is None:
            return self.base_lr
        return self.after.get_lr(step - self.warmup_steps)
