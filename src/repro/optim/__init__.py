"""Optimisers, learning-rate schedules and the data-parallel allreduce."""

from .allreduce import PipeBarrier, ReductionArena, arena_nbytes
from .flat import FlatParams, FlatSGD
from .schedulers import (
    ConstantLR,
    CosineAnnealingLR,
    LinearWarmup,
    LRScheduler,
    StepLR,
)
from .sgd import SGD, Optimizer

__all__ = [
    "SGD",
    "FlatSGD",
    "FlatParams",
    "PipeBarrier",
    "ReductionArena",
    "arena_nbytes",
    "Optimizer",
    "LRScheduler",
    "ConstantLR",
    "CosineAnnealingLR",
    "StepLR",
    "LinearWarmup",
]
