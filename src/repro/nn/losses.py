"""Loss modules wrapping :mod:`repro.nn.functional`.

The training code mostly calls the functional forms directly, but module-style
losses are convenient for configuration-driven experiments (they carry their
hyper-parameters) and mirror the familiar ``torch.nn`` API.  The distillation
losses used by the paper's KD baselines live in :mod:`repro.baselines.kd`;
here we provide the classification loss and the soft-target cross entropy
that MixUp training needs.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .module import Module
from .tensor import Tensor

__all__ = [
    "CrossEntropyLoss",
    "SoftTargetCrossEntropy",
]


class CrossEntropyLoss(Module):
    """Cross entropy between logits and integer labels.

    Parameters
    ----------
    label_smoothing:
        Fraction of probability mass moved from the target class to the
        uniform distribution (paper baselines use 0.1 on the large dataset).
    """

    def __init__(self, label_smoothing: float = 0.0):
        super().__init__()
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        self.label_smoothing = label_smoothing

    def forward(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        return F.cross_entropy(logits, targets, label_smoothing=self.label_smoothing)

    def __repr__(self) -> str:
        return f"CrossEntropyLoss(label_smoothing={self.label_smoothing})"


class SoftTargetCrossEntropy(Module):
    """Cross entropy against a full target distribution.

    Required by MixUp augmentation, where each sample's target is a
    convex combination of two one-hot vectors.
    """

    def forward(self, logits: Tensor, target_probs: np.ndarray | Tensor) -> Tensor:
        return F.cross_entropy(logits, target_probs, soft_targets=True)
