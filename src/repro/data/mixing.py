"""Batch-level mixing augmentation: MixUp.

The paper's Fig. 1(a) argument is that heavy augmentation *hurts* tiny
networks because they under-fit rather than over-fit.  To reproduce that
claim quantitatively the substrate needs a strong augmentation itself; MixUp
(Zhang et al., 2018) is the standard batch-level one.  It returns soft-label
targets, consumed by :class:`repro.nn.losses.SoftTargetCrossEntropy`.

:class:`MixingLoss` adapts it to the :class:`repro.train.Trainer` loss
computer interface so any experiment can switch it on with one argument.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F

__all__ = ["mixup", "MixingLoss"]


def _beta(alpha: float, rng: np.random.Generator) -> float:
    if alpha <= 0.0:
        return 1.0
    return float(rng.beta(alpha, alpha))


def mixup(
    images: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    alpha: float = 0.2,
    *,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """MixUp: convex combination of two images and their one-hot labels.

    ``rng`` draws the mixing weight and the batch partners.  Returns
    ``(mixed_images, soft_targets)`` where the soft targets are the same
    convex combination of the two label distributions.
    """
    images = np.asarray(images, dtype=np.float32)
    lam = _beta(alpha, rng)
    permutation = rng.permutation(len(images))
    mixed = lam * images + (1.0 - lam) * images[permutation]
    targets = lam * F.one_hot(labels, num_classes) + (1.0 - lam) * F.one_hot(
        labels[permutation], num_classes
    )
    return mixed.astype(np.float32), targets


class MixingLoss:
    """Trainer loss computer that applies MixUp per batch.

    Parameters
    ----------
    num_classes:
        Size of the label space (needed for the soft targets).
    alpha:
        Beta-distribution concentration; larger values mix more aggressively.
    probability:
        Fraction of batches that are mixed; the rest use plain cross entropy.
    """

    def __init__(
        self,
        num_classes: int,
        alpha: float = 0.2,
        probability: float = 1.0,
        seed: int = 0,
    ):
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        self.num_classes = num_classes
        self.alpha = alpha
        self.probability = probability
        self._rng = np.random.default_rng(seed)

    def __call__(self, model: nn.Module, images: nn.Tensor, labels: np.ndarray):
        if self._rng.random() >= self.probability:
            logits = model(images)
            return F.cross_entropy(logits, labels), logits
        mixed, targets = mixup(images.data, labels, self.num_classes, self.alpha, rng=self._rng)
        logits = model(nn.Tensor(mixed))
        loss = F.cross_entropy(logits, targets, soft_targets=True)
        return loss, logits
