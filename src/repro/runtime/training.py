"""The training step: one forward+backward pass on the eager autograd tape.

:class:`~repro.train.trainer.Trainer` calls a :class:`TrainStep` for every
optimiser update, whatever its loss computer.  The step builds the tape,
runs ``loss.backward()`` (gradients accumulate into ``param.grad`` — views
into the optimiser's flat buffer when it is a
:class:`~repro.optim.flat.FlatSGD`) and returns the loss value plus the
logits.  Decayable activations read their ``alpha`` on every forward, so a
PLT schedule takes effect on the next step.
"""

from __future__ import annotations

import numpy as np

from .. import nn

__all__ = ["TrainStep"]


class TrainStep:
    """Forward + backward of ``loss_computer`` on ``model`` for one batch.

    The caller stays responsible for ``optimizer.zero_grad()`` and
    ``optimizer.step()``, so schedulers, clipping and iteration callbacks
    keep their usual order.
    """

    def __init__(self, model: nn.Module, loss_computer):
        self.model = model
        self.loss_computer = loss_computer

    def __call__(self, images: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        """Run the step; returns the scalar loss and the logits array."""
        loss, logits = self.loss_computer(self.model, nn.Tensor(images), labels)
        loss.backward()
        return loss.item(), logits.numpy()
