"""Unit tests for how learning-rate schedulers drive the optimiser."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.optim import SGD, StepLR


class TestNewSchedulers:
    def _optimizer(self, lr=1.0):
        return SGD([Parameter(np.zeros(1, dtype=np.float32))], lr=lr, momentum=0.0)

    def test_scheduler_writes_lr_to_optimizer(self):
        optimizer = self._optimizer()
        scheduler = StepLR(optimizer, step_size=1, gamma=0.1)
        scheduler.step()
        scheduler.step()
        assert optimizer.lr == pytest.approx(0.1)
