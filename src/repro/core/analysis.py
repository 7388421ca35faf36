"""Did contraction preserve the function?

:func:`functional_equivalence` compares the linearised deep giant against the
contracted TNN on random probes and reports the largest output discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn

__all__ = ["functional_equivalence", "EquivalenceReport"]


@dataclass
class EquivalenceReport:
    """Output discrepancy between two models on random probe inputs."""

    max_abs_error: float
    mean_abs_error: float
    output_scale: float
    num_probes: int

    @property
    def max_relative_error(self) -> float:
        return self.max_abs_error / max(self.output_scale, 1e-12)

    def matches(self, tolerance: float = 1e-3) -> bool:
        """True when the relative discrepancy is below ``tolerance``."""
        return self.max_relative_error <= tolerance


def functional_equivalence(
    model_a: nn.Module,
    model_b: nn.Module,
    input_shape: tuple[int, int, int],
    num_probes: int = 4,
    batch_size: int = 2,
    seed: int = 0,
) -> EquivalenceReport:
    """Compare two models' outputs on random probe batches.

    Intended for the pair (linearised deep giant, contracted TNN): after PLT
    has driven every expanded activation to the identity, the closed-form
    contraction (paper Eq. 3-4) must leave the network function unchanged up
    to floating-point error.
    """
    rng = np.random.default_rng(seed)
    max_abs = 0.0
    sum_abs = 0.0
    count = 0
    scale = 0.0
    was_training_a, was_training_b = model_a.training, model_b.training
    model_a.eval()
    model_b.eval()
    with nn.no_grad():
        for _ in range(num_probes):
            probe = nn.Tensor(rng.normal(size=(batch_size,) + tuple(input_shape)).astype(np.float32))
            out_a = model_a(probe).numpy()
            out_b = model_b(probe).numpy()
            diff = np.abs(out_a - out_b)
            max_abs = max(max_abs, float(diff.max()))
            sum_abs += float(diff.sum())
            count += diff.size
            scale = max(scale, float(np.abs(out_a).max()))
    model_a.train(was_training_a)
    model_b.train(was_training_b)
    return EquivalenceReport(
        max_abs_error=max_abs,
        mean_abs_error=sum_abs / max(count, 1),
        output_scale=scale,
        num_probes=num_probes,
    )
