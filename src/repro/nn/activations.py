"""Activation modules, including the decayable activations used by PLT.

Progressive Linearization Tuning (paper Sec. III-D) replaces the ReLU
``y = max(0, x)`` with ``y = max(alpha * x, x)`` and anneals ``alpha`` from 0
to 1.  At ``alpha == 0`` the activation is exactly ReLU; at ``alpha == 1`` it
is the identity map, at which point the surrounding convolutions can be merged
by a linear combination (see :mod:`repro.core.contraction`).
"""

from __future__ import annotations

from .module import Module
from .tensor import Tensor

__all__ = [
    "ReLU",
    "ReLU6",
    "DecayableReLU",
    "DecayableReLU6",
]


class ReLU(Module):
    """Rectified linear unit ``max(0, x)``."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class ReLU6(Module):
    """ReLU clipped at 6, the default activation of MobileNetV2."""

    def forward(self, x: Tensor) -> Tensor:
        return x.clip(0.0, 6.0)


class DecayableReLU(Module):
    """ReLU whose non-linearity can be annealed away (paper Eq. 2).

    Attributes
    ----------
    alpha:
        Slope applied to the negative part.  ``0`` gives an exact ReLU,
        ``1`` gives the identity function.  PLT increases ``alpha`` uniformly
        per iteration until the activation becomes linear.
    """

    def __init__(self, alpha: float = 0.0):
        super().__init__()
        self.alpha = float(alpha)

    def set_alpha(self, alpha: float) -> None:
        """Set the current linearisation factor, clamped to ``[0, 1]``."""
        self.alpha = float(min(max(alpha, 0.0), 1.0))

    @property
    def is_linear(self) -> bool:
        """True once the activation has fully decayed to the identity."""
        return self.alpha >= 1.0

    def forward(self, x: Tensor) -> Tensor:
        if self.alpha >= 1.0:
            return x
        if self.alpha <= 0.0:
            return x.relu()
        return x.leaky_relu(self.alpha)

    def __repr__(self) -> str:
        return f"DecayableReLU(alpha={self.alpha:.3f})"


class DecayableReLU6(DecayableReLU):
    """Decayable variant of ReLU6.

    The positive clip at 6 is interpolated away together with the negative
    slope so that ``alpha == 1`` is again an exact identity mapping::

        y = (1 - alpha) * clip(x, 0, 6) + alpha * x
    """

    def forward(self, x: Tensor) -> Tensor:
        if self.alpha >= 1.0:
            return x
        clipped = x.clip(0.0, 6.0)
        if self.alpha <= 0.0:
            return clipped
        return clipped * (1.0 - self.alpha) + x * self.alpha

    def __repr__(self) -> str:
        return f"DecayableReLU6(alpha={self.alpha:.3f})"
