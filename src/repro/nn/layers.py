"""Standard layers: convolution, linear, batch norm, global pooling, dropout.

All layers operate on ``NCHW`` tensors (``NC`` for :class:`Linear`).
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = [
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "GlobalAvgPool2d",
    "Dropout",
    "Flatten",
]


class Conv2d(Module):
    """2-D convolution with optional grouping (``groups == in_channels`` for depthwise).

    Parameters mirror the usual convention: kernel weight has shape
    ``(out_channels, in_channels // groups, kernel_size, kernel_size)``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
    ):
        super().__init__()
        if in_channels % groups != 0 or out_channels % groups != 0:
            raise ValueError("in/out channels must be divisible by groups")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        self.weight = Parameter(
            init.kaiming_normal((out_channels, in_channels // groups, kernel_size, kernel_size))
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(
            x,
            self.weight,
            self.bias,
            stride=self.stride,
            padding=self.padding,
            groups=self.groups,
        )

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding}, g={self.groups}, "
            f"bias={self.bias is not None})"
        )


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features)))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class BatchNorm2d(Module):
    """Batch normalisation over channels of an NCHW tensor."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm2d(
            x,
            self.weight,
            self.bias,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


class GlobalAvgPool2d(Module):
    """Collapse the spatial dimensions to ``1x1`` by averaging."""

    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Dropout(Module):
    """Inverted dropout (identity at evaluation time)."""

    def __init__(self, rate: float = 0.5, seed: int | None = None):
        super().__init__()
        self.rate = rate
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, training=self.training, rng=self._rng)


class Flatten(Module):
    """Flatten everything after the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(start_dim=1)
