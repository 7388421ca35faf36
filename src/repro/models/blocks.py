"""Building blocks shared by the model zoo and by NetBooster's expansion step.

The paper considers three candidate blocks for Network Expansion (Sec. III-C,
Q1): the *inverted residual* block of MobileNetV2, and ResNet's *basic* and
*bottleneck* blocks.  All three are implemented here so both the model zoo and
the Table IV ablation can use them.

Every block is an :class:`~repro.nn.module.Chain`: its ``__init__`` registers
its children in execution order and sets ``use_residual`` for the skip
connection, and the shared forward runs exactly that.  There is no
hand-written forward to keep in sync with the compile tracer.
"""

from __future__ import annotations

from .. import nn

__all__ = [
    "make_divisible",
    "ConvBNAct",
    "InvertedResidual",
    "BasicBlock",
    "Bottleneck",
]


def make_divisible(value: float, divisor: int = 4, min_value: int | None = None) -> int:
    """Round ``value`` to the nearest multiple of ``divisor`` (never below 90%).

    Mirrors the channel-rounding rule used by the MobileNet family so width
    multipliers produce hardware-friendly channel counts.
    """
    if min_value is None:
        min_value = divisor
    new_value = max(min_value, int(value + divisor / 2) // divisor * divisor)
    if new_value < 0.9 * value:
        new_value += divisor
    return new_value


def _make_activation(name: str | None) -> nn.Module:
    if name is None or name == "none":
        return nn.Identity()
    if name == "relu":
        return nn.ReLU()
    if name == "relu6":
        return nn.ReLU6()
    raise ValueError(f"unknown activation {name!r}")


class ConvBNAct(nn.Chain):
    """``Conv -> BatchNorm -> activation``, the unit NetBooster operates on.

    The convolution is created without a bias (the BatchNorm provides the
    affine shift), matching standard efficient-network practice.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        groups: int = 1,
        activation: str | None = "relu6",
    ):
        super().__init__()
        padding = (kernel_size - 1) // 2
        self.conv = nn.Conv2d(
            in_channels,
            out_channels,
            kernel_size,
            stride=stride,
            padding=padding,
            groups=groups,
            bias=False,
        )
        self.bn = nn.BatchNorm2d(out_channels)
        self.act = _make_activation(activation)


class InvertedResidual(nn.Chain):
    """MobileNetV2 inverted residual block (expand → depthwise → project).

    Parameters
    ----------
    expand_ratio:
        Width multiplier of the hidden expansion; ``1`` omits the expansion
        pointwise convolution.
    kernel_size:
        Depthwise kernel size (MCUNet-style blocks use 5 or 7).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        expand_ratio: int = 6,
        kernel_size: int = 3,
        activation: str = "relu6",
    ):
        super().__init__()
        if stride not in (1, 2):
            raise ValueError("stride must be 1 or 2")
        hidden = int(round(in_channels * expand_ratio))
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.expand_ratio = expand_ratio
        self.use_residual = stride == 1 and in_channels == out_channels

        if expand_ratio != 1:
            self.expand = ConvBNAct(in_channels, hidden, kernel_size=1, activation=activation)
        else:
            self.expand = nn.Identity()
        self.depthwise = ConvBNAct(
            hidden, hidden, kernel_size=kernel_size, stride=stride, groups=hidden, activation=activation
        )
        self.project = ConvBNAct(hidden, out_channels, kernel_size=1, activation=None)


class BasicBlock(nn.Chain):
    """ResNet basic block: two equal-width convolutions with a residual add.

    ``kernel_size`` defaults to 3 as in ResNet; NetBooster's Table IV ablation
    instantiates it with ``kernel_size=1`` so the receptive field matches the
    pointwise convolution being expanded.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        kernel_size: int = 3,
        activation: str = "relu",
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.use_residual = stride == 1 and in_channels == out_channels
        self.conv1 = ConvBNAct(in_channels, out_channels, kernel_size, stride=stride, activation=activation)
        self.conv2 = ConvBNAct(out_channels, out_channels, kernel_size, activation=None)


class Bottleneck(nn.Chain):
    """ResNet bottleneck block: reduce → spatial conv → expand."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        reduction: int = 4,
        kernel_size: int = 3,
        activation: str = "relu",
    ):
        super().__init__()
        hidden = max(out_channels // reduction, 4)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.use_residual = stride == 1 and in_channels == out_channels
        self.reduce = ConvBNAct(in_channels, hidden, kernel_size=1, activation=activation)
        self.spatial = ConvBNAct(hidden, hidden, kernel_size, stride=stride, activation=activation)
        self.expand = ConvBNAct(hidden, out_channels, kernel_size=1, activation=None)
