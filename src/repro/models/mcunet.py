"""MCUNet-style network.

MCUNet (Lin et al., 2020) is a neural-architecture-searched MobileNet-like
network for microcontrollers; its blocks are inverted residuals with varying
kernel sizes (3/5/7) and expansion ratios (3/4/6).  This module reproduces
that *shape* of architecture at the reduced scale used throughout this repo,
so the Table I comparison "MCUNet + NetBooster vs. NetAug vs. vanilla" can be
run on the same substrate.
"""

from __future__ import annotations

from .. import nn
from .blocks import ConvBNAct, InvertedResidual, make_divisible

__all__ = ["MCUNet", "mcunet"]

# (expand_ratio, channels, stride, kernel_size) — a fixed, NAS-like mixed
# configuration reminiscent of the published MCUNet backbones.
_MCUNET_BLOCKS: list[tuple[int, int, int, int]] = [
    (1, 12, 1, 3),
    (4, 16, 2, 5),
    (3, 16, 1, 3),
    (6, 24, 2, 5),
    (4, 24, 1, 7),
    (6, 32, 1, 3),
]


class MCUNet(nn.Chain):
    """A small NAS-style inverted-residual network with mixed kernel sizes.

    A :class:`~repro.nn.module.Chain`: ``features`` → ``pool`` → ``flatten``
    → ``classifier``, in registration order.
    """

    def __init__(
        self,
        num_classes: int = 16,
        width_mult: float = 1.0,
        stem_channels: int = 12,
        head_channels: int = 48,
        in_channels: int = 3,
    ):
        super().__init__()
        self.num_classes = num_classes
        self.width_mult = width_mult
        stem_out = make_divisible(stem_channels * width_mult)
        head_out = make_divisible(head_channels * max(width_mult, 1.0))

        layers: list[nn.Module] = [ConvBNAct(in_channels, stem_out, kernel_size=3, stride=2)]
        channels = stem_out
        for expand_ratio, base_channels, stride, kernel_size in _MCUNET_BLOCKS:
            out_channels = make_divisible(base_channels * width_mult)
            layers.append(
                InvertedResidual(
                    channels,
                    out_channels,
                    stride=stride,
                    expand_ratio=expand_ratio,
                    kernel_size=kernel_size,
                )
            )
            channels = out_channels
        layers.append(ConvBNAct(channels, head_out, kernel_size=1))
        self.features = nn.Sequential(*layers)
        self.pool = nn.GlobalAvgPool2d()
        self.flatten = nn.Flatten()
        self.classifier = nn.Linear(head_out, num_classes)
        self.feature_channels = head_out

    def forward_features(self, x: nn.Tensor) -> nn.Tensor:
        """Return the backbone feature map."""
        return self.features(x)

    def reset_classifier(self, num_classes: int) -> None:
        """Replace the classification head."""
        self.classifier = nn.Linear(self.feature_channels, num_classes)
        self.num_classes = num_classes


def mcunet(num_classes: int = 16, width_mult: float = 1.0) -> MCUNet:
    """Build the MCUNet-style model."""
    return MCUNet(num_classes=num_classes, width_mult=width_mult)
