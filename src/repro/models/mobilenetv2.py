"""MobileNetV2 family scaled for the CPU substrate.

The paper evaluates MobileNetV2 at width multipliers 1.0, 0.5, 0.35 and a
"Tiny" variant.  The architectures here keep the exact block structure
(inverted residual bottlenecks with ReLU6, expand-depthwise-project) but use a
much smaller base channel configuration and input resolution so that training
on the NumPy substrate is feasible.  The relative capacity ordering
``tiny < 0.35 < 0.5 < 1.0`` is preserved, which is all the experiments need.
"""

from __future__ import annotations

from .. import nn
from .blocks import ConvBNAct, InvertedResidual, make_divisible

__all__ = ["MobileNetV2", "mobilenet_v2"]


# (expand_ratio, base_channels, num_blocks, stride) per stage, analogous to the
# original MobileNetV2 inverted-residual setting table but shallower/narrower.
_FULL_SETTINGS: list[tuple[int, int, int, int]] = [
    (1, 12, 1, 1),
    (6, 16, 2, 2),
    (6, 24, 2, 2),
    (6, 32, 2, 1),
]

# The "Tiny" variant keeps the full depth (so NetBooster's uniform expansion
# has enough candidate sites, as in the paper's MobileNetV2-Tiny) but uses a
# smaller width multiplier and a narrower head than MobileNetV2-0.35.
_TINY_SETTINGS: list[tuple[int, int, int, int]] = _FULL_SETTINGS


class MobileNetV2(nn.Chain):
    """Inverted-residual classification network.

    A :class:`~repro.nn.module.Chain`: ``features`` → ``pool`` → ``flatten``
    → ``dropout`` → ``classifier``, in registration order.

    Attributes
    ----------
    features:
        ``Sequential`` backbone (stem, inverted residual blocks, head conv);
        reused by the detection model.
    classifier:
        Final linear layer on globally pooled features.
    """

    def __init__(
        self,
        num_classes: int = 16,
        width_mult: float = 1.0,
        settings: list[tuple[int, int, int, int]] | None = None,
        stem_channels: int = 16,
        head_channels: int = 64,
        in_channels: int = 3,
        dropout: float = 0.0,
    ):
        super().__init__()
        settings = settings if settings is not None else _FULL_SETTINGS
        self.width_mult = width_mult
        self.num_classes = num_classes

        stem_out = make_divisible(stem_channels * width_mult)
        head_out = make_divisible(head_channels * max(width_mult, 1.0))

        layers: list[nn.Module] = [ConvBNAct(in_channels, stem_out, kernel_size=3, stride=2)]
        channels = stem_out
        for expand_ratio, base_channels, num_blocks, stride in settings:
            out_channels = make_divisible(base_channels * width_mult)
            for block_index in range(num_blocks):
                layers.append(
                    InvertedResidual(
                        channels,
                        out_channels,
                        stride=stride if block_index == 0 else 1,
                        expand_ratio=expand_ratio,
                    )
                )
                channels = out_channels
        layers.append(ConvBNAct(channels, head_out, kernel_size=1))
        self.features = nn.Sequential(*layers)
        self.pool = nn.GlobalAvgPool2d()
        self.flatten = nn.Flatten()
        self.dropout = nn.Dropout(dropout) if dropout > 0 else nn.Identity()
        self.classifier = nn.Linear(head_out, num_classes)
        self.feature_channels = head_out

    def forward_features(self, x: nn.Tensor) -> nn.Tensor:
        """Return the backbone feature map (used by the detector)."""
        return self.features(x)

    def reset_classifier(self, num_classes: int) -> None:
        """Replace the classification head (transfer-learning entry point)."""
        self.classifier = nn.Linear(self.feature_channels, num_classes)
        self.num_classes = num_classes

    def inverted_residual_blocks(self) -> list[tuple[str, InvertedResidual]]:
        """Named inverted-residual blocks in network order."""
        return [
            (name, module)
            for name, module in self.named_modules()
            if isinstance(module, InvertedResidual)
        ]


def mobilenet_v2(variant: str = "100", num_classes: int = 16, dropout: float = 0.0) -> MobileNetV2:
    """Build a MobileNetV2 variant by name.

    Parameters
    ----------
    variant:
        One of ``"tiny"``, ``"35"``, ``"50"``, ``"100"`` — mirroring
        MobileNetV2-Tiny / -0.35 / -0.5 / -1.0 in the paper.
    """
    variant = str(variant).lower().replace("mobilenetv2-", "")
    if variant == "tiny":
        return MobileNetV2(
            num_classes=num_classes,
            width_mult=0.35,
            settings=_TINY_SETTINGS,
            stem_channels=12,
            head_channels=48,
            dropout=dropout,
        )
    if variant in ("35", "0.35"):
        return MobileNetV2(num_classes=num_classes, width_mult=0.35, dropout=dropout)
    if variant in ("50", "0.5"):
        return MobileNetV2(num_classes=num_classes, width_mult=0.5, dropout=dropout)
    if variant in ("100", "1.0"):
        return MobileNetV2(num_classes=num_classes, width_mult=1.0, dropout=dropout)
    raise ValueError(f"unknown MobileNetV2 variant {variant!r}")
