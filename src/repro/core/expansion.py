"""Step 1 of NetBooster: Network Expansion (paper Sec. III-C).

Given a tiny neural network, this module constructs its "deep giant" by
replacing selected pointwise convolutions with multi-layer *expanded blocks*.
The three design questions from the paper are exposed as configuration:

* **Q1 — what block to insert**: inverted residual (default), basic or
  bottleneck blocks, all built with 1×1 kernels so the receptive field of the
  replaced layer is preserved (criterion *a*, structural consistency);
* **Q2 — where to expand**: ``uniform`` (default), ``first``, ``middle`` or
  ``last`` placement over the TNN's candidate layers;
* **Q3 — expansion ratio**: width multiplier of the inserted block's hidden
  layer (default 6, as in MobileNetV2).

The expanded blocks use :class:`~repro.nn.activations.DecayableReLU`
activations so that Step 2 (PLT, :mod:`repro.core.plt`) can anneal the
non-linearities away and Step 3 (:mod:`repro.core.contraction`) can merge the
block back into a single convolution.  Each block is an
:class:`~repro.nn.module.Chain`: the order in which it registers its children
is its forward, what :func:`repro.compile` traces to typed nodes, and what
contraction merges.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..models.blocks import InvertedResidual

__all__ = [
    "ExpansionConfig",
    "ExpansionRecord",
    "ExpandedBlock",
    "ExpandedInvertedResidual",
    "ExpandedBasicBlock",
    "ExpandedBottleneck",
    "find_expandable_convs",
    "select_expansion_sites",
    "expand_network",
    "EXPANDED_BLOCK_TYPES",
]


@dataclass
class ExpansionConfig:
    """Configuration of the Network Expansion step.

    Attributes
    ----------
    block_type:
        Inserted block family: ``"inverted_residual"`` (paper default),
        ``"basic"`` or ``"bottleneck"`` (Table IV ablation).
    expansion_ratio:
        Hidden-width multiplier of the inserted block (Table VI ablation).
    fraction:
        Fraction of candidate layers to expand (paper: 50 %).
    num_expanded:
        Explicit number of layers to expand; overrides ``fraction`` when set
        (Table V uses 8 blocks).
    placement:
        ``"uniform"`` | ``"first"`` | ``"middle"`` | ``"last"`` (Table V).
    activation:
        Decayable activation inside the expanded blocks: ``"relu"`` or
        ``"relu6"``.
    """

    block_type: str = "inverted_residual"
    expansion_ratio: int = 6
    fraction: float = 0.5
    num_expanded: int | None = None
    placement: str = "uniform"
    activation: str = "relu"

    def __post_init__(self) -> None:
        if self.block_type not in EXPANDED_BLOCK_TYPES:
            raise ValueError(
                f"unknown block_type {self.block_type!r}; choose from {sorted(EXPANDED_BLOCK_TYPES)}"
            )
        if self.expansion_ratio < 1:
            raise ValueError("expansion_ratio must be >= 1")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if self.placement not in ("uniform", "first", "middle", "last"):
            raise ValueError("placement must be uniform/first/middle/last")
        if self.activation not in ("relu", "relu6"):
            raise ValueError("activation must be 'relu' or 'relu6'")


@dataclass
class ExpansionRecord:
    """Bookkeeping for one expanded layer, needed later for contraction."""

    path: str
    in_channels: int
    out_channels: int
    stride: int
    block_type: str
    expansion_ratio: int


def _make_decayable(activation: str) -> nn.Module:
    if activation == "relu6":
        return nn.DecayableReLU6()
    return nn.DecayableReLU()


class ExpandedBlock(nn.Chain):
    """Base class for blocks inserted in place of a pointwise convolution.

    A :class:`~repro.nn.module.Chain`: subclasses register
    ``Conv2d → BatchNorm2d → DecayableReLU`` units in execution order (the
    last unit has no activation) and the shared forward runs them, adding the
    input back when :attr:`use_residual` is set.  :meth:`linear_chain` reads
    the same registration order, so the contraction step needs nothing else.
    """

    def __init__(self, in_channels: int, out_channels: int, stride: int):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.use_residual = stride == 1 and in_channels == out_channels

    def linear_chain(self) -> list[tuple[nn.Conv2d, nn.BatchNorm2d | None]]:
        """Conv/BN pairs in execution order (activations omitted).

        Raises :class:`TypeError` for any other child, e.g. the
        ``QuantizedConv2d`` wrappers of :func:`repro.compress.quantize_model`:
        contract the giant before quantizing it.
        """
        chain: list[tuple[nn.Conv2d, nn.BatchNorm2d | None]] = []
        for name, module in self.named_children():
            if isinstance(module, nn.Conv2d):
                chain.append((module, None))
            elif isinstance(module, nn.BatchNorm2d):
                chain[-1] = (chain[-1][0], module)
            elif not isinstance(module, nn.DecayableReLU):
                raise TypeError(
                    f"{type(self).__name__} child {name!r} is a {type(module).__name__}, not a "
                    "Conv2d, BatchNorm2d or decayable activation; contract the giant before quantize_model"
                )
        return chain

    def decayable_activations(self) -> list[nn.Module]:
        """All decayable activations inside the block."""
        return [
            module
            for _, module in self.named_modules()
            if isinstance(module, nn.DecayableReLU)
        ]

    @property
    def is_linear(self) -> bool:
        """True when every internal activation has decayed to the identity."""
        return all(act.is_linear for act in self.decayable_activations())


class ExpandedInvertedResidual(ExpandedBlock):
    """Inverted-residual expansion block (paper default, Q1 answer).

    Structure: pointwise expand (ratio ``r``) → 1×1 depthwise → pointwise
    project, with BatchNorm after each convolution and decayable activations
    after the first two.  The 1×1 depthwise kernel keeps the receptive field
    equal to the replaced pointwise convolution.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        expansion_ratio: int = 6,
        activation: str = "relu",
    ):
        super().__init__(in_channels, out_channels, stride)
        hidden = int(in_channels * expansion_ratio)
        self.expansion_ratio = expansion_ratio
        self.expand_conv = nn.Conv2d(in_channels, hidden, 1, stride=stride, bias=False)
        self.expand_bn = nn.BatchNorm2d(hidden)
        self.expand_act = _make_decayable(activation)
        self.depthwise_conv = nn.Conv2d(hidden, hidden, 1, groups=hidden, bias=False)
        self.depthwise_bn = nn.BatchNorm2d(hidden)
        self.depthwise_act = _make_decayable(activation)
        self.project_conv = nn.Conv2d(hidden, out_channels, 1, bias=False)
        self.project_bn = nn.BatchNorm2d(out_channels)


class ExpandedBasicBlock(ExpandedBlock):
    """ResNet-style basic block with 1×1 kernels (Table IV ablation)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        expansion_ratio: int = 6,
        activation: str = "relu",
    ):
        super().__init__(in_channels, out_channels, stride)
        hidden = int(in_channels * expansion_ratio)
        self.expansion_ratio = expansion_ratio
        self.conv1 = nn.Conv2d(in_channels, hidden, 1, stride=stride, bias=False)
        self.bn1 = nn.BatchNorm2d(hidden)
        self.act1 = _make_decayable(activation)
        self.conv2 = nn.Conv2d(hidden, out_channels, 1, bias=False)
        self.bn2 = nn.BatchNorm2d(out_channels)


class ExpandedBottleneck(ExpandedBlock):
    """ResNet-style bottleneck block with 1×1 kernels (Table IV ablation).

    Reduce → hidden → expand: the middle width is ``in_channels *
    expansion_ratio // 2`` so the block has a larger capacity gap than the
    inverted residual, matching the paper's observation that it learns a
    slightly higher expanded accuracy but inherits less effectively.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        expansion_ratio: int = 6,
        activation: str = "relu",
    ):
        super().__init__(in_channels, out_channels, stride)
        hidden = max(int(in_channels * expansion_ratio) // 2, 4)
        wide = int(in_channels * expansion_ratio)
        self.expansion_ratio = expansion_ratio
        self.reduce_conv = nn.Conv2d(in_channels, hidden, 1, stride=stride, bias=False)
        self.reduce_bn = nn.BatchNorm2d(hidden)
        self.reduce_act = _make_decayable(activation)
        self.mid_conv = nn.Conv2d(hidden, wide, 1, bias=False)
        self.mid_bn = nn.BatchNorm2d(wide)
        self.mid_act = _make_decayable(activation)
        self.expand_conv = nn.Conv2d(wide, out_channels, 1, bias=False)
        self.expand_bn = nn.BatchNorm2d(out_channels)


EXPANDED_BLOCK_TYPES: dict[str, type[ExpandedBlock]] = {
    "inverted_residual": ExpandedInvertedResidual,
    "basic": ExpandedBasicBlock,
    "bottleneck": ExpandedBottleneck,
}


def find_expandable_convs(model: nn.Module) -> list[str]:
    """Return dotted paths of the candidate pointwise convolutions.

    Following the paper's expansion strategy, the candidate in each inverted
    residual block is its *first* pointwise convolution (the expansion conv,
    or the projection conv when the block has no expansion).  For models
    without inverted residual blocks, every stride-1, group-1, 1×1 convolution
    is a candidate.
    """
    candidates: list[str] = []
    inverted_blocks = [
        (name, module)
        for name, module in model.named_modules()
        if isinstance(module, InvertedResidual)
    ]
    if inverted_blocks:
        for name, block in inverted_blocks:
            if isinstance(block.expand, nn.Identity):
                candidates.append(f"{name}.project.conv")
            else:
                candidates.append(f"{name}.expand.conv")
        return candidates

    for name, module in model.named_modules():
        if (
            isinstance(module, nn.Conv2d)
            and module.kernel_size == 1
            and module.groups == 1
            and module.stride == 1
        ):
            candidates.append(name)
    return candidates


def select_expansion_sites(num_candidates: int, config: ExpansionConfig) -> list[int]:
    """Choose which candidate indices to expand according to Q2/placement."""
    if num_candidates == 0:
        return []
    if config.num_expanded is not None:
        count = min(config.num_expanded, num_candidates)
    else:
        count = max(int(round(num_candidates * config.fraction)), 1)

    if config.placement == "first":
        return list(range(count))
    if config.placement == "last":
        return list(range(num_candidates - count, num_candidates))
    if config.placement == "middle":
        start = max((num_candidates - count) // 2, 0)
        return list(range(start, start + count))
    # Uniform: evenly spaced sites covering the whole depth (paper default).
    positions = np.linspace(0, num_candidates - 1, count)
    return sorted(set(int(round(p)) for p in positions))


def expand_network(
    model: nn.Module,
    config: ExpansionConfig | None = None,
    inplace: bool = False,
) -> tuple[nn.Module, list[ExpansionRecord]]:
    """Build the deep giant by expanding selected layers of ``model``.

    Parameters
    ----------
    model:
        The original tiny network.  It is deep-copied unless ``inplace``.
    config:
        Expansion configuration; defaults to the paper's recipe (inverted
        residual blocks, ratio 6, 50 % of layers, uniform placement).

    Returns
    -------
    (giant, records):
        The expanded network and one :class:`ExpansionRecord` per replaced
        layer (needed by :func:`repro.core.contraction.contract_network`).
    """
    config = config or ExpansionConfig()
    giant = model if inplace else copy.deepcopy(model)

    candidates = find_expandable_convs(giant)
    sites = select_expansion_sites(len(candidates), config)
    block_cls = EXPANDED_BLOCK_TYPES[config.block_type]

    records: list[ExpansionRecord] = []
    for index in sites:
        path = candidates[index]
        conv = giant.get_submodule(path)
        if not isinstance(conv, nn.Conv2d):
            raise TypeError(f"candidate {path!r} is not a Conv2d")
        if conv.kernel_size != 1:
            raise ValueError(f"only pointwise convolutions can be expanded, got k={conv.kernel_size}")
        expanded = block_cls(
            conv.in_channels,
            conv.out_channels,
            stride=conv.stride,
            expansion_ratio=config.expansion_ratio,
            activation=config.activation,
        )
        giant.set_submodule(path, expanded)
        records.append(
            ExpansionRecord(
                path=path,
                in_channels=conv.in_channels,
                out_channels=conv.out_channels,
                stride=conv.stride,
                block_type=config.block_type,
                expansion_ratio=config.expansion_ratio,
            )
        )
    return giant, records
