"""Pure-NumPy neural-network substrate used by the NetBooster reproduction.

The subpackage provides:

* :class:`~repro.nn.tensor.Tensor` — reverse-mode autograd on NumPy arrays;
* :mod:`~repro.nn.functional` — convolution, pooling, normalisation, losses;
* a small module system (:class:`~repro.nn.module.Module`,
  :class:`~repro.nn.module.Parameter`, :class:`~repro.nn.module.Chain`,
  :class:`~repro.nn.module.Sequential`);
* standard layers, normalisation variants, loss modules and activations,
  including the :class:`~repro.nn.activations.DecayableReLU` central to
  Progressive Linearization Tuning.
"""

from . import functional, init
from .activations import (
    GELU,
    DecayableReLU,
    DecayableReLU6,
    HardSigmoid,
    HardSwish,
    LeakyReLU,
    PReLU,
    ReLU,
    ReLU6,
    Sigmoid,
    Softmax,
    Swish,
    Tanh,
)
from .layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
)
from .losses import (
    BCEWithLogitsLoss,
    CrossEntropyLoss,
    FocalLoss,
    KLDivergenceLoss,
    MSELoss,
    SmoothL1Loss,
    SoftTargetCrossEntropy,
)
from .module import Chain, Identity, Module, ModuleList, Parameter, Sequential
from .norm import FrozenBatchNorm2d, GroupNorm, InstanceNorm2d, LayerNorm
from .tensor import Tensor, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Parameter",
    "Chain",
    "Sequential",
    "ModuleList",
    "Identity",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "GroupNorm",
    "LayerNorm",
    "InstanceNorm2d",
    "FrozenBatchNorm2d",
    "AvgPool2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Dropout",
    "Flatten",
    "ReLU",
    "ReLU6",
    "LeakyReLU",
    "PReLU",
    "Sigmoid",
    "Tanh",
    "Swish",
    "HardSigmoid",
    "HardSwish",
    "GELU",
    "Softmax",
    "DecayableReLU",
    "DecayableReLU6",
    "CrossEntropyLoss",
    "SoftTargetCrossEntropy",
    "KLDivergenceLoss",
    "MSELoss",
    "SmoothL1Loss",
    "BCEWithLogitsLoss",
    "FocalLoss",
    "functional",
    "init",
]
