"""Pure-NumPy neural-network substrate used by the NetBooster reproduction.

The subpackage provides:

* :class:`~repro.nn.tensor.Tensor` — reverse-mode autograd on NumPy arrays;
* :mod:`~repro.nn.functional` — convolution, pooling, batch norm, losses;
* a small module system (:class:`~repro.nn.module.Module`,
  :class:`~repro.nn.module.Parameter`, :class:`~repro.nn.module.Chain`,
  :class:`~repro.nn.module.Sequential`);
* the layers, loss modules and activations the model zoo is built from,
  including the :class:`~repro.nn.activations.DecayableReLU` central to
  Progressive Linearization Tuning.
"""

from . import functional, init
from .activations import DecayableReLU, DecayableReLU6, ReLU, ReLU6
from .layers import BatchNorm2d, Conv2d, Dropout, Flatten, GlobalAvgPool2d, Linear
from .losses import CrossEntropyLoss, SoftTargetCrossEntropy
from .module import Chain, Identity, Module, ModuleList, Parameter, Sequential
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
    "GlobalAvgPool2d",
    "Dropout",
    "Flatten",
    "ReLU",
    "ReLU6",
    "DecayableReLU",
    "DecayableReLU6",
    "CrossEntropyLoss",
    "SoftTargetCrossEntropy",
    "functional",
    "init",
]
