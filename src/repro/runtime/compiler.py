"""Float inference backend: ``mode="infer"`` lowered onto the planned engine.

This module is the ``mode="infer"`` lowering target of :func:`repro.compile`.
The frontend traces the model once (:func:`repro.runtime.ir.trace`) and runs
the inference pass pipeline (dropout elimination, BN folding, activation
fusion, layout assignment); :func:`build_inference_program` then lowers the
annotated graph to the same planned program the int8 engine runs
(:mod:`repro.runtime.quantized`) — a channel-first ``(C, N, H, W)`` arena,
plans built lazily per input shape, the shape rule that picks each conv's
kernel, and producers writing straight into a padded consumer's slot:

* plain convs / linears run grid-less on float32 weight copies; eval-mode
  **BatchNorm folds** into their per-channel output multiplier and offset,
  and a fused activation runs in the same output pass;
* calibrated :class:`~repro.compress.QuantizedConv2d` /
  :class:`~repro.compress.QuantizedLinear` wrappers run as **integer ops**
  from the stored int8 weights: each quantizes its float input onto its own
  grid and dequantizes its output (an uncalibrated wrapper, still observing
  ranges, runs eagerly so observation keeps working);
* anything unrecognised runs the eager module under ``no_grad`` — a
  compiled net is therefore always *correct*, merely less fused.

For a whole-network integer pipeline, where activations stay on their grids
from op to op, compile with ``mode="int8"`` instead.

Compilation snapshots the weights: after further training, compile again to
pick up the new parameters.  The legacy :func:`compile_net` entry point
remains as a deprecated wrapper over :func:`repro.compile`.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from .ir import Graph, activation_spec
from .quantized import _ir_from_graph, _PlannedNet

__all__ = [
    "CompiledNet",
    "compile_net",
    "build_inference_program",
    "fold_conv_bn",
    "activation_spec",
]


def fold_conv_bn(
    weight: np.ndarray,
    bias: np.ndarray | None,
    scale: np.ndarray,
    shift: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold a per-output-channel affine into convolution weights.

    Parameters
    ----------
    weight:
        Convolution (or linear) weight, output channels first.
    bias:
        Existing bias, or ``None``.
    scale, shift:
        Per-output-channel affine, e.g. an eval-mode BatchNorm's
        ``gamma / sqrt(var + eps)`` and ``beta - mean * scale``.

    Returns
    -------
    (ndarray, ndarray)
        New ``(weight, bias)`` such that
        ``conv(x, w', b') == affine(conv(x, w, b), scale, shift)``.
    """
    folded_w = weight * scale.reshape((-1,) + (1,) * (weight.ndim - 1))
    folded_b = shift if bias is None else bias * scale + shift
    return folded_w.astype(weight.dtype), np.asarray(folded_b, dtype=weight.dtype)


class CompiledNet(_PlannedNet):
    """A model lowered to a planned float program for inference.

    Callable like the eager module: accepts a :class:`~repro.nn.tensor.Tensor`
    or ``ndarray`` and returns a detached ``Tensor``.  Use
    :meth:`numpy_forward` to stay entirely in ``ndarray`` land, and
    :meth:`memory_plan` for the arena the program runs in.
    """

    _grids = False  # integer ops quantize their own input


def build_inference_program(graph: Graph) -> CompiledNet:
    """Lower an annotated graph to a :class:`CompiledNet` (frontend backend hook)."""
    return CompiledNet(_ir_from_graph(graph), graph.source, graph=graph)


from .frontend import _deprecated


@_deprecated("repro.compile(model, mode='infer')")
def compile_net(model: nn.Module) -> CompiledNet:
    """Deprecated alias of ``repro.compile(model, mode="infer")``.

    BatchNorm layers are folded using their *current* running statistics and
    weights — recompile after any further training.  Unrecognised submodules
    run eagerly, so compilation never changes semantics beyond eval-mode
    float reassociation (differences are at round-off level).

    .. deprecated::
        Use :func:`repro.compile` — this wrapper emits a
        :class:`DeprecationWarning` (once) and forwards to it.
    """
    from .frontend import compile_model

    return compile_model(model, mode="infer")
