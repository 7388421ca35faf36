"""Float inference backend: fused NumPy programs from the shared graph IR.

This module is the ``mode="infer"`` lowering target of :func:`repro.compile`.
The frontend traces the model once (:func:`repro.runtime.ir.trace`) and runs
the inference pass pipeline (dropout elimination, BN folding, conv+bias+act
fusion, layout assignment); :func:`build_inference_program` then turns the
annotated graph into a flat chain of op nodes over raw NumPy arrays:

* eval-mode **BatchNorm is folded** into the preceding convolution / linear
  weights (``w' = w * gamma / sqrt(var + eps)``), disappearing entirely;
* **conv + bias + activation** become a single fused kernel call;
* calibrated :class:`~repro.compress.QuantizedConv2d` /
  :class:`~repro.compress.QuantizedLinear` wrappers lower to **real integer
  ops** (:class:`QuantConvOp` / :class:`QuantLinearOp`) executing from the
  stored int8 weights, with BN folded into the requantization constants —
  they never silently drop to the eager fallback (an uncalibrated wrapper,
  still observing ranges, stays eager so observation keeps working);
* anything unrecognised falls back to the eager module under ``no_grad`` — a
  compiled net is therefore always *correct*, merely less fused.

For a whole-network integer pipeline with a static memory plan, compile with
``mode="int8"`` instead — the per-op routing here keeps mixed float/quantized
models compilable with the same entry point.

Compilation snapshots the weights: after further training, compile again to
pick up the new parameters.  The legacy :func:`compile_net` entry point
remains as a deprecated wrapper over :func:`repro.compile`.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from .. import nn
from ..compress.quantization import QuantizedConv2d, QuantizedLinear
from . import kernels
from .ir import Graph, OpNode, UnsupportedModule, activation_spec, bn_scale_shift

__all__ = [
    "CompiledNet",
    "compile_net",
    "build_inference_program",
    "fold_conv_bn",
    "activation_spec",
    "QuantConvOp",
    "QuantLinearOp",
]

# Backwards-compatible aliases for the pre-IR private helpers.
_Unsupported = UnsupportedModule
_bn_scale_shift = bn_scale_shift


# --------------------------------------------------------------------------- #
# folding helpers
# --------------------------------------------------------------------------- #
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


# --------------------------------------------------------------------------- #
# op nodes
# --------------------------------------------------------------------------- #
class ConvOp:
    """Fused convolution; owns folded weight/bias copies."""

    def __init__(self, conv: nn.Conv2d):
        self.weight = conv.weight.data.copy()
        self.bias = None if conv.bias is None else conv.bias.data.copy()
        self.stride = conv.stride
        self.padding = conv.padding
        self.groups = conv.groups
        self.activation: tuple | None = None

    def fold_affine(self, scale: np.ndarray, shift: np.ndarray) -> None:
        self.weight, self.bias = fold_conv_bn(self.weight, self.bias, scale, shift)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return kernels.fused_conv2d(
            x, self.weight, self.bias, self.stride, self.padding, self.groups, self.activation
        )


class LinearOp:
    def __init__(self, linear: nn.Linear):
        self.weight = linear.weight.data.copy()
        self.bias = None if linear.bias is None else linear.bias.data.copy()
        self.activation: tuple | None = None

    def fold_affine(self, scale: np.ndarray, shift: np.ndarray) -> None:
        self.weight = self.weight * scale[:, None]
        self.bias = shift if self.bias is None else self.bias * scale + shift

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return kernels.fused_linear(x, self.weight, self.bias, self.activation)


class _QuantOpBase:
    """Shared machinery for the integer conv / linear ops.

    Executes from the wrapper's stored ``weight_q`` int8 array; the fused
    requantization constants (``multiplier = in_scale * weight_scale`` and the
    float bias) absorb any following BatchNorm via :meth:`fold_affine`, so the
    BN-folding pass treats these exactly like :class:`ConvOp`.
    """

    def __init__(self, wrapper):
        layer = wrapper.wrapped
        qparams = wrapper.input_qparams()
        if wrapper.observing or qparams is None:
            raise UnsupportedModule("uncalibrated quantized wrapper")
        self.in_scale, self.in_zp = qparams
        self.bits = wrapper.spec.bits
        self.weight_q = wrapper.weight_q
        c_out = self.weight_q.shape[0]
        w_scale = np.atleast_1d(np.asarray(wrapper.weight_scale, dtype=np.float64))
        if w_scale.size == 1:
            w_scale = np.full(c_out, w_scale[0])
        self._mult = (self.in_scale * w_scale).astype(np.float64)
        bias = np.zeros(c_out) if layer.bias is None else layer.bias.data.astype(np.float64)
        self._bias = bias
        self.activation: tuple | None = None

    def fold_affine(self, scale: np.ndarray, shift: np.ndarray) -> None:
        self._mult = self._mult * scale
        self._bias = self._bias * scale + shift


class QuantConvOp(_QuantOpBase):
    """Fused integer convolution lowered from a calibrated wrapper."""

    def __init__(self, wrapper: QuantizedConv2d):
        super().__init__(wrapper)
        conv = wrapper.wrapped
        self.stride = conv.stride
        self.padding = conv.padding
        self.groups = conv.groups

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return kernels.quantized_conv2d_raw(
            x,
            self.weight_q,
            self._mult.astype(np.float32),
            self._bias.astype(np.float32),
            self.in_scale,
            self.in_zp,
            self.bits,
            self.stride,
            self.padding,
            self.groups,
            self.activation,
        )


class QuantLinearOp(_QuantOpBase):
    """Fused integer linear layer lowered from a calibrated wrapper."""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return kernels.quantized_linear_raw(
            x,
            self.weight_q,
            self._mult.astype(np.float32),
            self._bias.astype(np.float32),
            self.in_scale,
            self.in_zp,
            self.bits,
            self.activation,
        )


class AffineOp:
    """Standalone eval-mode batch norm (not preceded by a foldable conv)."""

    def __init__(self, scale: np.ndarray, shift: np.ndarray):
        self.scale = scale.copy()
        self.shift = shift.copy()
        self.activation: tuple | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return kernels.affine_channels(x, self.scale, self.shift, self.activation)


class ActivationOp:
    """Standalone activation; never mutates its input (may be a residual)."""

    def __init__(self, act: tuple):
        self.act = act

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return kernels.apply_activation(x, self.act, inplace=False)


class MaxPoolOp:
    def __init__(self, pool: nn.MaxPool2d):
        self.kernel, self.stride, self.padding = pool.kernel_size, pool.stride, pool.padding

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return kernels.max_pool2d_raw(x, self.kernel, self.stride, self.padding)


class AvgPoolOp:
    def __init__(self, pool: nn.AvgPool2d):
        self.kernel, self.stride, self.padding = pool.kernel_size, pool.stride, pool.padding

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return kernels.avg_pool2d_raw(x, self.kernel, self.stride, self.padding)


class GlobalAvgPoolOp:
    def __call__(self, x: np.ndarray) -> np.ndarray:
        return kernels.global_avg_pool2d_raw(x)


class FlattenOp:
    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)


class ChainOp:
    """Run a list of ops in order."""

    def __init__(self, ops: list):
        self.ops = ops

    def __call__(self, x: np.ndarray) -> np.ndarray:
        for op in self.ops:
            x = op(x)
        return x


class ResidualOp:
    """``body(x) + x``; body must end in a kernel producing a fresh buffer."""

    def __init__(self, body):
        self.body = body

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = self.body(x)
        if out is x:  # degenerate empty body: never mutate the input
            return x + x
        out += x
        return out


class EagerOp:
    """Correctness fallback: run the eager module in eval mode under no_grad.

    Guarded by a lock: the eval/train toggle mutates ``module.training``,
    which would race when one compiled net is hammered from many request
    threads (the serving engine's workers do exactly that).
    """

    def __init__(self, module: nn.Module):
        self.module = module
        self._lock = threading.Lock()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        with self._lock:
            was_training = self.module.training
            self.module.eval()
            try:
                with nn.no_grad():
                    out = self.module(nn.Tensor(x))
            finally:
                self.module.train(was_training)
        return out.data if isinstance(out, nn.Tensor) else np.asarray(out)


# --------------------------------------------------------------------------- #
# graph -> ops
# --------------------------------------------------------------------------- #
def _op_from_node(node: OpNode):
    """Build the executable op for one annotated graph node."""
    kind = node.kind
    if kind in ("qconv", "qlinear"):
        # Calibrated wrappers route through real integer ops; a wrapper still
        # observing activation ranges must keep running eagerly so calibration
        # continues to record extrema (the passes left it unannotated).
        try:
            op = (QuantConvOp if kind == "qconv" else QuantLinearOp)(node.module)
        except UnsupportedModule:
            return EagerOp(node.module)
    elif kind == "conv":
        op = ConvOp(node.module)
    elif kind == "linear":
        op = LinearOp(node.module)
    elif kind == "bn":
        op = AffineOp(*bn_scale_shift(node.module))
    elif kind == "act":
        return ActivationOp(node.meta["spec"])
    elif kind == "pool":
        return MaxPoolOp(node.module) if node.attrs["op"] == "max" else AvgPoolOp(node.module)
    elif kind == "gap":
        return GlobalAvgPoolOp()
    elif kind == "flatten":
        return FlattenOp()
    elif kind == "residual":
        return ResidualOp(ChainOp(_ops_from_graph(node.body)))
    else:
        return EagerOp(node.module)
    for scale, shift in node.meta.get("bn_folds", ()):
        op.fold_affine(scale, shift)
    act = node.meta.get("act")
    if act is not None:
        op.activation = act
    return op


def _ops_from_graph(graph: Graph) -> list:
    return [_op_from_node(node) for node in graph.nodes]


def build_inference_program(graph: Graph) -> "CompiledNet":
    """Lower an annotated graph to a :class:`CompiledNet` (frontend backend hook)."""
    ops = _ops_from_graph(graph)
    program = ops[0] if len(ops) == 1 else ChainOp(ops)
    return CompiledNet(program, graph.source, graph=graph)


# --------------------------------------------------------------------------- #
# public API
# --------------------------------------------------------------------------- #
class CompiledNet:
    """A model lowered to fused NumPy kernels for inference.

    Callable like the eager module: accepts a :class:`~repro.nn.tensor.Tensor`
    or ``ndarray`` and returns a detached ``Tensor``.  Use
    :meth:`numpy_forward` to stay entirely in ``ndarray`` land.

    Attributes
    ----------
    source:
        The eager module this program was compiled from (weights are
        snapshotted — mutating ``source`` does not affect the program).
    graph:
        The annotated :class:`~repro.runtime.ir.Graph` the program was built
        from (``None`` when constructed from a raw program).
    """

    def __init__(
        self,
        program: Callable[[np.ndarray], np.ndarray],
        source: nn.Module,
        graph: Graph | None = None,
    ):
        self._program = program
        self.source = source
        self.graph = graph

    def numpy_forward(self, x: np.ndarray) -> np.ndarray:
        """Run the fused program on a raw batch.

        Parameters
        ----------
        x:
            Input batch; converted to contiguous ``float32`` if needed.

        Returns
        -------
        ndarray
            The network output (logits), no autograd involvement.
        """
        return self._program(np.ascontiguousarray(x, dtype=np.float32))

    def __call__(self, x) -> nn.Tensor:
        """Tensor-in / detached-Tensor-out convenience wrapper."""
        data = x.data if isinstance(x, nn.Tensor) else np.asarray(x, dtype=np.float32)
        return nn.Tensor(self.numpy_forward(data))

    def memory_plan(self, input_shape: tuple[int, ...]):
        """Arena-planner accounting for an ``(N, C, H, W)`` input shape.

        Runs the shared shape-inference + arena-planning passes over the
        compiled graph and returns the
        :class:`~repro.runtime.planner.MemoryPlan` an arena-backed execution
        of this program would need — the float twin of
        :meth:`~repro.runtime.QuantizedNet.memory_plan`, with the same
        one-logical-byte-per-activation accounting.
        """
        if self.graph is None:
            raise RuntimeError("this CompiledNet was built without a graph; no plan available")
        from .passes import plan_graph_memory

        return plan_graph_memory(self.graph, tuple(input_shape))

    def describe(self) -> str:
        """Printable lowering report (passes applied + annotated node table)."""
        from .frontend import describe_graph

        return describe_graph(self.graph, self)

    def save(self, path: str, *, input_shape=None, model_ref: dict | None = None):
        """Serialize to a versioned artifact file (see :func:`repro.load`)."""
        from .artifact import save_artifact

        return save_artifact(self, path, input_shape=input_shape, model_ref=model_ref)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledNet(source={type(self.source).__name__})"


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
