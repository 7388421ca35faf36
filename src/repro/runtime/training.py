"""Training backend: fused forward+backward programs from the shared graph IR.

This module is the ``mode="train"`` lowering target of :func:`repro.compile`.
The frontend traces the model with the same :mod:`repro.runtime.ir` tracer as
the inference engines and runs the training pass pipeline (inactive-dropout
elimination, GAP+Flatten fusion, loss attachment — BN folding and activation
fusion deliberately do *not* run: training keeps batch statistics and matched
backward pairs); :func:`build_training_program` then turns the graph into a
flat chain of train nodes over raw NumPy arrays, each implementing a matched
``forward`` / ``backward`` pair:

* convolution / linear / batch-norm / activation nodes call the **same raw
  kernels** as the autograd ops (``repro.nn.functional``), so a compiled step
  is *bit-identical* to the eager tape — only the per-step tape construction,
  Tensor wrappers and backward-closure allocation disappear;
* BatchNorm runs in **training mode** inside the fused graph (batch
  statistics, running-stat updates and the full three-term backward);
* parameter gradients are accumulated straight into ``param.grad`` — when the
  optimiser is a :class:`~repro.optim.flat.FlatSGD` those are views into its
  flat gradient buffer, so the whole backward pass writes into one
  preallocated array;
* per-shape **workspaces are reused across steps** (grad staging buffers,
  column buffers, scatter accumulators), eliminating the per-step large
  allocations of the eager path;
* decayable activations read their module's ``alpha`` *live*, so Progressive
  Linearization Tuning schedules keep working under compilation;
* anything unrecognised falls back to an :class:`EagerNode` that runs the
  submodule on the autograd tape — a compiled step is therefore always
  *correct*, merely less fused.

Compilation captures module/parameter object identity, not weights: in-place
updates (optimiser steps, ``load_state_dict``) are picked up automatically.
:meth:`TrainStep.matches` detects structural edits (swapped submodules or
parameters) so callers can recompile.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .. import nn
from ..nn import functional as F
from ..nn.tensor import Tensor
from .ir import Graph, OpNode, UnsupportedModule

__all__ = ["TrainStep", "compile_training_step", "build_training_program"]

# Backwards-compatible alias for the pre-IR private exception.
_Unsupported = UnsupportedModule


# --------------------------------------------------------------------------- #
# train nodes
# --------------------------------------------------------------------------- #
class ConvTrainNode:
    """Fused conv2d forward+backward bound to a live :class:`~repro.nn.Conv2d`.

    Output and input-gradient arrays live in per-node C-contiguous buffers,
    so steady-state steps perform no large allocations.  Each buffer is
    written once per step and consumed before the next forward overwrites it.
    """

    def __init__(self, conv: nn.Conv2d):
        self.conv = conv
        self.stride = conv.stride
        self.padding = conv.padding
        self.groups = conv.groups
        self._buffers: dict[str, np.ndarray] = {}

    def _buf(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != np.dtype(dtype):
            buf = self._buffers[name] = np.empty(shape, dtype=dtype)
        return buf

    def forward(self, x: np.ndarray) -> np.ndarray:
        conv = self.conv
        wd = conv.weight.data
        n, c_in = x.shape[:2]
        c_out, c_in_g, kh, kw = wd.shape
        stride, padding, groups = self.stride, self.padding, self.groups
        self._x_shape = x.shape
        self._pointwise = kh == 1 and kw == 1 and groups == 1
        self._depthwise = c_in_g == 1 and groups == c_in
        if self._pointwise:
            xp = F._pad2d(x, padding)
            xs = xp[:, :, ::stride, ::stride] if stride > 1 else xp
            out_h, out_w = xs.shape[2:4]
            self._x_flat = np.ascontiguousarray(xs).reshape(n, c_in, out_h * out_w)
            out = self._buf("pw_out", (n, c_out, out_h, out_w), x.dtype)
            np.matmul(
                wd.reshape(c_out, c_in), self._x_flat,
                out=out.reshape(n, c_out, out_h * out_w),
            )
        elif self._depthwise:
            xp = F._pad2d(x, padding)
            windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))
            if stride > 1:
                windows = windows[:, :, ::stride, ::stride]
            self._windows = windows
            if c_out == c_in:
                out = F._depthwise_conv_forward(
                    xp, windows, wd, stride,
                    out=self._buf("dw_out", windows.shape[:4], x.dtype),
                )
            else:  # channel multiplier > 1 — rare, handled by the einsum path
                w_dw = wd.reshape(c_in, c_out // groups, kh, kw)
                out = np.einsum("nchwij,cmij->ncmhw", windows, w_dw, optimize=True)
                out = out.reshape(n, c_out, *out.shape[3:])
        elif groups == 1:
            windows = F._conv_windows(x, (kh, kw), stride, padding, reuse_pad=True)
            expected = (c_in, kh, kw, n) + windows.shape[2:4]
            self._cols = F._dense_conv_cols(windows, out=self._buf("cols", expected, x.dtype))
            out = F._dense_conv_forward_from_cols(self._cols, wd)
        else:
            raise RuntimeError("grouped (non-depthwise) convs lower to EagerNode")
        if conv.bias is not None:
            out += conv.bias.data.reshape(1, c_out, 1, 1)
        return out

    # Set on the program's first node: the input batch never needs a gradient,
    # matching the eager path where the image tensor has requires_grad=False.
    skip_input_grad = False

    def backward(self, grad: np.ndarray) -> np.ndarray | None:
        conv = self.conv
        wd = conv.weight.data
        # Same dtype normalisation as the eager op entry (activation backward
        # chains can promote gradients to float64).
        grad = np.asarray(grad, dtype=wd.dtype)
        need_w = conv.weight.requires_grad
        need_x = not self.skip_input_grad
        dx_buf = self._buf("dx", self._x_shape, grad.dtype) if need_x else None
        if conv.bias is not None and conv.bias.requires_grad:
            conv.bias._accumulate(grad.sum(axis=(0, 2, 3)), owned=True)
        if self._pointwise:
            dx, dw = F._pointwise_conv_backward(
                grad, self._x_flat, wd, self._x_shape, self.stride, self.padding,
                need_x=need_x, need_w=need_w, dx_out=dx_buf,
            )
        elif self._depthwise:
            if wd.shape[0] == self._x_shape[1]:
                dx, dw = F._depthwise_conv_backward(
                    grad, self._windows, wd, self._x_shape, self.stride, self.padding,
                    need_x=need_x, need_w=need_w, dx_out=dx_buf,
                )
            else:
                n, c_in = self._x_shape[:2]
                kh, kw = wd.shape[2:]
                multiplier = wd.shape[0] // c_in
                grad_g = grad.reshape(n, c_in, multiplier, *grad.shape[2:])
                dw = None
                if need_w:
                    dw = np.einsum(
                        "ncmhw,nchwij->cmij", grad_g, self._windows, optimize=True
                    ).reshape(wd.shape)
                w_dw = wd.reshape(c_in, multiplier, kh, kw)
                grad_windows = np.einsum("ncmhw,cmij->nchwij", grad_g, w_dw, optimize=True)
                dx = F._scatter_windows(
                    grad_windows, self._x_shape, (kh, kw), self.stride, self.padding
                )
        else:
            dx, dw = F._dense_conv_backward(
                grad, self._cols, wd, self._x_shape, self.stride, self.padding,
                need_x=need_x, need_w=need_w, dx_out=dx_buf,
            )
        if dw is not None:
            conv.weight._accumulate(dw, owned=True)
        return dx

    def captures(self):
        yield self.conv
        yield self.conv.weight
        if self.conv.bias is not None:
            yield self.conv.bias


class BNTrainNode:
    """Training-mode batch norm: batch stats, running-stat updates, full backward.

    Keeps three per-node workspaces (forward output, input gradient, scratch)
    so the whole layer runs with zero per-step large allocations.  Safe
    because each buffer is written once per step and every consumer reads it
    before the next forward pass overwrites it.
    """

    def __init__(self, bn: nn.BatchNorm2d):
        self.bn = bn
        self._out = None

    def _buffers(self, x: np.ndarray):
        if self._out is None or self._out.shape != x.shape:
            # Explicit C-order (not empty_like): layouts must match the fresh
            # arrays the eager path produces, or downstream contractions drift
            # by ulps and break bitwise parity.
            self._out = np.empty(x.shape, dtype=x.dtype)
            self._dx = np.empty(x.shape, dtype=x.dtype)
            self._scratch = np.empty(x.shape, dtype=x.dtype)
        return self._out

    def forward(self, x: np.ndarray) -> np.ndarray:
        bn = self.bn
        out, self._cache = F.batch_norm2d_train_raw(
            x, bn.weight.data, bn.bias.data, bn.running_mean, bn.running_var,
            bn.momentum, bn.eps, out=self._buffers(x),
        )
        return out

    # Set when this is the program's first node (input needs no gradient).
    skip_input_grad = False

    def backward(self, grad: np.ndarray) -> np.ndarray | None:
        bn = self.bn
        grad = np.asarray(grad, dtype=self._out.dtype)  # eager-op dtype entry cast
        dx, dgamma, dbeta = F.batch_norm2d_train_grad(
            grad, self._cache, bn.weight.data,
            need_x=not self.skip_input_grad,
            need_gamma=bn.weight.requires_grad,
            need_beta=bn.bias.requires_grad,
            dx_out=self._dx,
            scratch=self._scratch,
        )
        if dgamma is not None:
            bn.weight._accumulate(dgamma)
        if dbeta is not None:
            bn.bias._accumulate(dbeta)
        self._cache = None
        return dx

    def captures(self):
        yield self.bn
        yield self.bn.weight
        yield self.bn.bias


class ActTrainNode:
    """Activation with a hand-matched backward; reads decay ``alpha`` live.

    The hot paths (ReLU / ReLU6) run in per-node output, mask and gradient
    buffers — identical values to the eager tape, zero steady-state allocs.
    """

    def __init__(self, module: nn.Module):
        self.module = module
        # Resolved per call for decayables so PLT schedules apply.
        if isinstance(module, nn.DecayableReLU6):
            self._kind = "decay_relu6"
        elif isinstance(module, nn.DecayableReLU):
            self._kind = "decay_relu"
        elif isinstance(module, nn.ReLU):
            self._kind = "relu"
        elif isinstance(module, nn.ReLU6):
            self._kind = "relu6"
        elif isinstance(module, nn.LeakyReLU):
            self._kind = "leaky"
        else:
            raise _Unsupported(type(module).__name__)
        self._out = None

    def _buffers(self, x: np.ndarray):
        if self._out is None or self._out.shape != x.shape:
            self._out = np.empty(x.shape, dtype=x.dtype)
            self._dx = np.empty(x.shape, dtype=x.dtype)
            self._mask = np.empty(x.shape, dtype=bool)
            self._mask2 = np.empty(x.shape, dtype=bool)
        return self._out

    def forward(self, x: np.ndarray) -> np.ndarray:
        kind = self._kind
        self._x = x
        if kind == "decay_relu6":
            alpha = self.module.alpha
            if alpha >= 1.0:
                self._mode = ("identity",)
                return x
            clipped = np.clip(x, 0.0, 6.0, out=self._buffers(x))
            if alpha <= 0.0:
                self._mode = ("relu6",)
                return clipped
            # Mirrors the eager tape chain clipped*(1-a) + x*a bit-for-bit.
            a = np.float32(alpha)
            one_minus = np.float32(1.0 - alpha)
            self._mode = ("relu6_interp", a, one_minus)
            return clipped * one_minus + x * a
        if kind == "decay_relu":
            alpha = self.module.alpha
            if alpha >= 1.0:
                self._mode = ("identity",)
                return x
            if alpha <= 0.0:
                self._mode = ("relu",)
                return np.maximum(x, 0.0, out=self._buffers(x))
            self._mode = ("leaky", alpha)
            return np.where(x >= 0, x, alpha * x)
        if kind == "relu":
            self._mode = ("relu",)
            return np.maximum(x, 0.0, out=self._buffers(x))
        if kind == "relu6":
            self._mode = ("relu6",)
            return np.clip(x, 0.0, 6.0, out=self._buffers(x))
        self._mode = ("leaky", self.module.slope)
        return np.where(x >= 0, x, self.module.slope * x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        mode = self._mode
        x = self._x
        self._x = None
        kind = mode[0]
        if kind == "identity":
            return grad
        if kind == "relu":
            np.greater(x, 0, out=self._mask)
            return np.multiply(grad, self._mask, out=self._dx)
        if kind == "relu6":
            np.greater_equal(x, 0.0, out=self._mask)
            np.less_equal(x, 6.0, out=self._mask2)
            self._mask &= self._mask2
            return np.multiply(grad, self._mask, out=self._dx)
        if kind == "leaky":
            return grad * np.where(x >= 0, 1.0, mode[1])
        # relu6_interp: d/dx [clip(x,0,6)*(1-a) + x*a] = a + (1-a)*mask
        a, one_minus = mode[1], mode[2]
        mask = (x >= 0.0) & (x <= 6.0)
        return grad * a + (grad * one_minus) * mask

    def captures(self):
        yield self.module


class LinearTrainNode:
    """Linear layer replicating the eager matmul/transpose tape bit-for-bit."""

    def __init__(self, linear: nn.Linear):
        self.linear = linear

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        out = x @ self.linear.weight.data.T
        if self.linear.bias is not None:
            out = out + self.linear.bias.data
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        linear = self.linear
        wd = linear.weight.data
        if linear.bias is not None and linear.bias.requires_grad:
            linear.bias._accumulate(grad.sum(axis=0))
        if linear.weight.requires_grad:
            # Same contraction order as the eager transpose-node backward.
            dw_t = np.swapaxes(self._x, -1, -2) @ grad
            linear.weight._accumulate(dw_t.transpose(1, 0))
        dx = grad @ wd
        self._x = None
        return dx

    def captures(self):
        yield self.linear
        yield self.linear.weight
        if self.linear.bias is not None:
            yield self.linear.bias


class GapFlattenNode:
    """Global average pool + flatten: ``(N, C, H, W) -> (N, C)``."""

    def __init__(self):
        self._dx = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        self._shape = x.shape
        self._inv_count = 1.0 / max(h * w, 1)
        return x.mean(axis=(2, 3), keepdims=True).reshape(n, c)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, c, h, w = self._shape
        g = (grad * self._inv_count).reshape(n, c, 1, 1)
        # Materialise (don't hand out a 0-strided broadcast view): downstream
        # contractions are bit-sensitive to operand strides, and the eager
        # tape materialises this gradient at accumulation time.
        if self._dx is None or self._dx.shape != self._shape or self._dx.dtype != g.dtype:
            self._dx = np.empty(self._shape, dtype=g.dtype)
        self._dx[...] = g
        return self._dx

    def captures(self):
        return ()


class ResidualTrainNode:
    """``body(x) + x`` with gradient fan-in on the skip connection."""

    def __init__(self, body: "ChainTrainNode"):
        self.body = body

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.body.forward(x)
        return out + x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return self.body.backward(grad) + grad

    def captures(self):
        yield from self.body.captures()


class ChainTrainNode:
    """Run nodes in order (and in reverse for the backward sweep)."""

    def __init__(self, nodes: list):
        self.nodes = nodes

    def forward(self, x: np.ndarray) -> np.ndarray:
        for node in self.nodes:
            x = node.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for node in reversed(self.nodes):
            grad = node.backward(grad)
        return grad

    def captures(self):
        for node in self.nodes:
            yield from node.captures()


class EagerNode:
    """Correctness fallback: run the submodule on the autograd tape.

    The segment still participates in the fused program — its parameter
    gradients accumulate through the normal ``Tensor._accumulate`` path (into
    the flat gradient buffer when one is bound) and the input gradient is
    handed back to the surrounding compiled nodes.
    """

    def __init__(self, module: nn.Module):
        self.module = module

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._in = Tensor(x, requires_grad=True)
        self._out = self.module(self._in)
        return self._out.data

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self._out.backward(grad)
        dx = self._in.grad
        self._in = self._out = None
        return dx

    def captures(self):
        yield self.module
        yield from (p for p in self.module.parameters())


class CrossEntropyTrainNode:
    """Fused softmax cross-entropy with label smoothing."""

    def __init__(self, label_smoothing: float = 0.0):
        self.label_smoothing = label_smoothing

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        self._targets = F._cross_entropy_targets(
            labels, logits.shape[-1], self.label_smoothing, soft_targets=False
        )
        loss, self._cache = F.softmax_cross_entropy_raw(logits, self._targets)
        return float(loss)

    def backward(self) -> np.ndarray:
        grad = F.softmax_cross_entropy_grad(self._cache, self._targets, upstream=1.0)
        self._cache = self._targets = None
        return grad


# --------------------------------------------------------------------------- #
# lowering: annotated shared graph -> train nodes
# --------------------------------------------------------------------------- #
def _train_node_from(node: OpNode):
    """Build the matched forward/backward node for one graph node.

    Anything without a fused training implementation — grouped non-depthwise
    convs, frozen/quantized layers, pools, active dropout (stochastic: keeps
    the module's own RNG), unknown modules — becomes an :class:`EagerNode`
    running on the autograd tape inside the program.
    """
    kind = node.kind
    module = node.module
    if kind == "conv":
        if module.groups > 1 and module.groups != module.in_channels:
            return EagerNode(module)
        return ConvTrainNode(module)
    if kind == "bn":
        if isinstance(module, nn.BatchNorm2d):
            return BNTrainNode(module)
        return EagerNode(module)  # FrozenBatchNorm2d has no batch statistics
    if kind == "linear":
        return LinearTrainNode(module)
    if kind == "act":
        try:
            return ActTrainNode(module)
        except UnsupportedModule:
            return EagerNode(module)
    if kind == "gap_flatten":
        return GapFlattenNode()
    if kind in ("gap", "flatten"):
        # A stray GAP/Flatten (not part of the pooled-head idiom the
        # fuse_gap_flatten pass merges) has no matched backward; in practice
        # the model zoo always pairs them.
        raise UnsupportedModule("unpaired GlobalAvgPool2d/Flatten")
    if kind == "residual":
        return ResidualTrainNode(_chain_from_graph(node.body))
    return EagerNode(module)  # dropout / pool / quantized wrappers / unknown


def _chain_from_graph(graph: Graph) -> "ChainTrainNode":
    return ChainTrainNode([_train_node_from(node) for node in graph.nodes if node.kind != "loss"])


def structure_signature(model: nn.Module) -> tuple:
    """Identity signature of a module tree: every submodule and parameter id.

    A direct recursion (no name-string construction, no intermediate lists)
    so the per-step staleness check stays cheap.
    """
    ids: list[int] = []

    def visit(module: nn.Module) -> None:
        ids.append(id(module))
        for param in module._parameters.values():
            ids.append(id(param))
        for child in module._modules.values():
            visit(child)

    visit(model)
    return tuple(ids)


# --------------------------------------------------------------------------- #
# public API
# --------------------------------------------------------------------------- #
class TrainStep:
    """A compiled forward+backward training step.

    Calling the step runs the fused program on a raw batch, accumulates
    parameter gradients into ``param.grad`` (the optimiser's flat gradient
    buffer when bound) and returns ``(loss, logits)``.  The caller — normally
    :class:`~repro.train.trainer.Trainer` — remains responsible for
    ``optimizer.zero_grad()`` / ``optimizer.step()`` so schedulers, gradient
    clipping and iteration callbacks keep their usual sequencing.

    Attributes
    ----------
    model:
        The eager module the program was compiled from.  Weights are *not*
        snapshotted: nodes read the live parameter arrays every call.
    graph:
        The annotated :class:`~repro.runtime.ir.Graph` the program was built
        from (``None`` when constructed from pre-built nodes).
    """

    def __init__(
        self,
        model: nn.Module,
        chain: ChainTrainNode,
        loss: CrossEntropyTrainNode,
        graph: Graph | None = None,
    ):
        self.model = model
        self.chain = chain
        self.loss = loss
        self.graph = graph
        if chain.nodes and isinstance(chain.nodes[0], (ConvTrainNode, BNTrainNode)):
            chain.nodes[0].skip_input_grad = True
        self._signature = structure_signature(model)

    def matches(self, model: nn.Module) -> bool:
        """True while ``model``'s structure still matches the compiled program.

        Detects swapped submodules or replaced parameters (e.g. NetBooster
        contraction, ``reset_classifier``); in-place weight mutation is always
        picked up live and needs no recompilation.
        """
        return model is self.model and structure_signature(model) == self._signature

    def __call__(self, images: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        """Run one fused forward+backward pass.

        Parameters
        ----------
        images:
            Input batch ``(N, C, H, W)``; converted to contiguous float32.
        labels:
            Integer class labels ``(N,)``.

        Returns
        -------
        (float, ndarray)
            The scalar loss and a detached copy of the logits.
        """
        x = np.ascontiguousarray(images, dtype=np.float32)
        logits = self.chain.forward(x)
        loss = self.loss.forward(logits, labels)
        grad = self.loss.backward()
        self.chain.backward(grad)
        return loss, logits.copy()

    def numpy_forward(self, images: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        """Uniform-frontend alias of :meth:`__call__` (raw arrays in/out)."""
        return self(images, labels)

    def memory_plan(self, input_shape: tuple[int, ...]):
        """Arena-planner accounting of the *forward* value buffers.

        Gradients and per-node workspaces are excluded — the number reported
        is the forward working set under layer-by-layer execution, comparable
        to the inference engines' plans for the same model.
        """
        if self.graph is None:
            raise RuntimeError("this TrainStep was built without a graph; no plan available")
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


def build_training_program(graph: Graph) -> TrainStep:
    """Lower an annotated graph to a :class:`TrainStep` (frontend backend hook)."""
    chain = _chain_from_graph(graph)
    if not chain.nodes:
        raise UnsupportedModule("model lowered to an empty training program")
    label_smoothing = 0.0
    for node in graph.nodes:
        if node.kind == "loss":
            label_smoothing = node.attrs.get("label_smoothing", 0.0)
    return TrainStep(graph.source, chain, CrossEntropyTrainNode(label_smoothing), graph=graph)


from .frontend import _deprecated


@_deprecated("repro.compile(model, mode='train', loss=..., optimizer=...)")
def compile_training_step(
    model: nn.Module,
    loss=None,
    optimizer=None,
) -> TrainStep | None:
    """Deprecated alias of ``repro.compile(model, mode="train", loss=...)``.

    Parameters
    ----------
    model:
        The eager module to train.  Recognised structures (the model zoo's
        conv/BN/activation blocks) lower to fused forward+backward kernels;
        unknown submodules run on the autograd tape inside the program.
    loss:
        A :class:`~repro.train.trainer.StandardLoss` (or ``None`` for plain
        cross-entropy).  Any other loss computer returns ``None`` — callers
        fall back to the eager path.
    optimizer:
        Unused at compile time (gradients flow through ``param.grad``);
        accepted so call sites can pass their optimiser for future lowering.

    Returns
    -------
    TrainStep or None
        The compiled step, or ``None`` when the loss cannot be lowered
        (where :func:`repro.compile` raises
        :class:`~repro.runtime.ir.CompileError`, this legacy wrapper keeps
        the historical ``None`` contract).

    .. deprecated::
        Use :func:`repro.compile` — this wrapper emits a
        :class:`DeprecationWarning` (once) and forwards to it.
    """
    from .frontend import compile_model
    from .ir import CompileError

    try:
        return compile_model(model, mode="train", loss=loss, optimizer=optimizer)
    except CompileError:
        return None
