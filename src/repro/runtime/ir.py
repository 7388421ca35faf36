"""Shared graph IR for the compiled runtimes.

Both engines in :mod:`repro.runtime` — the planned float inference program
and the true-integer int8 engine — consume one traced graph:

* :func:`trace` walks an eager :class:`~repro.nn.module.Module` tree and
  produces a :class:`Graph` of typed :class:`OpNode` records
  (``conv`` / ``qconv`` / ``linear`` / ``qlinear`` / ``bn`` / ``act`` /
  ``gap`` / ``flatten`` / ``dropout`` / ``residual`` / ``eager``).
  It knows layers, not models: every block and model of the zoo, and every
  expanded block of the NetBooster giant, is an :class:`~repro.nn.module.Chain`
  whose children trace in registration order, wrapped in a ``residual`` node
  when the chain adds its input back;
* :func:`repro.runtime.passes.annotate` transforms and annotates the graph
  (BN folding, activation fusion, int8 grid annotation, layout);
* :mod:`repro.runtime.program` lowers the annotated graph of either mode
  onto its one planned executor.

Nodes hold a *reference* to their source module, never copied weights — what
the executor snapshots is its own decision.  Pass results live in
``OpNode.meta`` (``bn_folds``, ``act``, ``spec``, ``grid``) and
``Graph.meta`` (``layout``, ``passes``, ``mode``), which is also what the
executors' ``describe()`` reports render.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..compress.quantization import QuantizedConv2d, QuantizedLinear

__all__ = [
    "CompileError",
    "QuantCompileError",
    "OpNode",
    "Graph",
    "trace",
    "activation_spec",
    "bn_scale_shift",
    "ACTIVATION_MODULES",
]


class CompileError(Exception):
    """Base error of the :func:`repro.compile` frontend and its passes."""


class QuantCompileError(CompileError):
    """Raised when a model cannot be lowered to the integer engine."""


# Activation classes the shared tracer recognises; everything else becomes an
# ``eager`` node.  Order matters only for documentation — recognition is a
# plain isinstance check.
ACTIVATION_MODULES = (nn.DecayableReLU6, nn.DecayableReLU, nn.ReLU, nn.ReLU6)


def bn_scale_shift(bn) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode per-channel scale/shift of a batch-norm layer."""
    scale = bn.weight.data / np.sqrt(bn.running_var + bn.eps)
    shift = bn.bias.data - bn.running_mean * scale
    return scale.astype(np.float32), shift.astype(np.float32)


def activation_spec(module: nn.Module) -> tuple | None:
    """Lower an activation module to a kernel spec tuple.

    Parameters
    ----------
    module:
        An eager activation module (``ReLU``, ``ReLU6``, ``Identity``, or a
        decayable PLT activation).

    Returns
    -------
    tuple or None
        A ``(kind, *params)`` spec consumed by
        :func:`repro.runtime.program.apply_activation`, or ``None`` when the
        activation is (or has decayed to) the identity.

    Raises
    ------
    CompileError
        If the module is not a recognised activation.
    """
    if isinstance(module, nn.Identity):
        return None
    if isinstance(module, nn.DecayableReLU6):  # before DecayableReLU (subclass)
        if module.alpha >= 1.0:
            return None
        if module.alpha <= 0.0:
            return ("relu6",)
        return ("relu6_interp", module.alpha)
    if isinstance(module, nn.DecayableReLU):
        if module.alpha >= 1.0:
            return None
        if module.alpha <= 0.0:
            return ("relu",)
        return ("leaky", module.alpha)
    if isinstance(module, nn.ReLU):
        return ("relu",)
    if isinstance(module, nn.ReLU6):
        return ("relu6",)
    raise CompileError(f"unsupported activation module {type(module).__name__}")


# --------------------------------------------------------------------------- #
# graph
# --------------------------------------------------------------------------- #
@dataclass
class OpNode:
    """One typed operation in a traced :class:`Graph`.

    Attributes
    ----------
    kind:
        Op type tag (``"conv"``, ``"qconv"``, ``"linear"``, ``"qlinear"``,
        ``"bn"``, ``"act"``, ``"gap"``, ``"flatten"``, ``"dropout"``,
        ``"residual"``, ``"eager"``).
    name:
        Dotted module path from the traced root (``"features.3.depthwise"``);
        backends use it to label planner buffers.
    module:
        The source eager module.
        Referenced, not copied — snapshotting weights is a backend decision.
    attrs:
        Structural attributes fixed at trace time (stride, padding, groups,
        dropout rate, …).
    meta:
        Pass annotations (``bn_folds``, ``act``, ``spec``, ``grid``, …).
        Written by :func:`repro.runtime.passes.annotate`, consumed by the
        executor and ``describe()``.
    body:
        Nested :class:`Graph` for ``residual`` nodes, ``None`` otherwise.
    """

    kind: str
    name: str = ""
    module: nn.Module | None = None
    attrs: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    body: "Graph | None" = None

    def describe_line(self) -> str:
        """One aligned row of a lowering report."""
        bits = [f"{self.name or '<root>':<32s}", f"{self.kind:<11s}"]
        if self.kind in ("conv", "qconv"):
            k = self.attrs.get("kernel")
            bits.append(
                f"{k[0]}x{k[1]} s{self.attrs['stride']} p{self.attrs['padding']} g{self.attrs['groups']}"
            )
        if self.meta.get("bn_folds"):
            bits.append(f"bn-folded(x{len(self.meta['bn_folds'])})")
        act = self.meta.get("act") or self.meta.get("spec")
        if act is not None:
            bits.append(f"act={act[0]}")
        if "grid" in self.meta:
            scale, zp, nbits = self.meta["grid"]
            bits.append(f"grid=(s={scale:.4g}, zp={zp:.4g}, {nbits}b)")
        return "  ".join(bits)


class Graph:
    """A traced model: a flat list of :class:`OpNode` (bodies nest via ``residual``).

    Attributes
    ----------
    nodes:
        Ops in execution order.
    source:
        The eager module the graph was traced from (``None`` for nested
        residual bodies).
    meta:
        Graph-level annotations (``layout``, ``mode``, applied ``passes``).
    """

    def __init__(self, nodes: list[OpNode], source: nn.Module | None = None):
        self.nodes = list(nodes)
        self.source = source
        self.meta: dict = {}

    def walk(self, depth: int = 0):
        """Yield ``(node, depth)`` over the graph, descending into residual bodies."""
        for node in self.nodes:
            yield node, depth
            if node.body is not None:
                yield from node.body.walk(depth + 1)

    def kinds(self) -> list[str]:
        """Flat list of node kinds in execution order (bodies included)."""
        return [node.kind for node, _ in self.walk()]

    def describe(self) -> str:
        """Human-readable lowering report: passes applied, then the node table."""
        lines = []
        if self.meta.get("mode"):
            lines.append(f"mode    : {self.meta['mode']}")
        if self.meta.get("layout"):
            lines.append(f"layout  : {self.meta['layout']}")
        if self.meta.get("passes"):
            lines.append("passes  : " + " -> ".join(self.meta["passes"]))
        lines.append(f"nodes   : {len(list(self.walk()))}")
        for node, depth in self.walk():
            lines.append("  " + "    " * depth + node.describe_line())
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph({len(self.nodes)} nodes, source={type(self.source).__name__ if self.source else None})"


# --------------------------------------------------------------------------- #
# the shared tracer
# --------------------------------------------------------------------------- #
def _conv_attrs(layer) -> dict:
    weight = layer.weight.data
    return {
        "stride": getattr(layer, "stride", 1),
        "padding": getattr(layer, "padding", 0),
        "groups": getattr(layer, "groups", 1),
        "kernel": (int(weight.shape[2]), int(weight.shape[3])) if weight.ndim == 4 else (1, 1),
        "in_channels": int(weight.shape[1] * getattr(layer, "groups", 1)) if weight.ndim == 4 else int(weight.shape[1]),
        "out_channels": int(weight.shape[0]),
    }


def _trace_children(named_children, prefix: str) -> list[OpNode]:
    nodes: list[OpNode] = []
    for child_name, child in named_children:
        path = f"{prefix}.{child_name}" if prefix else str(child_name)
        nodes.extend(_trace(child, path))
    return nodes


def _trace(module: nn.Module, name: str) -> list[OpNode]:
    """Trace one module into a list of op nodes (identity ops are elided)."""
    if isinstance(module, nn.Identity):
        return []
    if isinstance(module, nn.Dropout):
        return [OpNode("dropout", name, module, {"rate": module.rate})]
    if isinstance(module, QuantizedLinear):
        return [OpNode("qlinear", name, module, _conv_attrs(module.wrapped))]
    if isinstance(module, QuantizedConv2d):
        return [OpNode("qconv", name, module, _conv_attrs(module.wrapped))]
    if isinstance(module, nn.Conv2d):
        return [OpNode("conv", name, module, _conv_attrs(module))]
    if isinstance(module, nn.Linear):
        return [OpNode("linear", name, module, _conv_attrs(module))]
    if isinstance(module, nn.BatchNorm2d):
        return [OpNode("bn", name, module)]
    if isinstance(module, nn.GlobalAvgPool2d):
        return [OpNode("gap", name, module)]
    if isinstance(module, nn.Flatten):
        return [OpNode("flatten", name, module)]
    # Every block and model of the zoo is a Chain: its children in registration
    # order, inside a residual node when it adds its input back.  A subclass
    # that writes its own forward is opaque like any other unknown module.
    if isinstance(module, nn.Chain) and type(module).forward is nn.Chain.forward:
        body = _trace_children(module._modules.items(), name)
        if module.use_residual:
            return [OpNode("residual", name, module, body=Graph(body))]
        return body
    if isinstance(module, ACTIVATION_MODULES):
        return [OpNode("act", name, module)]
    # Unrecognised structure: a single opaque node the backends run eagerly —
    # a traced graph is therefore always complete, merely less typed.
    return [OpNode("eager", name, module)]


def trace(model: nn.Module) -> Graph:
    """Trace an eager module tree into the shared :class:`Graph` IR.

    This is the single tracer every compile mode consumes; mode-specific
    decisions (BN folding, dropout elision, activation fusion, int8 grids)
    are made later by :func:`repro.runtime.passes.annotate`, never here.

    Parameters
    ----------
    model:
        Any eager :class:`~repro.nn.module.Module` tree.  Recognised
        structures lower to typed nodes; unknown submodules become opaque
        ``eager`` nodes.

    Returns
    -------
    Graph
        The traced graph, with ``graph.source`` set to ``model``.
    """
    return Graph(_trace(model, ""), source=model)
