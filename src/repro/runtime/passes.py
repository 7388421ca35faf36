"""The fixed compile pipeline over the shared :mod:`repro.runtime.ir` graph.

:func:`annotate` is what the :func:`repro.compile` frontend runs on a traced
:class:`~repro.runtime.ir.Graph`: four plain functions in one fixed order,
each leaving annotations in ``node.meta`` / ``graph.meta`` that
:mod:`repro.runtime.program` consumes:

=====================  =====================================================
pass                   annotation
=====================  =====================================================
``eliminate_dropout``  removes inference-time identity nodes
``fold_batchnorm``     ``node.meta["bn_folds"] = [(scale, shift), ...]``
``fuse_activations``   ``node.meta["act"]`` (fused) / ``node.meta["spec"]``
``lower_int8``         ``node.meta["grid"]`` (+ calibration validation;
                       int8 mode only)
=====================  =====================================================

BN folding runs before activation fusion, so an op never has a fused
activation when a BN folds into it.  The graph also records its ``mode``,
the ``passes`` trail and ``layout = "CNHW"`` (channels outermost, the buffer
layout both engines run in).

Arena planning is not a pass: both engines plan the arena they run in, per
input shape, when they build an execution plan (see
:meth:`repro.runtime.CompiledNet.memory_plan`).
"""

from __future__ import annotations

from .ir import Graph, OpNode, QuantCompileError, activation_spec, bn_scale_shift

__all__ = [
    "annotate",
    "eliminate_dropout",
    "fold_batchnorm",
    "fuse_activations",
    "lower_int8",
]

LAYOUT = "CNHW"


def annotate(graph: Graph, int8: bool) -> Graph:
    """Run the fixed pipeline of the ``"int8"`` (or ``"infer"``) mode in place."""
    graph.meta["mode"] = "int8" if int8 else "infer"
    eliminate_dropout(graph)
    fold_batchnorm(graph, int8)
    fuse_activations(graph, int8)
    trail = ["eliminate_dropout", "fold_batchnorm", "fuse_activations"]
    if int8:
        lower_int8(graph)
        trail.append("lower_int8")
    graph.meta["passes"] = trail + [f"assign_layout({LAYOUT})"]
    graph.meta["layout"] = LAYOUT
    return graph


def _quant_lowerable(module) -> bool:
    """True when a quantized wrapper is calibrated (lowerable to integer ops)."""
    return not module.observing and module.input_qparams() is not None


def _rewrite(graph: Graph, rewrite_list) -> None:
    """Apply ``rewrite_list`` to the graph's node list and every residual body."""
    graph.nodes = rewrite_list(graph.nodes)
    for node in graph.nodes:
        if node.body is not None:
            _rewrite(node.body, rewrite_list)


def eliminate_dropout(graph: Graph) -> None:
    """Remove dropout nodes: every one is the identity at inference."""
    _rewrite(graph, lambda nodes: [node for node in nodes if node.kind != "dropout"])


def fold_batchnorm(graph: Graph, int8: bool) -> None:
    """Fold eval-mode BN affines into the preceding conv/linear node.

    Records ``(scale, shift)`` pairs in ``node.meta["bn_folds"]`` (applied in
    order by the executor) and removes the folded ``bn`` node.  Quantized
    targets must be calibrated: an uncalibrated wrapper runs eagerly in the
    float engine, where folding would corrupt results.  In int8 mode BN folds
    only into quantized ops, at most one per op, into its requant constants;
    an unquantized conv there lowers to a grid-less float conv and its BN
    runs as a standalone affine step.  In float mode several consecutive BNs
    may fold into one op.
    """
    targets = ("qconv", "qlinear") if int8 else ("conv", "linear", "qconv", "qlinear")

    def foldable(node: OpNode) -> bool:
        if node.kind not in targets:
            return False
        if node.kind in ("qconv", "qlinear") and not _quant_lowerable(node.module):
            return False
        return not int8 or "bn_folds" not in node.meta

    def rewrite(nodes):
        kept: list[OpNode] = []
        for node in nodes:
            prev = kept[-1] if kept else None
            if node.kind == "bn" and prev is not None and foldable(prev):
                prev.meta.setdefault("bn_folds", []).append(bn_scale_shift(node.module))
                continue
            kept.append(node)
        return kept

    _rewrite(graph, rewrite)


def fuse_activations(graph: Graph, int8: bool) -> None:
    """Attach activation specs to the preceding fused op.

    Resolves each ``act`` node to a kernel spec (reading decayable ``alpha``
    at compile time), elides identity-decayed activations, and fuses the spec
    into the previous node's ``meta["act"]`` when that node can execute it:
    conv/linear/standalone-BN and calibrated quantized ops in float mode;
    quantized ops with ReLU/ReLU6 only (which become integer clamps) in int8
    mode.  Unfusable activations stay as standalone nodes with
    ``meta["spec"]`` resolved.
    """

    def fusable_into(prev: OpNode | None, spec: tuple) -> bool:
        if prev is None or prev.meta.get("act") is not None:
            return False
        if int8:
            return prev.kind in ("qconv", "qlinear") and spec[0] in ("relu", "relu6")
        if prev.kind in ("qconv", "qlinear"):
            return _quant_lowerable(prev.module)
        return prev.kind in ("conv", "linear", "bn")

    def rewrite(nodes):
        kept: list[OpNode] = []
        for node in nodes:
            if node.kind != "act":
                kept.append(node)
                continue
            spec = activation_spec(node.module)
            if spec is None:  # decayed to identity
                continue
            prev = kept[-1] if kept else None
            if fusable_into(prev, spec):
                prev.meta["act"] = spec
            else:
                node.meta["spec"] = spec
                kept.append(node)
        return kept

    _rewrite(graph, rewrite)


def lower_int8(graph: Graph) -> None:
    """Validate calibration and annotate each quantized node's integer grid.

    Every quantized node gains its input grid ``(scale, zero_point, bits)``,
    the annotation ``describe()`` renders and the executor's contract rests
    on, and an uncalibrated wrapper fails compilation here with an actionable
    error instead of deep inside the emitter.  The derived requantization
    constants (BN folds, consumer output scale, exact-f32 bound) stay an
    emission-time concern: they depend on the consumer grid, which only the
    executor's dataflow walk knows.
    """
    for node, _ in graph.walk():
        if node.kind not in ("qconv", "qlinear"):
            continue
        wrapper = node.module
        qparams = wrapper.input_qparams() if not wrapper.observing else None
        if qparams is None:
            raise QuantCompileError(
                f"quantized layer {node.name or node.kind!r} has no frozen activation "
                "range; run repro.compress.calibrate first"
            )
        in_scale, in_zp = qparams
        node.meta["grid"] = (in_scale, in_zp, wrapper.spec.bits)
