"""Declared compiler passes over the shared :mod:`repro.runtime.ir` graph.

A :class:`PassManager` runs an ordered list of :class:`Pass` instances over a
traced :class:`~repro.runtime.ir.Graph` and enforces the pipeline's ordering
invariants (BN folding before activation fusion).  The mode pipelines —
:func:`inference_pipeline` and :func:`int8_pipeline` — are what the
:func:`repro.compile` frontend schedules; backends only consume the
annotations the passes leave in ``node.meta`` / ``graph.meta``:

=====================  =====================================================
pass                   annotation
=====================  =====================================================
``eliminate_dropout``  removes inference-time identity nodes
``fold_batchnorm``     ``node.meta["bn_folds"] = [(scale, shift), ...]``
``fuse_activations``   ``node.meta["act"]`` (fused) / ``node.meta["spec"]``
``lower_int8``         ``node.meta["grid"]`` (+ calibration validation)
``assign_layout``      ``graph.meta["layout"] = "CNHW"``
=====================  =====================================================

Arena planning is not a pass: both engines plan the arena they run in, per
input shape, when they build an execution plan (see
:meth:`repro.runtime.CompiledNet.memory_plan`).
"""

from __future__ import annotations

from .ir import (
    CompileError,
    Graph,
    OpNode,
    QuantCompileError,
    activation_spec,
    bn_scale_shift,
)

__all__ = [
    "Pass",
    "PassManager",
    "PassOrderError",
    "EliminateDropout",
    "FoldBatchNorm",
    "FuseActivations",
    "LowerInt8",
    "AssignLayout",
    "inference_pipeline",
    "int8_pipeline",
]


class PassOrderError(CompileError):
    """A pass pipeline violates a declared ordering invariant."""


class Pass:
    """One graph transformation with declared ordering constraints.

    Attributes
    ----------
    name:
        Stable identifier recorded in ``graph.meta["passes"]``.
    requires:
        Pass names that must be scheduled *earlier in the same pipeline*.
    after:
        Pass names that, *when present* in the pipeline, must come earlier.
    """

    name: str = "pass"
    requires: tuple[str, ...] = ()
    after: tuple[str, ...] = ()

    def run(self, graph: Graph) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"


class PassManager:
    """Validates ordering invariants, then runs the passes in sequence.

    Raises
    ------
    PassOrderError
        At *construction* time when a pass's ``requires`` is missing or
        scheduled late, or an ``after`` constraint is violated — a bad
        pipeline never runs half-way.
    """

    def __init__(self, passes: list[Pass]):
        self.passes = list(passes)
        names = [p.name for p in self.passes]
        for index, p in enumerate(self.passes):
            earlier = set(names[:index])
            for required in p.requires:
                if required not in earlier:
                    raise PassOrderError(
                        f"pass {p.name!r} requires {required!r} to run earlier in the pipeline"
                    )
            for predecessor in p.after:
                if predecessor in names and predecessor not in earlier:
                    raise PassOrderError(
                        f"pass {p.name!r} must run after {predecessor!r}"
                    )

    def run(self, graph: Graph) -> Graph:
        """Run the pipeline, recording each pass in ``graph.meta["passes"]``."""
        applied = graph.meta.setdefault("passes", [])
        for p in self.passes:
            p.run(graph)
            applied.append(p.describe())
        return graph


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _quant_lowerable(module) -> bool:
    """True when a quantized wrapper is calibrated (lowerable to integer ops)."""
    return not module.observing and module.input_qparams() is not None


def _rewrite(graph: Graph, rewrite_list) -> None:
    """Apply ``rewrite_list`` to the graph's node list and every residual body."""
    graph.nodes = rewrite_list(graph.nodes)
    for node in graph.nodes:
        if node.body is not None:
            _rewrite(node.body, rewrite_list)


# --------------------------------------------------------------------------- #
# passes
# --------------------------------------------------------------------------- #
class EliminateDropout(Pass):
    """Remove dropout nodes: every one is the identity at inference."""

    name = "eliminate_dropout"

    def run(self, graph: Graph) -> None:
        _rewrite(graph, lambda nodes: [node for node in nodes if node.kind != "dropout"])


class FoldBatchNorm(Pass):
    """Fold eval-mode BN affines into the preceding conv/linear node.

    Records ``(scale, shift)`` pairs in ``node.meta["bn_folds"]`` (applied in
    order by the backends) and removes the folded ``bn`` node.  Quantized
    targets must be calibrated — an uncalibrated wrapper falls back to eager
    execution in the float backend, where folding would corrupt results.

    Parameters
    ----------
    targets:
        Node kinds BN may fold into (the int8 pipeline restricts this to
        quantized ops; unquantized convs run eagerly there).
    repeat:
        Allow several consecutive BNs to fold into one op (float behaviour);
        the int8 engine folds at most one BN into its requant constants.
    """

    name = "fold_batchnorm"

    def __init__(
        self,
        targets: tuple[str, ...] = ("conv", "linear", "qconv", "qlinear"),
        repeat: bool = True,
    ):
        self.targets = targets
        self.repeat = repeat

    def _foldable(self, node: OpNode) -> bool:
        if node.kind not in self.targets:
            return False
        if node.kind in ("qconv", "qlinear") and not _quant_lowerable(node.module):
            return False
        if node.meta.get("act") is not None:
            return False
        return self.repeat or "bn_folds" not in node.meta

    def run(self, graph: Graph) -> None:
        def rewrite(nodes):
            kept: list[OpNode] = []
            for node in nodes:
                prev = kept[-1] if kept else None
                if node.kind == "bn" and prev is not None and self._foldable(prev):
                    prev.meta.setdefault("bn_folds", []).append(bn_scale_shift(node.module))
                    continue
                kept.append(node)
            return kept

        _rewrite(graph, rewrite)


class FuseActivations(Pass):
    """Attach activation specs to the preceding fused op.

    Resolves each ``act`` node to a kernel spec (reading decayable ``alpha``
    at compile time, like both legacy paths did), elides identity-decayed
    activations, and fuses the spec into the previous node's ``meta["act"]``
    when that node can execute it — conv/linear/standalone-BN in float mode;
    calibrated quantized ops (ReLU/ReLU6 only, which become integer clamps)
    in int8 mode.  Unfusable activations stay as standalone nodes with
    ``meta["spec"]`` resolved.
    """

    name = "fuse_activations"
    after = ("fold_batchnorm",)

    def __init__(self, int8: bool = False):
        self.int8 = int8

    def _fusable_into(self, prev: OpNode, spec: tuple) -> bool:
        if prev is None or prev.meta.get("act") is not None:
            return False
        if self.int8:
            return prev.kind in ("qconv", "qlinear") and spec[0] in ("relu", "relu6")
        if prev.kind in ("qconv", "qlinear"):
            return _quant_lowerable(prev.module)
        return prev.kind in ("conv", "linear", "bn")

    def run(self, graph: Graph) -> None:
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
                if self._fusable_into(prev, spec):
                    prev.meta["act"] = spec
                else:
                    node.meta["spec"] = spec
                    kept.append(node)
            return kept

        _rewrite(graph, rewrite)


class LowerInt8(Pass):
    """Validate calibration and annotate each quantized node's integer grid.

    Every quantized node gains its input grid ``(scale, zero_point, bits)``
    — the annotation ``describe()`` renders and the emitter's contract rests
    on — and an uncalibrated wrapper fails the whole pipeline here with an
    actionable error instead of deep inside the emitter.  The derived
    requantization constants (BN folds, consumer output scale, exact-f32
    bound) stay an emission-time concern: they depend on the consumer grid,
    which only the backend's dataflow walk knows.
    """

    name = "lower_int8"
    after = ("fold_batchnorm", "fuse_activations")

    def run(self, graph: Graph) -> None:
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


class AssignLayout(Pass):
    """Record the buffer layout both engines run in: channels outermost."""

    name = "assign_layout"
    layout = "CNHW"

    def run(self, graph: Graph) -> None:
        graph.meta["layout"] = self.layout

    def describe(self) -> str:
        return f"assign_layout({self.layout})"


# --------------------------------------------------------------------------- #
# mode pipelines
# --------------------------------------------------------------------------- #
def inference_pipeline() -> list[Pass]:
    """Passes for ``mode="infer"`` (the planned float program)."""
    return [
        EliminateDropout(),
        FoldBatchNorm(),
        FuseActivations(),
        AssignLayout(),
    ]


def int8_pipeline() -> list[Pass]:
    """Passes for ``mode="int8"`` (the true-integer engine)."""
    return [
        EliminateDropout(),
        FoldBatchNorm(targets=("qconv", "qlinear"), repeat=False),
        FuseActivations(int8=True),
        LowerInt8(),
        AssignLayout(),
    ]
