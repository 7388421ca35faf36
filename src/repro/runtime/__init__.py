"""Compiled runtimes: one graph IR, one fixed pass pipeline, two executors.

Every engine starts from the same traced :class:`~repro.runtime.ir.Graph`
(one shared tracer in :mod:`repro.runtime.ir`) annotated by the fixed pass
pipeline (:func:`repro.runtime.passes.annotate`); the single frontend —
exported at the top level as :func:`repro.compile` — picks the executor::

    import repro

    net = repro.compile(model)             # planned float inference (CompiledNet)
    logits = net(images)                   # Tensor in, detached Tensor out
    raw = net.numpy_forward(arr)           # ndarray in, ndarray out
    print(net.describe())                  # trace -> passes -> backend report
    print(net.memory_plan((1, 3, 32, 32)).summary())

A model quantized and calibrated with :mod:`repro.compress` lowers to the
**true-integer engine** — int8 weights, activations on their calibrated
integer grids end to end, and a statically planned buffer arena::

    quantize_model(model)
    calibrate(model, batches)
    qnet = repro.compile(model, mode="int8")
    logits = qnet.numpy_forward(images)    # matches fake-quant within dequant tol

Both engines run the one planned executor of :mod:`repro.runtime.program`.
Training does not compile: the :class:`~repro.train.trainer.Trainer` runs
every step on the eager autograd tape
(:class:`repro.runtime.training.TrainStep`) plus ``FlatSGD``.

``compile`` snapshots weights — recompile after further training.
:func:`repro.compile` (:func:`compile_model`) is the only way to compile.
"""

from .artifact import (
    ArtifactError,
    ArtifactInfo,
    load_artifact,
    model_fingerprint,
    read_artifact_info,
    save_artifact,
)
from .frontend import compile_model
from .ir import CompileError, Graph, OpNode, QuantCompileError, activation_spec, trace
from .planner import ArenaPlanner, IOPlan, MemoryPlan, plan_io
from .program import CompiledNet, QuantizedNet

__all__ = [
    # the unified frontend (exported at the top level as repro.compile)
    "compile_model",
    "CompileError",
    # compiled artifacts (exported at the top level as repro.load)
    "save_artifact",
    "load_artifact",
    "read_artifact_info",
    "model_fingerprint",
    "ArtifactError",
    "ArtifactInfo",
    # shared IR
    "Graph",
    "OpNode",
    "trace",
    # executors
    "CompiledNet",
    "QuantizedNet",
    # executor building blocks
    "QuantCompileError",
    "ArenaPlanner",
    "MemoryPlan",
    "IOPlan",
    "plan_io",
    "activation_spec",
]
