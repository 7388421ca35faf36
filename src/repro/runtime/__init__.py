"""Compiled runtimes: one graph IR, declared passes, two lowering backends.

Every engine starts from the same traced :class:`~repro.runtime.ir.Graph`
(one shared tracer in :mod:`repro.runtime.ir`) transformed by declared
compiler passes (:mod:`repro.runtime.passes`); the single frontend —
exported at the top level as :func:`repro.compile` — picks the backend::

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

``repro.serve`` resolves its ``--engine {float,int8}`` backends through the
:func:`resolve_engine` registry here.  Training does not compile: the
:class:`~repro.train.trainer.Trainer` runs every step on the eager autograd
tape (:class:`repro.runtime.training.TrainStep`) plus ``FlatSGD``.

``compile`` snapshots weights — recompile after further training.  The
legacy entry points ``compile_net`` / ``compile_quantized`` remain importable
as thin deprecated wrappers over the frontend (each warns once); the old
builtin-shadowing ``repro.runtime.compile`` alias is gone — use
``repro.compile`` or :func:`compile_model`.
"""

from .artifact import (
    ArtifactError,
    ArtifactInfo,
    load_artifact,
    model_fingerprint,
    read_artifact_info,
    save_artifact,
)
from .compiler import CompiledNet, activation_spec, compile_net, fold_conv_bn
from .frontend import (
    EngineSpec,
    available_engines,
    compile_model,
    register_artifact_engine,
    register_engine,
    resolve_engine,
)
from .ir import CompileError, Graph, OpNode, trace
from .passes import PassManager, PassOrderError
from .planner import ArenaPlanner, IOPlan, MemoryPlan, plan_io
from .quantized import QuantCompileError, QuantizedNet, compile_quantized
from . import kernels

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
    # shared IR + passes
    "Graph",
    "OpNode",
    "trace",
    "PassManager",
    "PassOrderError",
    # engine registry (repro.serve --engine resolves through it)
    "EngineSpec",
    "register_engine",
    "register_artifact_engine",
    "resolve_engine",
    "available_engines",
    # executors
    "CompiledNet",
    "QuantizedNet",
    # deprecated legacy entry points (thin wrappers over repro.compile)
    "compile_net",
    "compile_quantized",
    # backend building blocks
    "QuantCompileError",
    "ArenaPlanner",
    "MemoryPlan",
    "IOPlan",
    "plan_io",
    "fold_conv_bn",
    "activation_spec",
    "kernels",
]
