"""One compilation frontend over every runtime engine.

:func:`compile_model` — exported as :func:`repro.compile` — is the single
entry point into the compiled runtimes.  It traces the model once
(:func:`repro.runtime.ir.trace`), runs the fixed pass pipeline
(:func:`repro.runtime.passes.annotate`) and hands the annotated graph to the
mode's executor::

    import repro

    net  = repro.compile(model)                       # planned float inference
    qnet = repro.compile(model, mode="int8")          # true-integer engine

Both executors share a uniform surface: ``__call__`` (Tensor in / detached
Tensor out), ``numpy_forward`` (ndarray in / out), ``memory_plan(input_shape)``
(the arena planner's :class:`~repro.runtime.planner.MemoryPlan`) and
``describe()`` (a printable lowering report).

Both modes lower onto the one planned executor in
:mod:`repro.runtime.program`.  Training is not a compile mode:
:class:`~repro.train.trainer.Trainer` runs the eager autograd tape plus
``FlatSGD``.
"""

from __future__ import annotations

from .. import nn
from ..compress.quantization import _QuantizedWrapper
from . import passes
from .ir import CompileError, QuantCompileError, trace
from .program import CompiledNet, QuantizedNet

__all__ = ["CompileError", "compile_model"]

MODES = ("infer", "int8")

_MODE_ALIASES = {
    "infer": "infer",
    "inference": "infer",
    "float": "infer",
    "int8": "int8",
    "quantized": "int8",
}


def compile_model(model: nn.Module, mode: str = "infer"):
    """Compile ``model`` for one of the runtime engines.

    Parameters
    ----------
    model:
        The eager :class:`~repro.nn.module.Module` tree to lower.
    mode:
        ``"infer"`` (default) for the planned float program
        (:class:`~repro.runtime.CompiledNet`), ``"int8"`` for the planned
        true-integer engine (:class:`~repro.runtime.QuantizedNet`; the model
        must be quantized and calibrated first).  ``"float"``/``"quantized"``
        are accepted aliases.  Neither engine takes tuning knobs: the int8
        engine's conv kernels follow a fixed rule on the input and kernel
        shapes (:mod:`repro.runtime.program`).

    Returns
    -------
    CompiledNet | QuantizedNet
        An executor with the uniform ``__call__`` / ``numpy_forward`` /
        ``memory_plan`` / ``describe`` surface.

    Raises
    ------
    CompileError
        Unknown mode (training is not a compile mode), or — as the
        :class:`~repro.runtime.QuantCompileError` subclass — an int8
        request on an unquantized or uncalibrated model.
    """
    key = _MODE_ALIASES.get(str(mode).lower())
    if key is None:
        raise CompileError(f"unknown compile mode {mode!r}; expected one of {MODES}")
    int8 = key == "int8"
    if int8 and not any(isinstance(m, _QuantizedWrapper) for _, m in model.named_modules()):
        raise QuantCompileError(
            "model has no quantized layers; run repro.compress.quantize_model first"
        )
    graph = passes.annotate(trace(model), int8)
    return QuantizedNet(graph) if int8 else CompiledNet(graph)
