"""One compilation frontend over every runtime engine.

:func:`compile_model` — exported as :func:`repro.compile` — is the single
entry point into the compiled runtimes.  It traces the model once
(:func:`repro.runtime.ir.trace`), schedules the mode's declared pass pipeline
(:mod:`repro.runtime.passes`) and hands the annotated graph to the matching
backend::

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
from .ir import CompileError, QuantCompileError, trace
from .passes import PassManager, inference_pipeline, int8_pipeline
from .program import build_inference_program, build_quantized_program

__all__ = ["CompileError", "compile_model"]

MODES = ("infer", "int8")

_MODE_ALIASES = {
    "infer": "infer",
    "inference": "infer",
    "float": "infer",
    "int8": "int8",
    "quantized": "int8",
}


# --------------------------------------------------------------------------- #
# mode builders
# --------------------------------------------------------------------------- #
def _build_infer(model: nn.Module):
    graph = trace(model)
    graph.meta["mode"] = "infer"
    PassManager(inference_pipeline()).run(graph)
    return build_inference_program(graph)


def _build_int8(model: nn.Module):
    from ..compress.quantization import _QuantizedWrapper

    wrappers = [m for _, m in model.named_modules() if isinstance(m, _QuantizedWrapper)]
    if not wrappers:
        raise QuantCompileError(
            "model has no quantized layers; run repro.compress.quantize_model first"
        )
    graph = trace(model)
    graph.meta["mode"] = "int8"
    PassManager(int8_pipeline()).run(graph)
    return build_quantized_program(graph)


_MODE_BUILDERS = {"infer": _build_infer, "int8": _build_int8}


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
    return _MODE_BUILDERS[key](model)
