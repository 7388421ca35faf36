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

The serving layer resolves engines by *name* through the registry here
(``repro.serve --engine {float,int8}``); :func:`register_engine` lets
downstream code add aliases without touching the serving CLI.

Training is not a compile mode: :class:`~repro.train.trainer.Trainer` runs
the eager autograd tape plus ``FlatSGD``.  The legacy entry points
``compile_net`` and ``compile_quantized`` remain importable as thin
deprecated wrappers over this frontend.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

from .. import nn
from .ir import CompileError, Graph, trace
from .passes import PassManager, inference_pipeline, int8_pipeline

__all__ = [
    "CompileError",
    "compile_model",
    "EngineSpec",
    "register_engine",
    "register_artifact_engine",
    "resolve_engine",
    "available_engines",
]

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
    from .compiler import build_inference_program

    graph = trace(model)
    graph.meta["mode"] = "infer"
    PassManager(inference_pipeline()).run(graph)
    return build_inference_program(graph)


def _build_int8(model: nn.Module):
    from ..compress.quantization import _QuantizedWrapper
    from .ir import QuantCompileError
    from .quantized import build_quantized_program

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
        shapes (:mod:`repro.runtime.quantized`).

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


# --------------------------------------------------------------------------- #
# engine registry
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class EngineSpec:
    """A named, servable inference engine resolving to a compile mode.

    An engine may instead be backed by a compiled artifact file
    (:mod:`repro.runtime.artifact`): its ``compile`` then *loads* the stored
    executor — bit-identical to the saved one — rather than compiling the
    passed model (which, when given, is only fingerprint-validated).
    """

    name: str
    mode: str
    description: str = ""
    artifact: str | None = None

    def compile(self, model: nn.Module | None = None):
        """Build this engine's executor via :func:`compile_model` (or artifact load)."""
        if self.artifact is not None:
            from .artifact import load_artifact

            return load_artifact(self.artifact, mode=self.mode, model=model)
        return compile_model(model, mode=self.mode)


_ENGINES: dict[str, EngineSpec] = {}


def register_engine(name: str, mode: str, description: str = "") -> EngineSpec:
    """Register (or replace) a named engine resolving to ``mode``."""
    if _MODE_ALIASES.get(str(mode).lower()) is None:
        raise CompileError(f"unknown compile mode {mode!r} for engine {name!r}")
    spec = EngineSpec(name=name, mode=mode, description=description)
    _ENGINES[name] = spec
    return spec


def register_artifact_engine(name: str, path: str, description: str = "") -> EngineSpec:
    """Register an engine backed by a compiled-artifact file.

    The artifact header is read (and its mode adopted) at registration, so a
    missing or unreadable file fails here — not inside a forked replica.
    """
    from .artifact import read_artifact_info

    info = read_artifact_info(path)
    spec = EngineSpec(
        name=name,
        mode=info.mode,
        description=description or f"artifact-backed {info.mode} engine ({path})",
        artifact=str(path),
    )
    _ENGINES[name] = spec
    return spec


def resolve_engine(name: str) -> EngineSpec:
    """Look up a registered engine by name (used by ``repro.serve --engine``)."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise KeyError(
            f"unknown engine {name!r}; available: {available_engines()}"
        ) from None


def available_engines() -> list[str]:
    """Names accepted by :func:`resolve_engine`."""
    return sorted(_ENGINES)


register_engine("float", "infer", "planned float32 inference (CompiledNet)")
register_engine("int8", "int8", "planned true-integer engine (QuantizedNet)")


# --------------------------------------------------------------------------- #
# deprecation plumbing for the legacy entry points
# --------------------------------------------------------------------------- #
_DEPRECATION_SEEN: set[str] = set()


def _deprecated(replacement: str):
    """Mark a legacy entry point: warn once (per process), then forward.

    The single home of the legacy-shim warning plumbing —
    ``compile_net`` / ``compile_quantized`` are plain functions decorated with this, so the once-only bookkeeping,
    message format and warning category cannot drift apart per shim.
    """

    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if func.__name__ not in _DEPRECATION_SEEN:
                _DEPRECATION_SEEN.add(func.__name__)
                warnings.warn(
                    f"repro.runtime.{func.__name__} is deprecated; use {replacement}",
                    DeprecationWarning,
                    stacklevel=2,
                )
            return func(*args, **kwargs)

        return wrapper

    return decorate


def describe_graph(graph: Graph | None, executor) -> str:
    """Shared ``describe()`` body: graph report plus the executor banner."""
    banner = f"{type(executor).__name__} — compiled by repro.compile"
    if graph is None:
        return banner + " (no graph attached; compiled from a pre-built program)"
    return banner + "\n" + graph.describe()
