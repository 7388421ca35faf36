"""NetBooster (DAC 2023) reproduction on a pure-NumPy deep learning substrate.

The package-level compilation frontend is the one entry point into both
compiled inference engines::

    import repro

    net  = repro.compile(model)                  # planned float inference
    qnet = repro.compile(model, mode="int8")     # true-integer engine

Training does not compile: :class:`repro.train.Trainer` runs the eager
autograd tape plus ``FlatSGD``.

Compiled executors serialize to single-file versioned artifacts and load back
bit-identical in a fresh process — no calibration data needed at boot::

    qnet.save("model.rpa", input_shape=(3, 32, 32))
    qnet2 = repro.load("model.rpa")              # ArtifactError on any skew

See :mod:`repro.runtime` for the graph IR, the pass pipelines and the
executors' uniform ``numpy_forward`` / ``memory_plan`` / ``describe`` surface,
and :mod:`repro.runtime.artifact` for the artifact format and its fingerprint
contract.
"""

__version__ = "0.1.0"

__all__ = ["compile", "load", "CompileError", "ArtifactError", "__version__"]

_FRONTEND_EXPORTS = {
    "compile": "compile_model",
    "CompileError": "CompileError",
}

_ARTIFACT_EXPORTS = {
    "load": "load_artifact",
    "ArtifactError": "ArtifactError",
}


def __getattr__(name: str):
    # Lazy so that `import repro` stays light: the runtime (and NumPy-heavy
    # substrate) only loads when the compilation frontend is first touched.
    if name in _FRONTEND_EXPORTS:
        from .runtime import frontend

        return getattr(frontend, _FRONTEND_EXPORTS[name])
    if name in _ARTIFACT_EXPORTS:
        from .runtime import artifact

        return getattr(artifact, _ARTIFACT_EXPORTS[name])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
