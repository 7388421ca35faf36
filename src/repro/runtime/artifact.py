"""Compiled-artifact serialization: ``repro.compile(...).save()`` / ``repro.load()``.

Every process used to re-run trace → passes → plan (and, for int8, the whole
calibration pass over representative data) at startup.  An *artifact* makes
deployment ahead-of-time instead: one versioned file captures everything a
fresh process needs to rebuild a bit-identical executor —

* the model identity (registry name + constructor arguments),
* the full parameter/buffer state, including int8 ``weight_q`` /
  ``weight_scale`` tensors and the frozen ``act_low`` / ``act_high``
  calibration grids (so no calibration data is needed at load time),
* the quantization spec and the exact set of quantized layers (int8),
* a structural record of the annotated IR graph — node kinds/names/attrs,
  pass trail, layout, activation specs, int8 grids — plus
  the arena-plan accounting at a declared input shape,
* a SHA-256 content fingerprint over the model structure and state.

``load()`` verifies the format version and fingerprint, rebuilds the model,
restores the exact state (integer buffers are re-registered with their stored
dtypes — never truncated through an in-place cast), recompiles through the
deterministic pass pipeline, and then cross-checks the fresh graph against
the stored record.  Any disagreement — truncated file, corrupted arrays,
format skew, a mutated source model, an int8 artifact requested as float, or
compiler drift since the artifact was written — raises :class:`ArtifactError`
with a precise message.  The contract is *never silent misexecution*: an
artifact either reproduces the original executor bit-for-bit or refuses to
load.

File layout (a plain ``.npz`` zip, ``allow_pickle=False``)::

    __header__        uint8 bytes of a canonical-JSON header:
                      magic, format_version, mode, model ref,
                      quant section, graph record, plan record,
                      state manifest, fingerprint
    state::<name>     one entry per ``state_dict()`` tensor, exact dtype

Why recompile instead of pickling kernels?  The pass pipeline is
deterministic and sub-millisecond; what dominates a cold boot is calibration
(forward passes over representative batches) and model preparation, both of
which the artifact skips entirely.  Recompiling from restored state keeps the
format free of code objects (safe to load), keeps artifacts small, and turns
"the compiler changed under the artifact" into a detectable error instead of
a silently different program.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from dataclasses import dataclass

import numpy as np

from .. import nn
from .frontend import _MODE_ALIASES, MODES
from .ir import CompileError, Graph

__all__ = [
    "ArtifactError",
    "ArtifactInfo",
    "FORMAT_VERSION",
    "save_artifact",
    "load_artifact",
    "read_artifact_info",
    "model_fingerprint",
]

MAGIC = "repro-artifact"
FORMAT_VERSION = 1

# Node-meta keys recorded in (and compared against) the graph record; the
# plan record witnesses shape behaviour at the canonical input shape.
_RECORDED_META = ("grid", "act", "spec", "bn_folds")


class ArtifactError(Exception):
    """A compiled artifact cannot be written or safely loaded.

    Raised on unreadable/corrupted files, format-version skew, fingerprint
    mismatches (tampered file or mutated source model), mode confusion
    (e.g. loading an int8 artifact as ``"infer"``) and compiler drift
    (the recompiled graph no longer matches the stored record).
    """


@dataclass(frozen=True)
class ArtifactInfo:
    """Parsed header of an artifact file (see :func:`read_artifact_info`)."""

    path: str
    mode: str
    format_version: int
    model: dict
    fingerprint: str
    input_shape: tuple | None
    nbytes: int

    def summary(self) -> str:
        shape = "x".join(str(s) for s in self.input_shape) if self.input_shape else "-"
        return (
            f"{os.path.basename(self.path)}: {self.model.get('name')} "
            f"mode={self.mode} v{self.format_version} input={shape} "
            f"fp={self.fingerprint[:12]} ({self.nbytes / 1024:.0f} kB)"
        )


# --------------------------------------------------------------------------- #
# JSON canonicalisation
# --------------------------------------------------------------------------- #
def _json_safe(value):
    """Project a value into canonical JSON-able form.

    Arrays become ``{"__ndarray__": dtype/shape/sha256}`` digests (the actual
    bytes live in the state entries and the fingerprint); tuples become
    lists; NumPy scalars become Python scalars; anything else unserialisable
    falls back to ``repr`` so records stay deterministic and comparable.
    """
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": {
                "dtype": str(value.dtype),
                "shape": list(value.shape),
                "sha256": hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest(),
            }
        }
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return {"__repr__": repr(value)}


def _dumps(obj) -> str:
    return json.dumps(_json_safe(obj), sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------- #
# graph record
# --------------------------------------------------------------------------- #
def _node_record(node, depth: int) -> dict:
    meta = {k: node.meta[k] for k in _RECORDED_META if k in node.meta}
    return {
        "kind": node.kind,
        "name": node.name,
        "depth": depth,
        "attrs": node.attrs,
        "meta": meta,
    }


def graph_record(graph: Graph) -> dict:
    """Structural record of an annotated graph, normalised for comparison."""
    record = {
        "mode": graph.meta.get("mode"),
        "layout": graph.meta.get("layout"),
        "passes": list(graph.meta.get("passes", ())),
        "nodes": [_node_record(node, depth) for node, depth in graph.walk()],
    }
    # Round-trip through canonical JSON so a record built from a live graph
    # compares equal to one parsed back out of a header.
    return json.loads(_dumps(record))


def _first_graph_diff(stored: dict, fresh: dict) -> str:
    """One human-readable line describing where two graph records diverge."""
    for key in ("mode", "layout", "passes"):
        if stored.get(key) != fresh.get(key):
            return f"{key}: artifact={stored.get(key)!r} recompiled={fresh.get(key)!r}"
    a, b = stored.get("nodes", []), fresh.get("nodes", [])
    if len(a) != len(b):
        return f"node count: artifact={len(a)} recompiled={len(b)}"
    for i, (na, nb) in enumerate(zip(a, b)):
        if na != nb:
            what = "/".join(k for k in na if na.get(k) != nb.get(k)) or "?"
            return f"node {i} ({na.get('kind')} {na.get('name')!r}): {what} differs"
    return "records differ"


# --------------------------------------------------------------------------- #
# fingerprint
# --------------------------------------------------------------------------- #
def _structure(model: nn.Module) -> list:
    return [[name, type(mod).__name__] for name, mod in model.named_modules()]


def _state_digest(state: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(state):
        value = np.ascontiguousarray(state[name])
        h.update(name.encode())
        h.update(str(value.dtype).encode())
        h.update(str(value.shape).encode())
        h.update(value.tobytes())
    return h.hexdigest()


def _fingerprint(mode: str, model_ref: dict, model: nn.Module, state: dict) -> str:
    h = hashlib.sha256()
    h.update(_dumps({"mode": mode, "model": model_ref, "structure": _structure(model)}).encode())
    h.update(_state_digest(state).encode())
    return h.hexdigest()


def model_fingerprint(model: nn.Module, mode: str, model_ref: dict | None = None) -> str:
    """Content fingerprint of a live model, as stored in its artifacts.

    Useful to check — without loading — whether an artifact still matches a
    model you hold: compare against :attr:`ArtifactInfo.fingerprint`.
    """
    ref = model_ref or _registry_ref(model, None)
    return _fingerprint(_canonical_mode(mode), ref, model, model.state_dict())


# --------------------------------------------------------------------------- #
# save
# --------------------------------------------------------------------------- #
def _canonical_mode(mode: str) -> str:
    key = _MODE_ALIASES.get(str(mode).lower())
    if key is None:
        raise ArtifactError(f"unknown mode {mode!r}")
    return key


def _registry_ref(model: nn.Module, explicit: dict | None) -> dict:
    if explicit is not None:
        ref = dict(explicit)
    else:
        ref = getattr(model, "_registry_ref", None)
        if ref is None:
            raise ArtifactError(
                "model carries no registry reference; build it with "
                "repro.models.create_model or pass model_ref={'name': ..., "
                "'num_classes': ...} to save()"
            )
        ref = dict(ref)
    if "name" not in ref:
        raise ArtifactError("model_ref must include a registry 'name'")
    ref.setdefault("num_classes", 16)
    ref.setdefault("kwargs", {})
    return ref


def _executor_mode(executor) -> tuple[str, nn.Module]:
    from .program import CompiledNet, QuantizedNet

    if isinstance(executor, QuantizedNet):
        return "int8", executor.source
    if isinstance(executor, CompiledNet):
        return "infer", executor.source
    raise ArtifactError(f"cannot serialize {type(executor).__name__}; expected a repro.compile executor")


def _quant_record(model: nn.Module) -> dict:
    from ..compress.quantization import _QuantizedWrapper

    wrappers = [(name, m) for name, m in model.named_modules() if isinstance(m, _QuantizedWrapper)]
    if not wrappers:
        raise ArtifactError("int8 executor has no quantized layers to serialize")
    specs = {(m.spec.bits, m.spec.symmetric, m.spec.per_channel) for _, m in wrappers}
    if len(specs) > 1:
        raise ArtifactError("mixed quantization specs are not serializable")
    bits, symmetric, per_channel = specs.pop()
    for name, m in wrappers:
        if not m.frozen:
            raise ArtifactError(f"quantized layer {name!r} is not calibrated; freeze before save")
    return {
        "bits": bits,
        "symmetric": symmetric,
        "per_channel": per_channel,
        "wrappers": [name for name, _ in wrappers],
    }


def _plan_record(executor, input_shape) -> dict | None:
    if input_shape is None:
        return None
    shape = tuple(int(s) for s in input_shape)
    plan = executor.memory_plan((1,) + shape)
    return {
        "input_shape": list(shape),
        "arena_elements": int(plan.arena_elements),
        "peak_value_int8_bytes": int(plan.peak_value_int8_bytes),
        "peak_total_int8_bytes": int(plan.peak_total_int8_bytes),
        "buffers": len(plan.buffers),
    }


def save_artifact(executor, path: str, *, input_shape=None, model_ref: dict | None = None) -> ArtifactInfo:
    """Serialize a compiled executor to a single versioned artifact file.

    Parameters
    ----------
    executor:
        A :class:`~repro.runtime.CompiledNet` or
        :class:`~repro.runtime.QuantizedNet` produced by :func:`repro.compile`.
    path:
        Destination file.  Written atomically (temp file + rename).
    input_shape:
        Optional ``(C, H, W)`` deployment shape; when given, the arena-plan
        accounting at that shape is recorded and re-validated at load time.
    model_ref:
        ``{"name", "num_classes", "kwargs"}`` registry reference; only needed
        when the model was not built through :func:`repro.models.create_model`.

    Returns
    -------
    ArtifactInfo
        The header of the file just written.
    """
    mode, model = _executor_mode(executor)
    if model is None:
        raise ArtifactError("executor has no source model attached; cannot serialize")
    ref = _registry_ref(model, model_ref)
    state = model.state_dict()
    header = {
        "magic": MAGIC,
        "format_version": FORMAT_VERSION,
        "mode": mode,
        "model": ref,
        "graph": graph_record(executor.graph),
        "plan": _plan_record(executor, input_shape),
        "state": {
            name: {"dtype": str(v.dtype), "shape": list(v.shape)} for name, v in state.items()
        },
        "state_digest": _state_digest(state),
        "fingerprint": _fingerprint(mode, ref, model, state),
    }
    if mode == "int8":
        header["quant"] = _quant_record(model)

    payload = {"__header__": np.frombuffer(_dumps(header).encode(), dtype=np.uint8)}
    for name, value in state.items():
        payload[f"state::{name}"] = value
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".artifact.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return _info_from_header(path, header)


# --------------------------------------------------------------------------- #
# read / load
# --------------------------------------------------------------------------- #
def _info_from_header(path: str, header: dict) -> ArtifactInfo:
    plan = header.get("plan") or {}
    shape = plan.get("input_shape")
    return ArtifactInfo(
        path=str(path),
        mode=header["mode"],
        format_version=int(header["format_version"]),
        model=dict(header["model"]),
        fingerprint=header["fingerprint"],
        input_shape=tuple(shape) if shape else None,
        nbytes=os.path.getsize(path) if os.path.exists(path) else 0,
    )


def _open_artifact(path: str):
    if not os.path.exists(path):
        raise ArtifactError(f"artifact {path!r} does not exist")
    try:
        data = np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, ValueError, OSError, EOFError) as error:
        raise ArtifactError(f"artifact {path!r} is not a readable repro artifact: {error}") from error
    if "__header__" not in getattr(data, "files", ()):
        data.close()
        raise ArtifactError(f"artifact {path!r} has no header; not a repro artifact")
    try:
        header = json.loads(bytes(data["__header__"]).decode())
    except (ValueError, UnicodeDecodeError, KeyError, zipfile.BadZipFile) as error:
        data.close()
        raise ArtifactError(f"artifact {path!r} header is corrupted: {error}") from error
    if header.get("magic") != MAGIC:
        data.close()
        raise ArtifactError(f"artifact {path!r} has wrong magic {header.get('magic')!r}")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        data.close()
        raise ArtifactError(
            f"artifact {path!r} has format version {version}, this runtime "
            f"reads version {FORMAT_VERSION}; re-save the artifact with this runtime"
        )
    if header.get("mode") not in MODES:
        data.close()
        raise ArtifactError(
            f"artifact {path!r} has mode {header.get('mode')!r}; this runtime "
            f"loads only {MODES}"
        )
    return data, header


def _read_state(data, header, path: str) -> dict:
    manifest = header.get("state", {})
    state = {}
    for name, meta in manifest.items():
        key = f"state::{name}"
        if key not in data.files:
            raise ArtifactError(f"artifact {path!r} is truncated: missing state entry {name!r}")
        try:
            value = data[key]
        except (zipfile.BadZipFile, ValueError, OSError, EOFError) as error:
            raise ArtifactError(f"artifact {path!r} state entry {name!r} is corrupted: {error}") from error
        if str(value.dtype) != meta["dtype"] or list(value.shape) != list(meta["shape"]):
            raise ArtifactError(
                f"artifact {path!r} state entry {name!r} does not match its manifest "
                f"({value.dtype}{list(value.shape)} vs {meta['dtype']}{meta['shape']})"
            )
        state[name] = value
    extra = [k for k in data.files if k.startswith("state::") and k[len("state::"):] not in manifest]
    if extra:
        raise ArtifactError(f"artifact {path!r} carries unmanifested state entries: {extra}")
    return state


def read_artifact_info(path: str, *, verify: bool = False) -> ArtifactInfo:
    """Parse (and optionally integrity-check) an artifact header without building.

    With ``verify=True`` every state tensor is read and the stored
    fingerprint is recomputed structurally (manifest + bytes), so truncation
    and bit corruption are caught before any process is forked on the file.
    """
    data, header = _open_artifact(path)
    try:
        if verify:
            # Full-file integrity without building a model: every state array
            # is read back against the manifest (shape/dtype) and the stored
            # state digest is recomputed over the bytes.
            state = _read_state(data, header, path)
            digest = header.get("state_digest")
            if digest != _state_digest(state):
                raise ArtifactError(f"artifact {path!r} state digest mismatch; file is corrupted")
        return _info_from_header(path, header)
    finally:
        data.close()


def _restore_state(model: nn.Module, state: dict, path: str) -> None:
    """Write stored tensors into a freshly built skeleton, exactly.

    Parameters are assigned in place (shape-checked); buffers are
    *re-registered* with the stored array so integer dtypes chosen from the
    original data (``int8`` vs ``int16`` ``weight_q``) survive instead of
    being truncated through an in-place cast into the skeleton's buffer.
    """
    params = dict(model.named_parameters())
    buffers = dict(model.named_buffers())
    missing = sorted((set(params) | set(buffers)) - set(state))
    unexpected = sorted(set(state) - set(params) - set(buffers))
    if missing or unexpected:
        raise ArtifactError(
            f"artifact {path!r} state does not match the rebuilt model "
            f"(missing={missing[:4]}, unexpected={unexpected[:4]}); "
            "the model registry has diverged from the artifact"
        )
    for name, value in state.items():
        if name in params:
            param = params[name]
            if param.data.shape != value.shape:
                raise ArtifactError(
                    f"artifact {path!r} parameter {name!r} shape {value.shape} "
                    f"does not fit the rebuilt model's {param.data.shape}"
                )
            param.data[...] = value
        else:
            owner_path, _, leaf = name.rpartition(".")
            owner = model.get_submodule(owner_path) if owner_path else model
            owner.register_buffer(leaf, value.copy())


def _rebuild_model(header: dict, path: str) -> nn.Module:
    from ..models import create_model

    ref = header["model"]
    try:
        model = create_model(ref["name"], num_classes=int(ref.get("num_classes", 16)), **ref.get("kwargs", {}))
    except (KeyError, TypeError) as error:
        raise ArtifactError(f"artifact {path!r} references an unbuildable model: {error}") from error
    model.eval()
    if header["mode"] == "int8":
        from ..compress.quantization import QuantizationSpec, _QuantizedWrapper, quantize_model

        quant = header.get("quant")
        if not quant:
            raise ArtifactError(f"artifact {path!r} is an int8 artifact without a quant section")
        spec = QuantizationSpec(
            bits=int(quant["bits"]),
            symmetric=bool(quant["symmetric"]),
            per_channel=bool(quant["per_channel"]),
        )
        quantize_model(model, spec)
        wrapped = [name for name, m in model.named_modules() if isinstance(m, _QuantizedWrapper)]
        if wrapped != list(quant["wrappers"]):
            raise ArtifactError(
                f"artifact {path!r} quantized layer set does not match the rebuilt "
                f"model; cannot restore a partially-quantized artifact onto it"
            )
    return model


def load_artifact(path: str, *, mode: str | None = None, model: nn.Module | None = None):
    """Load a compiled artifact back into a live, bit-identical executor.

    Parameters
    ----------
    path:
        An artifact file written by :func:`save_artifact` /
        ``executor.save(path)``.
    mode:
        Optional expected mode (``"infer"`` / ``"int8"`` or an alias).  A
        mismatch with the stored mode raises :class:`ArtifactError` — an int8
        artifact can never silently execute as float.
    model:
        Optional live model to validate against: its fingerprint (structure +
        current state) must equal the artifact's, otherwise the model has
        mutated since ``save`` and :class:`ArtifactError` is raised.  When
        omitted the model is rebuilt from the registry reference and the
        stored state.

    Returns
    -------
    CompiledNet | QuantizedNet
        A fresh executor, bit-identical to the one that was saved, with an
        :class:`ArtifactInfo` attached as ``executor.artifact``.

    Raises
    ------
    ArtifactError
        Corrupted/truncated files, version skew, fingerprint or mode
        mismatch, registry drift, or a recompiled graph that no longer
        matches the stored record.
    """
    from .frontend import compile_model

    data, header = _open_artifact(path)
    try:
        stored_mode = header["mode"]
        if mode is not None and _canonical_mode(mode) != stored_mode:
            raise ArtifactError(
                f"artifact {path!r} was compiled for mode {stored_mode!r}; "
                f"requested {mode!r} — refusing cross-mode execution"
            )
        state = _read_state(data, header, path)
    finally:
        data.close()

    if model is not None:
        live = model_fingerprint(model, stored_mode, model_ref=header["model"])
        if live != header["fingerprint"]:
            raise ArtifactError(
                f"artifact {path!r} fingerprint does not match the supplied model; "
                "the model has mutated (or is not the model this artifact was saved from)"
            )
    else:
        model = _rebuild_model(header, path)
        _restore_state(model, state, path)
        if stored_mode == "int8":
            from ..compress.quantization import _QuantizedWrapper

            for _, wrapper in model.named_modules():
                if isinstance(wrapper, _QuantizedWrapper):
                    wrapper.observing = False
                    wrapper._samples = []
        restored = _fingerprint(stored_mode, header["model"], model, model.state_dict())
        if restored != header["fingerprint"]:
            raise ArtifactError(
                f"artifact {path!r} fingerprint mismatch after restore; "
                "the file is corrupted or was written by a diverged runtime"
            )

    # Older headers carry an ``options`` block (a removed int8 kernel knob);
    # it is ignored.
    try:
        executor = compile_model(model, mode=stored_mode)
    except CompileError as error:
        raise ArtifactError(f"artifact {path!r} no longer compiles: {error}") from error

    fresh = graph_record(executor.graph)
    stored = header.get("graph")
    if stored is not None and fresh != stored:
        raise ArtifactError(
            f"artifact {path!r} compiler drift: recompiled graph does not match "
            f"the stored record ({_first_graph_diff(stored, fresh)}); "
            "re-save the artifact with this runtime"
        )
    plan = header.get("plan")
    if plan is not None:
        fresh_plan = _plan_record(executor, plan["input_shape"])
        if fresh_plan != plan:
            raise ArtifactError(
                f"artifact {path!r} arena plan drift at input {plan['input_shape']}: "
                f"stored {plan} vs recompiled {fresh_plan}"
            )
    executor.artifact = _info_from_header(path, header)
    return executor
