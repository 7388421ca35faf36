"""Raw NumPy helpers of the planned inference engines.

The activation and pooling leaves the planned programs of
:mod:`repro.runtime.quantized` call on raw ``ndarray`` payloads — no tape
nodes, no closures, no gradient bookkeeping.  Pooling reuses the
sliding-window machinery of :mod:`repro.nn.functional` and draws
padded-input scratch from its shared per-shape workspace cache (safe here:
inference retains nothing between calls — and the cache is
**thread-local**, so the serving engine's worker threads never alias each
other's scratch).

Activations are described by small spec tuples ``(kind, *params)`` — e.g.
``("relu",)``, ``("leaky", 0.3)`` — produced by the compiler from the eager
activation modules.
"""

from __future__ import annotations

import numpy as np

from ..nn.functional import _pad2d, _pool_slices, conv_output_size

__all__ = ["apply_activation", "max_pool2d_raw", "avg_pool2d_raw"]


def apply_activation(out: np.ndarray, act: tuple | None) -> None:
    """Apply an activation spec to ``out`` in place (``None`` is the identity)."""
    if act is None:
        return
    kind = act[0]
    if kind == "relu":
        np.maximum(out, 0.0, out=out)
    elif kind == "relu6":
        np.clip(out, 0.0, 6.0, out=out)
    elif kind == "tanh":
        np.tanh(out, out=out)
    elif kind == "leaky":
        out[...] = np.where(out >= 0.0, out, act[1] * out)
    elif kind == "relu6_interp":
        # DecayableReLU6 mid-anneal: (1 - alpha) * clip(x, 0, 6) + alpha * x.
        mixed = np.clip(out, 0.0, 6.0)
        mixed *= 1.0 - act[1]
        mixed += act[1] * out
        out[...] = mixed
    elif kind == "sigmoid":
        out[...] = 1.0 / (1.0 + np.exp(-out))
    elif kind == "swish":
        out *= 1.0 / (1.0 + np.exp(-out))
    elif kind == "hardsigmoid":
        out[...] = np.clip(out * (1.0 / 6.0) + 0.5, 0.0, 1.0)
    elif kind == "hardswish":
        out *= np.clip(out * (1.0 / 6.0) + 0.5, 0.0, 1.0)
    else:
        raise ValueError(f"unknown activation spec {act!r}")


def max_pool2d_raw(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    out_h = conv_output_size(x.shape[2], kernel, stride, padding)
    out_w = conv_output_size(x.shape[3], kernel, stride, padding)
    xp = _pad2d(x, padding, reuse=True)
    out = None
    for _, _, piece in _pool_slices(xp, kernel, stride, out_h, out_w):
        out = piece.copy() if out is None else np.maximum(out, piece, out=out)
    return out


def avg_pool2d_raw(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    out_h = conv_output_size(x.shape[2], kernel, stride, padding)
    out_w = conv_output_size(x.shape[3], kernel, stride, padding)
    xp = _pad2d(x, padding, reuse=True)
    out = None
    for _, _, piece in _pool_slices(xp, kernel, stride, out_h, out_w):
        if out is None:
            out = piece.astype(x.dtype, copy=True)
        else:
            out += piece
    out *= 1.0 / (kernel * kernel)
    return out
