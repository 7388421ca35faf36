"""Fused NumPy inference kernels operating on raw ``ndarray`` payloads.

These are the leaf operations executed by a :class:`~repro.runtime.CompiledNet`.
They deliberately bypass the autograd :class:`~repro.nn.tensor.Tensor` wrapper:
no tape nodes, no closures, no gradient bookkeeping.  Each kernel

* reuses the zero-copy sliding-window machinery of
  :mod:`repro.nn.functional` for the convolution/pooling contractions;
* adds bias terms and applies activations *in place* on its freshly
  allocated output, so a fused ``conv -> bias -> act`` step costs exactly one
  output allocation;
* draws padded-input scratch space from the shared per-shape workspace cache
  (safe here: inference retains nothing between calls — and the cache is
  **thread-local**, so the serving engine's worker threads never alias each
  other's scratch; see :mod:`repro.nn.functional`).

Activations are described by small spec tuples ``(kind, *params)`` — e.g.
``("relu",)``, ``("leaky", 0.3)`` — produced by the compiler from the eager
activation modules.
"""

from __future__ import annotations

import numpy as np

from ..nn.functional import _conv_windows, _pad2d, _pool_slices, conv_output_size

__all__ = [
    "apply_activation",
    "fused_conv2d",
    "fused_linear",
    "affine_channels",
    "max_pool2d_raw",
    "avg_pool2d_raw",
    "global_avg_pool2d_raw",
    "quantize_input_raw",
    "quantized_conv2d_raw",
    "quantized_linear_raw",
]


def apply_activation(out: np.ndarray, act: tuple | None, inplace: bool = True) -> np.ndarray:
    """Apply an activation spec to ``out``.

    ``inplace=True`` is only valid when ``out`` is a freshly allocated buffer
    owned by the caller (the fused-kernel case); standalone activation ops
    must pass ``inplace=False`` so residual inputs are never clobbered.
    """
    if act is None:
        return out
    kind = act[0]
    if kind == "relu":
        return np.maximum(out, 0.0, out=out) if inplace else np.maximum(out, 0.0)
    if kind == "relu6":
        return np.clip(out, 0.0, 6.0, out=out) if inplace else np.clip(out, 0.0, 6.0)
    if kind == "leaky":
        slope = act[1]
        return np.where(out >= 0.0, out, slope * out)
    if kind == "relu6_interp":
        # DecayableReLU6 mid-anneal: (1 - alpha) * clip(x, 0, 6) + alpha * x.
        alpha = act[1]
        mixed = np.clip(out, 0.0, 6.0)
        mixed *= 1.0 - alpha
        mixed += alpha * out
        return mixed
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-out))
    if kind == "tanh":
        return np.tanh(out, out=out) if inplace else np.tanh(out)
    if kind == "swish":
        return out * (1.0 / (1.0 + np.exp(-out)))
    if kind == "hardsigmoid":
        return np.clip(out * (1.0 / 6.0) + 0.5, 0.0, 1.0)
    if kind == "hardswish":
        return out * np.clip(out * (1.0 / 6.0) + 0.5, 0.0, 1.0)
    raise ValueError(f"unknown activation spec {act!r}")


def fused_conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
    groups: int,
    act: tuple | None = None,
) -> np.ndarray:
    """Convolution + bias + activation as one kernel (single output buffer).

    Parameters
    ----------
    x:
        Input batch ``(N, C_in, H, W)``, ``float32``.
    weight:
        Filters ``(C_out, C_in // groups, kH, kW)``.
    bias:
        Per-output-channel bias, or ``None``.
    stride, padding, groups:
        Standard convolution hyper-parameters; ``groups == C_in`` selects the
        depthwise fast path, 1x1 kernels the pointwise-matmul fast path.
    act:
        Activation spec tuple (see :func:`apply_activation`), or ``None``.

    Returns
    -------
    ndarray
        ``(N, C_out, H_out, W_out)`` with bias and activation applied
        in place on the single freshly allocated output buffer.
    """
    n, c_in = x.shape[:2]
    c_out, c_in_g, kh, kw = weight.shape
    multiplier = c_out // groups

    if kh == 1 and kw == 1 and groups == 1:
        # Pointwise fast path: batched matmul over channels.
        xp = _pad2d(x, padding, reuse=True)
        xs = xp[:, :, ::stride, ::stride] if stride > 1 else xp
        out_h, out_w = xs.shape[2:4]
        x_flat = np.ascontiguousarray(xs).reshape(n, c_in, out_h * out_w)
        out = np.matmul(weight.reshape(c_out, c_in), x_flat).reshape(n, c_out, out_h, out_w)
        if bias is not None:
            out += bias.reshape(1, c_out, 1, 1)
        return apply_activation(out, act)

    windows = _conv_windows(x, (kh, kw), stride, padding, reuse_pad=True)
    out_h, out_w = windows.shape[2:4]

    if c_in_g == 1 and groups == c_in:
        if multiplier == 1:
            out = np.einsum("nchwij,cij->nchw", windows, weight[:, 0], optimize=True)
        else:
            w_dw = weight.reshape(c_in, multiplier, kh, kw)
            out = np.einsum("nchwij,cmij->ncmhw", windows, w_dw, optimize=True)
            out = out.reshape(n, c_out, out_h, out_w)
    elif groups == 1:
        out = np.einsum("nchwij,ocij->nohw", windows, weight, optimize=True)
    else:
        windows_g = windows.reshape(n, groups, c_in_g, out_h, out_w, kh, kw)
        w_g = weight.reshape(groups, multiplier, c_in_g, kh, kw)
        out = np.einsum("ngqhwij,goqij->ngohw", windows_g, w_g, optimize=True)
        out = out.reshape(n, c_out, out_h, out_w)

    if bias is not None:
        out += bias.reshape(1, c_out, 1, 1)
    return apply_activation(out, act)


def fused_linear(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None, act: tuple | None = None
) -> np.ndarray:
    """``x @ W.T`` + bias + activation as one kernel.

    Parameters
    ----------
    x:
        Input batch ``(N, in_features)``.
    weight:
        ``(out_features, in_features)``.
    bias:
        ``(out_features,)`` or ``None``.
    act:
        Activation spec tuple, or ``None``.

    Returns
    -------
    ndarray
        ``(N, out_features)``.
    """
    out = x @ weight.T
    if bias is not None:
        out += bias
    return apply_activation(out, act)


def affine_channels(
    x: np.ndarray, scale: np.ndarray, shift: np.ndarray, act: tuple | None = None
) -> np.ndarray:
    """Per-channel ``x * scale + shift`` — an eval-mode BatchNorm."""
    shape = (1, -1) + (1,) * (x.ndim - 2)
    out = x * scale.reshape(shape)
    out += shift.reshape(shape)
    return apply_activation(out, act)


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


def global_avg_pool2d_raw(x: np.ndarray) -> np.ndarray:
    return x.mean(axis=(2, 3), keepdims=True)


# --------------------------------------------------------------------------- #
# integer (quantized) kernels
# --------------------------------------------------------------------------- #
def quantize_input_raw(
    x: np.ndarray, scale: float, zero_point: float, bits: int = 8
) -> np.ndarray:
    """Quantize a float tensor onto a calibrated activation grid, zero-centred.

    Returns float32 values on the integer grid shifted by the zero point
    (``v = clip(rint(x / scale), -zp, qmax - zp)``) — the representation used
    by the integer engine: real ``0.0`` maps to ``0.0`` exactly, so zero
    padding needs no special handling, and requantization between grids
    commutes with rounding because zero points are integers.
    """
    qmax = float(2**bits - 1)
    v = np.rint(x * np.float32(1.0 / scale))
    return np.clip(v, -zero_point, qmax - zero_point, out=v)


def quantized_conv2d_raw(
    x: np.ndarray,
    weight_q: np.ndarray,
    multiplier: np.ndarray,
    bias: np.ndarray,
    in_scale: float,
    in_zero_point: float,
    bits: int,
    stride: int,
    padding: int,
    groups: int,
    act: tuple | None = None,
) -> np.ndarray:
    """One-shot integer convolution returning dequantized float output.

    The input is quantized onto the layer's calibrated grid, convolved against
    the raw int8 ``weight_q`` (carried in float32 lanes, where the integer
    accumulation is exact below :math:`2^{24}`), and mapped back to float by
    the fused per-output-channel ``multiplier`` / ``bias``
    (``in_scale * weight_scale * bn_scale`` and
    ``conv_bias * bn_scale + bn_shift``).  This is the self-contained op the
    float compiler uses to route :class:`~repro.compress.QuantizedConv2d`
    wrappers; the planned engine (:mod:`repro.runtime.quantized`) fuses the
    same math across ops instead.
    """
    v = quantize_input_raw(x, in_scale, in_zero_point, bits)
    acc = fused_conv2d(v, weight_q.astype(np.float32), None, stride, padding, groups, None)
    out = acc * multiplier.reshape(1, -1, 1, 1)
    out += bias.reshape(1, -1, 1, 1)
    return apply_activation(out, act)


def quantized_linear_raw(
    x: np.ndarray,
    weight_q: np.ndarray,
    multiplier: np.ndarray,
    bias: np.ndarray,
    in_scale: float,
    in_zero_point: float,
    bits: int,
    act: tuple | None = None,
) -> np.ndarray:
    """One-shot integer linear layer returning dequantized float output."""
    v = quantize_input_raw(x, in_scale, in_zero_point, bits)
    out = v @ weight_q.astype(np.float32).T
    out *= multiplier
    out += bias
    return apply_activation(out, act)
