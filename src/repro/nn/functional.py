"""Neural-network primitives built on top of :class:`repro.nn.tensor.Tensor`.

These functions implement the heavy-weight operations (convolution, pooling,
batch normalisation, losses) as single autograd nodes with hand-written
backward passes, which keeps the tape small and the NumPy implementation
reasonably fast.

All spatial operations use the ``NCHW`` layout.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor, is_grad_enabled

__all__ = [
    "im2col",
    "im2col_reference",
    "col2im",
    "clear_workspaces",
    "conv2d",
    "max_pool2d",
    "global_avg_pool2d",
    "batch_norm2d",
    "linear",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "softmax_cross_entropy_raw",
    "softmax_cross_entropy_grad",
    "kl_divergence",
    "mse_loss",
    "binary_cross_entropy_with_logits",
    "dropout",
    "one_hot",
    "conv_output_size",
]


# --------------------------------------------------------------------------- #
# workspace cache
# --------------------------------------------------------------------------- #
# Per-shape scratch buffers so the hot ops (pooling window materialisation,
# padded inputs in no-grad mode, conv backward col/grad staging) stop
# reallocating large arrays every step.  Workspaces are only handed out for
# buffers that are fully consumed within a single op call — anything retained
# for the backward pass allocates fresh.  The ``tag`` namespaces buffers so
# two different roles with the same shape never alias within one op call.
# The per-shape workspace cache is EXPLICITLY THREAD-LOCAL — this is a
# contract, not an implementation detail.  The in-process serving engine
# (:class:`repro.serve.Engine`) runs several worker threads over one shared
# compiled executor, and relies on every thread drawing scratch from its own
# store so concurrent kernel calls can never alias (or clobber) each other's
# padded-input buffers.  A workspace array must therefore never be returned
# to a caller on a different thread, stored on an op, or handed to a closure
# that outlives the kernel call.  ``tests/test_concurrency.py`` pins both
# properties (distinct buffers per thread, no cross-talk under a race-stress
# load).
_WORKSPACE_LIMIT = 96
_WORKSPACE_STORE = threading.local()


def _workspaces() -> dict:
    """This thread's private ``(tag, shape, dtype) -> ndarray`` scratch store."""
    cache = getattr(_WORKSPACE_STORE, "cache", None)
    if cache is None:
        cache = _WORKSPACE_STORE.cache = {}
    return cache


def _workspace(shape: tuple[int, ...], dtype, tag: str = "") -> np.ndarray:
    """A reusable scratch array, owned exclusively by the calling thread."""
    workspaces = _workspaces()
    key = (tag, tuple(shape), np.dtype(dtype).str)
    buf = workspaces.get(key)
    if buf is None:
        if len(workspaces) >= _WORKSPACE_LIMIT:
            workspaces.clear()
        buf = np.empty(shape, dtype=dtype)
        workspaces[key] = buf
    return buf


def clear_workspaces() -> None:
    """Drop this thread's cached scratch buffers (frees memory after large workloads).

    Only the calling thread's store is dropped — other threads' workspaces
    (e.g. the serving engine's workers) are untouched by design.
    """
    _workspaces().clear()


# --------------------------------------------------------------------------- #
# im2col / col2im
# --------------------------------------------------------------------------- #
def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


def _pad2d(x: np.ndarray, padding: int, reuse: bool = False) -> np.ndarray:
    """Zero-pad the spatial dims; ``reuse`` draws from the workspace cache.

    ``reuse=True`` is only valid when the padded array is consumed before the
    next op call (e.g. inference forward passes) — a workspace buffer handed
    to an autograd closure would be clobbered by the next step.
    """
    if padding <= 0:
        return x
    n, c, h, w = x.shape
    shape = (n, c, h + 2 * padding, w + 2 * padding)
    if reuse:
        out = _workspace(shape, x.dtype)
        out.fill(0.0)
        out[:, :, padding:-padding, padding:-padding] = x
        return out
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def _conv_windows(x: np.ndarray, kernel: tuple[int, int], stride: int, padding: int) -> np.ndarray:
    """Zero-copy sliding windows of shape ``(N, C, out_h, out_w, kH, kW)``.

    The result is a strided view into (a padded copy of) ``x`` — no patch data
    is materialised.
    """
    xp = _pad2d(x, padding)
    windows = sliding_window_view(xp, kernel, axis=(2, 3))
    if stride > 1:
        windows = windows[:, :, ::stride, ::stride]
    return windows


def im2col(x: np.ndarray, kernel: tuple[int, int], stride: int, padding: int) -> np.ndarray:
    """Rearrange image patches into columns (zero-copy).

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel:
        ``(kH, kW)`` patch size.

    Returns
    -------
    Array of shape ``(N, C, kH, kW, out_h, out_w)``.  This is a read-only
    strided *view* of the (padded) input — consumers that need a contiguous
    buffer must copy it explicitly.
    """
    return _conv_windows(x, kernel, stride, padding).transpose(0, 1, 4, 5, 2, 3)


def im2col_reference(x: np.ndarray, kernel: tuple[int, int], stride: int, padding: int) -> np.ndarray:
    """Copy-based im2col kept as the numerical reference for :func:`im2col`.

    This is the seed implementation (explicit patch copies into a freshly
    allocated 6-D buffer); tests and the operator benchmarks compare the
    stride-trick fast path against it.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)

    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))

    cols = np.empty((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            cols[:, :, i, j, :, :] = x[:, :, i:i_max:stride, j:j_max:stride]
    return cols


def _scatter_windows(
    grad_windows: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`_conv_windows`: scatter-add window grads into an image.

    ``grad_windows`` has the ``(N, C, out_h, out_w, kH, kW)`` window layout.
    """
    n, c, h, w = input_shape
    kh, kw = kernel
    out_h, out_w = grad_windows.shape[2:4]
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=grad_windows.dtype)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            padded[:, :, i:i_max:stride, j:j_max:stride] += grad_windows[:, :, :, :, i, j]
    if padding > 0:
        return np.ascontiguousarray(padded[:, :, padding:-padding, padding:-padding])
    return padded


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back into an image."""
    return _scatter_windows(cols.transpose(0, 1, 4, 5, 2, 3), input_shape, kernel, stride, padding)


# --------------------------------------------------------------------------- #
# raw convolution kernels of the autograd conv
# --------------------------------------------------------------------------- #
# The dense (groups == 1, k > 1) convolution is lowered to a single sgemm over
# channel-major patch columns of shape ``(C_in, kH, kW, N, oH, oW)``; the same
# column buffer doubles as the ``dL/dW`` contraction operand in the backward
# pass, and ``dL/dx`` is a second sgemm followed by a clipped channel-major
# scatter.  Compared to the einsum formulation this drops the internal
# transpose-copies einsum performs on the strided window view (the column
# copy is done once, in the cache-friendly channel-major order).


def _dense_conv_cols(windows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Materialise the ``(N, C, oH, oW, kH, kW)`` window view channel-major.

    Returns a contiguous array of shape ``(C, kH, kW, N, oH, oW)`` — the
    layout both the forward and the weight-gradient sgemm consume directly.
    """
    n, c, oh, ow, kh, kw = windows.shape
    if out is None:
        out = np.empty((c, kh, kw, n, oh, ow), dtype=windows.dtype)
    np.copyto(out, windows.transpose(1, 4, 5, 0, 2, 3))
    return out


def _dense_conv_forward_from_cols(cols: np.ndarray, wd: np.ndarray) -> np.ndarray:
    """Dense convolution forward as one sgemm over channel-major columns."""
    c_in, kh, kw, n, oh, ow = cols.shape
    c_out = wd.shape[0]
    out_t = _workspace((c_out, n, oh, ow), cols.dtype, tag="conv.out_t")
    np.matmul(
        wd.reshape(c_out, c_in * kh * kw),
        cols.reshape(c_in * kh * kw, n * oh * ow),
        out=out_t.reshape(c_out, n * oh * ow),
    )
    return np.ascontiguousarray(out_t.transpose(1, 0, 2, 3))


def _depthwise_conv_forward(
    xp: np.ndarray, windows: np.ndarray, wd: np.ndarray, stride: int
) -> np.ndarray:
    """Depthwise (multiplier 1) forward of the autograd conv.

    ``xp`` is the padded input, ``windows`` its strided window view.  Large
    kernels at stride 1 use one fused row-contraction per kernel row (much
    faster than the full 6-D window einsum); other configurations contract
    the window view directly.
    """
    c_in, _, kh, kw = wd.shape
    oh, ow = windows.shape[2:4]
    # The output buffer is always explicit and C-contiguous: einsum otherwise
    # picks a layout-dependent result order, and downstream contractions are
    # bit-sensitive to operand strides.
    out = np.empty(windows.shape[:4], dtype=xp.dtype)
    if stride == 1 and kh == kw and kh > 3:
        win_rows = sliding_window_view(xp, kw, axis=3)
        np.einsum("nchwj,cj->nchw", win_rows[:, :, 0:oh], wd[:, 0, 0], out=out, optimize=True)
        for i in range(1, kh):
            out += np.einsum(
                "nchwj,cj->nchw", win_rows[:, :, i : i + oh], wd[:, 0, i], optimize=True
            )
        return out
    np.einsum("nchwij,cij->nchw", windows, wd[:, 0], out=out, optimize=True)
    return out


def _scatter_cols(
    gcols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add channel-major column grads back into an NCHW image.

    ``gcols`` has shape ``(C, kH, kW, N, oH, oW)``.  The accumulator stays in
    the same channel-major layout (contiguous adds), clipping each kernel
    offset against the image bounds so no padded ring is materialised; a
    single transpose-copy produces the NCHW result.
    """
    n, c, h, w = input_shape
    _, kh, kw, _, oh, ow = gcols.shape
    acc = _workspace((c, n, h, w), gcols.dtype, tag="convbw.acc")
    acc.fill(0)
    for i in range(kh):
        for j in range(kw):
            # Output rows r contribute at image row (i - padding + stride*r).
            r0 = max(-((i - padding) // stride) if i < padding else 0, 0)
            r1 = min((h - 1 - i + padding) // stride, oh - 1)
            c0 = max(-((j - padding) // stride) if j < padding else 0, 0)
            c1 = min((w - 1 - j + padding) // stride, ow - 1)
            if r1 < r0 or c1 < c0:
                continue
            ys = slice(i - padding + stride * r0, i - padding + stride * r1 + 1, stride)
            xs = slice(j - padding + stride * c0, j - padding + stride * c1 + 1, stride)
            acc[:, :, ys, xs] += gcols[:, i, j, :, r0 : r1 + 1, c0 : c1 + 1]
    return np.ascontiguousarray(acc.transpose(1, 0, 2, 3))


def _grad_channel_major(grad: np.ndarray) -> np.ndarray:
    """Stage ``(N, C_out, oH, oW)`` grads as a ``(C_out, N*oH*oW)`` matrix."""
    c_out = grad.shape[1]
    grad_t = _workspace(
        (c_out, grad.shape[0], grad.shape[2], grad.shape[3]), grad.dtype, tag="convbw.gradT"
    )
    np.copyto(grad_t, grad.transpose(1, 0, 2, 3))
    return grad_t.reshape(c_out, -1)


def _dense_conv_backward(
    grad: np.ndarray,
    cols: np.ndarray,
    wd: np.ndarray,
    input_shape: tuple[int, int, int, int],
    stride: int,
    padding: int,
    need_x: bool,
    need_w: bool,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Backward of the dense conv: two sgemms sharing the staged operands."""
    c_in, kh, kw = cols.shape[:3]
    c_out = wd.shape[0]
    nhw = cols.shape[3] * cols.shape[4] * cols.shape[5]
    grad_mat = _grad_channel_major(grad)
    dx = dw = None
    if need_w:
        dw_t = cols.reshape(c_in * kh * kw, nhw) @ grad_mat.T
        dw = np.ascontiguousarray(dw_t.T).reshape(wd.shape)
    if need_x:
        gcols = _workspace(cols.shape, grad.dtype, tag="convbw.gcols")
        np.matmul(
            wd.reshape(c_out, c_in * kh * kw).T,
            grad_mat,
            out=gcols.reshape(c_in * kh * kw, nhw),
        )
        dx = _scatter_cols(gcols, input_shape, stride, padding)
    return dx, dw


def _depthwise_conv_backward(
    grad: np.ndarray,
    windows: np.ndarray,
    wd: np.ndarray,
    input_shape: tuple[int, int, int, int],
    stride: int,
    padding: int,
    need_x: bool,
    need_w: bool,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Backward of the depthwise (multiplier 1) conv without window tensors.

    Iterates the ``kH x kW`` kernel offsets and performs one fused contraction
    (for ``dL/dW``) or one broadcast multiply-accumulate (for ``dL/dx``) per
    offset, so the ``(N, C, oH, oW, kH, kW)`` gradient tensor the einsum
    formulation materialises never exists.
    """
    n, c_in, h, w = input_shape
    kh, kw = wd.shape[2:]
    oh, ow = grad.shape[2:]
    dx = dw = None
    if need_w:
        dw = np.empty(wd.shape, dtype=wd.dtype)
        for i in range(kh):
            for j in range(kw):
                # optimize=False: the contraction is a single fused pass and
                # skipping the per-call einsum_path search halves the cost.
                dw[:, 0, i, j] = np.einsum(
                    "nchw,nchw->c", grad, windows[..., i, j], optimize=False
                )
    if need_x:
        if stride == 1 and kh == kw and padding <= kh - 1:
            # dL/dx is a correlation of the (zero-padded) output gradient with
            # the flipped kernel; one fused row-contraction per kernel row.
            pg = kh - 1 - padding
            gp = np.pad(grad, ((0, 0), (0, 0), (pg, pg), (pg, pg))) if pg > 0 else grad
            win_rows = sliding_window_view(gp, kw, axis=3)
            w_flip = wd[:, 0, ::-1, ::-1]
            dx = np.empty((n, c_in, h, w), dtype=grad.dtype)
            np.einsum("nchwj,cj->nchw", win_rows[:, :, 0:h], w_flip[:, 0], out=dx, optimize=True)
            for i in range(1, kh):
                dx += np.einsum(
                    "nchwj,cj->nchw", win_rows[:, :, i : i + h], w_flip[:, i], optimize=True
                )
        else:
            acc = _workspace(
                (n, c_in, h + 2 * padding, w + 2 * padding), grad.dtype, tag="convbw.dwacc"
            )
            acc.fill(0)
            tmp = _workspace((n, c_in, oh, ow), grad.dtype, tag="convbw.dwtmp")
            for i in range(kh):
                i_max = i + stride * oh
                for j in range(kw):
                    j_max = j + stride * ow
                    np.multiply(grad, wd[:, 0, i, j].reshape(1, c_in, 1, 1), out=tmp)
                    acc[:, :, i:i_max:stride, j:j_max:stride] += tmp
            dx = np.ascontiguousarray(acc[:, :, padding : padding + h, padding : padding + w])
    return dx, dw


def _pointwise_conv_backward(
    grad: np.ndarray,
    x_flat: np.ndarray,
    wd: np.ndarray,
    input_shape: tuple[int, int, int, int],
    stride: int,
    padding: int,
    need_x: bool,
    need_w: bool,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Backward of the 1x1 conv; ``x_flat`` is the ``(N, C_in, oH*oW)`` input."""
    n, c_in, h, w = input_shape
    c_out = grad.shape[1]
    out_h, out_w = grad.shape[2:]
    grad_flat = grad.reshape(n, c_out, out_h * out_w)
    dx = dw = None
    if need_w:
        # Single sgemm over channel-major stagings instead of an N-batched
        # matmul plus a reduction over the batch axis.
        grad_mat = _grad_channel_major(grad)
        x_t = _workspace((c_in, n, out_h * out_w), x_flat.dtype, tag="convbw.pwx")
        np.copyto(x_t, x_flat.transpose(1, 0, 2))
        dw = (grad_mat @ x_t.reshape(c_in, -1).T).reshape(wd.shape)
    if need_x:
        w_mat = wd.reshape(c_out, c_in)
        dx = np.matmul(w_mat.T, grad_flat).reshape(n, c_in, out_h, out_w)
        if stride > 1 or padding > 0:
            grad_padded = np.zeros((n, c_in, h + 2 * padding, w + 2 * padding), dtype=grad.dtype)
            grad_padded[:, :, : stride * out_h : stride, : stride * out_w : stride] = dx
            if padding > 0:
                dx = np.ascontiguousarray(grad_padded[:, :, padding:-padding, padding:-padding])
            else:
                dx = grad_padded
    return dx, dw


# --------------------------------------------------------------------------- #
# convolution
# --------------------------------------------------------------------------- #
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """2-D convolution (cross-correlation) with optional grouping.

    Parameters
    ----------
    x:
        Input tensor of shape ``(N, C_in, H, W)``.
    weight:
        Kernel tensor of shape ``(C_out, C_in // groups, kH, kW)``.
    bias:
        Optional bias of shape ``(C_out,)``.
    groups:
        Number of channel groups; ``groups == C_in`` yields a depthwise
        convolution.
    """
    xd, wd = x.data, weight.data
    n, c_in, h, w = xd.shape
    c_out, c_in_g, kh, kw = wd.shape
    if c_in != c_in_g * groups:
        raise ValueError(
            f"conv2d channel mismatch: input has {c_in} channels, "
            f"weight expects {c_in_g * groups} (groups={groups})"
        )
    if c_out % groups != 0:
        raise ValueError("output channels must be divisible by groups")

    # The autograd closure retains the zero-copy window view, so the padded
    # copy may only come from the workspace cache when no grad is needed.
    grad_needed = is_grad_enabled() and (
        x.requires_grad
        or weight.requires_grad
        or (bias is not None and bias.requires_grad)
    )
    # Multiplier-1 depthwise only; a larger multiplier runs the grouped path.
    depthwise = c_in_g == 1 and groups == c_in == c_out
    pointwise = kh == 1 and kw == 1 and groups == 1
    multiplier = c_out // groups

    cols = None  # channel-major patch columns, retained for the dense backward
    if pointwise:
        # 1x1 fast path: a pure channel contraction, lowered to batched matmul
        # (several times faster than the generic windowed einsum).
        xp = _pad2d(xd, padding, reuse=not grad_needed)
        xs = xp[:, :, ::stride, ::stride] if stride > 1 else xp
        out_h, out_w = xs.shape[2:4]
        x_flat = np.ascontiguousarray(xs).reshape(n, c_in, out_h * out_w)
        w_mat = wd.reshape(c_out, c_in)
        out = np.matmul(w_mat, x_flat).reshape(n, c_out, out_h, out_w)
    else:
        # (N, C, oh, ow, kH, kW) strided view — no patch data materialised.
        # The dense path never retains the view (it materialises channel-major
        # columns instead), so its padded copy can always reuse the workspace.
        dense = groups == 1 and not depthwise
        xp = _pad2d(xd, padding, reuse=dense or not grad_needed)
        windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))
        if stride > 1:
            windows = windows[:, :, ::stride, ::stride]
        out_h, out_w = windows.shape[2:4]
        if depthwise:
            # Depthwise fast path: contract only over the window axes,
            # skipping the grouped reshape dance entirely.
            out = _depthwise_conv_forward(xp, windows, wd, stride)
        elif groups == 1:
            if grad_needed:
                # Materialise the columns once; the buffer feeds the forward
                # sgemm here and the dL/dW sgemm in the backward pass.
                cols = _dense_conv_cols(windows)
                out = _dense_conv_forward_from_cols(cols, wd)
            else:
                out = _dense_conv_forward_from_cols(
                    _dense_conv_cols(windows, out=_workspace(
                        (c_in, kh, kw, n) + windows.shape[2:4], xd.dtype, tag="conv.cols"
                    )),
                    wd,
                )
        else:
            windows_g = windows.reshape(n, groups, c_in_g, out_h, out_w, kh, kw)
            w_g = wd.reshape(groups, multiplier, c_in_g, kh, kw)
            out = np.einsum("ngqhwij,goqij->ngohw", windows_g, w_g, optimize=True)
            out = out.reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out += bias.data.reshape(1, c_out, 1, 1)

    if not grad_needed:
        return Tensor._make(out, (), None)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad = np.asarray(grad, dtype=xd.dtype)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)), owned=True)
        if pointwise:
            dx, dw = _pointwise_conv_backward(
                grad, x_flat, wd, xd.shape, stride, padding,
                need_x=x.requires_grad, need_w=weight.requires_grad,
            )
            if dw is not None:
                weight._accumulate(dw, owned=True)
            if dx is not None:
                x._accumulate(dx, owned=True)
        elif depthwise:
            dx, dw = _depthwise_conv_backward(
                grad, windows, wd, xd.shape, stride, padding,
                need_x=x.requires_grad, need_w=weight.requires_grad,
            )
            if dw is not None:
                weight._accumulate(dw, owned=True)
            if dx is not None:
                x._accumulate(dx, owned=True)
        elif groups == 1:
            dx, dw = _dense_conv_backward(
                grad, cols, wd, xd.shape, stride, padding,
                need_x=x.requires_grad, need_w=weight.requires_grad,
            )
            if dw is not None:
                weight._accumulate(dw, owned=True)
            if dx is not None:
                x._accumulate(dx, owned=True)
        else:
            grad_g = grad.reshape(n, groups, multiplier, out_h, out_w)
            windows_g = windows.reshape(n, groups, c_in_g, out_h, out_w, kh, kw)
            w_g = wd.reshape(groups, multiplier, c_in_g, kh, kw)
            if weight.requires_grad:
                grad_w = np.einsum("ngohw,ngqhwij->goqij", grad_g, windows_g, optimize=True)
                weight._accumulate(grad_w.reshape(wd.shape), owned=True)
            if x.requires_grad:
                grad_windows = np.einsum("ngohw,goqij->ngqhwij", grad_g, w_g, optimize=True)
                grad_windows = grad_windows.reshape(n, c_in, out_h, out_w, kh, kw)
                x._accumulate(
                    _scatter_windows(grad_windows, xd.shape, (kh, kw), stride, padding),
                    owned=True,
                )

    return Tensor._make(out, parents, backward)


# --------------------------------------------------------------------------- #
# pooling
# --------------------------------------------------------------------------- #
def _pool_slices(xp: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int):
    """Yield the ``kernel**2`` shifted strided slices covering every window.

    Iterating window positions (not windows) turns pooling into a handful of
    large elementwise passes over near-contiguous slices — much faster than
    gathering a transposed window tensor.
    """
    for i in range(kernel):
        i_max = i + stride * out_h
        for j in range(kernel):
            j_max = j + stride * out_w
            yield i, j, xp[:, :, i:i_max:stride, j:j_max:stride]


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None, padding: int = 0) -> Tensor:
    """Max pooling over ``kernel x kernel`` windows (zeros in the padding)."""
    stride = stride or kernel
    xd = x.data
    n, c, h, w = xd.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    grad_needed = is_grad_enabled() and x.requires_grad
    # Backward re-derives the argmax from the retained padded input, so the
    # workspace may only be reused when no gradient will flow.
    xp = _pad2d(xd, padding, reuse=not grad_needed)
    out = None
    for _, _, piece in _pool_slices(xp, kernel, stride, out_h, out_w):
        if out is None:
            out = piece.copy()
        else:
            np.maximum(out, piece, out=out)

    if not grad_needed:
        return Tensor._make(out, (), None)

    def backward(grad):
        grad = np.asarray(grad, dtype=xd.dtype)
        # First-match scatter reproduces argmax tie-breaking (row-major window
        # order) without materialising the window tensor in the forward pass.
        grad_padded = np.zeros(xp.shape, dtype=xd.dtype)
        taken = np.zeros((n, c, out_h, out_w), dtype=bool)
        for i, j, piece in _pool_slices(xp, kernel, stride, out_h, out_w):
            mask = piece == out
            mask &= ~taken
            i_max = i + stride * out_h
            j_max = j + stride * out_w
            grad_padded[:, :, i:i_max:stride, j:j_max:stride] += grad * mask
            taken |= mask
        if padding > 0:
            grad_x = np.ascontiguousarray(grad_padded[:, :, padding:-padding, padding:-padding])
        else:
            grad_x = grad_padded
        x._accumulate(grad_x, owned=True)

    return Tensor._make(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the full spatial extent, returning ``(N, C, 1, 1)``."""
    return x.mean(axis=(2, 3), keepdims=True)


# --------------------------------------------------------------------------- #
# normalisation
# --------------------------------------------------------------------------- #
def batch_norm2d_train_raw(
    xd: np.ndarray,
    gamma_d: np.ndarray,
    beta_d: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    momentum: float,
    eps: float,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Training-mode batch-norm forward with a fused affine output.

    Batch moments use the numerically-stable two-pass mean/var (a naive
    ``E[x^2] - mean^2`` in float32 loses catastrophically for channels whose
    mean is large relative to their std); the normalisation itself is folded
    into one per-channel affine ``x * scale + shift``, so ``x_hat`` is never
    materialised.  Updates ``running_mean`` / ``running_var`` in place and
    returns the output plus the ``(xd, mean, inv_std)`` cache
    :func:`batch_norm2d_train_grad` consumes.
    """
    c = xd.shape[1]
    count = xd.shape[0] * xd.shape[2] * xd.shape[3]
    mean_k = xd.mean(axis=(0, 2, 3), keepdims=True)
    var = np.var(xd, axis=(0, 2, 3), mean=mean_k)  # reuses the computed mean
    mean = mean_k.reshape(c)
    unbiased = var * count / max(count - 1, 1)
    running_mean *= 1.0 - momentum
    running_mean += momentum * mean
    running_var *= 1.0 - momentum
    running_var += momentum * unbiased
    inv_std = 1.0 / np.sqrt(var + eps)
    scale = gamma_d * inv_std
    shift = beta_d - mean * scale
    out = xd * scale.reshape(1, c, 1, 1)
    out += shift.reshape(1, c, 1, 1)
    return out, (xd, mean, inv_std)


def batch_norm2d_train_grad(
    grad: np.ndarray,
    cache: tuple[np.ndarray, np.ndarray, np.ndarray],
    gamma_d: np.ndarray,
    need_x: bool = True,
    need_gamma: bool = True,
    need_beta: bool = True,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Backward of :func:`batch_norm2d_train_raw`; returns ``(dx, dgamma, dbeta)``.

    The classic three-term input gradient is collapsed algebraically into one
    per-element affine ``grad * A + (x - mean) * B + C`` with per-channel
    coefficients, fed by two whole-array reductions (``sum(grad)`` and a
    fused ``grad * (x - mean)`` contraction) — roughly half the memory passes
    of the textbook formulation.  The input is centred *before* the
    contraction: recovering ``sum(grad * x_hat)`` from the uncentred
    ``sum(grad * x)`` would subtract two nearly-equal quantities when the
    channel mean is large, which float32 accumulation cannot survive.
    """
    xd, mean, inv_std = cache
    c = xd.shape[1]
    m = xd.shape[0] * xd.shape[2] * xd.shape[3]
    mean4 = mean.reshape(1, c, 1, 1)
    centered = xd - mean4
    grad_sum = grad.sum(axis=(0, 2, 3))
    grad_xhat_sum = inv_std * np.einsum("nchw,nchw->c", grad, centered, optimize=False)
    dgamma = grad_xhat_sum if need_gamma else None
    dbeta = grad_sum if need_beta else None
    dx = None
    if need_x:
        # dx = inv_std * (grad*g - sum(grad*g)/m - x_hat*sum(grad*g*x_hat)/m)
        # expands to the per-element affine  grad*A + centered*B + C  with:
        coeff_a = gamma_d * inv_std
        coeff_b = -coeff_a * inv_std * grad_xhat_sum * (1.0 / m)
        coeff_c = -coeff_a * grad_sum * (1.0 / m)
        dx = grad * coeff_a.reshape(1, c, 1, 1)
        centered *= coeff_b.reshape(1, c, 1, 1)
        dx += centered
        dx += coeff_c.reshape(1, c, 1, 1)
    return dx, dgamma, dbeta


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalisation over the channel dimension of an NCHW tensor.

    ``running_mean`` / ``running_var`` are plain NumPy buffers updated in
    place when ``training`` is true.
    """
    xd = x.data
    c = xd.shape[1]

    if training:
        out, cache = batch_norm2d_train_raw(
            xd, gamma.data, beta.data, running_mean, running_var, momentum, eps
        )
        x_hat = inv_std = None
    else:
        cache = None
        inv_std = 1.0 / np.sqrt(running_var + eps)
        x_hat = (xd - running_mean.reshape(1, c, 1, 1)) * inv_std.reshape(1, c, 1, 1)
        out = gamma.data.reshape(1, c, 1, 1) * x_hat + beta.data.reshape(1, c, 1, 1)

    def backward(grad):
        grad = np.asarray(grad, dtype=xd.dtype)
        if training:
            dx, dgamma, dbeta = batch_norm2d_train_grad(
                grad,
                cache,
                gamma.data,
                need_x=x.requires_grad,
                need_gamma=gamma.requires_grad,
                need_beta=beta.requires_grad,
            )
            if dgamma is not None:
                gamma._accumulate(dgamma)
            if dbeta is not None:
                beta._accumulate(dbeta)
            if dx is not None:
                x._accumulate(dx)
            return
        if gamma.requires_grad:
            gamma._accumulate((grad * x_hat).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            beta._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            g = gamma.data.reshape(1, c, 1, 1)
            x._accumulate(grad * g * inv_std.reshape(1, c, 1, 1))

    return Tensor._make(out, (x, gamma, beta), backward)


# --------------------------------------------------------------------------- #
# linear layers and activations on logits
# --------------------------------------------------------------------------- #
def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias``."""
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels ``(N,)`` to one-hot ``(N, num_classes)`` float array."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _cross_entropy_targets(
    targets, num_classes: int, label_smoothing: float, soft_targets: bool
) -> np.ndarray:
    """Resolve integer labels / soft targets into a target-probability matrix."""
    if soft_targets:
        target_probs = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    else:
        target_probs = one_hot(np.asarray(targets), num_classes)
    if label_smoothing > 0.0:
        target_probs = (
            (1.0 - label_smoothing) * target_probs + label_smoothing / num_classes
        )
    return target_probs


def softmax_cross_entropy_raw(
    logits: np.ndarray, target_probs: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Forward of the fused softmax cross-entropy on raw arrays.

    Parameters
    ----------
    logits:
        ``(N, C)`` unnormalised scores.
    target_probs:
        ``(N, C)`` target distribution.

    Returns
    -------
    (loss, cache)
        The scalar loss (0-d array in the logits dtype) and the
        ``(exp_shifted, sum_exp)`` cache consumed by
        :func:`softmax_cross_entropy_grad`.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    sum_exp = exp.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(sum_exp)
    loss = np.asarray(-(target_probs * log_probs).sum(axis=-1).mean(), dtype=logits.dtype)
    return loss, (exp, sum_exp)


def softmax_cross_entropy_grad(
    cache: tuple[np.ndarray, np.ndarray],
    target_probs: np.ndarray,
    upstream: np.ndarray | float = 1.0,
) -> np.ndarray:
    """Gradient of the fused softmax cross-entropy w.r.t. the logits.

    Analytic form ``(softmax(z) * sum(t) - t) * upstream / N`` — one fused
    kernel instead of the log-softmax tape chain.  ``sum(t)`` keeps the
    gradient exact for unnormalised soft-target rows.
    """
    exp, sum_exp = cache
    probs = exp / sum_exp
    grad_logits = probs * target_probs.sum(axis=-1, keepdims=True) - target_probs
    # The 1/N scale is a float64 scalar, so each element is rounded once.  A
    # float32 1/N would round twice whenever N is not a power of two.
    grad_logits *= np.float64(upstream) * (1.0 / exp.shape[0])
    return grad_logits


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray | Tensor,
    label_smoothing: float = 0.0,
    soft_targets: bool = False,
) -> Tensor:
    """Cross-entropy between logits and integer labels or soft targets.

    Implemented as a single fused tape node (forward and backward are one
    kernel each, see :func:`softmax_cross_entropy_raw`) rather than the
    log-softmax chain, which removes ~10 tape nodes per training step.

    Parameters
    ----------
    logits:
        ``(N, C)`` unnormalised scores.
    targets:
        Integer labels ``(N,)`` unless ``soft_targets`` is true, in which case
        a ``(N, C)`` probability matrix (Tensor or ndarray).
    label_smoothing:
        Mixes the hard target distribution with a uniform distribution.
    """
    target_probs = _cross_entropy_targets(
        targets, logits.shape[-1], label_smoothing, soft_targets
    )
    loss, cache = softmax_cross_entropy_raw(logits.data, target_probs)

    def backward(grad):
        logits._accumulate(
            softmax_cross_entropy_grad(cache, target_probs, upstream=grad), owned=True
        )

    return Tensor._make(loss, (logits,), backward)


def kl_divergence(teacher_logits: Tensor, student_logits: Tensor, temperature: float = 1.0) -> Tensor:
    """KL(teacher || student) on temperature-scaled distributions.

    The teacher distribution is detached; the usual ``T**2`` factor is applied
    so gradients are comparable across temperatures (Hinton et al., 2015).
    """
    t_probs = softmax(teacher_logits * (1.0 / temperature), axis=-1).detach()
    s_log_probs = log_softmax(student_logits * (1.0 / temperature), axis=-1)
    t = Tensor(t_probs.data)
    loss = (t * (Tensor(np.log(np.clip(t_probs.data, 1e-12, None))) - s_log_probs)).sum(axis=-1).mean()
    return loss * (temperature ** 2)


def mse_loss(pred: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean squared error."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target.detach()
    return (diff * diff).mean()


def binary_cross_entropy_with_logits(
    logits: Tensor, targets: np.ndarray | Tensor, weight: np.ndarray | None = None
) -> Tensor:
    """Numerically-stable sigmoid cross entropy."""
    targets = targets.data if isinstance(targets, Tensor) else np.asarray(targets, dtype=np.float32)
    t = Tensor(targets)
    max_part = logits.maximum(0.0)
    loss = max_part - logits * t + ((-logits.abs()).exp() + 1.0).log()
    if weight is not None:
        loss = loss * Tensor(np.asarray(weight, dtype=np.float32))
    return loss.mean()


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: identity at evaluation time; ``rng`` draws the mask."""
    if not training or rate <= 0.0:
        return x
    mask = (rng.random(x.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)
    return x * Tensor(mask)
