"""The planned executor of both engines: lowering, kernels and the nets.

This module is the lowering target of :func:`repro.compile` for both modes.
The frontend traces the model once (:func:`repro.runtime.ir.trace`) and runs
the fixed pass pipeline (:func:`repro.runtime.passes.annotate`);
:class:`CompiledNet` (``mode="infer"``) or :class:`QuantizedNet`
(``mode="int8"``) then lowers the annotated graph to one statically planned
program: a channel-first ``(C, N, H, W)`` arena, plans built lazily and
cached per input shape, and a fixed shape rule that picks each conv's
kernel.  Steps write contiguous buffers: only the network input lands
straight in the first conv's padded slot, and any other padded conv fills
its own slot with a copy or quantize step.

**The int8 engine** (:class:`QuantizedNet`) consumes a model processed by
:func:`repro.compress.quantize_model` + :func:`repro.compress.calibrate`
and annotated by the int8 passes (BN-fold, integer clamp fusion, grid
annotation, CNHW layout).  Its program *actually executes on the integer
grid*, instead of round-tripping through float like the fake-quant eager
path:

* **Weights stay int8.**  Each op reads the wrapper's ``weight_q`` /
  ``weight_scale`` buffers; the float weights are never touched.
* **Activations live on the integer grid end to end.**  The input image is
  quantized once; every conv/linear output is *requantized* straight onto its
  consumer's calibrated grid with a fused per-channel multiplier, and ReLU /
  ReLU6 become clamps in the integer domain.  Values are stored zero-point
  centred, so zero padding is literally zero.  Residual adds and global
  average pooling happen on the grid as well; logits are dequantized at the
  very end.
* **Integer-exact accumulation.**  Grid values are carried in ``float32``
  lanes so the gemms run on BLAS: products of int8 weights with
  ``(2**bits - 1)``-bounded activations accumulate exactly as long as
  ``K * max|w| * max|v| < 2**24``, which is checked per op at lowering time
  (ops exceeding the bound accumulate in float64 instead).  Every kernel
  therefore produces bit-identical integers, and results are bit-identical
  across batch sizes — the property the serving layer's padded dynamic
  batching relies on.
* **Static memory plan.**  All activation and scratch buffers are packed into
  one arena by :class:`repro.runtime.planner.ArenaPlanner`; the steady-state
  forward performs no heap allocation on the hot paths, and the plan reports
  the peak int8 working set, directly comparable to
  :func:`repro.eval.deployment.peak_activation_memory`.

Buffers use a channel-outermost ``(C, N, H, W)`` layout so a pointwise
convolution over the whole batch is a single ``(C_out, C_in) @ (C_in, N*H*W)``
sgemm.  Spatial convolutions pick their kernel by a fixed rule on shapes the
planner already knows (see :func:`_plan_depthwise` and :func:`_plan_dense`):

* a depthwise conv on a small map (at most ``_OPERATOR_SIDE`` pixels a side,
  operator within ``_OPERATOR_BUDGET``) runs one batched matmul against its
  per-channel spatial operator, with padding and stride folded in, so it
  reads an unpadded slot (no pad fill, no copy into a padded slot);
* a larger depthwise conv runs a tap-stack kernel for a single sample or a
  tap stack (``kh*kw*C_in*N*Hp*Wp`` elements) within ``_TAP_BUDGET``, a
  single einsum pass otherwise, both over sliding windows of the output
  positions;
* a dense conv (the stem) whose column matrix fits ``_GATHER_BUDGET``
  gathers it with a plan-time index and runs one gemm, and a larger one runs
  a windowed einsum; grouped and float64 convs always gather.

Only the picked kernel's scratch is planned; operators and gather indices are
constants outside the arena, reported by :meth:`MemoryPlan.summary`.  Every
kernel computes the same exact integers, so the rule never affects int8
results.

The fake-quant eager model remains the accuracy oracle: engine logits match
it to within dequantization tolerance (asserted in the test-suite).

**The float engine** (:class:`CompiledNet`) runs this same program without
grids:

* plain convs / linears run grid-less on float32 weight copies; eval-mode
  **BatchNorm folds** into their per-channel output multiplier and offset,
  and a fused activation runs in the same output pass;
* calibrated :class:`~repro.compress.QuantizedConv2d` /
  :class:`~repro.compress.QuantizedLinear` wrappers run as **integer ops**
  from the stored int8 weights: each quantizes its float input onto its own
  grid and dequantizes its output (an uncalibrated wrapper, still observing
  ranges, runs eagerly so observation keeps working);
* anything unrecognised runs the eager module under ``no_grad`` — a
  compiled net is therefore always *correct*, merely less fused.

Float kernels differ only in float reassociation, so float results match
across kernels and batch sizes to round-off, not bit for bit.  Compilation
snapshots the weights: after further training, compile again to pick up the
new parameters.

Activations run on raw ``ndarray`` payloads (:func:`apply_activation`) — no
tape nodes, no closures, no gradient bookkeeping.  They are described by
small spec tuples ``(kind, *params)`` produced by
:func:`repro.runtime.ir.activation_spec`: ``("relu",)``, ``("relu6",)``, and
the mid-anneal PLT forms ``("leaky", alpha)`` (:class:`~repro.nn.DecayableReLU`)
and ``("relu6_interp", alpha)`` (:class:`~repro.nn.DecayableReLU6`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .. import nn
from ..nn.functional import conv_output_size
from .ir import Graph, OpNode, QuantCompileError, bn_scale_shift
from .planner import ArenaPlanner, MemoryPlan

__all__ = ["CompiledNet", "QuantizedNet", "QuantCompileError"]

# float32 mantissa capacity: integer sums below this are exact.
_EXACT_F32_BOUND = float(2**24)

# Conv kernel rules, see _operator_kernel, _tap_kernels and _gather_kernel
# (elements, except the side in pixels).
_OPERATOR_SIDE = 12
_OPERATOR_BUDGET = 1 << 20
_TAP_BUDGET = 1 << 16
_GATHER_BUDGET = 1 << 18


# --------------------------------------------------------------------------- #
# raw ndarray leaves
# --------------------------------------------------------------------------- #
def _bounds(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Clamp bounds as 0-d float32 arrays.  ``a.clip(lo, hi, out=a)`` with
    these costs a third of ``np.clip`` with Python floats on small maps,
    where the call's dispatch outweighs the clamp itself."""
    return np.array(lo, dtype=np.float32), np.array(hi, dtype=np.float32)


_RELU6_BOUNDS = _bounds(0.0, 6.0)


def apply_activation(out: np.ndarray, act: tuple | None) -> None:
    """Apply an activation spec to ``out`` in place (``None`` is the identity)."""
    if act is None:
        return
    kind = act[0]
    if kind == "relu":
        np.maximum(out, 0.0, out=out)
    elif kind == "relu6":
        out.clip(*_RELU6_BOUNDS, out=out)
    elif kind == "leaky":
        out[...] = np.where(out >= 0.0, out, act[1] * out)
    elif kind == "relu6_interp":
        # DecayableReLU6 mid-anneal: (1 - alpha) * clip(x, 0, 6) + alpha * x.
        mixed = np.clip(out, 0.0, 6.0)
        mixed *= 1.0 - act[1]
        mixed += act[1] * out
        out[...] = mixed
    else:
        raise ValueError(f"unknown activation spec {act!r}")


# --------------------------------------------------------------------------- #
# IR nodes
# --------------------------------------------------------------------------- #
class _ConvIR:
    """Conv op: weight, optional input grid, folded BN, fused activation.

    A calibrated quantized wrapper lowers with its int8 ``weight_q``, weight
    scale and input ``grid`` ``(scale, zero_point, bits)``; a plain layer
    lowers grid-less, with a float32 copy of its weight, and runs in float.
    """

    def __init__(self, layer: nn.Module, name: str, weight: np.ndarray, grid=None, w_scale=None):
        self.name = name or "conv"
        self.weight = weight
        self.grid = grid
        self.w_scale = w_scale
        self.bias = None if layer.bias is None else layer.bias.data.astype(np.float32)
        self.stride = getattr(layer, "stride", 1)
        self.padding = getattr(layer, "padding", 0)
        self.groups = getattr(layer, "groups", 1)
        self.bn_scale: np.ndarray | None = None
        self.bn_shift: np.ndarray | None = None
        self.act: tuple | None = None  # ("relu",) / ("relu6",) fuse into the clamp
        self.operators: dict = {}  # (h, w) -> spatial operator, see _spatial_operator

    @property
    def c_out(self) -> int:
        return self.weight.shape[0]

    def fold_bn(self, scale: np.ndarray, shift: np.ndarray) -> None:
        if self.bn_scale is None:
            self.bn_scale = scale.astype(np.float32)
            self.bn_shift = shift.astype(np.float32)
        else:  # the float pipeline folds consecutive BNs, in order
            self.bn_scale = self.bn_scale * scale
            self.bn_shift = self.bn_shift * scale + shift

    def needs_float64(self) -> bool:
        if self.grid is None:
            return False
        k = int(np.prod(self.weight.shape[1:]))
        max_w = float(np.abs(self.weight.astype(np.int32)).max(initial=1))
        return k * max_w * float(2 ** self.grid[2] - 1) >= _EXACT_F32_BOUND

    def requant_constants(self, out_scale: float | None):
        """Fused multiplier/offset mapping raw accumulators to the output.

        ``out_scale=None`` yields the float (dequantized) output constants.
        """
        bn_scale = self.bn_scale if self.bn_scale is not None else np.float64(1.0)
        bn_shift = self.bn_shift if self.bn_shift is not None else np.float64(0.0)
        if self.grid is None:
            m = np.ones(self.c_out) * bn_scale
        else:
            w_scale = self.w_scale.astype(np.float64)
            if w_scale.size == 1:
                w_scale = np.full(self.c_out, w_scale[0])
            m = float(self.grid[0]) * w_scale * bn_scale
        bias = np.zeros(self.c_out) if self.bias is None else self.bias.astype(np.float64)
        c = bias * bn_scale + bn_shift
        if out_scale is not None:
            m = m / out_scale
            c = c / out_scale
        return m.astype(np.float32), np.asarray(c, dtype=np.float32)


class _LinearIR(_ConvIR):
    pass


class _AffineIR:
    def __init__(self, scale: np.ndarray, shift: np.ndarray, act: tuple | None):
        self.scale = scale.astype(np.float32)
        self.shift = shift.astype(np.float32)
        self.act = act


class _ActIR:
    def __init__(self, spec: tuple):
        self.spec = spec


class _GapIR:
    pass


class _FlattenIR:
    pass


class _ResidualIR:
    def __init__(self, body: list):
        self.body = body


class _EagerIR:
    """An opaque module run eagerly in float, in eval mode, under no_grad.

    ``wrapper`` is set for a quantized wrapper that is still observing: its
    output shape is computed from the node, never probed, so no plan-time
    zeros batch reaches its range observer.  The lock serialises the
    eval/train toggle when threads share the module.
    """

    def __init__(self, module: nn.Module, wrapper: OpNode | None = None):
        self.module = module
        self.wrapper = wrapper
        self.lock = threading.Lock()


# --------------------------------------------------------------------------- #
# lowering: annotated shared graph -> flat internal IR list
# --------------------------------------------------------------------------- #
def _ir_from_node(node: OpNode) -> list:
    """Convert one annotated graph node into the emitter's internal IR.

    The pass pipeline already made every fusion decision —
    ``meta["bn_folds"]`` and ``meta["act"]`` are simply applied here.  Plain
    convs/linears lower grid-less; a quantized wrapper still observing
    activation ranges runs eagerly so calibration keeps recording; unknown
    modules run eagerly in the float domain — correct, merely unfused.
    """
    kind = node.kind
    if kind in ("conv", "linear", "qconv", "qlinear"):
        cls = _LinearIR if kind.endswith("linear") else _ConvIR
        module = node.module
        if kind in ("conv", "linear"):
            ir = cls(module, node.name, module.weight.data.astype(np.float32))
        else:
            qparams = None if module.observing else module.input_qparams()
            if qparams is None:
                return [_EagerIR(module, wrapper=node)]
            ir = cls(
                module.wrapped,
                node.name,
                module.weight_q,
                grid=(qparams[0], qparams[1], module.spec.bits),
                w_scale=np.atleast_1d(np.asarray(module.weight_scale, dtype=np.float32)),
            )
        for scale, shift in node.meta.get("bn_folds", ()):
            ir.fold_bn(scale, shift)
        ir.act = node.meta.get("act")
        return [ir]
    if kind == "bn":
        return [_AffineIR(*bn_scale_shift(node.module), node.meta.get("act"))]
    if kind == "act":
        return [_ActIR(node.meta["spec"])]
    if kind == "gap":
        return [_GapIR()]
    if kind == "flatten":
        return [_FlattenIR()]
    if kind == "residual":
        return [_ResidualIR(_ir_from_graph(node.body))]
    return [_EagerIR(node.module)]


def _ir_from_graph(graph: Graph) -> list:
    nodes: list = []
    for node in graph.nodes:
        nodes.extend(_ir_from_node(node))
    return nodes


def _is_spatial_conv(node) -> bool:
    return isinstance(node, _ConvIR) and not isinstance(node, _LinearIR)


# --------------------------------------------------------------------------- #
# emission: IR -> planned steps
# --------------------------------------------------------------------------- #
class _Val:
    """A value flowing between steps: a buffer plus its grid (None = float).

    ``viewer`` maps the backing slot array to the logical tensor — the
    identity for plain contiguous buffers, an interior slice for the network
    input landed in the first conv's padded slot, a reshape for a flattened
    value.  ``shared`` marks a residual identity inside its body: no step may
    overwrite it.
    """

    __slots__ = ("buf", "shape", "viewer", "grid", "shared")

    def __init__(self, buf, shape, viewer, grid, shared=False):
        self.buf = buf
        self.shape = tuple(shape)
        self.viewer = viewer
        self.grid = grid
        self.shared = shared


def _identity_view(a):
    return a


def _swap01(ndim: int) -> tuple[int, ...]:
    """Axes that swap the two leading dims (``NC..`` <-> ``CN..``)."""
    return (1, 0) + tuple(range(2, ndim))


def _grid_target(em, nodes: list, index: int, tail):
    """What does the value produced at ``index`` feed into?

    Returns ``("grid", consumer)`` when the next compute op is an integer op
    that takes its input on its grid, ``("float", consumer)`` when it is a
    grid-less conv or linear, ``("float", None)`` otherwise, or ``tail`` when
    the chain is exhausted.  The *grid* (scale/zero-point) propagates through
    grid-preserving ops (global pooling, flatten), so the producer requantizes
    straight onto the grid of the next integer op even when such ops
    intervene.  Only the int8 engine hands grids from op to op; a float
    program's integer ops each quantize their own float input.
    """
    for node in nodes[index + 1 :]:
        if isinstance(node, (_GapIR, _FlattenIR)):
            continue
        if isinstance(node, _ConvIR):
            if node.grid is None:
                return ("float", node)
            return ("grid", node) if em.grids else ("float", None)
        if isinstance(node, _ResidualIR):
            return _grid_target(em, node.body, -1, ("float", None))
        return ("float", None)
    return tail


class _Emitter:
    def __init__(self, planner: ArenaPlanner, grids: bool):
        self.planner = planner
        self.grids = grids  # hand integer grids from op to op (int8 engine)
        self.factories: list = []
        self.input_slot: tuple | None = None  # (first conv ir, buf, viewer) holding the input
        self.op_log: list[str] = []

    def emit(self, factory, uses: list, label: str = "") -> None:
        """Schedule one step; ``uses`` are the planner buffers it touches."""
        step = self.planner.advance()
        for buf in uses:
            buf.touch(step)
        self.factories.append((factory, label))

    def log(self, kind: str) -> None:
        self.op_log.append(kind)


def _q_bounds(grid, act: tuple | None) -> tuple[np.ndarray, np.ndarray]:
    """Integer-domain clamp for a centred grid, with the activation fused in."""
    scale, zp, bits = grid
    qmax = float(2**bits - 1)
    lo, hi = -zp, qmax - zp
    if act is not None and act[0] in ("relu", "relu6"):
        lo = max(lo, 0.0)
        if act[0] == "relu6":
            hi = min(hi, float(np.rint(6.0 / scale)))
    return _bounds(lo, hi)


def _requantize(acc, m, c, lo, hi, mode, float_act, out):
    """Fused scale + offset (+ integer round/clamp, or the float activation)
    from an accumulator to the contiguous ``out`` (which may be ``acc``).
    ``mode="defer"`` stops before rounding: a residual add finishes it."""
    np.multiply(acc, m, out=out)
    out += c
    if mode == "grid":
        np.rint(out, out=out)
        out.clip(lo, hi, out=out)
    elif mode == "float":
        apply_activation(out, float_act)


def _make_conv_slot(em: _Emitter, ir: _ConvIR, c: int, n: int, h: int, w: int):
    """Allocate the (possibly padded) input slot owned by a conv.

    The conv's own copy or quantize step (or, for the first conv, the input
    step) writes the slot's interior.  Padded slots get a zero-fill step
    immediately before that write — the arena slot is shared with other
    buffers, so the pad ring must be re-zeroed each run (zero *is* the grid
    zero: values are zero-point centred).  A conv on the operator kernel
    folds its padding into the operator, so it reads an unpadded slot."""
    p = 0 if _operator_kernel(ir, c, h, w) else ir.padding
    if p > 0:
        buf = em.planner.alloc((c, n, h + 2 * p, w + 2 * p), "value", f"{ir.name}.in")

        def viewer(a, p=p, h=h, w=w):
            return a[:, :, p : p + h, p : p + w]

        def fill_factory(buf=buf):
            def run():
                buf.a[...] = 0.0

            return run

        em.emit(fill_factory, [buf], f"fill.{ir.name}")
        return buf, viewer
    buf = em.planner.alloc((c, n, h, w), "value", f"{ir.name}.in")
    return buf, _identity_view


def _emit_quantize(em: _Emitter, val, grid, slot_buf, slot_viewer, external_ctx=None):
    """Quantize a float value (or the external ``NCHW`` input) into a grid slot.

    The scaled values land in the slot's interior; rounding and clamping then
    run over the whole slot, contiguous.  A padded slot's ring stays zero:
    zero is a grid point inside every grid's bounds.
    """
    scale, zp, bits = grid
    inv = np.float32(1.0 / scale)
    lo, hi = _bounds(-zp, float(2**bits - 1) - zp)
    if external_ctx is not None:

        def source(ctx=external_ctx):
            return ctx["x"].transpose(1, 0, 2, 3)  # NCHW -> CNHW

        uses, label = [slot_buf], "quantize.input"
    else:

        def source(src=val.buf, sview=val.viewer):
            return sview(src.a)

        uses, label = [val.buf, slot_buf], "quantize"

    def factory(buf=slot_buf, viewer=slot_viewer):
        view = viewer(buf.a)

        def run():
            np.multiply(source(), inv, out=view)
            np.rint(buf.a, out=buf.a)
            buf.a.clip(lo, hi, out=buf.a)

        return run

    em.emit(factory, uses, label)
    em.log("quantize")


def _tap_kernels(n: int, taps: int) -> bool:
    """The rule for depthwise convs past the small-map bound: True picks the
    tap-stack kernels, False one einsum pass.

    ``taps`` is the conv's tap stack, ``kh*kw*C_in*N*Hp*Wp`` elements, which
    bounds what the tap-stack kernel materializes.  Within
    ``_TAP_BUDGET`` (256 KiB of float32, about one L2 cache) they win; a
    larger stack is better served by an einsum that streams the input —
    except for a single sample, where the einsum's per-call cost dominates.
    The budget is where timing every kernel per shape switches: on the
    registry models the rule agrees with 91% of such timed depthwise picks.
    """
    return n == 1 or taps <= _TAP_BUDGET


def _is_depthwise(ir: _ConvIR, c_in: int) -> bool:
    return ir.groups == c_in == ir.c_out and ir.weight.shape[1] == 1


def _operator_kernel(ir: _ConvIR, c_in: int, h: int, w: int) -> bool:
    """The small-map rule: True runs a depthwise conv as one operator matmul.

    On maps of at most ``_OPERATOR_SIDE`` pixels a side, the tap-stack and
    einsum kernels spend their time on strided iteration and per-call cost,
    not arithmetic; one batched matmul against the conv's spatial operator
    (:func:`_spatial_operator`, ``C*H*W*OH*OW`` elements, capped at
    ``_OPERATOR_BUDGET``) beats them although most of its products are
    structural zeros.  The rule does not depend on the batch, so every plan
    of a conv shares one operator.
    """
    if not _is_depthwise(ir, c_in):
        return False
    kh, kw = ir.weight.shape[2], ir.weight.shape[3]
    oh = conv_output_size(h, kh, ir.stride, ir.padding)
    ow = conv_output_size(w, kw, ir.stride, ir.padding)
    return max(h, w) <= _OPERATOR_SIDE and c_in * h * w * oh * ow <= _OPERATOR_BUDGET


def _spatial_operator(ir: _ConvIR, h: int, w: int, oh: int, ow: int) -> np.ndarray:
    """A depthwise conv on an ``h x w`` map as ``(C, H*W, OH*OW)`` matrices.

    Entry ``[c, y*W + x, oy*OW + ox]`` is the weight tap of channel ``c``
    that reads input pixel ``(y, x)`` for output pixel ``(oy, ox)``, so the
    stride is folded in, and taps reading the zero padding are left out.
    Built once per conv and map size with vectorized indexing, and shared by
    every plan and thread (two threads racing here build equal arrays).
    """
    op = ir.operators.get((h, w))
    if op is None:
        c, _, kh, kw = ir.weight.shape
        iy = (np.arange(oh) * ir.stride - ir.padding)[:, None] + np.arange(kh)  # (oh, kh)
        ix = (np.arange(ow) * ir.stride - ir.padding)[:, None] + np.arange(kw)  # (ow, kw)
        valid = ((iy >= 0) & (iy < h))[:, :, None, None] & ((ix >= 0) & (ix < w))
        oy, i, ox, j = np.nonzero(valid)  # every in-bounds (output pixel, tap) pair
        op = np.zeros((c, h * w, oh * ow), dtype=np.float32)
        taps = ir.weight.reshape(c, kh * kw).astype(np.float32)
        op[:, iy[oy, i] * w + ix[ox, j], oy * ow + ox] = taps[:, i * kw + j]
        ir.operators[(h, w)] = op
    return op


def _plan_depthwise(em: _Emitter, ir: _ConvIR, pbuf, n, h, w, oh, ow):
    """Plan the depthwise kernel the :func:`_operator_kernel` and
    :func:`_tap_kernels` rules pick.

    A small map runs one ``(C, N, H*W) @ (C, H*W, OH*OW)`` matmul against
    the conv's spatial operator, reading its unpadded slot.  Otherwise the
    conv takes sliding windows of its padded slot at the output positions,
    and either materializes its tap stack and sums the taps, or runs one
    einsum pass.  All three kernels compute the same exact integers: each
    output sums the same at most ``kh*kw`` nonzero products, the operator's
    structural zeros add nothing, and accumulation below ``2**24`` is
    order-independent.  So the rules affect speed and memory only, and only
    the picked kernel's scratch is planned.

    Returns ``(make, bufs)``: ``make()`` runs at bind time (after arena
    packing, so it can precompute views on the real buffers) and returns the
    step's ``run``.  ``bufs`` are the scratch buffers the kernel touches; the
    first is the ``(C, N, OH, OW)`` accumulator it writes.
    """
    planner = em.planner
    c = ir.weight.shape[0]
    acc = planner.alloc((c, n, oh, ow), "scratch", f"{ir.name}.acc")
    if _operator_kernel(ir, c, h, w):
        op = planner.constant(_spatial_operator(ir, h, w, oh, ow))

        def make_operator():
            x3 = pbuf.a.reshape(c, n, h * w)  # the unpadded slot
            acc3 = acc.a.reshape(c, n, oh * ow)

            def run():
                np.matmul(x3, op, out=acc3)

            return run

        return make_operator, [acc]

    kh, kw = ir.weight.shape[2], ir.weight.shape[3]
    stride = ir.stride
    hp, wp = pbuf.shape[2], pbuf.shape[3]
    w_f32 = ir.weight.astype(np.float32)[:, 0]  # (C, kh, kw)

    def windows():  # (C, N, oh, ow, kh, kw)
        return sliding_window_view(pbuf.a, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]

    if not _tap_kernels(n, kh * kw * c * n * hp * wp):

        def make_einsum():
            win = windows()
            path = np.einsum_path("cnhwij,cij->cnhw", win, w_f32, optimize=True)[0]

            def run():
                np.einsum("cnhwij,cij->cnhw", win, w_f32, optimize=path, out=acc.a)

            return run

        return make_einsum, [acc]

    w6 = np.ascontiguousarray(w_f32.transpose(1, 2, 0)).reshape(kh, kw, c, 1, 1, 1)
    prod = planner.alloc((kh * kw, c, n, oh, ow), "scratch", f"{ir.name}.taps")

    def make_stacked():
        vt = windows().transpose(4, 5, 0, 1, 2, 3)
        prod6 = prod.a.reshape(kh, kw, c, n, oh, ow)

        def run():
            np.multiply(vt, w6, out=prod6)
            np.add.reduce(prod.a, axis=0, out=acc.a)

        return run

    return make_stacked, [acc, prod]


def _gather_kernel(ir: _ConvIR, n: int, oh: int, ow: int, exact64: bool) -> bool:
    """The dense-conv rule: True gathers the column matrix and runs one gemm.

    A column matrix (``C_in*kh*kw`` rows, ``N*OH*OW`` columns) within
    ``_GATHER_BUDGET`` elements is gathered with a plan-time index and fed to
    one ``np.dot``.  Grouped and float64 convs always take this kernel.
    """
    c_in_g, kh, kw = ir.weight.shape[1:]
    cols = c_in_g * ir.groups * kh * kw * n * oh * ow
    return ir.groups > 1 or exact64 or cols <= _GATHER_BUDGET


def _gather_index(c_in, n, hp, wp, kh, kw, stride, oh, ow) -> np.ndarray:
    """Flat ``(C_in*kh*kw, N*OH*OW)`` positions of the column matrix in a
    ``(C_in, N, Hp, Wp)`` slot: row ``(c, i, j)``, column ``(n, oy, ox)``
    reads ``[c, n, oy*stride + i, ox*stride + j]``."""
    c = np.arange(c_in).reshape(-1, 1, 1, 1, 1, 1)
    i = np.arange(kh).reshape(-1, 1, 1, 1, 1)
    j = np.arange(kw).reshape(-1, 1, 1, 1)
    b = np.arange(n).reshape(-1, 1, 1)
    y = (np.arange(oh) * stride).reshape(-1, 1)
    x = np.arange(ow) * stride
    idx = ((c * n + b) * hp + y + i) * wp + x + j
    return idx.reshape(c_in * kh * kw, n * oh * ow).astype(np.intp)


def _plan_dense(em: _Emitter, ir: _ConvIR, pbuf, n, oh, ow, exact64: bool):
    """Plan the :func:`_gather_kernel` pick for a dense (non-depthwise) spatial conv.

    Either the conv gathers its column matrix from the (padded) input slot
    with a plan-time index and runs one gemm per group, or, past the
    gather budget, it runs a windowed einsum that streams the input.  Same
    ``(make, bufs)`` contract as :func:`_plan_depthwise`.
    """
    planner = em.planner
    c_out = ir.c_out
    c_in_g, kh, kw = ir.weight.shape[1:]
    c_in, _, hp, wp = pbuf.shape  # the (possibly padded) input slot
    w_taps = ir.weight.astype(np.float64 if exact64 else np.float32)
    groups, stride = ir.groups, ir.stride
    acc = planner.alloc((c_out, n, oh, ow), "scratch", f"{ir.name}.acc")

    if not _gather_kernel(ir, n, oh, ow, exact64):

        def make_einsum():
            win = sliding_window_view(pbuf.a, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
            path = np.einsum_path("cnhwij,ocij->onhw", win, w_taps, optimize=True)[0]

            def run():
                np.einsum("cnhwij,ocij->onhw", win, w_taps, optimize=path, out=acc.a)

            return run

        return make_einsum, [acc]

    k = c_in_g * kh * kw
    m = n * oh * ow
    m_g = c_out // groups
    col = planner.alloc((c_in * kh * kw, m), "scratch", f"{ir.name}.col")
    idx = planner.constant(_gather_index(c_in, n, hp, wp, kh, kw, stride, oh, ow))
    w2 = w_taps.reshape(c_out, k)

    def make_gather():
        src = pbuf.a.reshape(-1)
        acc2 = acc.a.reshape(c_out, m)
        gemms = [
            (w2[g * m_g : (g + 1) * m_g], col.a[g * k : (g + 1) * k], acc2[g * m_g : (g + 1) * m_g])
            for g in range(groups)
        ]

        def run():
            np.take(src, idx, out=col.a, mode="wrap")  # "raise" would buffer ``out``
            for w_g, col_g, acc_g in gemms:
                if exact64:
                    acc_g[...] = w_g @ col_g.astype(np.float64)
                else:
                    np.dot(w_g, col_g, out=acc_g)

        return run

    return make_gather, [acc, col]


def _emit_conv(em: _Emitter, ir: _ConvIR, val: _Val, nodes: list, index: int, tail) -> _Val:
    c_in, n, h, w = val.shape
    kh, kw = ir.weight.shape[2], ir.weight.shape[3]
    oh = conv_output_size(h, kh, ir.stride, ir.padding)
    ow = conv_output_size(w, kw, ir.stride, ir.padding)
    c_out = ir.c_out

    # ---- input slot: holding the network input, borrowed, or built here.
    if em.input_slot is not None and em.input_slot[0] is ir:
        _, pbuf, pview = em.input_slot
    elif (
        (val.grid is not None or ir.grid is None)
        and (ir.padding == 0 or _operator_kernel(ir, c_in, h, w))
        and val.viewer is _identity_view
    ):
        pbuf, pview = val.buf, _identity_view  # borrow the producer's buffer
    else:
        pbuf, pview = _make_conv_slot(em, ir, c_in, n, h, w)
        if val.grid is None and ir.grid is not None:
            _emit_quantize(em, val, ir.grid, pbuf, pview)
        else:

            def copy_factory(src=val.buf, sview=val.viewer, buf=pbuf, viewer=pview):
                view = viewer(buf.a)

                def run():
                    view[...] = sview(src.a)

                return run

            em.emit(copy_factory, [val.buf, pbuf], f"copy.{ir.name}")

    # ---- output destination.
    request = _grid_target(em, nodes, index, tail)
    if request[0] == "defer":
        _, out_grid, out_buf = request
        mode = "defer"
    else:
        out_grid = request[1].grid if request[0] == "grid" else None
        mode = "grid" if out_grid else "float"
        out_buf = em.planner.alloc((c_out, n, oh, ow), "value", f"{ir.name}.out")

    m, c_const = ir.requant_constants(out_grid[0] if out_grid else None)
    m4 = m.reshape(c_out, 1, 1, 1)
    c4 = c_const.reshape(c_out, 1, 1, 1)
    lo, hi = _q_bounds(out_grid, ir.act) if mode == "grid" else (None, None)
    float_act = ir.act if mode == "float" else None
    exact64 = ir.needs_float64()

    prefix = "conv" if ir.grid is None else "qconv"
    depthwise = _is_depthwise(ir, c_in)
    pointwise = kh == 1 and kw == 1 and ir.groups == 1 and ir.stride == 1 and ir.padding == 0

    if pointwise:
        w2 = ir.weight.astype(np.float64 if exact64 else np.float32).reshape(c_out, c_in)

        def factory(pbuf=pbuf, pview=pview, out_buf=out_buf):
            x2 = pview(pbuf.a).reshape(c_in, n * oh * ow)
            out2 = out_buf.a.reshape(c_out, n * oh * ow)

            def run():
                if exact64:
                    out2[...] = w2 @ x2.astype(np.float64)
                else:
                    np.dot(w2, x2, out=out2)
                _requantize(out_buf.a, m4, c4, lo, hi, mode, float_act, out_buf.a)

            return run

        em.emit(factory, [pbuf, out_buf], f"pw.{ir.name}")
        em.log(f"{prefix}.pw")
    else:
        if depthwise:
            make, bufs = _plan_depthwise(em, ir, pbuf, n, h, w, oh, ow)
            label, kind = f"dw.{ir.name}", f"{prefix}.dw"
        else:
            make, bufs = _plan_dense(em, ir, pbuf, n, oh, ow, exact64)
            label, kind = f"im2col.{ir.name}", f"{prefix}.im2col"

        def factory(out_buf=out_buf, acc=bufs[0]):
            gemm = make()

            def run():
                gemm()
                _requantize(acc.a, m4, c4, lo, hi, mode, float_act, out_buf.a)

            return run

        em.emit(factory, [pbuf, out_buf, *bufs], label)
        em.log(kind)

    return _Val(out_buf, (c_out, n, oh, ow), _identity_view, out_grid)


def _emit_linear(em: _Emitter, ir: _LinearIR, val: _Val, nodes: list, index: int, tail) -> _Val:
    if len(val.shape) != 2:
        val = _emit_flatten(em, val)
    f, n = val.shape
    m_out = ir.weight.shape[0]

    if val.grid is not None or ir.grid is None:
        in_buf, in_view = val.buf, val.viewer
    else:
        in_buf = em.planner.alloc((f, n), "value", f"{ir.name}.in")
        in_view = _identity_view
        _emit_quantize(em, val, ir.grid, in_buf, in_view)

    request = _grid_target(em, nodes, index, tail)
    out_grid = request[1].grid if request[0] == "grid" else None
    mode = "grid" if out_grid else "float"
    out_buf = em.planner.alloc((m_out, n), "value", f"{ir.name}.out")
    m, c_const = ir.requant_constants(out_grid[0] if out_grid else None)
    m2, c2 = m.reshape(m_out, 1), c_const.reshape(m_out, 1)
    lo, hi = _q_bounds(out_grid, ir.act) if mode == "grid" else (None, None)
    float_act = ir.act if mode == "float" else None
    exact64 = ir.needs_float64()
    w2 = ir.weight.astype(np.float64 if exact64 else np.float32)

    def factory(in_buf=in_buf, in_view=in_view, out_buf=out_buf):
        x2 = in_view(in_buf.a).reshape(f, n)

        def run():
            if exact64:
                out_buf.a[...] = w2 @ x2.astype(np.float64)
            else:
                np.dot(w2, x2, out=out_buf.a)
            _requantize(out_buf.a, m2, c2, lo, hi, mode, float_act, out_buf.a)

        return run

    em.emit(factory, [in_buf, out_buf], f"linear.{ir.name}")
    em.log("linear" if ir.grid is None else "qlinear")
    return _Val(out_buf, (m_out, n), _identity_view, out_grid)


def _emit_dequantize(em: _Emitter, val: _Val) -> _Val:
    scale = np.float32(val.grid[0])
    out = em.planner.alloc(val.shape, "value", "dequant")

    def factory(src=val.buf, sview=val.viewer, out=out):
        def run():
            np.multiply(sview(src.a), scale, out=out.a)

        return run

    em.emit(factory, [val.buf, out], "dequantize")
    em.log("dequantize")
    return _Val(out, val.shape, _identity_view, None)


def _emit_gap(em: _Emitter, val: _Val) -> _Val:
    c, n, h, w = val.shape
    out = em.planner.alloc((c, n, 1, 1), "value", "gap")
    on_grid = val.grid is not None
    inv_hw = np.float32(1.0 / (h * w))
    ones = np.ones(h * w, dtype=np.float32)

    def factory(src=val.buf, sview=val.viewer, out=out):
        out_flat = out.a.reshape(c * n)
        out2 = out.a.reshape(c, n)
        x = sview(src.a)
        x2 = x.reshape(c * n, h * w) if x.flags["C_CONTIGUOUS"] else None

        def run():
            if x2 is not None:
                # integer-exact spatial sum as one gemv, then scale (+ round)
                np.dot(x2, ones, out=out_flat)
                np.multiply(out_flat, inv_hw, out=out_flat)
            else:
                np.mean(sview(src.a), axis=(2, 3), out=out2)
            if on_grid:
                np.rint(out2, out=out2)  # integer average pooling

        return run

    em.emit(factory, [val.buf, out], "gap")
    em.log("gap")
    return _Val(out, (c, n, 1, 1), _identity_view, val.grid)


def _emit_flatten(em: _Emitter, val: _Val) -> _Val:
    if len(val.shape) == 2:
        return val
    c, n = val.shape[:2]
    f = c * int(np.prod(val.shape[2:]))
    if f == c and val.viewer is _identity_view:
        return _Val(val.buf, (c, n), lambda a: a.reshape(c, n), val.grid, val.shared)
    out = em.planner.alloc((f, n), "value", "flatten")

    def factory(src=val.buf, sview=val.viewer, out=out):
        def run():
            x = sview(src.a)  # (C, N, H, W) -> rows ordered (c, h, w)
            out.a[...] = np.moveaxis(x, 1, -1).reshape(f, n)

        return run

    em.emit(factory, [val.buf, out], "flatten")
    em.log("flatten")
    return _Val(out, (f, n), _identity_view, val.grid)


def _emit_float_apply(em: _Emitter, val: _Val, fn, kind: str) -> _Val:
    """Dequantize if needed, then apply a float transform ``fn(src, dst)``.

    It runs in place (``dst is src``) unless the value is shared, in which
    case it writes a fresh buffer.
    """
    if val.grid is not None:
        val = _emit_dequantize(em, val)
    out = val
    if val.shared:
        out = _Val(em.planner.alloc(val.shape, "value", kind), val.shape, _identity_view, None)

    def factory(src=val.buf, sview=val.viewer, dst=out.buf, dview=out.viewer):
        a, b = sview(src.a), dview(dst.a)

        def run():
            fn(a, b)

        return run

    em.emit(factory, [val.buf, out.buf], kind)
    em.log(kind)
    return out


def _eager_call(ir: _EagerIR, x: np.ndarray) -> np.ndarray:
    module = ir.module
    with ir.lock:
        was_training = module.training
        module.eval()
        try:
            with nn.no_grad():
                result = module(nn.Tensor(x))
        finally:
            module.train(was_training)
    return result.data if isinstance(result, nn.Tensor) else np.asarray(result)


def _wrapper_shape(node: OpNode, nc_in: tuple) -> tuple:
    """Analytic ``NC..`` output shape of a qconv/qlinear node."""
    if node.kind == "qlinear":
        return tuple(nc_in[:-1]) + (node.attrs["out_channels"],)
    n, _, h, w = nc_in
    (kh, kw), stride, padding = node.attrs["kernel"], node.attrs["stride"], node.attrs["padding"]
    return (
        n,
        node.attrs["out_channels"],
        conv_output_size(h, kh, stride, padding),
        conv_output_size(w, kw, stride, padding),
    )


def _emit_eager(em: _Emitter, ir: _EagerIR, val: _Val) -> _Val:
    if val.grid is not None:
        val = _emit_dequantize(em, val)
    in_axes = _swap01(len(val.shape))
    nc_in = tuple(val.shape[i] for i in in_axes)
    if ir.wrapper is not None:
        nc_out = _wrapper_shape(ir.wrapper, nc_in)
    else:  # infer the output shape once, at plan time
        nc_out = _eager_call(ir, np.zeros(nc_in, dtype=np.float32)).shape
    out_axes = _swap01(len(nc_out))
    out_shape = tuple(nc_out[i] for i in out_axes)
    out = em.planner.alloc(out_shape, "value", "eager")

    def factory(src=val.buf, sview=val.viewer, out=out):
        def run():
            x = np.ascontiguousarray(sview(src.a).transpose(in_axes))
            out.a[...] = _eager_call(ir, x).transpose(out_axes)

        return run

    em.emit(factory, [val.buf, out], "eager")
    em.log("eager")
    return _Val(out, out_shape, _identity_view, None)


def _emit_residual(em: _Emitter, ir: _ResidualIR, val: _Val, nodes: list, index: int, tail) -> _Val:
    identity = val
    shared = _Val(val.buf, val.shape, val.viewer, val.grid, shared=True)
    request = _grid_target(em, nodes, index, tail)
    body_last = ir.body[-1] if ir.body else None
    can_integer_add = (
        request[0] == "grid"
        and _is_spatial_conv(body_last)
        and body_last.grid is not None
        and body_last.act is None
    )
    if can_integer_add:
        out_grid = request[1].grid
        c_out = body_last.c_out
        _, n, h, w = val.shape  # residual blocks preserve the spatial dims
        out_buf = em.planner.alloc((c_out, n, h, w), "value", "resid.out")
        # body's last conv writes unrounded grid values into out_buf; the
        # identity contribution is added on the same grid, then one round+clamp
        _emit_chain(em, ir.body, shared, ("defer", out_grid, out_buf))
        tmp = em.planner.alloc((c_out, n, h, w), "scratch", "resid.tmp")
        k = np.float32((identity.grid[0] if identity.grid else 1.0) / out_grid[0])
        lo, hi = _q_bounds(out_grid, None)

        def factory(idb=identity.buf, idv=identity.viewer, out_buf=out_buf, tmp=tmp):
            target = out_buf.a

            def run():
                np.multiply(idv(idb.a), k, out=tmp.a)
                np.add(target, tmp.a, out=target)
                np.rint(target, out=target)
                target.clip(lo, hi, out=target)

            return run

        em.emit(factory, [identity.buf, out_buf, tmp], "resid.add")
        em.log("resid.add")
        return _Val(out_buf, (c_out, n, h, w), _identity_view, out_grid)

    # float add: the body's float output plus the (dequantized) identity
    body_val = _emit_chain(em, ir.body, shared, ("float", None))
    if body_val.grid is not None:
        body_val = _emit_dequantize(em, body_val)
    if body_val.shared:  # the body wrote no fresh buffer: add into a copy
        body_val = _emit_float_apply(em, body_val, lambda a, out: np.copyto(out, a), "copy")
    tmp = em.planner.alloc(body_val.shape, "scratch", "resid.tmp")
    id_scale = np.float32(identity.grid[0]) if identity.grid else None

    def factory(idb=identity.buf, idv=identity.viewer, bb=body_val.buf, bv=body_val.viewer, tmp=tmp):
        def run():
            idx = idv(idb.a)
            body = bv(bb.a)
            if id_scale is not None:
                np.multiply(idx, id_scale, out=tmp.a)
                body += tmp.a
            else:
                body += idx

        return run

    em.emit(factory, [identity.buf, body_val.buf, tmp], "resid.add")
    em.log("resid.add")
    return body_val


def _emit_chain(em: _Emitter, nodes: list, val: _Val, tail) -> _Val:
    for i, node in enumerate(nodes):
        if isinstance(node, _LinearIR):
            val = _emit_linear(em, node, val, nodes, i, tail)
        elif isinstance(node, _ConvIR):
            val = _emit_conv(em, node, val, nodes, i, tail)
        elif isinstance(node, _ResidualIR):
            val = _emit_residual(em, node, val, nodes, i, tail)
        elif isinstance(node, _GapIR):
            val = _emit_gap(em, val)
        elif isinstance(node, _FlattenIR):
            val = _emit_flatten(em, val)
        elif isinstance(node, _ActIR):

            def act(a, out, spec=node.spec):
                if out is not a:
                    out[...] = a
                apply_activation(out, spec)

            val = _emit_float_apply(em, val, act, f"act.{node.spec[0]}")
        elif isinstance(node, _AffineIR):
            per_channel = (-1,) + (1,) * (len(val.shape) - 1)
            scale = node.scale.reshape(per_channel)
            shift = node.shift.reshape(per_channel)

            def affine(a, out, s=scale, sh=shift, spec=node.act):
                np.multiply(a, s, out=out)
                out += sh
                apply_activation(out, spec)

            val = _emit_float_apply(em, val, affine, "affine")
        elif isinstance(node, _EagerIR):
            val = _emit_eager(em, node, val)
        else:  # pragma: no cover - defensive
            raise QuantCompileError(f"unhandled IR node {type(node).__name__}")
    return val


# --------------------------------------------------------------------------- #
# execution plans and the public net
# --------------------------------------------------------------------------- #
@dataclass
class _ExecPlan:
    steps: list
    step_labels: list
    ctx: dict
    out_val: _Val
    arena: np.ndarray
    memory: MemoryPlan
    op_log: list

    def run(self, x: np.ndarray) -> np.ndarray:
        self.ctx["x"] = x
        for step in self.steps:
            step()
        out = self.out_val
        result = out.viewer(out.buf.a)
        if out.grid is not None:
            result = result * np.float32(out.grid[0])
        # CN.. -> NC..; always copy — the result must not alias the arena,
        # which the next run overwrites (a batch-1 transpose would otherwise
        # stay contiguous and escape as a live view).
        return result.transpose(_swap01(result.ndim)).copy()


class _PlannedNet:
    """A model lowered to a planned program: the executor of both engines.

    Tensor or ndarray in, detached Tensor out; :meth:`numpy_forward` stays in
    ndarray land.  Execution plans (arena + bound kernels) are built lazily
    per input shape and cached **per thread**, so a server can run one worker
    per thread against a single net without sharing scratch memory.

    Attributes
    ----------
    source:
        The model this program was compiled from (weights are snapshotted —
        retraining or recalibrating requires recompiling).
    graph:
        The annotated :class:`~repro.runtime.ir.Graph` the program was lowered
        from (see :func:`repro.runtime.passes.annotate`).
    """

    _grids = True  # hand integer grids from op to op

    def __init__(self, graph: Graph):
        self._ir = _ir_from_graph(graph)
        self.source = graph.source
        self.graph = graph
        self._local = threading.local()
        # _op_log is assigned by whichever thread builds the first plan; the
        # lock keeps the first-wins publication race out of the engine (plan
        # building may happen concurrently on serving worker threads).
        self._log_lock = threading.Lock()
        self._op_log: list[str] | None = None

    # ------------------------------------------------------------------ #
    def plan(self, input_shape: tuple[int, ...]) -> _ExecPlan:
        """Build (or fetch the thread-cached) plan for an ``(N, C, ...)`` shape."""
        cache = getattr(self._local, "plans", None)
        if cache is None:
            cache = self._local.plans = {}
        key = tuple(int(s) for s in input_shape)
        plan = cache.get(key)
        if plan is None:
            plan = self._build(key)
            cache[key] = plan
            with self._log_lock:
                if self._op_log is None:
                    self._op_log = plan.op_log
        return plan

    def _build(self, input_shape) -> _ExecPlan:
        planner = ArenaPlanner()
        em = _Emitter(planner, grids=self._grids)
        ctx: dict = {}
        axes = _swap01(len(input_shape))
        shape = tuple(input_shape[i] for i in axes)  # NC.. -> CN..
        first = self._ir[0] if self._ir else None
        if _is_spatial_conv(first) and len(shape) == 4:
            # the input lands straight in the first conv's (padded) slot
            buf, view = _make_conv_slot(em, first, *shape)
            em.input_slot = (first, buf, view)
            grid = first.grid
        else:
            buf, view, grid = planner.alloc(shape, "value", "input"), _identity_view, None
        if grid is not None:
            _emit_quantize(em, None, grid, buf, view, external_ctx=ctx)
        else:

            def input_factory(buf=buf, view=view):
                target = view(buf.a)

                def run():
                    target[...] = ctx["x"].transpose(axes)

                return run

            em.emit(input_factory, [buf], "input")
        out_val = _emit_chain(em, self._ir, _Val(buf, shape, view, grid), ("float", None))
        arena, memory = planner.solve()
        steps = [factory() for factory, _ in em.factories]
        labels = [label for _, label in em.factories]
        return _ExecPlan(
            steps=steps, step_labels=labels, ctx=ctx, out_val=out_val,
            arena=arena, memory=memory, op_log=em.op_log,
        )

    # ------------------------------------------------------------------ #
    @property
    def ops(self) -> list[str]:
        """Lowered op kinds (e.g. ``"qconv.dw"``); built with the first plan.

        Contains no ``"eager"`` entries when every layer lowered to planned
        kernels — the test-suite asserts this for the registry models.
        """
        if self._op_log is None:
            raise RuntimeError("no plan built yet; run a batch or call plan() first")
        return list(self._op_log)

    def memory_plan(self, input_shape: tuple[int, ...]) -> MemoryPlan:
        """The arena plan (peak working set, buffer table) for a shape: the
        exact arena the program runs in."""
        return self.plan(tuple(input_shape)).memory

    def describe(self) -> str:
        """Printable lowering report (passes applied + annotated node table)."""
        return f"{type(self).__name__} — compiled by repro.compile\n" + self.graph.describe()

    def save(self, path: str, *, input_shape=None, model_ref: dict | None = None):
        """Serialize to a versioned artifact file (see :func:`repro.load`)."""
        from .artifact import save_artifact

        return save_artifact(self, path, input_shape=input_shape, model_ref=model_ref)

    def numpy_forward(self, x: np.ndarray) -> np.ndarray:
        """Run the program on a raw ``(N, C, ...)`` batch."""
        x = np.ascontiguousarray(x, dtype=np.float32)
        return self.plan(x.shape).run(x)

    def __call__(self, x) -> nn.Tensor:
        data = x.data if isinstance(x, nn.Tensor) else np.asarray(x, dtype=np.float32)
        return nn.Tensor(self.numpy_forward(data))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(source={type(self.source).__name__})"


class QuantizedNet(_PlannedNet):
    """A quantized model lowered to the planned integer engine.

    Activations stay on their integer grids from op to op; see the module
    docstring.  ``source`` is the calibrated fake-quant model.
    """


class CompiledNet(_PlannedNet):
    """A model lowered to a planned float program for inference.

    Callable like the eager module: accepts a :class:`~repro.nn.tensor.Tensor`
    or ``ndarray`` and returns a detached ``Tensor``.  Use
    :meth:`numpy_forward` to stay entirely in ``ndarray`` land, and
    :meth:`memory_plan` for the arena the program runs in.
    """

    _grids = False  # integer ops quantize their own input
