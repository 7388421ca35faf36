"""Simulated integer quantization (post-training, fake-quant style).

TNNs destined for microcontrollers are deployed in int8; the paper's
efficiency claims (Table I FLOPs / params) implicitly assume the contracted
network quantizes as well as a vanilla-trained one.  This module provides:

* :func:`quantize_array` / :func:`dequantize_array` — affine or symmetric
  uniform quantization of a NumPy array, per-tensor or per-output-channel;
* :class:`QuantizedConv2d` / :class:`QuantizedLinear` — drop-in wrappers that
  fake-quantize weights (at construction) and activations (with ranges
  gathered by :func:`calibrate`);
* :func:`quantize_model` — rewrite a trained model so every conv / linear goes
  through the wrappers, returning a :class:`QuantizationReport`.

The *eager* forward of a quantized model is simulated: values are rounded to
the integer grid and immediately mapped back to float32, which reproduces
int8 accuracy behaviour while keeping the NumPy execution path unchanged.
The wrappers additionally store the **real** integer parameters — ``weight_q``
(an ``int8`` array) with per-channel ``weight_scale`` — and, once calibrated,
expose activation grids via :meth:`_QuantizedWrapper.input_qparams`.  The
true-integer inference engine (``repro.compile(model, mode="int8")``)
executes straight from these, with the fake-quant eager path serving as its
accuracy oracle.

:func:`calibrate` supports two range estimators: plain min/max observation and
percentile calibration (``method="percentile"``), which discards extreme
outliers and tightens the grid over the bulk of the distribution — the usual
win for post-ReLU activations with heavy tails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn

__all__ = [
    "QuantizationSpec",
    "QuantizationReport",
    "quantize_array",
    "dequantize_array",
    "activation_qparams",
    "QuantizedConv2d",
    "QuantizedLinear",
    "quantize_model",
    "calibrate",
]


@dataclass(frozen=True)
class QuantizationSpec:
    """Configuration of the uniform quantizer.

    Parameters
    ----------
    bits:
        Word length; 8 gives the usual int8 deployment format.
    symmetric:
        Symmetric quantization centres the grid on zero (no zero-point),
        matching common weight quantizers; affine quantization uses a
        zero-point and suits post-ReLU activations.
    per_channel:
        Quantize weights with one scale per output channel instead of a single
        per-tensor scale.
    """

    bits: int = 8
    symmetric: bool = True
    per_channel: bool = True

    def __post_init__(self):
        if not 2 <= self.bits <= 16:
            raise ValueError("bits must lie in [2, 16]")

    @property
    def levels(self) -> int:
        return 2 ** self.bits

    @property
    def qmin(self) -> int:
        return -(2 ** (self.bits - 1)) if self.symmetric else 0

    @property
    def qmax(self) -> int:
        return 2 ** (self.bits - 1) - 1 if self.symmetric else 2 ** self.bits - 1


def _scales_and_zero_points(
    array: np.ndarray, spec: QuantizationSpec, channel_axis: int | None
) -> tuple[np.ndarray, np.ndarray]:
    if channel_axis is None:
        flat = array.reshape(1, -1)
    else:
        flat = np.moveaxis(array, channel_axis, 0).reshape(array.shape[channel_axis], -1)
    if spec.symmetric:
        max_abs = np.maximum(np.abs(flat).max(axis=1), 1e-12)
        scale = max_abs / spec.qmax
        zero_point = np.zeros_like(scale)
    else:
        low = np.minimum(flat.min(axis=1), 0.0)
        high = np.maximum(flat.max(axis=1), 0.0)
        scale = np.maximum((high - low) / (spec.qmax - spec.qmin), 1e-12)
        zero_point = np.round(spec.qmin - low / scale)
    return scale.astype(np.float32), zero_point.astype(np.float32)


def quantize_array(
    array: np.ndarray,
    spec: QuantizationSpec | None = None,
    channel_axis: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantize ``array`` to the integer grid defined by ``spec``.

    Returns ``(q, scale, zero_point)`` where ``q`` holds integers stored as
    float32.  Use :func:`dequantize_array` to map back.
    """
    spec = spec or QuantizationSpec()
    scale, zero_point = _scales_and_zero_points(array, spec, channel_axis)
    if channel_axis is None:
        broadcast_scale = scale.reshape(())
        broadcast_zp = zero_point.reshape(())
    else:
        shape = [1] * array.ndim
        shape[channel_axis] = -1
        broadcast_scale = scale.reshape(shape)
        broadcast_zp = zero_point.reshape(shape)
    q = np.clip(np.round(array / broadcast_scale + broadcast_zp), spec.qmin, spec.qmax)
    return q.astype(np.float32), scale, zero_point


def dequantize_array(
    q: np.ndarray,
    scale: np.ndarray,
    zero_point: np.ndarray,
    channel_axis: int | None = None,
) -> np.ndarray:
    """Map integer values produced by :func:`quantize_array` back to float."""
    if channel_axis is None:
        return ((q - zero_point) * scale).astype(np.float32)
    shape = [1] * q.ndim
    shape[channel_axis] = -1
    return ((q - zero_point.reshape(shape)) * scale.reshape(shape)).astype(np.float32)


def fake_quantize(
    array: np.ndarray, spec: QuantizationSpec, channel_axis: int | None = None
) -> np.ndarray:
    """Round-trip an array through the quantizer (quantize then dequantize)."""
    q, scale, zero_point = quantize_array(array, spec, channel_axis)
    return dequantize_array(q, scale, zero_point, channel_axis)


def quantization_error(array: np.ndarray, spec: QuantizationSpec, channel_axis: int | None = None) -> float:
    """Root-mean-square error introduced by quantizing ``array``."""
    return float(np.sqrt(np.mean((array - fake_quantize(array, spec, channel_axis)) ** 2)))


def activation_qparams(low: float, high: float, bits: int = 8) -> tuple[float, float]:
    """Affine (asymmetric) activation quantization parameters for a range.

    Returns ``(scale, zero_point)`` for the unsigned grid ``[0, 2**bits - 1]``.
    The range is *nudged to include zero* so that the real value ``0.0`` maps
    exactly onto an integer grid point — a requirement for zero-padded integer
    convolutions (the pad value is the zero-point) — and the zero-point is an
    exact integer, so requantization between grids commutes with rounding.
    Both the fake-quant eager path and the integer engine derive their grids
    from this helper, keeping the two bit-compatible.
    """
    low = min(float(low), 0.0)
    high = max(float(high), 0.0)
    qmax = 2**bits - 1
    scale = max((high - low) / qmax, 1e-12)
    zero_point = float(round(-low / scale))
    return scale, zero_point


# --------------------------------------------------------------------------- #
# quantized layer wrappers
# --------------------------------------------------------------------------- #
class _QuantizedWrapper(nn.Module):
    """Shared machinery for the conv / linear fake-quant wrappers.

    Besides writing fake-quantized values back into the wrapped layer's float
    weight (the simulation path), the wrapper stores the true integer
    parameters as buffers:

    ``weight_q``
        The quantized weight on the integer grid, *zero-point centred*
        (``q - zero_point``), stored as ``int8`` whenever the values fit
        (always the case for the default symmetric 8-bit spec) and ``int16``
        otherwise.
    ``weight_scale``
        Per-output-channel scales (``(C_out,)``), or a single-element array
        for per-tensor quantization, such that
        ``wrapped.weight ≈ weight_q * weight_scale``.
    """

    # Fraction of each calibration batch sampled for percentile estimation.
    _SAMPLES_PER_BATCH = 4096

    def __init__(self, wrapped: nn.Module, spec: QuantizationSpec):
        super().__init__()
        self.wrapped = wrapped
        self.spec = spec
        self.observing = True
        self.register_buffer("act_low", np.array([np.inf], dtype=np.float32))
        self.register_buffer("act_high", np.array([-np.inf], dtype=np.float32))
        self._samples: list[np.ndarray] = []
        self._collect_samples = False
        self.weight_error = self._quantize_weights()

    def _quantize_weights(self) -> float:
        weight = self.wrapped.weight
        channel_axis = 0 if self.spec.per_channel else None
        q, scale, zero_point = quantize_array(weight.data, self.spec, channel_axis)
        if channel_axis is None:
            centered = q - zero_point.reshape(())
        else:
            shape = [1] * q.ndim
            shape[channel_axis] = -1
            centered = q - zero_point.reshape(shape)
        int_dtype = np.int8 if np.abs(centered).max(initial=0.0) <= 127 else np.int16
        self.register_buffer("weight_q", centered.astype(int_dtype))
        self.register_buffer("weight_scale", scale.astype(np.float32))
        fq = dequantize_array(q, scale, zero_point, channel_axis)
        error = float(np.sqrt(np.mean((weight.data - fq) ** 2)))
        weight.data[...] = fq
        return error

    def _observe(self, x: np.ndarray) -> None:
        self.act_low[0] = min(self.act_low[0], float(x.min()))
        self.act_high[0] = max(self.act_high[0], float(x.max()))
        if self._collect_samples:
            flat = x.reshape(-1)
            step = max(1, flat.size // self._SAMPLES_PER_BATCH)
            self._samples.append(flat[::step].astype(np.float32, copy=True))

    def _quantize_activation(self, x: nn.Tensor) -> nn.Tensor:
        if self.observing:
            self._observe(x.data)
            return x
        qparams = self.input_qparams()
        if qparams is None:
            return x
        scale, zero_point = qparams
        qmax = 2**self.spec.bits - 1
        q = np.clip(np.round(x.data / scale + zero_point), 0, qmax)
        return nn.Tensor(((q - zero_point) * scale).astype(np.float32))

    def input_qparams(self) -> tuple[float, float] | None:
        """Calibrated ``(scale, zero_point)`` of the input grid, else ``None``."""
        low, high = float(self.act_low[0]), float(self.act_high[0])
        if not np.isfinite(low) or not np.isfinite(high) or high <= low:
            return None
        return activation_qparams(low, high, self.spec.bits)

    @property
    def frozen(self) -> bool:
        """True once calibration has produced a usable activation grid."""
        return not self.observing and self.input_qparams() is not None

    def freeze(self, method: str = "minmax", percentile: float = 99.9) -> None:
        """Stop observing activation ranges and start quantizing activations.

        ``method="percentile"`` replaces the observed min/max range with the
        ``[100 - percentile, percentile]`` percentiles of the values sampled
        during calibration (never *widening* beyond the observed range), which
        keeps one-off outliers from stretching the grid.
        """
        if method not in ("minmax", "percentile"):
            raise ValueError(f"unknown calibration method {method!r}")
        if method == "percentile" and self._samples:
            pooled = np.concatenate(self._samples)
            low, high = np.percentile(pooled, [100.0 - percentile, percentile])
            self.act_low[0] = max(float(low), float(self.act_low[0]))
            self.act_high[0] = min(float(high), float(self.act_high[0]))
        self._samples = []
        self._collect_samples = False
        self.observing = False

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        return self.wrapped(self._quantize_activation(x))


class QuantizedConv2d(_QuantizedWrapper):
    """Conv2d with fake-quantized weights and (after calibration) activations."""

    def __repr__(self) -> str:
        return f"QuantizedConv2d(bits={self.spec.bits}, wrapped={self.wrapped!r})"


class QuantizedLinear(_QuantizedWrapper):
    """Linear layer with fake-quantized weights and activations."""

    def __repr__(self) -> str:
        return f"QuantizedLinear(bits={self.spec.bits}, wrapped={self.wrapped!r})"


@dataclass
class QuantizationReport:
    """Summary of a whole-model post-training quantization pass."""

    bits: int
    quantized_layers: int
    weight_rmse: dict[str, float] = field(default_factory=dict)

    @property
    def mean_weight_rmse(self) -> float:
        if not self.weight_rmse:
            return 0.0
        return float(np.mean(list(self.weight_rmse.values())))

    def summary(self) -> str:
        lines = [f"int{self.bits} quantization of {self.quantized_layers} layers"]
        for name, rmse in self.weight_rmse.items():
            lines.append(f"  {name:<40s} weight RMSE {rmse:.5f}")
        return "\n".join(lines)


def quantize_model(
    model: nn.Module,
    spec: QuantizationSpec | None = None,
    skip: tuple[str, ...] = (),
) -> QuantizationReport:
    """Replace every Conv2d / Linear in ``model`` with a fake-quant wrapper.

    The replacement happens in place via ``set_submodule``.  Layers whose
    dotted path starts with an entry of ``skip`` are left untouched (commonly
    the first conv and the classifier, which are kept in higher precision in
    many deployment flows).
    """
    spec = spec or QuantizationSpec()
    report = QuantizationReport(bits=spec.bits, quantized_layers=0)
    targets = []
    for name, module in model.named_modules():
        if name == "":
            continue
        if isinstance(module, (nn.Conv2d, nn.Linear)) and not any(name.startswith(s) for s in skip):
            targets.append((name, module))
    for name, module in targets:
        wrapper_cls = QuantizedConv2d if isinstance(module, nn.Conv2d) else QuantizedLinear
        wrapper = wrapper_cls(module, spec)
        model.set_submodule(name, wrapper)
        report.weight_rmse[name] = wrapper.weight_error
        report.quantized_layers += 1
    return report


def calibrate(
    model: nn.Module,
    batches,
    freeze: bool = True,
    method: str = "minmax",
    percentile: float = 99.9,
) -> int:
    """Run calibration batches through a quantized model to set activation ranges.

    Parameters
    ----------
    model:
        A model previously processed by :func:`quantize_model`.
    batches:
        Iterable of image arrays (``(N, C, H, W)``) used to observe activation
        ranges.
    freeze:
        Freeze the observers afterwards so subsequent forward passes quantize
        activations.
    method:
        ``"minmax"`` uses the observed extrema; ``"percentile"`` clips the
        range to the ``[100 - percentile, percentile]`` percentiles of sampled
        activation values, which tightens the grid when calibration data
        contains outliers (typical for post-ReLU distributions).
    percentile:
        Upper percentile used by the percentile estimator.

    Returns the number of calibration batches processed.
    """
    if method not in ("minmax", "percentile"):
        raise ValueError(f"unknown calibration method {method!r}")
    wrappers = [m for _, m in model.named_modules() if isinstance(m, _QuantizedWrapper)]
    if not wrappers:
        raise ValueError("model has no quantized layers; call quantize_model first")
    for wrapper in wrappers:
        wrapper.observing = True
        wrapper._collect_samples = method == "percentile"
        wrapper._samples = []
    was_training = model.training
    model.eval()
    count = 0
    with nn.no_grad():
        for batch in batches:
            model(nn.Tensor(np.asarray(batch, dtype=np.float32)))
            count += 1
    model.train(was_training)
    if freeze:
        for wrapper in wrappers:
            wrapper.freeze(method=method, percentile=percentile)
    return count
