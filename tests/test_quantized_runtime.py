"""Tests for the true-integer (int8) inference engine and its memory planner."""

import copy

import numpy as np
import pytest

import repro
from repro import nn
from repro.compress import calibrate, quantize_model
from repro.compress.quantization import QuantizedLinear, _QuantizedWrapper
from repro.eval.deployment import peak_activation_memory
from repro.models import available_models, create_model
from repro.models.blocks import ConvBNAct
from repro.runtime import QuantCompileError, QuantizedNet


def _randomize_bn_stats(model: nn.Module, rng: np.random.Generator) -> None:
    for _, module in model.named_modules():
        if isinstance(module, nn.BatchNorm2d):
            module.running_mean[...] = rng.normal(0.0, 0.2, size=module.num_features)
            module.running_var[...] = rng.uniform(0.5, 1.5, size=module.num_features)


def _quantized_model(name: str, rng, num_classes=8, res=20, calib_batches=2, **calib_kwargs):
    model = create_model(name, num_classes=num_classes)
    _randomize_bn_stats(model, rng)
    model.eval()
    quantize_model(model)
    batches = [
        rng.normal(0.2, 0.8, size=(8, 3, res, res)).astype(np.float32)
        for _ in range(calib_batches)
    ]
    calibrate(model, batches, **calib_kwargs)
    return model


def _dequant_tolerance(model: nn.Module, drift_steps: float = 3.0) -> float:
    """Worst-case logit change from ``drift_steps`` grid steps at the classifier.

    The engine and the fake-quant oracle may legitimately differ by a couple
    of integer steps per activation (tie-breaks, on-grid pooling/residual
    rounding); the resulting logit difference is bounded by the classifier's
    input step size times the L1 norm of its dequantized integer weights.
    """
    classifier = next(
        m for _, m in model.named_modules() if isinstance(m, QuantizedLinear)
    )
    in_scale, _ = classifier.input_qparams()
    w_q = np.abs(classifier.weight_q.astype(np.float64))
    w_scale = np.atleast_1d(np.asarray(classifier.weight_scale, dtype=np.float64))
    row_l1 = (w_q.sum(axis=1) * (w_scale if w_scale.size > 1 else w_scale[0])).max()
    return drift_steps * in_scale * row_l1


class TestInt8Parity:
    """Engine logits must match the fake-quant oracle within dequant tolerance."""

    @pytest.mark.parametrize("name", ["mobilenetv2-tiny", "mcunet"])
    @pytest.mark.parametrize("batch", [1, 8])
    def test_matches_fake_quant_oracle(self, rng, name, batch):
        model = _quantized_model(name, rng)
        x = rng.normal(0.2, 0.8, size=(batch, 3, 20, 20)).astype(np.float32)
        with nn.no_grad():
            oracle = model(nn.Tensor(x)).numpy()
        engine = repro.compile(model, mode="int8")
        out = engine.numpy_forward(x)
        assert out.shape == oracle.shape
        tolerance = _dequant_tolerance(model)
        assert float(np.abs(out - oracle).max()) <= tolerance
        # and the ranking agrees for a comfortable majority of samples
        agree = (out.argmax(axis=1) == oracle.argmax(axis=1)).mean()
        assert agree >= 0.5

    def test_every_registry_model_within_tolerance(self, rng):
        """The engine tracks the oracle on every model quantize_model supports."""
        from repro.models import available_models

        for name in available_models():
            model = _quantized_model(name, rng, res=16)
            x = rng.normal(0.2, 0.8, size=(2, 3, 16, 16)).astype(np.float32)
            with nn.no_grad():
                oracle = model(nn.Tensor(x)).numpy()
            out = repro.compile(model, mode="int8").numpy_forward(x)
            assert float(np.abs(out - oracle).max()) <= _dequant_tolerance(model), name

    def test_bitwise_batch_invariance(self, rng):
        """Per-sample results never depend on batch assembly — the property
        padded dynamic batching relies on.  At res 20 every depthwise conv
        runs the operator matmul and the stem the gathered gemm.  At res 32
        the 16-px depthwise layers run the tap kernels and cross the tap
        budget between batch 1 and 3 while the 8-px ones stay on the
        operator, and the stem crosses the gather budget between batch 3 and
        40, so this pins every kernel the registry models pick to the same
        integers."""
        model = _quantized_model("mobilenetv2-tiny", rng)
        engine = repro.compile(model, mode="int8")
        for res, batch in ((20, 6), (32, 40)):
            x = rng.normal(0.2, 0.8, size=(batch, 3, res, res)).astype(np.float32)
            batched = engine.numpy_forward(x)
            for size in (1, 2, 3):
                for start in range(0, x.shape[0], size):
                    rows = engine.numpy_forward(x[start : start + size])
                    np.testing.assert_array_equal(rows, batched[start : start + size], err_msg=f"{res}/{size}")
            # padding with zero rows must not change the real rows either
            padded = np.concatenate([x[:3], np.zeros_like(x[:3])])
            np.testing.assert_array_equal(engine.numpy_forward(padded)[:3], batched[:3])

    def test_conv_bn_relu6_block_exact(self, rng):
        """A single quantized ConvBNAct matches the oracle bit-for-bit (the
        only rounding happens at the shared output quantization)."""
        block = ConvBNAct(3, 8, kernel_size=3, stride=1)
        _randomize_bn_stats(block, rng)
        block.eval()
        quantize_model(block)
        calibrate(block, [rng.normal(0.0, 1.0, size=(4, 3, 10, 10)).astype(np.float32)])
        x = rng.normal(0.0, 1.0, size=(2, 3, 10, 10)).astype(np.float32)
        with nn.no_grad():
            oracle = block(nn.Tensor(x)).numpy()
        out = repro.compile(block, mode="int8").numpy_forward(x)
        np.testing.assert_allclose(out, oracle, rtol=1e-4, atol=1e-5)

    def test_tensor_in_tensor_out(self, rng):
        model = _quantized_model("mobilenetv2-tiny", rng)
        engine = repro.compile(model, mode="int8")
        out = engine(nn.Tensor(rng.normal(size=(1, 3, 20, 20)).astype(np.float32)))
        assert isinstance(out, nn.Tensor)
        assert not out.requires_grad


def _integer_conv_reference(q, w, stride, padding, groups):
    """Integer conv of grid values ``q`` with int8 weights ``w``, in float64."""
    n, _, h, wd = q.shape
    c_out, c_in_g, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    qp = np.pad(q.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, c_out, oh, ow))
    m_g = c_out // groups
    for g in range(groups):
        xs = qp[:, g * c_in_g : (g + 1) * c_in_g]
        wg = w[g * m_g : (g + 1) * m_g].astype(np.float64)
        for i in range(kh):
            for j in range(kw):
                patch = xs[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
                out[:, g * m_g : (g + 1) * m_g] += np.einsum("ncyx,oc->noyx", patch, wg[:, :, i, j])
    return out


# (channels in, channels out, groups, kernel, stride, padding, map side).
# Depthwise convs run the operator matmul on maps up to 12 px a side whose
# operator (C*H*W*OH*OW) fits 2**20 elements, and the tap-stack / einsum
# kernels otherwise; dense convs gather their column matrix within 2**18
# elements (whichever the batch; the 24-px rows cross it between b1 and b8)
# and run a windowed einsum past it.  Grouped and float64 convs always gather.
SMALL_MAP_CONVS = [
    (8, 8, 8, 3, 1, 1, 12),  # depthwise, operator
    (8, 8, 8, 3, 1, 1, 13),  # depthwise, just past the side bound: tap kernels
    (8, 8, 8, 3, 2, 1, 12),
    (8, 8, 8, 3, 2, 1, 16),  # strided tap kernels
    (8, 8, 8, 3, 1, 0, 7),
    (8, 8, 8, 3, 2, 0, 9),
    (8, 8, 8, 5, 1, 2, 10),
    (8, 8, 8, 5, 2, 2, 11),
    (8, 8, 8, 5, 2, 2, 14),
    (8, 8, 8, 5, 1, 0, 9),
    (64, 64, 64, 3, 1, 1, 12),  # past the operator budget: tap kernels
    (3, 8, 1, 3, 2, 1, 12),  # the stem shape, gathered
    (3, 8, 1, 3, 1, 0, 8),
    (3, 8, 1, 5, 2, 2, 9),
    (16, 8, 1, 3, 1, 1, 24),  # gathered at b1-b3, windowed einsum at b8
    (8, 4, 1, 5, 1, 2, 24),  # gathered at b1-b2, windowed einsum at b3 and b8
    (8, 8, 2, 3, 2, 1, 10),  # grouped
    (64, 4, 1, 3, 1, 1, 6),  # K*max|w|*max|v| past 2**24: float64 accumulation
]


class TestSmallMapKernels:
    """Each conv kernel, on both sides of each rule bound, is exact in int8
    and within round-off of eager in float."""

    @pytest.mark.parametrize("c_in,c_out,groups,k,stride,padding,side", SMALL_MAP_CONVS)
    def test_int8_equals_integer_conv_reference(self, rng, c_in, c_out, groups, k, stride, padding, side):
        model = nn.Sequential(nn.Conv2d(c_in, c_out, k, stride, padding, groups=groups, bias=False))
        model.eval()
        quantize_model(model)
        calibrate(model, [rng.normal(0.2, 0.8, size=(8, c_in, side, side)).astype(np.float32)])
        wrapper = next(m for _, m in model.named_modules() if isinstance(m, _QuantizedWrapper))
        scale, zp = wrapper.input_qparams()
        qmax = float(2**wrapper.spec.bits - 1)
        w_scale = np.atleast_1d(wrapper.weight_scale).astype(np.float64)
        multiplier = (float(scale) * np.broadcast_to(w_scale, (c_out,))).astype(np.float32)
        engine = repro.compile(model, mode="int8")

        x = rng.normal(0.2, 0.8, size=(8, c_in, side, side)).astype(np.float32)
        q = np.clip(np.rint(x * np.float32(1.0 / scale)), -zp, qmax - zp)
        acc = _integer_conv_reference(q, wrapper.weight_q, stride, padding, groups)
        expected = acc.astype(np.float32) * multiplier.reshape(1, -1, 1, 1)
        batched = engine.numpy_forward(x)
        np.testing.assert_array_equal(batched, expected)
        for size in (1, 2, 3):
            for start in range(0, len(x), size):
                rows = engine.numpy_forward(x[start : start + size])
                np.testing.assert_array_equal(rows, batched[start : start + size], err_msg=str(size))

    @pytest.mark.parametrize("c_in,c_out,groups,k,stride,padding,side", SMALL_MAP_CONVS)
    def test_float_matches_eager(self, rng, c_in, c_out, groups, k, stride, padding, side):
        model = nn.Sequential(nn.Conv2d(c_in, c_out, k, stride, padding, groups=groups))
        model.eval()
        net = repro.compile(model)
        for batch in (1, 2, 3, 8):
            x = rng.normal(size=(batch, c_in, side, side)).astype(np.float32)
            with nn.no_grad():
                eager = model(nn.Tensor(x)).numpy()
            out = net.numpy_forward(x)
            assert float(np.abs(out - eager).max()) <= 1e-5 * float(np.abs(eager).max()), batch


class TestIntegerLowering:
    def test_weights_stored_as_int8(self, rng):
        model = _quantized_model("mobilenetv2-tiny", rng)
        wrappers = [m for _, m in model.named_modules() if isinstance(m, _QuantizedWrapper)]
        assert wrappers
        for wrapper in wrappers:
            assert wrapper.weight_q.dtype == np.int8
            assert wrapper.weight_scale.dtype == np.float32
            # dequantized integer weights reproduce the fake-quant float weights
            shape = [1] * wrapper.weight_q.ndim
            shape[0] = -1
            scale = np.asarray(wrapper.weight_scale).reshape(
                shape if np.asarray(wrapper.weight_scale).size > 1 else [1] * wrapper.weight_q.ndim
            )
            restored = wrapper.weight_q.astype(np.float32) * scale
            np.testing.assert_allclose(restored, wrapper.wrapped.weight.data, rtol=1e-5, atol=1e-6)

    def test_engine_has_no_eager_fallback_for_registry_models(self, rng):
        for name in ("mobilenetv2-tiny", "mcunet"):
            model = _quantized_model(name, rng)
            engine = repro.compile(model, mode="int8")
            engine.plan((1, 3, 20, 20))
            assert "eager" not in engine.ops
            assert sum(op.startswith("qconv") for op in engine.ops) > 10

    def test_compile_net_routes_wrappers_to_integer_ops(self, rng):
        """The float compiler must not silently drop calibrated wrappers to
        the eager fallback."""
        model = _quantized_model("mobilenetv2-tiny", rng)
        net = repro.compile(model)
        net.plan((1, 3, 20, 20))
        n_wrappers = sum(
            1 for _, m in model.named_modules() if isinstance(m, _QuantizedWrapper)
        )
        assert "eager" not in net.ops
        assert sum(op.startswith("qconv") or op == "qlinear" for op in net.ops) == n_wrappers

    def test_compile_net_integer_ops_match_eager(self, rng):
        model = _quantized_model("mcunet", rng)
        x = rng.normal(0.2, 0.8, size=(3, 3, 20, 20)).astype(np.float32)
        with nn.no_grad():
            eager = model(nn.Tensor(x)).numpy()
        out = repro.compile(model).numpy_forward(x)
        np.testing.assert_allclose(out, eager, rtol=1e-4, atol=1e-5)

    def test_uncalibrated_wrapper_stays_eager_in_compile_net(self, rng):
        """An observing wrapper runs eagerly and records the ranges an eager
        forward records: no plan-time zeros probe ever reaches it."""
        model = create_model("mobilenetv2-tiny", num_classes=4)
        _randomize_bn_stats(model, rng)
        model.eval()
        quantize_model(model)  # observing, not calibrated
        twin = copy.deepcopy(model)
        x = rng.uniform(0.5, 1.5, size=(2, 3, 16, 16)).astype(np.float32)
        repro.compile(model).numpy_forward(x)
        with nn.no_grad():
            twin(nn.Tensor(x))
        pairs = [
            (m, t)
            for (_, m), (_, t) in zip(model.named_modules(), twin.named_modules())
            if isinstance(m, _QuantizedWrapper)
        ]
        assert pairs and all(m.observing for m, _ in pairs)
        assert float(pairs[0][0].act_low[0]) >= 0.5
        for m, t in pairs:
            np.testing.assert_allclose(m.act_low, t.act_low, rtol=1e-5, atol=1e-6)
            np.testing.assert_allclose(m.act_high, t.act_high, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("mode", ["infer", "int8"])
    def test_rank_changing_eager_head(self, rng, mode):
        """An eager node whose output rank differs from its input's."""
        import repro

        class Head(nn.Module):
            def __init__(self):
                super().__init__()
                self.linear = nn.Linear(4, 5)

            def forward(self, x):
                return self.linear(x.mean(axis=(2, 3)))

        model = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1), nn.ReLU(), Head())
        model.eval()
        quantize_model(model)
        calibrate(model, [rng.normal(0.2, 0.8, size=(8, 3, 10, 10)).astype(np.float32)])
        x = rng.normal(0.2, 0.8, size=(3, 3, 10, 10)).astype(np.float32)
        with nn.no_grad():
            oracle = model(nn.Tensor(x)).numpy()
        net = repro.compile(model, mode=mode)
        out = net.numpy_forward(x)
        assert out.shape == oracle.shape == (3, 5)
        assert net.ops.count("eager") == 1
        if mode == "int8":
            assert float(np.abs(out - oracle).max()) <= _dequant_tolerance(model)
        else:
            np.testing.assert_allclose(out, oracle, rtol=1e-4, atol=1e-5)

    def test_uncalibrated_model_rejected_by_compile_quantized(self):
        model = create_model("mobilenetv2-tiny", num_classes=4)
        quantize_model(model)  # no calibrate()
        with pytest.raises(QuantCompileError):
            repro.compile(model, mode="int8")

    def test_unquantized_model_rejected(self):
        model = create_model("mobilenetv2-tiny", num_classes=4)
        with pytest.raises(QuantCompileError):
            repro.compile(model, mode="int8")

    def test_mixed_model_with_skipped_layers_still_correct(self, rng):
        """Skip-prefixed (unquantized) layers run in the float domain."""
        model = create_model("mobilenetv2-tiny", num_classes=5)
        _randomize_bn_stats(model, rng)
        model.eval()
        quantize_model(model, skip=("classifier",))
        calibrate(model, [rng.normal(0.2, 0.8, size=(6, 3, 16, 16)).astype(np.float32)])
        x = rng.normal(0.2, 0.8, size=(2, 3, 16, 16)).astype(np.float32)
        with nn.no_grad():
            oracle = model(nn.Tensor(x)).numpy()
        out = repro.compile(model, mode="int8").numpy_forward(x)
        assert out.shape == oracle.shape
        assert float(np.abs(out - oracle).max()) <= 0.5  # loose: float head amplifies nothing


class TestMemoryPlanner:
    def _pointwise_chain(self, rng, channels=(8, 16, 12, 4), res=6):
        layers = []
        for c_in, c_out in zip(channels[:-1], channels[1:]):
            layers.append(nn.Conv2d(c_in, c_out, 1))
        model = nn.Sequential(*layers)
        model.eval()
        quantize_model(model)
        calibrate(
            model,
            [rng.normal(0.0, 1.0, size=(2, channels[0], res, res)).astype(np.float32)],
        )
        return model, channels, res

    def test_chain_peak_matches_deployment_accounting(self, rng):
        """For a padding-free chain the planner's peak working set equals the
        analytic MCU approximation max(input + output) exactly."""
        model, channels, res = self._pointwise_chain(rng)
        engine = repro.compile(model, mode="int8")
        report = engine.memory_plan((1, channels[0], res, res))
        analytic = peak_activation_memory(model, (channels[0], res, res), bytes_per_element=1)
        assert report.peak_value_int8_bytes == analytic

    def test_arena_reuses_buffers(self, rng):
        model, channels, res = self._pointwise_chain(rng)
        engine = repro.compile(model, mode="int8")
        report = engine.memory_plan((1, channels[0], res, res))
        total_requested = sum(b.size for b in report.buffers)
        assert report.arena_elements < total_requested

    def test_model_peak_close_to_deployment_accounting(self, rng):
        """On a real network the planner peak stays within a factor of two of
        the analytic per-layer max(in+out) bound.  Padded scratch pushes the
        planner peak up; a conv borrowing its producer's buffer as its input
        slot pushes it down (the eager trace double-counts a tensor as one
        layer's output and the next layer's input) — the two accountings agree
        to within 2x."""
        model = _quantized_model("mobilenetv2-tiny", rng, res=16)
        engine = repro.compile(model, mode="int8")
        report = engine.memory_plan((1, 3, 16, 16))
        analytic = peak_activation_memory(model, (3, 16, 16), bytes_per_element=1)
        assert analytic / 2 <= report.peak_value_int8_bytes <= 2 * analytic

    def test_forward_allocates_into_planned_arena(self, rng):
        model = _quantized_model("mobilenetv2-tiny", rng, res=16)
        engine = repro.compile(model, mode="int8")
        plan = engine.plan((2, 3, 16, 16))
        out1 = plan.run(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))
        assert plan.arena.size >= max(b.offset + b.size for b in plan.memory.buffers)
        # plans are cached per shape
        assert engine.plan((2, 3, 16, 16)) is plan
        out2 = engine.numpy_forward(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))
        assert out1.shape == out2.shape

    @pytest.mark.parametrize("mode", ["infer", "int8"])
    @pytest.mark.parametrize("name", available_models())
    def test_arena_is_exactly_the_planned_size(self, rng, name, mode):
        """The arena a plan runs in holds its buffers and nothing more: no
        kernel reads past a buffer's end, so there is no hidden tail slack.
        At res 32 the 16-px depthwise layers run the tap kernels."""
        if mode == "int8":
            model = _quantized_model(name, rng, res=32)
        else:
            model = create_model(name, num_classes=8)
            model.eval()
        net = repro.compile(model, mode=mode)
        for batch in (1, 8):
            plan = net.plan((batch, 3, 32, 32))
            packed = max(b.offset + b.size for b in plan.memory.buffers)
            assert plan.arena.size == plan.memory.arena_elements == packed, batch

    def test_arena_plans_only_the_picked_kernels_scratch(self, rng):
        """Only the picked kernels' scratch is planned, and no tap stack
        exceeds the rule's budget: scratch stays well under twice the values."""
        model = _quantized_model("mobilenetv2-tiny", rng)
        report = repro.compile(model, mode="int8").memory_plan((8, 3, 20, 20))
        assert report.peak_total_int8_bytes < 3 * report.peak_value_int8_bytes

    def test_constants_reported_outside_the_arena(self, rng):
        """The small-map kernels' spatial operators and gather indices live
        outside the arena; the report counts them instead of hiding them."""
        model = _quantized_model("mobilenetv2-tiny", rng)
        report = repro.compile(model, mode="int8").memory_plan((8, 3, 20, 20))
        assert report.constant_bytes > 0
        assert "outside the arena" in report.summary()
        chain, channels, res = self._pointwise_chain(rng)
        report = repro.compile(chain, mode="int8").memory_plan((1, channels[0], res, res))
        assert report.constant_bytes == 0

    def test_plan_io_propagates_memory_plan_errors(self):
        from repro.runtime import plan_io

        class BrokenPlanner:
            def numpy_forward(self, x):
                return np.zeros((x.shape[0], 4), dtype=np.float32)

            def memory_plan(self, shape):
                raise RuntimeError("planner bug")

        with pytest.raises(RuntimeError, match="planner bug"):
            plan_io(BrokenPlanner(), (3, 8, 8))

    def test_memory_plan_summary_mentions_peak(self, rng):
        model = _quantized_model("mobilenetv2-tiny", rng, res=16)
        summary = repro.compile(model, mode="int8").memory_plan((1, 3, 16, 16)).summary()
        assert "peak working set" in summary


class TestQuantizedNetApi:
    def test_ops_requires_a_plan(self, rng):
        model = _quantized_model("mobilenetv2-tiny", rng)
        engine = repro.compile(model, mode="int8")
        with pytest.raises(RuntimeError):
            engine.ops
        engine.plan((1, 3, 16, 16))
        assert engine.ops

    def test_is_quantized_net(self, rng):
        model = _quantized_model("mobilenetv2-tiny", rng)
        assert isinstance(repro.compile(model, mode="int8"), QuantizedNet)
