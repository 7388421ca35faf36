"""Tests for the true-integer (int8) inference engine and its memory planner."""

import copy

import numpy as np
import pytest

import repro
from repro import nn
from repro.compress import calibrate, quantize_model
from repro.compress.quantization import QuantizedLinear, _QuantizedWrapper
from repro.eval.deployment import peak_activation_memory
from repro.models import create_model
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
        padded dynamic batching relies on.  Between batch 2 and batch 6 the
        stem and several stride-1 and stride-2 depthwise layers cross the
        kernel rule's tap budget, so this also pins the tap-stack and einsum
        kernels to the same integers."""
        model = _quantized_model("mobilenetv2-tiny", rng)
        engine = repro.compile(model, mode="int8")
        x = rng.normal(0.2, 0.8, size=(6, 3, 20, 20)).astype(np.float32)
        batched = engine.numpy_forward(x)
        for size in (1, 2, 3):
            for start in range(0, x.shape[0], size):
                rows = engine.numpy_forward(x[start : start + size])
                np.testing.assert_array_equal(rows, batched[start : start + size], err_msg=str(size))
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
        report = engine.memory_report((1, channels[0], res, res))
        analytic = peak_activation_memory(model, (channels[0], res, res), bytes_per_element=1)
        assert report.peak_value_int8_bytes == analytic

    def test_arena_reuses_buffers(self, rng):
        model, channels, res = self._pointwise_chain(rng)
        engine = repro.compile(model, mode="int8")
        report = engine.memory_report((1, channels[0], res, res))
        total_requested = sum(b.size for b in report.buffers)
        assert report.arena_elements < total_requested

    def test_model_peak_close_to_deployment_accounting(self, rng):
        """On a real network the planner peak stays within a factor of two of
        the analytic per-layer max(in+out) bound.  Padded scratch pushes the
        planner peak up; producer-writes-into-consumer slot sharing pushes it
        down (the eager trace double-counts a tensor as one layer's output and
        the next layer's input) — the two accountings agree to within 2x."""
        model = _quantized_model("mobilenetv2-tiny", rng, res=16)
        engine = repro.compile(model, mode="int8")
        report = engine.memory_report((1, 3, 16, 16))
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

    def test_arena_plans_only_the_picked_kernels_scratch(self, rng):
        """Only the picked kernels' scratch is planned, and no tap stack
        exceeds the rule's budget: scratch stays well under twice the values."""
        model = _quantized_model("mobilenetv2-tiny", rng)
        report = repro.compile(model, mode="int8").memory_report((8, 3, 20, 20))
        assert report.peak_total_int8_bytes < 3 * report.peak_value_int8_bytes

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
        summary = repro.compile(model, mode="int8").memory_report((1, 3, 16, 16)).summary()
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
