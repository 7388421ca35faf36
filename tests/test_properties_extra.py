"""Property-based tests (hypothesis) for the newer substrate components.

Complements ``test_properties.py`` (which covers the autograd/contraction
invariants) with invariants of the compression toolkit, the corruption
battery, the mixing augmentation and the PLT schedules.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.compress import MagnitudePruner, QuantizationSpec, quantize_array, dequantize_array
from repro.compress.quantization import fake_quantize
from repro.core.alpha_schedules import PLT_SCHEDULES
from repro.data import mixup
from repro.data.corruptions import corrupt
from repro.nn import functional as F

SETTINGS = dict(max_examples=25, deadline=None)


# --------------------------------------------------------------------------- #
# quantization
# --------------------------------------------------------------------------- #
class TestQuantizationProperties:
    @given(
        data=st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=4, max_size=64),
        bits=st.integers(2, 8),
        symmetric=st.booleans(),
    )
    @settings(**SETTINGS)
    def test_round_trip_error_bounded_by_one_step(self, data, bits, symmetric):
        array = np.asarray(data, dtype=np.float32)
        spec = QuantizationSpec(bits=bits, symmetric=symmetric, per_channel=False)
        q, scale, zero_point = quantize_array(array, spec)
        restored = dequantize_array(q, scale, zero_point)
        # Affine quantization clamps at the grid ends, so allow one full step.
        assert np.max(np.abs(array - restored)) <= float(scale[0]) * 1.001 + 1e-6

    @given(
        data=st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=4, max_size=32),
        bits=st.integers(2, 8),
    )
    @settings(**SETTINGS)
    def test_grid_has_at_most_2_to_the_bits_values(self, data, bits):
        array = np.asarray(data, dtype=np.float32)
        spec = QuantizationSpec(bits=bits, symmetric=True, per_channel=False)
        q, _, _ = quantize_array(array, spec)
        assert len(np.unique(q)) <= 2 ** bits

    @given(data=st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=4, max_size=32))
    @settings(**SETTINGS)
    def test_fake_quantize_is_idempotent(self, data):
        array = np.asarray(data, dtype=np.float32)
        spec = QuantizationSpec(bits=6, per_channel=False)
        once = fake_quantize(array, spec)
        np.testing.assert_allclose(fake_quantize(once, spec), once, atol=1e-5)


# --------------------------------------------------------------------------- #
# pruning
# --------------------------------------------------------------------------- #
class TestPruningProperties:
    @given(sparsity=st.floats(0.0, 0.95), scope=st.sampled_from(["global", "layer"]))
    @settings(max_examples=10, deadline=None)
    def test_achieved_sparsity_close_to_target(self, sparsity, scope):
        model = nn.Sequential(nn.Conv2d(3, 6, 3), nn.ReLU(), nn.Flatten(), nn.Linear(6, 4))
        report = MagnitudePruner(model, scope=scope).prune(sparsity)
        assert abs(report.achieved_sparsity - sparsity) <= 0.1
        # Pruning never grows the weights.
        assert report.pruned_weights <= report.total_weights


# --------------------------------------------------------------------------- #
# corruptions and mixing
# --------------------------------------------------------------------------- #
class TestDataProperties:
    @given(
        name=st.sampled_from(["gaussian_noise", "brightness", "contrast", "pixelate"]),
        severity=st.integers(1, 5),
    )
    @settings(max_examples=20, deadline=None)
    def test_corruption_shape_invariant(self, name, severity):
        rng = np.random.default_rng(0)
        images = rng.uniform(0, 1, size=(2, 3, 12, 12)).astype(np.float32)
        out = corrupt(images, name, severity=severity)
        assert out.shape == images.shape
        assert np.isfinite(out).all()

    @given(alpha=st.floats(0.0, 2.0), seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_mixup_targets_are_valid_distributions(self, alpha, seed):
        rng = np.random.default_rng(seed)
        images = rng.uniform(0, 1, size=(6, 3, 8, 8)).astype(np.float32)
        labels = np.arange(6) % 3
        _, targets = mixup(images, labels, num_classes=3, alpha=alpha, rng=rng)
        assert (targets >= 0).all()
        np.testing.assert_allclose(targets.sum(axis=1), 1.0, atol=1e-5)


# --------------------------------------------------------------------------- #
# PLT schedules
# --------------------------------------------------------------------------- #
class TestAnalysisProperties:
    @given(
        name=st.sampled_from(sorted(PLT_SCHEDULES)),
        total_steps=st.integers(1, 40),
        initial_alpha=st.floats(0.0, 0.9),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_schedule_is_monotone_and_terminates_at_identity(
        self, name, total_steps, initial_alpha
    ):
        activation = nn.DecayableReLU()
        holder = nn.Sequential(activation)
        schedule = PLT_SCHEDULES[name](holder, total_steps, initial_alpha)
        # collect_decayable_activations(expanded_only=True) finds nothing in a
        # bare Sequential, so drive the activation directly.
        schedule.activations = [activation]
        schedule.set_alpha(initial_alpha)
        previous = schedule.alpha
        for _ in range(total_steps):
            current = schedule.step()
            assert current >= previous - 1e-9
            previous = current
        assert schedule.finished
        assert activation.is_linear


# --------------------------------------------------------------------------- #
# soft-target cross entropy consistency (ties mixing to the loss module)
# --------------------------------------------------------------------------- #
class TestLossProperties:
    @given(
        seed=st.integers(0, 500),
        n=st.integers(2, 8),
        classes=st.integers(2, 6),
        smoothing=st.floats(0.0, 0.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_label_smoothing_equals_soft_target_formulation(self, seed, n, classes, smoothing):
        rng = np.random.default_rng(seed)
        logits = nn.Tensor(rng.normal(size=(n, classes)).astype(np.float32))
        labels = rng.integers(0, classes, size=n)
        smoothed_hard = F.cross_entropy(logits, labels, label_smoothing=smoothing).item()
        soft = (1.0 - smoothing) * F.one_hot(labels, classes) + smoothing / classes
        soft_loss = F.cross_entropy(logits, soft, soft_targets=True).item()
        assert smoothed_hard == pytest.approx(soft_loss, rel=1e-4, abs=1e-5)
