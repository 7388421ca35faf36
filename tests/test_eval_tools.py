"""Unit tests for deployment analysis, profiling and robustness evaluation."""

import numpy as np
import pytest

from repro import nn
from repro.data import ClassificationDataset
from repro.eval import (
    DEVICE_PROFILES,
    STM32F411,
    STM32F746,
    DeviceProfile,
    activation_footprints,
    count_complexity,
    deployment_report,
    estimate_latency_ms,
    evaluate_robustness,
    fits_device,
    format_profile_table,
    latency_percentiles,
    measure_latency,
    peak_activation_memory,
    profile_layers,
    weight_memory,
)
from repro.models import mobilenet_v2


@pytest.fixture(scope="module")
def tiny_model():
    return mobilenet_v2("tiny", num_classes=4)


class TestDeployment:
    def test_weight_memory_counts_bytes(self, tiny_model):
        params = sum(p.size for p in tiny_model.parameters())
        assert weight_memory(tiny_model, bytes_per_parameter=1) == params
        assert weight_memory(tiny_model, bytes_per_parameter=4) == 4 * params

    def test_activation_footprints_cover_leaf_layers(self, tiny_model):
        footprints = activation_footprints(tiny_model, (3, 16, 16))
        assert footprints
        assert all(value > 0 for value in footprints.values())

    def test_peak_memory_is_max_of_footprints(self, tiny_model):
        footprints = activation_footprints(tiny_model, (3, 16, 16))
        assert peak_activation_memory(tiny_model, (3, 16, 16)) == max(footprints.values())

    def test_peak_memory_grows_with_resolution(self, tiny_model):
        small = peak_activation_memory(tiny_model, (3, 16, 16))
        large = peak_activation_memory(tiny_model, (3, 32, 32))
        assert large > small

    def test_latency_scales_with_device_speed(self, tiny_model):
        slow = estimate_latency_ms(tiny_model, (3, 16, 16), STM32F411)
        fast = estimate_latency_ms(tiny_model, (3, 16, 16), STM32F746)
        assert slow > fast
        ratio = slow / fast
        expected = STM32F746.effective_macs_per_second / STM32F411.effective_macs_per_second
        assert ratio == pytest.approx(expected, rel=1e-6)

    def test_deployment_report_fits_real_targets(self, tiny_model):
        report = deployment_report(tiny_model, (3, 16, 16), STM32F746)
        assert report.fits_flash and report.fits_sram and report.fits
        assert "STM32F746" in report.summary()

    def test_tiny_device_rejects_big_activations(self, tiny_model):
        # A 1 kB SRAM device cannot hold even the input image.
        matchbox = DeviceProfile("matchbox", flash_kb=10_000, sram_kb=1, effective_macs_per_second=1e6)
        assert not fits_device(tiny_model, (3, 32, 32), matchbox)

    def test_device_registry_contains_known_profiles(self):
        assert {"STM32F411", "STM32F746", "STM32H743"} <= set(DEVICE_PROFILES)

    def test_invalid_device_profile_rejected(self):
        with pytest.raises(ValueError):
            DeviceProfile("broken", flash_kb=0, sram_kb=64, effective_macs_per_second=1e6)


class TestProfiler:
    def test_profile_shares_sum_to_one(self, tiny_model):
        profiles = profile_layers(tiny_model, (3, 16, 16))
        assert sum(p.flops_share for p in profiles) == pytest.approx(1.0, abs=1e-6)

    def test_profile_matches_complexity_totals(self, tiny_model):
        profiles = profile_layers(tiny_model, (3, 16, 16))
        report = count_complexity(tiny_model, (3, 16, 16))
        assert sum(p.flops for p in profiles) == report.flops

    def test_format_table_lists_total_and_layers(self, tiny_model):
        table = format_profile_table(tiny_model, (3, 16, 16), top_k=5)
        assert "total" in table
        assert "MFLOPs" in table
        # top_k limits the body rows: header, separator, 5 rows, separator, total.
        assert len(table.splitlines()) == 9

    def test_measure_latency_returns_positive_stats(self, tiny_model):
        stats = measure_latency(tiny_model, (3, 16, 16), repeats=2, warmup=0)
        assert stats["best_ms"] > 0
        assert stats["mean_ms"] >= stats["best_ms"]

    def test_measure_latency_validates_repeats(self, tiny_model):
        with pytest.raises(ValueError):
            measure_latency(tiny_model, (3, 16, 16), repeats=0)

    def test_measure_latency_reports_percentiles(self, tiny_model):
        stats = measure_latency(tiny_model, (3, 16, 16), repeats=7, warmup=0)
        assert stats["best_ms"] <= stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"]
        assert stats["p50_ms"] == pytest.approx(stats["median_ms"])

    def test_measure_latency_falls_back_only_on_compile_error(self, tiny_model, monkeypatch):
        """No eager fallback: compile errors propagate, ``compiled=False`` times eager."""
        import repro.runtime
        from repro.runtime import CompileError

        def reject(model, mode="infer", **kwargs):
            raise CompileError("not lowerable")

        monkeypatch.setattr(repro.runtime, "compile_model", reject)
        tiny_model.train()
        with pytest.raises(CompileError, match="not lowerable"):
            measure_latency(tiny_model, (3, 16, 16), repeats=1, warmup=0)
        assert tiny_model.training  # the failed compile left the mode alone
        eager = measure_latency(tiny_model, (3, 16, 16), repeats=1, warmup=0, compiled=False)
        assert eager["compiled"] == 0.0

        def broken(model, mode="infer", **kwargs):
            raise RuntimeError("compiler bug")

        monkeypatch.setattr(repro.runtime, "compile_model", broken)
        with pytest.raises(RuntimeError, match="compiler bug"):
            measure_latency(tiny_model, (3, 16, 16), repeats=1, warmup=0)

    def test_latency_percentiles_helper(self):
        stats = latency_percentiles([1.0, 2.0, 3.0, 4.0, 100.0])
        assert stats["p50_ms"] == pytest.approx(3.0)
        assert stats["p95_ms"] <= stats["p99_ms"] <= 100.0

    @pytest.mark.parametrize("plan_memory", [True, False])
    def test_deployment_report_propagates_unexpected_errors(
        self, tiny_model, monkeypatch, plan_memory
    ):
        import repro

        def broken(model, mode="infer"):
            raise RuntimeError("compiler bug")

        monkeypatch.setattr(repro, "compile", broken)
        with pytest.raises(RuntimeError, match="compiler bug"):
            deployment_report(
                tiny_model, (3, 16, 16), plan_memory=plan_memory, measure_cold_start=True
            )

    def test_deployment_report_compile_errors_propagate(self, tiny_model, monkeypatch):
        import repro

        def reject(model, mode="infer"):
            raise repro.CompileError("not lowerable")

        monkeypatch.setattr(repro, "compile", reject)
        with pytest.raises(repro.CompileError, match="not lowerable"):
            deployment_report(tiny_model, (3, 16, 16), measure_cold_start=True)

    def test_deployment_report_non_registry_model_has_no_cold_start(self, tiny_model):
        """A model built outside the registry cannot be saved as an artifact."""
        report = deployment_report(tiny_model, (3, 16, 16), measure_cold_start=True)
        assert report.planned_peak_int8_bytes > 0 and report.planner_backend == "float"
        assert report.cold_start_compile_ms is None and report.cold_start_load_ms is None
        assert report.artifact_bytes is None and report.artifact_mode is None

    def test_deployment_report_latency_repeats_knob(self, tiny_model):
        report = deployment_report(
            tiny_model, (3, 16, 16), measure_host_latency=True, latency_repeats=2
        )
        assert report.host_latency_ms is not None and report.host_latency_ms > 0
        with pytest.raises(ValueError):
            deployment_report(tiny_model, (3, 16, 16), latency_repeats=0)


class TestRobustness:
    def _dataset(self, rng, n=24, classes=3):
        images = rng.normal(0.4, 0.1, size=(n, 3, 16, 16)).astype(np.float32)
        labels = np.arange(n) % classes
        for i, label in enumerate(labels):
            images[i, 0] += 0.5 * label
        return ClassificationDataset(images, labels, classes)

    def test_report_structure(self, rng, tiny_model):
        dataset = self._dataset(rng)
        report = evaluate_robustness(
            tiny_model, dataset, corruptions=["gaussian_noise", "contrast"], severities=(1, 5)
        )
        assert set(report.per_corruption) == {"gaussian_noise", "contrast"}
        assert set(report.per_corruption["contrast"]) == {1, 5}
        assert 0.0 <= report.mean_corruption_accuracy <= 100.0
        assert "clean accuracy" in report.summary()

    def test_invalid_severity_rejected(self, rng, tiny_model):
        with pytest.raises(ValueError):
            evaluate_robustness(tiny_model, self._dataset(rng), severities=(0,))

    def test_trained_linear_probe_degrades_under_heavy_noise(self, rng):
        # A model that genuinely depends on the input should lose accuracy when
        # the inputs are drowned in noise.
        class Probe(nn.Module):
            def __init__(self):
                super().__init__()
                self.pool = nn.GlobalAvgPool2d()
                self.flatten = nn.Flatten()
                self.linear = nn.Linear(3, 3)

            def forward(self, x):
                return self.linear(self.flatten(self.pool(x)))

        dataset = self._dataset(rng, n=48)
        model = Probe()
        # Train the probe quickly on the separable toy data.
        from repro.optim import SGD
        from repro.nn import functional as F

        optimizer = SGD(model.parameters(), lr=0.5, momentum=0.9)
        for _ in range(60):
            optimizer.zero_grad()
            logits = model(nn.Tensor(dataset.images))
            loss = F.cross_entropy(logits, dataset.labels)
            loss.backward()
            optimizer.step()
        report = evaluate_robustness(model, dataset, corruptions=["gaussian_noise"], severities=(5,))
        assert report.clean_accuracy > 80.0
        assert report.per_corruption["gaussian_noise"][5] <= report.clean_accuracy
