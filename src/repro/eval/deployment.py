"""MCU deployment analysis: memory footprint, latency estimate, device fit.

The paper's motivation is deploying TNNs on IoT-class hardware (MCUNet's
STM32-style targets).  This module provides the analytic deployment checks a
practitioner runs before flashing a model:

* weight (flash) footprint at a chosen word length;
* peak activation (SRAM) footprint, taken as the largest simultaneous
  input+output working set across layers — the standard MCUNet approximation;
* a simple roofline latency estimate from the MAC count and the device's
  effective MACs/second;
* :func:`fits_device` combining all three against a device profile.

Because NetBooster restores the original TNN structure after contraction,
the deployment report of a NetBooster-trained model must be identical to that
of the vanilla model — a property asserted in the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from .complexity import count_complexity, count_parameters

__all__ = [
    "DeviceProfile",
    "STM32F411",
    "STM32F746",
    "STM32H743",
    "DEVICE_PROFILES",
    "activation_footprints",
    "peak_activation_memory",
    "weight_memory",
    "estimate_latency_ms",
    "DeploymentReport",
    "deployment_report",
    "fits_device",
]


@dataclass(frozen=True)
class DeviceProfile:
    """A microcontroller target for deployment feasibility checks.

    ``effective_macs_per_second`` folds clock frequency and per-cycle MAC
    throughput (including the memory stalls typical of CMSIS-NN kernels) into
    a single number, which is all a roofline estimate needs.
    """

    name: str
    flash_kb: int
    sram_kb: int
    effective_macs_per_second: float

    def __post_init__(self):
        if self.flash_kb <= 0 or self.sram_kb <= 0 or self.effective_macs_per_second <= 0:
            raise ValueError("device resources must be positive")


# Representative profiles from the MCUNet / TinyML literature.
STM32F411 = DeviceProfile("STM32F411", flash_kb=512, sram_kb=128, effective_macs_per_second=25e6)
STM32F746 = DeviceProfile("STM32F746", flash_kb=1024, sram_kb=320, effective_macs_per_second=80e6)
STM32H743 = DeviceProfile("STM32H743", flash_kb=2048, sram_kb=512, effective_macs_per_second=160e6)

DEVICE_PROFILES = {profile.name: profile for profile in (STM32F411, STM32F746, STM32H743)}


def _trace_leaf_shapes(
    model: nn.Module, input_shape: tuple[int, int, int]
) -> list[tuple[str, tuple[int, ...], tuple[int, ...]]]:
    """Record (name, input shape, output shape) for every leaf layer."""
    records: list[tuple[str, tuple[int, ...], tuple[int, ...]]] = []
    originals: list[tuple[nn.Module, object]] = []
    try:
        for name, module in model.named_modules():
            if module.children():
                continue  # only leaves carry activations worth counting

            def make_wrapper(mod, mod_name, original_forward):
                def wrapped(x, *args, **kwargs):
                    out = original_forward(x, *args, **kwargs)
                    if isinstance(x, nn.Tensor) and isinstance(out, nn.Tensor):
                        records.append((mod_name, x.shape, out.shape))
                    return out

                return wrapped

            originals.append((module, module.forward))
            module.forward = make_wrapper(module, name, module.forward)
        probe = nn.Tensor(np.zeros((1,) + tuple(input_shape), dtype=np.float32))
        was_training = model.training
        model.eval()
        with nn.no_grad():
            model(probe)
        model.train(was_training)
    finally:
        for module, forward in originals:
            module.forward = forward
    return records


def activation_footprints(
    model: nn.Module, input_shape: tuple[int, int, int], bytes_per_element: int = 1
) -> dict[str, int]:
    """Per-layer working-set size (input + output activations) in bytes."""
    footprints: dict[str, int] = {}
    for name, in_shape, out_shape in _trace_leaf_shapes(model, input_shape):
        working_set = int(np.prod(in_shape)) + int(np.prod(out_shape))
        footprints[name] = working_set * bytes_per_element
    return footprints


def peak_activation_memory(
    model: nn.Module, input_shape: tuple[int, int, int], bytes_per_element: int = 1
) -> int:
    """Peak SRAM usage in bytes under layer-by-layer execution."""
    footprints = activation_footprints(model, input_shape, bytes_per_element)
    return max(footprints.values()) if footprints else 0


def weight_memory(model: nn.Module, bytes_per_parameter: int = 1) -> int:
    """Flash footprint of the weights in bytes (int8 by default)."""
    return count_parameters(model) * bytes_per_parameter


def estimate_latency_ms(
    model: nn.Module,
    input_shape: tuple[int, int, int],
    device: DeviceProfile,
) -> float:
    """Roofline latency estimate: MAC count divided by device throughput."""
    report = count_complexity(model, input_shape)
    return report.flops / device.effective_macs_per_second * 1e3


@dataclass
class DeploymentReport:
    """Feasibility summary for one model on one device.

    ``host_latency_ms`` is optionally filled with the measured latency of the
    fused :mod:`repro.runtime` program on the development host — a sanity
    anchor next to the analytic device roofline estimate.

    ``planned_peak_int8_bytes`` is the compiled runtime's arena-planner peak
    working set (liveness-packed buffers at one logical byte per activation):
    the *executable* plan of the int8 engine for calibrated quantized models,
    or the float program's executable plan otherwise —
    ``planner_backend`` records which.  It sits next to the analytic
    ``peak_sram_bytes`` approximation (``max(layer input + output)``).
    """

    device: DeviceProfile
    flash_bytes: int
    peak_sram_bytes: int
    latency_ms: float
    mflops: float
    host_latency_ms: float | None = None
    host_latency_backend: str | None = None
    planned_peak_int8_bytes: int | None = None
    planner_backend: str | None = None
    cold_start_compile_ms: float | None = None
    cold_start_load_ms: float | None = None
    artifact_bytes: int | None = None
    artifact_mode: str | None = None

    @property
    def fits_flash(self) -> bool:
        return self.flash_bytes <= self.device.flash_kb * 1024

    @property
    def fits_sram(self) -> bool:
        return self.peak_sram_bytes <= self.device.sram_kb * 1024

    @property
    def fits(self) -> bool:
        return self.fits_flash and self.fits_sram

    def summary(self) -> str:
        flash_status = "ok" if self.fits_flash else "OVER"
        sram_status = "ok" if self.fits_sram else "OVER"
        lines = [
            f"device            : {self.device.name}",
            f"flash (weights)   : {self.flash_bytes / 1024:8.1f} kB / {self.device.flash_kb} kB [{flash_status}]",
            f"peak SRAM (act.)  : {self.peak_sram_bytes / 1024:8.1f} kB / {self.device.sram_kb} kB [{sram_status}]",
            f"estimated latency : {self.latency_ms:8.1f} ms",
            f"compute           : {self.mflops:8.1f} MFLOPs",
        ]
        if self.planned_peak_int8_bytes is not None:
            backend = self.planner_backend or "unknown backend"
            lines.insert(
                3,
                f"planned peak SRAM : {self.planned_peak_int8_bytes / 1024:8.1f} kB ({backend} arena plan)",
            )
        if self.host_latency_ms is not None:
            backend = self.host_latency_backend or "unknown backend"
            lines.append(f"host latency      : {self.host_latency_ms:8.2f} ms ({backend})")
        if self.cold_start_compile_ms is not None:
            lines.append(
                f"cold start        : {self.cold_start_compile_ms:8.2f} ms compile vs "
                f"{self.cold_start_load_ms:.2f} ms artifact load "
                f"({(self.artifact_bytes or 0) / 1024:.0f} kB {self.artifact_mode} artifact)"
            )
        return "\n".join(lines)


def _planned_peak_bytes(model: nn.Module, input_shape: tuple[int, int, int]) -> tuple[int, str]:
    """Arena-planner peak working set of the compiled runtime, in int8 bytes.

    Uses the int8 engine's executable plan when the model is quantized and
    calibrated, the float program's executable plan otherwise.  Every model
    compiles (a module the tracer does not know runs as an eager node), so a
    ``CompileError`` here is a fault and propagates.
    """
    import repro

    mode, backend = ("int8", "int8") if _is_calibrated_int8(model) else ("infer", "float")
    plan = repro.compile(model, mode=mode).memory_plan((1,) + tuple(input_shape))
    return plan.peak_value_int8_bytes, backend


def _is_calibrated_int8(model: nn.Module) -> bool:
    """True when the model lowers to the int8 engine (quantized + calibrated)."""
    from ..compress.quantization import _QuantizedWrapper

    wrappers = [m for _, m in model.named_modules() if isinstance(m, _QuantizedWrapper)]
    return bool(wrappers) and all(
        not m.observing and m.input_qparams() is not None for m in wrappers
    )


def _cold_start_times(
    model: nn.Module, input_shape: tuple[int, int, int], repeats: int = 3
) -> tuple[float, float, int, str] | tuple[None, None, None, None]:
    """Best-of-``repeats`` compile-from-model vs load-from-artifact times (ms).

    The deployment question this answers: once the artifact file exists, how
    much replica boot time does loading it save over recompiling the prepared
    model?  (``repro.serve``'s bench additionally charges the compile path
    for model init, quantization and calibration — the full boot story.)
    All four fields are ``None`` when the model cannot be saved as an
    artifact (one built outside the model registry has no reference to
    rebuild it from).
    """
    import os
    import tempfile
    import time

    import repro
    from ..runtime import load_artifact

    mode = "int8" if _is_calibrated_int8(model) else "infer"
    fd, path = tempfile.mkstemp(suffix=".rpa")
    os.close(fd)
    try:
        compile_times = []
        net = None
        for _ in range(repeats):
            start = time.perf_counter()
            net = repro.compile(model, mode=mode)
            compile_times.append((time.perf_counter() - start) * 1e3)
        net.save(path, input_shape=input_shape)
        size = os.path.getsize(path)
        load_times = []
        for _ in range(repeats):
            start = time.perf_counter()
            load_artifact(path)
            load_times.append((time.perf_counter() - start) * 1e3)
        return min(compile_times), min(load_times), size, mode
    except repro.ArtifactError:
        return None, None, None, None
    finally:
        os.unlink(path)


def deployment_report(
    model: nn.Module,
    input_shape: tuple[int, int, int],
    device: DeviceProfile = STM32F746,
    weight_bytes: int = 1,
    activation_bytes: int = 1,
    measure_host_latency: bool = False,
    latency_repeats: int = 5,
    plan_memory: bool = True,
    measure_cold_start: bool = False,
) -> DeploymentReport:
    """Build a :class:`DeploymentReport` for ``model`` on ``device``.

    Defaults assume int8 deployment (one byte per weight and per activation).
    ``measure_host_latency=True`` additionally times the model through the
    fused :mod:`repro.runtime` inference engine on this machine;
    ``latency_repeats`` controls how many timed runs back that number (raise
    it when the p95/p99 tail matters more than wall-clock budget).

    ``plan_memory=True`` (the default) also compiles the model through
    :func:`repro.compile` and reports the arena planner's liveness-packed
    peak working set next to the analytic ``max(input + output)``
    approximation — the int8 engine's executable plan for calibrated
    quantized models, the float program's planning pass otherwise.

    ``measure_cold_start=True`` times compiling the prepared model against
    loading it back from a compiled artifact (:mod:`repro.runtime.artifact`)
    and reports both next to the artifact's file size — the recompile-vs-load
    side of replica boot time.
    """
    if latency_repeats < 1:
        raise ValueError("latency_repeats must be at least 1")
    complexity = count_complexity(model, input_shape)
    host_latency_ms = None
    host_latency_backend = None
    if measure_host_latency:
        from .profiler import measure_latency

        stats = measure_latency(model, input_shape, repeats=latency_repeats, compiled=True)
        host_latency_ms = stats["median_ms"]
        host_latency_backend = "compiled runtime" if stats.get("compiled") else "eager forward"
    planned_peak, planner_backend = (
        _planned_peak_bytes(model, input_shape) if plan_memory else (None, None)
    )
    cold_compile, cold_load, artifact_bytes, artifact_mode = (
        _cold_start_times(model, input_shape) if measure_cold_start else (None, None, None, None)
    )
    return DeploymentReport(
        device=device,
        flash_bytes=weight_memory(model, weight_bytes),
        peak_sram_bytes=peak_activation_memory(model, input_shape, activation_bytes),
        latency_ms=complexity.flops / device.effective_macs_per_second * 1e3,
        mflops=complexity.mflops,
        host_latency_ms=host_latency_ms,
        host_latency_backend=host_latency_backend,
        planned_peak_int8_bytes=planned_peak,
        planner_backend=planner_backend,
        cold_start_compile_ms=cold_compile,
        cold_start_load_ms=cold_load,
        artifact_bytes=artifact_bytes,
        artifact_mode=artifact_mode,
    )


def fits_device(
    model: nn.Module,
    input_shape: tuple[int, int, int],
    device: DeviceProfile = STM32F746,
) -> bool:
    """True when the model's weights and activations fit the device."""
    return deployment_report(model, input_shape, device, plan_memory=False).fits
