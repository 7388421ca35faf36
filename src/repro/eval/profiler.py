"""Layer-by-layer profiling: analytic FLOPs/params tables and wall-clock timing.

Complements :mod:`repro.eval.complexity` (which returns aggregate counts) with
human-readable per-layer breakdowns — the kind of table an engineer inspects
to find where a TNN spends its budget — and a measured-latency helper for the
benchmark harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .. import nn
from .complexity import count_complexity

__all__ = [
    "LayerProfile",
    "profile_layers",
    "format_profile_table",
    "measure_latency",
    "latency_percentiles",
]


@dataclass
class LayerProfile:
    """Analytic cost of one conv / linear layer."""

    name: str
    kind: str
    flops: int
    params: int
    flops_share: float


def profile_layers(model: nn.Module, input_shape: tuple[int, int, int]) -> list[LayerProfile]:
    """Per-layer FLOPs and parameter counts, sorted by execution order."""
    report = count_complexity(model, input_shape)
    total_flops = max(report.flops, 1)
    profiles = []
    for name, (flops, params) in report.per_layer.items():
        module = model.get_submodule(name) if name else model
        kind = type(module).__name__
        profiles.append(
            LayerProfile(
                name=name or "<root>",
                kind=kind,
                flops=flops,
                params=params,
                flops_share=flops / total_flops,
            )
        )
    return profiles


def format_profile_table(model: nn.Module, input_shape: tuple[int, int, int], top_k: int | None = None) -> str:
    """Render the per-layer profile as an aligned text table.

    ``top_k`` keeps only the most expensive layers (by FLOPs), which is what a
    quick inspection usually wants; the aggregate row always reflects the full
    model.
    """
    profiles = profile_layers(model, input_shape)
    rows = sorted(profiles, key=lambda p: p.flops, reverse=True)
    if top_k is not None:
        rows = rows[:top_k]
    report = count_complexity(model, input_shape)
    header = f"{'layer':<44s} {'type':<10s} {'MFLOPs':>10s} {'params':>10s} {'share':>7s}"
    lines = [header, "-" * len(header)]
    for profile in rows:
        lines.append(
            f"{profile.name:<44s} {profile.kind:<10s} {profile.flops / 1e6:>10.3f} "
            f"{profile.params:>10d} {profile.flops_share:>6.1%}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{'total':<44s} {'':<10s} {report.mflops:>10.3f} {report.params:>10d} {'100.0%':>7s}"
    )
    return "\n".join(lines)


def latency_percentiles(timings_ms) -> dict[str, float]:
    """p50/p95/p99 summary of a latency sample, in milliseconds.

    Shared by :func:`measure_latency` and the serving stats: tail percentiles,
    not means, are what a serving SLO is written against.
    """
    timings = np.asarray(timings_ms, dtype=np.float64)
    p50, p95, p99 = np.percentile(timings, [50.0, 95.0, 99.0])
    return {"p50_ms": float(p50), "p95_ms": float(p95), "p99_ms": float(p99)}


def measure_latency(
    model: nn.Module,
    input_shape: tuple[int, int, int],
    repeats: int = 5,
    warmup: int = 1,
    batch_size: int = 1,
    compiled: bool = True,
) -> dict[str, float]:
    """Wall-clock forward-pass latency of the NumPy implementation.

    Returns mean / median / best latency plus the p50/p95/p99 percentiles in
    milliseconds (raise ``repeats`` for meaningful tails).  This measures the
    simulator, not an MCU — use :mod:`repro.eval.deployment` for device
    estimates — but it is the honest way to compare the *relative* cost of a
    vanilla TNN, its expanded deep giant and the contracted result.

    ``compiled=True`` (the default) times the fused :mod:`repro.runtime`
    program — the deployment-relevant number; pass ``compiled=False`` to time
    the eager autograd-tape forward instead.  Compile time is excluded.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    probe_data = np.zeros((batch_size,) + tuple(input_shape), dtype=np.float32)
    if compiled:
        from ..runtime import compile_model

        net = compile_model(model, mode="infer")
        forward = lambda: net.numpy_forward(probe_data)  # noqa: E731
    else:
        probe = nn.Tensor(probe_data)
        forward = lambda: model(probe)  # noqa: E731
    was_training = model.training
    model.eval()

    timings = []
    with nn.no_grad():
        for _ in range(warmup):
            forward()
        for _ in range(repeats):
            start = time.perf_counter()
            forward()
            timings.append((time.perf_counter() - start) * 1e3)
    model.train(was_training)
    stats = {
        "mean_ms": float(np.mean(timings)),
        "median_ms": float(np.median(timings)),
        "best_ms": float(np.min(timings)),
        # 1.0 when the fused runtime was timed, 0.0 for the eager forward.
        "compiled": 1.0 if compiled else 0.0,
    }
    stats.update(latency_percentiles(timings))
    return stats
