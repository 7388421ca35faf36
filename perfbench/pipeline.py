"""The NetBooster paper path, once, single-threaded and with no cache.

expand MNv2-tiny -> train the giant -> PLT finetune -> contract -> evaluate
-> compile (float) -> quantize + calibrate -> compile (int8), then a vanilla
MNv2-tiny trained on the same epoch budget as the reference the paper beats.
``pipeline_s`` is the wall time of all of it.
"""

from __future__ import annotations

import copy
import statistics
import time
from dataclasses import dataclass

import numpy as np

import repro
import repro.train.trainer as trainer_module
from repro.compress import calibrate, quantize_model
from repro.core import ExpansionConfig, NetBooster, NetBoosterConfig, functional_equivalence
from repro.data import SyntheticImageNet
from repro.eval import count_complexity
from repro.models import create_model
from repro.train import Trainer
from repro.utils import ExperimentConfig, seed_everything

MODEL = "mobilenetv2-tiny"


@dataclass(frozen=True)
class PipelineScale:
    classes: int = 10
    train_per_class: int = 60
    val_per_class: int = 100  # the final top-1 is read on all of them
    epoch_val: int = 200  # the per-epoch validation inside fit reads only these
    resolution: int = 20
    batch_size: int = 32
    pretrain_epochs: int = 8
    finetune_epochs: int = 4
    calibration_batches: int = 4
    # Separable enough for ~90% top-1.  Near 45% (the corpus defaults) the
    # task each seed draws moved top-1 by a quarter of its value.
    signal_scale: float = 4.0
    intra_class_std: float = 0.4

    @classmethod
    def smoke(cls) -> "PipelineScale":
        return cls(classes=4, train_per_class=8, val_per_class=4, epoch_val=8, resolution=12,
                   batch_size=16, pretrain_epochs=1, finetune_epochs=1, calibration_batches=1)


@dataclass
class PipelineResult:
    corpus: SyntheticImageNet
    contracted: object
    build_s: float
    pipeline_s: float
    train_samples: int
    train_s: float
    top1_contracted: float
    top1_vanilla: float
    checks: dict


def _build(scale: PipelineScale, seed: int):
    seed_everything(seed)
    corpus = SyntheticImageNet(
        num_classes=scale.classes,
        samples_per_class=scale.train_per_class,
        val_samples_per_class=scale.val_per_class,
        resolution=scale.resolution,
        signal_scale=scale.signal_scale,
        intra_class_std=scale.intra_class_std,
        seed=seed,
    )
    seed_everything(seed + 1)
    tiny = create_model(MODEL, num_classes=scale.classes)
    return corpus, tiny


def run_pipeline(scale: PipelineScale, seed: int, tracer, setup_repeats: int) -> PipelineResult:
    build_times = []
    for _ in range(setup_repeats):
        t0 = time.perf_counter()
        corpus, tiny = _build(scale, seed)
        build_times.append(time.perf_counter() - t0)
    vanilla = copy.deepcopy(tiny)  # same initial weights as the net NetBooster expands
    shape = (3, scale.resolution, scale.resolution)
    epoch_val = corpus.val.subset(np.arange(scale.epoch_val))
    pretrain = ExperimentConfig(epochs=scale.pretrain_epochs, batch_size=scale.batch_size, lr=0.1, seed=seed)
    finetune = ExperimentConfig(epochs=scale.finetune_epochs, batch_size=scale.batch_size, lr=0.03, seed=seed)
    booster = NetBooster(NetBoosterConfig(
        expansion=ExpansionConfig(), pretrain=pretrain, finetune=finetune, plt_decay_fraction=0.3,
    ))
    fit_s = 0.0

    t_start = time.perf_counter()
    with tracer.span("pipeline"):
        with tracer.span("core.expand"):
            giant, records = booster.build_giant(tiny)
        tracer.phase = "giant"
        t0 = time.perf_counter()
        booster.pretrain_giant(giant, corpus.train, epoch_val)
        tracer.phase = "plt"
        booster.plt_finetune(giant, corpus.train, epoch_val)
        fit_s += time.perf_counter() - t0
        with tracer.span("core.contract"):
            contracted = booster.contract(giant, records)
        top1_contracted = trainer_module.evaluate(contracted, corpus.val)
        repro.compile(contracted)
        quantized = copy.deepcopy(contracted)
        with tracer.span("compress.quantize"):
            quantize_model(quantized)
        batches = [corpus.train.images[i * scale.batch_size:(i + 1) * scale.batch_size]
                   for i in range(scale.calibration_batches)]
        with tracer.span("compress.calibrate"):
            calibrate(quantized, batches)
        repro.compile(quantized, mode="int8")
        # The vanilla reference belongs to the experiment; it also doubles the
        # work pipeline_s averages over (expand -> int8 alone spread ~0.23).
        tracer.phase = "vanilla"
        vanilla_config = pretrain.replace(epochs=scale.pretrain_epochs + scale.finetune_epochs)
        t0 = time.perf_counter()
        Trainer(vanilla, vanilla_config).fit(corpus.train, epoch_val)
        fit_s += time.perf_counter() - t0
        top1_vanilla = trainer_module.evaluate(vanilla, corpus.val)
    pipeline_s = time.perf_counter() - t_start
    epochs = 2 * (scale.pretrain_epochs + scale.finetune_epochs)

    # Contraction is exact once PLT has made every expanded activation linear.
    equivalence = functional_equivalence(giant, contracted, shape)
    cost_contracted = count_complexity(contracted, shape)
    cost_vanilla = count_complexity(vanilla, shape)
    checks = {
        "contracted_equals_linear_giant": bool(equivalence.matches(1e-3)),
        "contracted_cost_equals_vanilla": (cost_contracted.flops, cost_contracted.params)
        == (cost_vanilla.flops, cost_vanilla.params),
    }
    if tracer.enabled:
        net = repro.compile(giant)
        tracer.count("runtime.eager_nodes", _count_eager(net.graph))
    return PipelineResult(
        corpus=corpus,
        contracted=contracted,
        build_s=statistics.median(build_times),
        pipeline_s=pipeline_s,
        train_samples=epochs * len(corpus.train),
        train_s=fit_s,
        top1_contracted=float(top1_contracted),
        top1_vanilla=float(top1_vanilla),
        checks=checks,
    )


def _count_eager(graph) -> int:
    total = 0
    for node in graph.nodes:
        if node.kind == "eager":
            total += 1
        if node.body is not None:
            total += _count_eager(node.body)
    return total


def pipeline_layers(tracer, result: PipelineResult) -> dict:
    """Per-layer metrics of the pipeline half, from the traced run's spans."""
    steps = max(tracer.counters.get("train.steps", 0), 1)
    gap = 1e3 * result.pipeline_s - tracer.child_total_ms("pipeline")
    return {
        "data.wait_ms": (tracer.total_ms("data.wait") / steps, "ms"),
        "train.giant_step_ms": (tracer.mean_ms("train.giant_step"), "ms"),
        "train.plt_step_ms": (tracer.mean_ms("train.plt_step"), "ms"),
        "train.vanilla_step_ms": (tracer.mean_ms("train.vanilla_step"), "ms"),
        "runtime.train_step_ms": (tracer.mean_ms("runtime.train_step"), "ms"),
        "train.eager_steps": (tracer.counters.get("train.eager_steps", 0), "count"),
        "optim.step_ms": (tracer.mean_ms("optim.step"), "ms"),
        "train.eval_ms": (tracer.total_ms("train.eval", root="pipeline"), "ms"),
        "runtime.compile_ms": (tracer.total_ms("runtime.compile", root="pipeline"), "ms"),
        "runtime.compiles": (len(tracer.durations("runtime.compile", root="pipeline"))
                             + len(tracer.durations("runtime.int8_compile", root="pipeline")), "count"),
        "runtime.eager_nodes": (tracer.counters.get("runtime.eager_nodes", 0), "count"),
        "core.expand_ms": (tracer.total_ms("core.expand"), "ms"),
        "core.plt_step_ms": (tracer.mean_ms("core.plt_step"), "ms"),
        "core.contract_ms": (tracer.total_ms("core.contract"), "ms"),
        "compress.calibrate_ms": (tracer.total_ms("compress.calibrate"), "ms"),
        "runtime.int8_compile_ms": (tracer.total_ms("runtime.int8_compile", root="pipeline"), "ms"),
        "pipeline.gap_ms": (gap, "ms"),
    }
