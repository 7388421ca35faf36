"""Training-throughput benchmarks for the Trainer's train step.

Measures end-to-end ``train_step`` throughput (data pipeline included) for
MobileNetV2-Tiny in two lanes:

* ``seed``      — the seed repo's training path, re-created: copy-based
  im2col convolution, log-softmax-chain cross-entropy, per-parameter SGD
  loop, per-image transforms;
* ``trainer``   — the current :class:`~repro.train.Trainer` (eager autograd
  tape with optimised kernels, fused cross-entropy, flat-buffer SGD, batched
  transforms);

plus a data-pipeline microbenchmark (batched vs per-image transforms), a
``corpus`` lane (the synthetic corpus every run starts by building: the
perfbench-scale ``SyntheticImageNet`` build, and microseconds per decoded
image at resolutions 12/20/32) and a ``distributed`` lane (aggregate steps/s of the data-parallel
:class:`~repro.train.DistributedTrainer` vs worker count, with a
single-worker bitwise-parity check).  Every median is recorded with its
quartiles (``<key>_p25`` / ``<key>_p75``), and the report records the host's
CPU count.  Results are written to ``BENCH_train.json``;
``scripts/check_bench.py`` gates regressions in CI.

Run with::

    PYTHONPATH=src python benchmarks/bench_train.py            # full sizes
    PYTHONPATH=src python benchmarks/bench_train.py --smoke    # CI-sized
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro import nn
from repro.data import (
    ClassificationDataset,
    Compose,
    DataLoader,
    DecoderSpec,
    Normalize,
    RandomCrop,
    RandomHorizontalFlip,
    RandomImageDecoder,
    SyntheticImageNet,
)
from repro.data.generator import DECODE_CHUNK
from repro.models import mobilenet_v2
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.optim import SGD
from repro.train import DistributedTrainer, Trainer
from repro.utils import ExperimentConfig, seed_everything

from bench_ops import interleaved_ms, quartiles, seed_conv2d


# --------------------------------------------------------------------------- #
# seed-path re-creations
# --------------------------------------------------------------------------- #
def seed_cross_entropy(logits: Tensor, targets: np.ndarray, label_smoothing: float = 0.0) -> Tensor:
    """The seed repo's cross entropy: log-softmax chain, ~10 tape nodes."""
    num_classes = logits.shape[-1]
    target_probs = F.one_hot(np.asarray(targets), num_classes)
    if label_smoothing > 0.0:
        target_probs = (1.0 - label_smoothing) * target_probs + label_smoothing / num_classes
    log_probs = F.log_softmax(logits, axis=-1)
    return -(Tensor(target_probs) * log_probs).sum(axis=-1).mean()


def seed_batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """The seed repo's batch norm, recreated verbatim.

    Materialises ``x_hat`` plus the textbook three-term backward — the path
    the fused moment-reduction kernels in ``repro.nn.functional`` replaced.
    """
    xd = x.data
    c = xd.shape[1]

    if training:
        mean = xd.mean(axis=(0, 2, 3))
        var = xd.var(axis=(0, 2, 3))
        count = xd.shape[0] * xd.shape[2] * xd.shape[3]
        unbiased = var * count / max(count - 1, 1)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        mean = running_mean
        var = running_var

    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (xd - mean.reshape(1, c, 1, 1)) * inv_std.reshape(1, c, 1, 1)
    out = gamma.data.reshape(1, c, 1, 1) * x_hat + beta.data.reshape(1, c, 1, 1)

    def backward(grad):
        grad = np.asarray(grad, dtype=xd.dtype)
        if gamma.requires_grad:
            gamma._accumulate((grad * x_hat).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            beta._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            g = gamma.data.reshape(1, c, 1, 1)
            if training:
                m = xd.shape[0] * xd.shape[2] * xd.shape[3]
                grad_xhat = grad * g
                sum_grad = grad_xhat.sum(axis=(0, 2, 3), keepdims=True)
                sum_grad_xhat = (grad_xhat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
                grad_x = (
                    inv_std.reshape(1, c, 1, 1)
                    * (grad_xhat - sum_grad / m - x_hat * sum_grad_xhat / m)
                )
            else:
                grad_x = grad * g * inv_std.reshape(1, c, 1, 1)
            x._accumulate(grad_x)

    return Tensor._make(out, (x, gamma, beta), backward)


class PerImage:
    """Hide a transform's ``batch`` method so the loader applies it per image."""

    def __init__(self, transform):
        self._transform = transform

    def __call__(self, image, rng):
        return self._transform(image, rng)


# --------------------------------------------------------------------------- #
# lanes
# --------------------------------------------------------------------------- #
def _dataset(samples: int, resolution: int, classes: int = 16) -> ClassificationDataset:
    rng = np.random.default_rng(0)
    images = rng.random((samples, 3, resolution, resolution)).astype(np.float32)
    labels = np.arange(samples) % classes
    return ClassificationDataset(images, labels, classes)


def _transform(per_image: bool = False):
    pipeline = Compose([RandomHorizontalFlip(), RandomCrop(2), Normalize()])
    return PerImage(pipeline) if per_image else pipeline


def _one_pass(step_fn, loader, min_steps: int) -> float:
    """Steps/sec of one timed pass of at least ``min_steps`` steps."""
    done = 0
    start = time.perf_counter()
    while done < min_steps:
        for images, labels in loader:
            step_fn(images, labels)
            done += 1
            if done >= min_steps:
                break
    return done / (time.perf_counter() - start)


class _SeedLane:
    """The seed repo's training path (conv/BN/CE/SGD/loader recreated)."""

    def __init__(self, dataset, batch: int):
        seed_everything(0)
        self.model = mobilenet_v2("tiny", num_classes=dataset.num_classes)
        self.optimizer = SGD(self.model.parameters(), lr=0.05, momentum=0.9, weight_decay=4e-5)
        self.loader = DataLoader(
            dataset, batch_size=batch, transform=_transform(per_image=True), seed=0,
        )

    def _step(self, images, labels):
        self.optimizer.zero_grad()
        loss = seed_cross_entropy(self.model(nn.Tensor(images)), labels)
        loss.backward()
        self.optimizer.step()

    def measure(self, min_steps: int) -> float:
        original_conv, original_bn = F.conv2d, F.batch_norm2d
        F.conv2d, F.batch_norm2d = seed_conv2d, seed_batch_norm2d
        try:
            return _one_pass(self._step, self.loader, min_steps)
        finally:
            F.conv2d, F.batch_norm2d = original_conv, original_bn

    def warmup(self):
        self.measure(1)


class _TrainerLane:
    """Current Trainer path."""

    def __init__(self, dataset, batch: int):
        seed_everything(0)
        model = mobilenet_v2("tiny", num_classes=dataset.num_classes)
        self.trainer = Trainer(model, ExperimentConfig(batch_size=batch, lr=0.05))
        self.loader = DataLoader(dataset, batch_size=batch, transform=_transform(), seed=0)

    def measure(self, min_steps: int) -> float:
        return _one_pass(self.trainer.train_step, self.loader, min_steps)

    def warmup(self):
        self.measure(1)


def bench_transforms(dataset, batch: int, repeats: int) -> dict:
    images = dataset.images[:batch]
    pipeline = _transform()
    rng = np.random.default_rng(0)
    timings = interleaved_ms(
        {
            "batched": lambda: pipeline.batch(images, rng),
            "per_image": lambda: np.stack([pipeline(img, rng) for img in images]),
        },
        repeats,
    )
    row = {**quartiles("batched_ms", timings["batched"]), **quartiles("per_image_ms", timings["per_image"])}
    row["speedup"] = row["per_image_ms"] / row["batched_ms"]
    return row


CORPUS_RESOLUTIONS = (12, 20, 32)


def bench_corpus(smoke: bool) -> dict:
    """Synthetic-corpus lane: the corpus build at perfbench scale (10 classes
    x 60 train + 100 val images, res 20, noise included) and the decoder's
    cost per image at resolutions 12, 20 and 32, timed interleaved."""
    images, repeats = (128, 3) if smoke else (1600, 15)
    latents = np.random.default_rng(0).normal(size=(images, 32)).astype(np.float32)
    fns = {
        "build": lambda: SyntheticImageNet(
            num_classes=10, samples_per_class=60, val_samples_per_class=100, resolution=20,
            signal_scale=4.0, intra_class_std=0.4, seed=1,
        )
    }
    for res in CORPUS_RESOLUTIONS:
        decoder = RandomImageDecoder(DecoderSpec(base_size=res // 4))
        fns[f"decode_r{res}"] = lambda decoder=decoder: decoder.decode_batch(latents)
    timings = interleaved_ms(fns, repeats)
    row = {
        "cpu_count": os.cpu_count(),
        "decode_chunk": DECODE_CHUNK,
        "decoded_images": images,
        "repeats": repeats,
        **quartiles("build_ms", timings["build"]),
    }
    for res in CORPUS_RESOLUTIONS:
        row.update(quartiles(f"decode_r{res}_us_per_image", [ms * 1e3 / images for ms in timings[f"decode_r{res}"]]))
    return row


DP_ROUNDS = 5


def bench_distributed(smoke: bool, max_workers: int | None) -> dict:
    """Data-parallel lane: aggregate steps/s vs worker count + bitwise flag.

    ``steps_per_sec`` counts optimiser steps summed over all workers, so with
    real cores the figure scales with the fleet; on a starved runner the
    workers time-slice one core and the ratio hovers near 1.0 (the
    ``check_train_dp`` gate is CPU-count-aware for exactly this reason).
    Each worker count is timed over ``DP_ROUNDS`` interleaved rounds
    (1, 2, target, 1, 2, target, ...), so host drift biases every count
    alike; ``scaling_vs_single`` is the ratio of the medians.
    """
    cpu_count = os.cpu_count() or 1
    if smoke:
        batch, resolution, samples, epochs = 8, 16, 64, 1
    else:
        batch, resolution, samples, epochs = 16, 16, 128, 2
    classes = 8
    dataset = _dataset(samples, resolution, classes=classes)

    def model_fn():
        return mobilenet_v2("tiny", num_classes=classes)

    # workers=1 must run the exact Trainer code path: verify bitwise parity
    # (parameters and BN statistics) before timing anything.
    parity_config = ExperimentConfig(epochs=1, batch_size=batch, lr=0.05, warmup_epochs=0)
    seed_everything(parity_config.seed)
    reference_model = model_fn()
    Trainer(reference_model, parity_config).fit(dataset)
    single = DistributedTrainer(model_fn, parity_config, workers=1)
    single.fit(dataset)
    reference_state = reference_model.state_dict()
    single_state = single.model.state_dict()
    single_worker_bitwise = all(
        np.array_equal(reference_state[name], single_state[name]) for name in reference_state
    )

    config = ExperimentConfig(epochs=epochs, batch_size=batch, lr=0.05, warmup_epochs=0)
    target = max_workers if max_workers else min(4, max(2, cpu_count))
    sweep = sorted({1, 2, target})
    rates: dict[int, list[float]] = {world: [] for world in sweep}
    for _round in range(DP_ROUNDS):
        for world in sweep:
            trainer = DistributedTrainer(model_fn, config, workers=world, topology="allreduce")
            trainer.fit(dataset)
            if not trainer.stats.consistent:
                raise RuntimeError(f"allreduce digests diverged at workers={world}")
            rates[world].append(trainer.stats.steps_per_sec)
    workers = {str(world): quartiles("steps_per_sec", rates[world]) for world in sweep}

    gossip = DistributedTrainer(model_fn, config, workers=2, topology="gossip")
    gossip.fit(dataset)

    return {
        "cpu_count": cpu_count,
        "model": "mobilenetv2-tiny",
        "batch_size": batch,
        "epochs": epochs,
        "single_worker_bitwise": single_worker_bitwise,
        "rounds": DP_ROUNDS,
        "workers": workers,
        "max_workers": target,
        "scaling_vs_single": workers[str(target)]["steps_per_sec"] / workers["1"]["steps_per_sec"],
        "gossip_workers": 2,
        "gossip_steps_per_sec": gossip.stats.steps_per_sec,
    }


def run_benchmarks(smoke: bool, max_workers: int | None = None) -> dict:
    if smoke:
        batch, resolution, samples, min_steps, repeats = 16, 16, 64, 6, 2
    else:
        # Full-resolution training workload (batch 64 at 32x32); the
        # orchestrator's table runs use the same batch size at 16-24 px.
        batch, resolution, samples, min_steps, repeats = 64, 32, 256, 24, 3
    dataset = _dataset(samples, resolution)

    # Lanes are measured interleaved, one pass per lane per round, so slow
    # drift of a shared machine biases every lane equally.
    lanes = {
        "seed": _SeedLane(dataset, batch),
        "trainer": _TrainerLane(dataset, batch),
    }
    rates: dict[str, list[float]] = {name: [] for name in lanes}
    for lane in lanes.values():
        lane.warmup()
    names = list(lanes)
    for round_index in range(repeats):
        # Rotate the order every round so no lane always inherits the same
        # machine state (allocator pressure, cache residue) from its
        # predecessor.
        for name in names[round_index % len(names) :] + names[: round_index % len(names)]:
            rates[name].append(lanes[name].measure(min_steps))
    train_step = {
        **quartiles("seed_steps_per_sec", rates["seed"]),
        **quartiles("trainer_steps_per_sec", rates["trainer"]),
    }
    train_step["speedup_trainer_vs_seed"] = (
        train_step["trainer_steps_per_sec"] / train_step["seed_steps_per_sec"]
    )

    return {
        "config": {
            "model": "mobilenetv2-tiny",
            "batch_size": batch,
            "resolution": resolution,
            "samples": samples,
            "min_steps": min_steps,
            "repeats": repeats,
        },
        "train_step": train_step,
        "transforms": bench_transforms(dataset, batch, repeats=5),
        "corpus": bench_corpus(smoke),
        "distributed": bench_distributed(smoke, max_workers),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes / few repeats (CI)")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="max worker count for the distributed lane (default: min(4, cpus))",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_train.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args()

    results = run_benchmarks(smoke=args.smoke, max_workers=args.workers)
    report = {
        "suite": "bench_train",
        "mode": "smoke" if args.smoke else "full",
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "benchmarks": results,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    train = results["train_step"]
    print(f"{'lane':<10s} {'steps/sec':>10s}")
    for lane in ("seed", "trainer"):
        print(f"{lane:<10s} {train[f'{lane}_steps_per_sec']:>10.2f}")
    print(f"\ntrainer vs seed:   {train['speedup_trainer_vs_seed']:.2f}x")
    tf = results["transforms"]
    print(f"batched transforms: {tf['speedup']:.2f}x vs per-image")
    corpus = results["corpus"]
    print(
        f"corpus build (1600 images, res 20): {corpus['build_ms']:.1f} ms | decode "
        + ", ".join(f"r{res} {corpus[f'decode_r{res}_us_per_image']:.1f} us/image" for res in CORPUS_RESOLUTIONS)
    )
    dp = results["distributed"]
    print(
        f"distributed ({dp['cpu_count']} cpus): "
        + ", ".join(f"{w}w {row['steps_per_sec']:.2f} steps/s" for w, row in dp["workers"].items())
        + f" | scaling {dp['scaling_vs_single']:.2f}x"
        + f" | bitwise@1w {'ok' if dp['single_worker_bitwise'] else 'FAIL'}"
    )
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
