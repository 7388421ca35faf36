#!/usr/bin/env python
"""CI smoke test for data-parallel distributed training.

Runs a 2-worker MobileNetV2-Tiny job under both topologies and asserts the
whole distributed-training contract end to end:

* ``workers=1`` is bitwise identical to the single-process :class:`Trainer`
  (parameters and batch-norm statistics);
* a 2-worker ``allreduce`` run finishes with byte-identical replicas
  (crc32-digest lockstep) and a sane, finite loss curve;
* the allreduce loss curve tracks the single-process curve (same global
  batch stream, averaged gradients — the curves differ only through update
  granularity, so they must agree coarsely);
* a 2-worker ``gossip`` run finishes, reaches consensus, and also produces a
  finite decreasing loss curve.

Sized for starved CI runners (a single CPU time-shares the workers); this is
a correctness smoke, not a throughput benchmark — `bench_train.py` owns the
scaling numbers.

Run with::

    PYTHONPATH=src python scripts/dp_smoke.py
"""

from __future__ import annotations

import sys

import numpy as np

from repro.data import SyntheticImageNet
from repro.models import mobilenet_v2
from repro.train import DistributedTrainer, Trainer
from repro.utils import ExperimentConfig, seed_everything

CLASSES = 8


def model_fn():
    return mobilenet_v2("tiny", num_classes=CLASSES)


def main() -> int:
    data = SyntheticImageNet(
        num_classes=CLASSES, samples_per_class=8, val_samples_per_class=2, resolution=16
    )
    config = ExperimentConfig(epochs=2, batch_size=8, lr=0.05, warmup_epochs=0)
    failures: list[str] = []

    # --- single-worker bitwise parity -------------------------------------- #
    seed_everything(config.seed)
    reference_model = model_fn()
    reference = Trainer(reference_model, config)
    reference_history = reference.fit(data.train)
    single = DistributedTrainer(model_fn, config, workers=1)
    single_history = single.fit(data.train)
    reference_state = reference_model.state_dict()
    single_state = single.model.state_dict()
    mismatched = [
        name
        for name in reference_state
        if not np.array_equal(reference_state[name], single_state[name])
    ]
    if mismatched:
        failures.append(f"workers=1 not bitwise identical to Trainer: {mismatched[:5]}")
    if reference_history.train_loss != single_history.train_loss:
        failures.append(
            f"workers=1 loss curve diverged: {single_history.train_loss} vs "
            f"{reference_history.train_loss}"
        )

    # --- 2-worker allreduce: lockstep + loss-curve parity ------------------ #
    allreduce = DistributedTrainer(model_fn, config, workers=2, topology="allreduce")
    allreduce_history = allreduce.fit(data.train, data.val)
    if not allreduce.stats.consistent:
        failures.append("allreduce replicas not byte-identical at end of run")
    losses = allreduce_history.train_loss
    if not all(np.isfinite(loss) for loss in losses):
        failures.append(f"allreduce loss curve not finite: {losses}")
    if losses[-1] >= losses[0]:
        failures.append(f"allreduce loss did not decrease: {losses}")
    # Same data, averaged gradients: epoch losses must track the
    # single-process curve coarsely (identical batches, coarser updates).
    deltas = [abs(a - b) for a, b in zip(losses, reference_history.train_loss)]
    if max(deltas) > 1.0:
        failures.append(
            f"allreduce loss curve far from single-process curve: {losses} vs "
            f"{reference_history.train_loss}"
        )
    if len(allreduce_history.val_accuracy) != config.epochs:
        failures.append("allreduce run recorded no per-epoch validation accuracy")

    # --- 2-worker gossip: finishes + consensus ----------------------------- #
    gossip = DistributedTrainer(model_fn, config, workers=2, topology="gossip")
    gossip_history = gossip.fit(data.train)
    if not gossip.stats.consistent:
        failures.append("gossip consensus allreduce left replicas unequal")
    g_losses = gossip_history.train_loss
    if not all(np.isfinite(loss) for loss in g_losses):
        failures.append(f"gossip loss curve not finite: {g_losses}")
    if g_losses[-1] >= g_losses[0]:
        failures.append(f"gossip loss did not decrease: {g_losses}")

    print(f"single-process loss curve: {[round(l, 4) for l in reference_history.train_loss]}")
    print(f"allreduce  (2w) loss curve: {[round(l, 4) for l in losses]}")
    print(f"gossip     (2w) loss curve: {[round(l, 4) for l in g_losses]}")
    print(
        f"allreduce {allreduce.stats.steps_per_sec:.2f} aggregate steps/s, "
        f"gossip {gossip.stats.steps_per_sec:.2f}, "
        f"bitwise@1w {'ok' if not mismatched else 'FAIL'}"
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("distributed smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
