"""Data-parallel distributed training over flat parameter buffers.

:class:`DistributedTrainer` spreads one training run across ``workers``
processes.  Each worker holds its own model replica and :class:`Trainer`
(eager autograd tape), accumulates gradients straight into its
:class:`~repro.optim.FlatParams` gradient buffer, and synchronises through a
:class:`~repro.optim.allreduce.ReductionArena` — a double-buffered
``multiprocessing.shared_memory`` segment with a pipe-based barrier, so one
synchronisation is a handful of whole-buffer vector ops rather than
per-parameter traffic.

Two topologies:

``topology="allreduce"``
    Synchronous data parallelism.  After every backward pass the flat
    gradient buffers are globally mean-reduced (chunked reduce-scatter +
    all-gather), then every worker applies the *same* vectorised
    :class:`~repro.optim.FlatSGD` update — replicas stay bitwise identical
    in lockstep, which the trainer asserts at the end of every fit.

``topology="gossip"``
    DACFL-style decentralised averaging.  Workers take *local* optimiser
    steps and then average their parameter buffers with their left/right
    ring neighbours — no global reduction, no central server.  Replicas
    drift within the consensus band and are ring-averaged into one model at
    the end of the run.

Determinism contract:

* every worker derives the **same epoch plan** from the loader seed and
  yields only its disjoint shard of batch indices (see
  :class:`~repro.data.DataLoader`'s ``shard``), so the union of shards is
  exactly the single-process epoch;
* ``workers=1`` runs the identical code path as :class:`Trainer` (same
  loader stream, same train step, same flat-buffer update, no
  collectives) and is **bitwise identical** to it — parameters and
  batch-norm statistics match to the last bit;
* for fixed ``workers=N`` the run is deterministic: reductions sum in
  ascending rank order over the same shards every time.

The ragged tail of an epoch (``num_batches % workers != 0``) keeps the
collectives aligned: workers without a batch in the final round contribute a
zeroed gradient buffer (the mean is scaled by the number of contributors)
and still apply the identical update, so replicas never desynchronise.

Quickstart::

    from repro.train import DistributedTrainer

    trainer = DistributedTrainer(
        lambda: mobilenet_v2("tiny", num_classes=16),
        ExperimentConfig(epochs=4, batch_size=64, lr=0.1),
        workers=4, topology="allreduce",
    )
    history = trainer.fit(train_set, val_set)
    model = trainer.model            # consensus model, parent process
    print(trainer.stats.steps_per_sec)
"""

from __future__ import annotations

import math
import time
import traceback
import zlib
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context, shared_memory
from typing import Callable

import numpy as np

from .. import nn
from ..data.dataloader import DataLoader
from ..optim import FlatSGD
from ..optim.allreduce import PipeBarrier, ReductionArena, arena_nbytes
from ..utils.config import ExperimentConfig
from ..utils.seed import seed_everything
from .metrics import AverageMeter, accuracy
from .trainer import LossComputer, Trainer, TrainingHistory

__all__ = ["DistributedTrainer", "DistTrainStats", "TOPOLOGIES"]

TOPOLOGIES = ("allreduce", "gossip")


# --------------------------------------------------------------------------- #
# gradient/parameter-synchronising optimisers
# --------------------------------------------------------------------------- #
class _AllreduceSGD(FlatSGD):
    """FlatSGD whose ``step`` first mean-reduces the flat gradient buffer.

    The reduction happens *between* gradient accumulation and the vectorised
    update, so every replica applies the identical averaged gradient to
    identical parameters with identical momentum — lockstep by construction.
    ``contributors`` is set per round by the training loop to handle the
    ragged epoch tail (zero-gradient participants don't dilute the mean).
    """

    arena: ReductionArena | None = None
    contributors: int = 1

    def step(self) -> None:
        self.flat.sync_grads()
        self.arena.allreduce(self.flat.grad, contributors=self.contributors)
        super().step()


class _GossipSGD(FlatSGD):
    """FlatSGD that ring-averages *parameters* with its neighbours after each step."""

    arena: ReductionArena | None = None

    def step(self) -> None:
        super().step()
        self.arena.gossip(self.flat.data)


@dataclass
class DistTrainStats:
    """Throughput and consistency figures of the last :meth:`DistributedTrainer.fit`."""

    workers: int
    topology: str
    aggregate_steps: int
    wall_s: float
    steps_per_sec: float
    param_count: int
    arena_bytes: int
    consistent: bool


@dataclass
class _WorkerSpec:
    """Everything a worker process needs to reconstruct its trainer."""

    model_fn: Callable[[], nn.Module]
    config: ExperimentConfig
    workers: int
    topology: str
    loss_computer: LossComputer | None
    train_transform: object | None
    resume_from: str | None
    barrier_timeout_s: float


def _flat_param_count(model: nn.Module) -> int:
    """Size of the flat buffer a ``FlatSGD`` over this model will build."""
    seen: set[int] = set()
    total = 0
    for param in model.parameters():
        if param.requires_grad and id(param) not in seen:
            seen.add(id(param))
            total += param.data.size
    return total


# --------------------------------------------------------------------------- #
# worker process
# --------------------------------------------------------------------------- #
def _worker_main(rank, spec, train_set, val_set, epochs, arena_name, barrier_conns, conn):
    """Entry point of one training worker (module-level for spawn picklability)."""
    shm = arena = None
    try:
        world = spec.workers
        config = spec.config
        # Same seeding a single-process run performs before building its
        # model: replicas initialise bitwise identically on every worker.
        seed_everything(config.seed)
        model = spec.model_fn()
        opt_kwargs = dict(
            lr=config.lr, momentum=config.momentum, weight_decay=config.weight_decay
        )
        if world == 1:
            optimizer = FlatSGD(model.parameters(), **opt_kwargs)
        elif spec.topology == "allreduce":
            optimizer = _AllreduceSGD(model.parameters(), **opt_kwargs)
        else:
            optimizer = _GossipSGD(model.parameters(), **opt_kwargs)
        if world > 1:
            barrier = PipeBarrier(rank, world, barrier_conns, timeout=spec.barrier_timeout_s)
            shm = shared_memory.SharedMemory(name=arena_name)
            arena = ReductionArena(shm, world, optimizer.flat.size, rank, barrier)
            optimizer.arena = arena
        trainer = Trainer(
            model,
            config,
            loss_computer=spec.loss_computer,
            optimizer=optimizer,
        )
        if spec.resume_from is not None:
            trainer.load_checkpoint(spec.resume_from)
        loader = DataLoader(
            train_set,
            batch_size=config.batch_size,
            shuffle=True,
            transform=spec.train_transform,
            seed=config.seed,
            shard=(rank, world) if world > 1 else None,
        )
        total_batches = loader.num_global_batches
        rounds = math.ceil(total_batches / world) if total_batches else 0
        steps_done = 0
        for epoch in range(epochs):
            lr = trainer.scheduler.step()
            loss_meter = AverageMeter("loss")
            acc_meter = AverageMeter("accuracy")
            model.train()
            batches = iter(loader)
            for round_index in range(rounds):
                batch_index = round_index * world + rank
                contributors = min(world, total_batches - round_index * world)
                if isinstance(optimizer, _AllreduceSGD):
                    optimizer.contributors = contributors
                if batch_index < total_batches:
                    images, labels = next(batches)
                    loss, logits = trainer.train_step(images, labels)
                    loss_meter.update(loss, n=len(labels))
                    acc_meter.update(accuracy(logits, labels), n=len(labels))
                    steps_done += 1
                else:
                    # Ragged epoch tail: no local batch, but the collective
                    # must stay aligned.  Publish a zeroed gradient and apply
                    # the identical averaged update (allreduce), or keep
                    # participating in the ring average (gossip).
                    optimizer.zero_grad()
                    if isinstance(optimizer, _AllreduceSGD):
                        optimizer.step()
                    else:
                        arena.gossip(optimizer.flat.data)
            val_accuracy = None
            if val_set is not None and rank == 0:
                val_accuracy = trainer.evaluate(val_set)
            conn.send((
                "epoch", rank, epoch, lr,
                loss_meter.average, acc_meter.average, loss_meter.count, val_accuracy,
            ))
        if world > 1 and spec.topology == "gossip":
            # Final consensus: ring-average the drifted replicas into one
            # model (the decentralised analogue of pulling rank 0's weights).
            arena.allreduce(optimizer.flat.data)
        digest = zlib.crc32(optimizer.flat.data.tobytes())
        state = model.state_dict() if rank == 0 else None
        conn.send(("done", rank, digest, steps_done, state))
    except BaseException:
        try:
            conn.send(("error", rank, traceback.format_exc()))
        except Exception:
            pass
        raise SystemExit(1)
    finally:
        if arena is not None:
            arena.close()
        elif shm is not None:
            shm.close()
        conn.close()


# --------------------------------------------------------------------------- #
# parent-side coordinator
# --------------------------------------------------------------------------- #
class DistributedTrainer:
    """Data-parallel trainer: N worker processes over a shared-memory arena.

    Parameters
    ----------
    model_fn:
        Zero-argument model builder.  Every worker seeds the global RNGs with
        ``config.seed`` and calls it, so replicas start bitwise identical.
        Must be picklable under ``start_method="spawn"``; any callable works
        under ``"fork"``.
    config:
        The usual :class:`~repro.utils.ExperimentConfig`; ``batch_size`` is
        the *per-worker* batch size (one synchronised round consumes up to
        ``workers`` batches).
    workers:
        Number of training processes.  ``workers=1`` degenerates to the
        exact :class:`Trainer` code path (no collectives) and is bitwise
        identical to it.
    topology:
        ``"allreduce"`` (synchronous global gradient averaging) or
        ``"gossip"`` (DACFL-style ring neighbour averaging of parameters).
    loss_computer / train_transform:
        Forwarded to each worker's :class:`Trainer` / loader.
    start_method:
        ``multiprocessing`` start method; defaults to ``"fork"`` where
        available (no pickling of datasets/models), else ``"spawn"``.
    resume_from:
        Optional :meth:`Trainer.save_checkpoint` artifact every worker loads
        after building its replica — resuming a distributed run keeps the
        replicas in lockstep because the checkpoint fixes parameters,
        momentum and schedule position identically everywhere.
    barrier_timeout_s:
        Collective timeout; a dead or wedged worker surfaces as an error
        instead of a hang.

    Attributes
    ----------
    model:
        After :meth:`fit`: a parent-process model carrying the final
        (consensus) weights and rank 0's batch-norm statistics.
    stats:
        :class:`DistTrainStats` of the last fit.
    """

    def __init__(
        self,
        model_fn: Callable[[], nn.Module],
        config: ExperimentConfig,
        workers: int = 2,
        topology: str = "allreduce",
        loss_computer: LossComputer | None = None,
        train_transform=None,
        start_method: str | None = None,
        resume_from: str | None = None,
        barrier_timeout_s: float = 120.0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if topology not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {TOPOLOGIES}, got {topology!r}")
        if start_method not in (None, "fork", "spawn", "forkserver"):
            raise ValueError(f"unknown start method {start_method!r}")
        self.model_fn = model_fn
        self.config = config
        self.workers = workers
        self.topology = topology
        self.spec = _WorkerSpec(
            model_fn=model_fn,
            config=config,
            workers=workers,
            topology=topology,
            loss_computer=loss_computer,
            train_transform=train_transform,
            resume_from=resume_from,
            barrier_timeout_s=barrier_timeout_s,
        )
        self.start_method = start_method or (
            "fork" if "fork" in get_all_start_methods() else "spawn"
        )
        self.model: nn.Module | None = None
        self.stats: DistTrainStats | None = None

    def fit(self, train_set, val_set=None, epochs: int | None = None) -> TrainingHistory:
        """Train for ``epochs`` across the worker fleet; returns global history.

        The returned history's train loss/accuracy are the sample-weighted
        combination of every worker's shard (i.e. the loss curve of the full
        epoch, exactly comparable to a single-process run); validation
        accuracy is evaluated by rank 0 each epoch.
        """
        epochs = epochs if epochs is not None else self.config.epochs
        world = self.workers
        # Parent-side replica: sizes the arena and receives the final weights.
        seed_everything(self.config.seed)
        model = self.model_fn()
        param_count = _flat_param_count(model)
        if param_count == 0:
            raise ValueError("model has no trainable parameters")
        ctx = get_context(self.start_method)
        shm = None
        procs: list = []
        parent_conns: dict[int, object] = {}
        barrier_ends: list = []
        try:
            if world > 1:
                shm = shared_memory.SharedMemory(
                    create=True, size=arena_nbytes(world, param_count)
                )
            rank0_conns = []
            peer_conns: dict[int, object] = {}
            for peer in range(1, world):
                coordinator_end, peer_end = ctx.Pipe()
                rank0_conns.append(coordinator_end)
                peer_conns[peer] = peer_end
                barrier_ends.extend((coordinator_end, peer_end))
            child_conns = {}
            for rank in range(world):
                parent_end, child_end = ctx.Pipe(duplex=False)
                parent_conns[rank] = parent_end
                child_conns[rank] = child_end
            start = time.perf_counter()
            for rank in range(world):
                proc = ctx.Process(
                    target=_worker_main,
                    name=f"repro-train-dp-{rank}",
                    args=(
                        rank,
                        self.spec,
                        train_set,
                        val_set,
                        epochs,
                        shm.name if shm is not None else None,
                        rank0_conns if rank == 0 else peer_conns.get(rank),
                        child_conns[rank],
                    ),
                )
                proc.start()
                procs.append(proc)
            for child_end in child_conns.values():
                child_end.close()
            per_epoch, done = self._collect(parent_conns, procs, world)
            wall = time.perf_counter() - start
            history = self._assemble_history(per_epoch, epochs, world)
            digests = {rank: digest for rank, (digest, _, _) in done.items()}
            consistent = len(set(digests.values())) == 1
            if self.topology == "allreduce" and not consistent:
                raise RuntimeError(
                    f"allreduce replicas diverged: param digests {digests} — "
                    "the lockstep invariant is broken"
                )
            state = done[0][2]
            model.load_state_dict(state)
            self.model = model
            aggregate_steps = sum(steps for _, steps, _ in done.values())
            self.stats = DistTrainStats(
                workers=world,
                topology=self.topology,
                aggregate_steps=aggregate_steps,
                wall_s=wall,
                steps_per_sec=aggregate_steps / wall if wall > 0 else 0.0,
                param_count=param_count,
                arena_bytes=arena_nbytes(world, param_count) if world > 1 else 0,
                consistent=consistent,
            )
            return history
        finally:
            for proc in procs:
                proc.join(timeout=10.0)
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=10.0)
            for conn in list(parent_conns.values()) + barrier_ends:
                try:
                    conn.close()
                except OSError:
                    pass
            if shm is not None:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass

    # ------------------------------------------------------------------ #
    # message plumbing
    # ------------------------------------------------------------------ #
    def _collect(self, parent_conns, procs, world):
        """Drain worker messages until every rank reports done (or dies)."""
        per_epoch: dict[int, dict[int, tuple]] = {}
        done: dict[int, tuple] = {}
        pending = set(range(world))
        while pending:
            progressed = False
            for rank in sorted(pending):
                conn = parent_conns[rank]
                try:
                    ready = conn.poll(0.02)
                except OSError:
                    ready = False
                if not ready:
                    continue
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    raise RuntimeError(f"training worker {rank} died mid-run") from None
                progressed = True
                kind = message[0]
                if kind == "epoch":
                    _, sender, epoch, lr, loss, acc, count, val = message
                    per_epoch.setdefault(epoch, {})[sender] = (lr, loss, acc, count, val)
                elif kind == "done":
                    _, sender, digest, steps, state = message
                    done[sender] = (digest, steps, state)
                    pending.discard(sender)
                else:  # "error"
                    _, sender, trace = message
                    raise RuntimeError(
                        f"training worker {sender} failed:\n{trace}"
                    )
            if not progressed:
                for rank, proc in enumerate(procs):
                    if rank in pending and not proc.is_alive():
                        raise RuntimeError(
                            f"training worker {rank} exited with code "
                            f"{proc.exitcode} before reporting a result"
                        )
        return per_epoch, done

    def _assemble_history(self, per_epoch, epochs, world) -> TrainingHistory:
        history = TrainingHistory()
        for epoch in range(epochs):
            entries = per_epoch.get(epoch, {})
            if len(entries) != world:
                raise RuntimeError(
                    f"epoch {epoch}: expected {world} worker reports, got {len(entries)}"
                )
            total = sum(count for _, _, _, count, _ in entries.values())
            if total:
                history.train_loss.append(
                    sum(loss * count for _, loss, _, count, _ in entries.values()) / total
                )
                history.train_accuracy.append(
                    sum(acc * count for _, _, acc, count, _ in entries.values()) / total
                )
            else:
                history.train_loss.append(float("nan"))
                history.train_accuracy.append(float("nan"))
            history.learning_rate.append(entries[0][0])
            val = entries[0][4]
            if val is not None:
                history.val_accuracy.append(val)
        return history
