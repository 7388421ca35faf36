"""Tests for data-parallel training: barrier, reduction arena, DistributedTrainer."""

import multiprocessing
import threading
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro import nn
from repro.data import ClassificationDataset
from repro.optim import PipeBarrier, ReductionArena, arena_nbytes
from repro.train import DistributedTrainer, Trainer
from repro.utils import ExperimentConfig
from repro.utils.seed import seed_everything


def _toy_dataset(n=40, classes=4, size=12, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % classes
    images = rng.normal(0.3, 0.05, size=(n, 3, size, size)).astype(np.float32)
    for i, label in enumerate(labels):
        images[i, 0] += 0.5 * label
    return ClassificationDataset(images, labels, classes)


class SmallNet(nn.Module):
    """Conv + BatchNorm + linear head: exercises running statistics too."""

    def __init__(self, classes=4):
        super().__init__()
        self.features = nn.Sequential(
            nn.Conv2d(3, 8, 3, stride=2, padding=1), nn.BatchNorm2d(8), nn.ReLU()
        )
        self.pool = nn.GlobalAvgPool2d()
        self.flatten = nn.Flatten()
        self.classifier = nn.Linear(8, classes)

    def forward(self, x):
        return self.classifier(self.flatten(self.pool(self.features(x))))


def _run_world(world, fn):
    """Drive a world of `fn(rank, barrier_conns)` participants on threads.

    The barrier/arena protocols are process-agnostic (pipes + shared memory),
    so threads give the unit tests real concurrency without fork overhead.
    """
    rank0_conns, peer_conns = [], {}
    for peer in range(1, world):
        a, b = multiprocessing.Pipe()
        rank0_conns.append(a)
        peer_conns[peer] = b
    results: dict[int, object] = {}
    errors: list[BaseException] = []

    def runner(rank):
        try:
            conns = rank0_conns if rank == 0 else peer_conns[rank]
            results[rank] = fn(rank, conns)
        except BaseException as exc:  # surfaced to the test below
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(rank,)) for rank in range(world)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    for conn in rank0_conns + list(peer_conns.values()):
        conn.close()
    if errors:
        raise errors[0]
    return results


class TestPipeBarrier:
    def test_world_of_one_is_noop(self):
        barrier = PipeBarrier(0, 1)
        for _ in range(3):
            barrier.wait()

    def test_rendezvous_and_sequence(self):
        def participant(rank, conns):
            barrier = PipeBarrier(rank, 3, conns, timeout=10)
            for _ in range(5):
                barrier.wait()
            return barrier._seq

        results = _run_world(3, participant)
        assert set(results.values()) == {5}

    def test_dead_peer_times_out(self):
        a, b = multiprocessing.Pipe()
        barrier = PipeBarrier(1, 2, b, timeout=0.2)
        with pytest.raises(RuntimeError, match="timed out"):
            barrier.wait()
        a.close(), b.close()

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            PipeBarrier(2, 2)

    def test_rank0_needs_all_connections(self):
        with pytest.raises(ValueError):
            PipeBarrier(0, 3, conns=[])


class TestReductionArena:
    def _with_arena(self, world, size, fn):
        shm = shared_memory.SharedMemory(create=True, size=arena_nbytes(world, size))
        try:
            def participant(rank, conns):
                barrier = PipeBarrier(rank, world, conns, timeout=10)
                local = shared_memory.SharedMemory(name=shm.name)
                arena = ReductionArena(local, world, size, rank, barrier)
                try:
                    return fn(rank, arena)
                finally:
                    arena.close()

            return _run_world(world, participant)
        finally:
            shm.close()
            shm.unlink()

    def test_allreduce_is_global_mean(self):
        size = 10

        def participant(rank, arena):
            buf = np.full(size, float(rank + 1), dtype=np.float32)
            arena.allreduce(buf)
            return buf.copy()

        results = self._with_arena(3, size, participant)
        for buf in results.values():
            np.testing.assert_allclose(buf, 2.0)  # mean of 1, 2, 3

    def test_allreduce_contributors_scales_partial_rounds(self):
        """Ragged tail: a zero buffer participates but does not dilute the mean."""
        size = 6

        def participant(rank, arena):
            value = 4.0 if rank == 0 else 0.0
            buf = np.full(size, value, dtype=np.float32)
            arena.allreduce(buf, contributors=1)
            return buf.copy()

        results = self._with_arena(2, size, participant)
        for buf in results.values():
            np.testing.assert_allclose(buf, 4.0)

    def test_allreduce_deterministic_across_rounds(self):
        size = 1000
        rng = np.random.default_rng(3)
        data = rng.normal(size=(3, size)).astype(np.float32)

        def participant(rank, arena):
            first = data[rank].copy()
            arena.allreduce(first)
            second = data[rank].copy()
            arena.allreduce(second)
            return first, second

        results = self._with_arena(3, size, participant)
        # Both rounds reduce the same inputs -> bitwise identical outputs, on
        # every rank (double banking kept the rounds from clobbering each other).
        reference = results[0][0]
        for first, second in results.values():
            np.testing.assert_array_equal(first, reference)
            np.testing.assert_array_equal(second, reference)

    def test_gossip_averages_ring_neighbourhood(self):
        size = 4

        def participant(rank, arena):
            buf = np.full(size, float(rank), dtype=np.float32)
            arena.gossip(buf)
            return buf.copy()

        results = self._with_arena(4, size, participant)
        # Ring of 4: rank r averages {r-1, r, r+1} mod 4.
        for rank, buf in results.items():
            members = sorted({(rank - 1) % 4, rank, (rank + 1) % 4})
            np.testing.assert_allclose(buf, np.mean(members), rtol=1e-6)

    def test_world_of_one_collectives_are_noops(self):
        shm = shared_memory.SharedMemory(create=True, size=arena_nbytes(1, 4))
        try:
            arena = ReductionArena(shm, 1, 4, 0, PipeBarrier(0, 1))
            buf = np.arange(4, dtype=np.float32)
            arena.allreduce(buf)
            arena.gossip(buf)
            np.testing.assert_array_equal(buf, np.arange(4, dtype=np.float32))
            arena.close()
        finally:
            shm.close()
            shm.unlink()

    def test_contributors_validation(self):
        shm = shared_memory.SharedMemory(create=True, size=arena_nbytes(2, 4))
        try:
            arena = ReductionArena(shm, 2, 4, 0, PipeBarrier(0, 1))
            with pytest.raises(ValueError):
                arena.allreduce(np.zeros(4, dtype=np.float32), contributors=3)
        finally:
            shm.close()
            shm.unlink()

    def test_arena_nbytes_layout(self):
        # Two banks of (world slots + 1 reduced row) of float32.
        assert arena_nbytes(4, 100) == 2 * 5 * 100 * 4


class TestDistributedTrainer:
    def _config(self, epochs=2, **kw):
        kw.setdefault("warmup_epochs", 0)
        return ExperimentConfig(epochs=epochs, batch_size=8, lr=0.1, **kw)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            DistributedTrainer(SmallNet, self._config(), workers=0)
        with pytest.raises(ValueError):
            DistributedTrainer(SmallNet, self._config(), topology="tree")
        with pytest.raises(ValueError):
            DistributedTrainer(SmallNet, self._config(), start_method="thread")

    def test_single_worker_bitwise_identical_to_trainer(self):
        """workers=1 runs the exact Trainer code path: after 50 optimiser
        steps, parameters AND batch-norm running statistics match bitwise."""
        train_set = _toy_dataset()
        config = self._config(epochs=10)  # 5 batches/epoch x 10 epochs = 50 steps
        seed_everything(config.seed)
        reference_model = SmallNet()
        reference = Trainer(reference_model, config)
        ref_history = reference.fit(train_set)

        distributed = DistributedTrainer(SmallNet, config, workers=1)
        dist_history = distributed.fit(train_set)

        ref_state = reference_model.state_dict()
        dist_state = distributed.model.state_dict()
        assert ref_state.keys() == dist_state.keys()
        for name in ref_state:  # includes BN running_mean/running_var
            np.testing.assert_array_equal(ref_state[name], dist_state[name], err_msg=name)
        assert ref_history.train_loss == dist_history.train_loss
        assert ref_history.train_accuracy == dist_history.train_accuracy
        assert distributed.stats.aggregate_steps == 50

    def test_allreduce_replicas_stay_in_lockstep(self):
        distributed = DistributedTrainer(
            SmallNet, self._config(), workers=2, topology="allreduce"
        )
        history = distributed.fit(_toy_dataset())
        assert distributed.stats.consistent  # crc32 digests equal across ranks
        assert distributed.stats.workers == 2
        assert len(history.train_loss) == 2
        assert all(np.isfinite(loss) for loss in history.train_loss)

    def test_allreduce_run_is_deterministic(self):
        def run():
            trainer = DistributedTrainer(
                SmallNet, self._config(), workers=2, topology="allreduce"
            )
            history = trainer.fit(_toy_dataset())
            return trainer.model.state_dict(), history.train_loss

        state_a, loss_a = run()
        state_b, loss_b = run()
        assert loss_a == loss_b
        for name in state_a:
            np.testing.assert_array_equal(state_a[name], state_b[name], err_msg=name)

    def test_gossip_topology_reaches_consensus(self):
        distributed = DistributedTrainer(
            SmallNet, self._config(), workers=2, topology="gossip"
        )
        history = distributed.fit(_toy_dataset())
        # The final consensus allreduce equalises the replicas exactly.
        assert distributed.stats.consistent
        assert distributed.stats.topology == "gossip"
        assert all(np.isfinite(loss) for loss in history.train_loss)

    def test_ragged_tail_keeps_replicas_aligned(self):
        # 40 samples / batch 8 = 5 global batches over 3 workers: the final
        # round has only 2 contributors, the third publishes a zero gradient.
        distributed = DistributedTrainer(
            SmallNet, self._config(), workers=3, topology="allreduce"
        )
        distributed.fit(_toy_dataset())
        assert distributed.stats.consistent
        assert distributed.stats.aggregate_steps == 10  # 5 batches x 2 epochs

    def test_resume_from_checkpoint_keeps_lockstep(self, tmp_path):
        train_set = _toy_dataset()
        config = self._config(epochs=2)
        warm = DistributedTrainer(SmallNet, config, workers=2)
        warm.fit(train_set)
        ckpt = str(tmp_path / "warm")
        seed_everything(config.seed)
        holder = Trainer(SmallNet(), config)
        holder.model.load_state_dict(warm.model.state_dict())
        holder.save_checkpoint(ckpt)

        resumed = DistributedTrainer(
            SmallNet, config, workers=2, resume_from=ckpt
        )
        resumed.fit(train_set, epochs=1)
        assert resumed.stats.consistent

    def test_worker_error_propagates(self):
        class Broken(nn.Module):
            def __init__(self):
                super().__init__()
                self.classifier = nn.Linear(8, 4)

            def forward(self, x):
                raise RuntimeError("kaboom in the worker")

        distributed = DistributedTrainer(Broken, self._config(epochs=1), workers=2)
        with pytest.raises(RuntimeError):
            distributed.fit(_toy_dataset())

    def test_stats_populated(self):
        distributed = DistributedTrainer(SmallNet, self._config(), workers=2)
        distributed.fit(_toy_dataset())
        stats = distributed.stats
        assert stats.param_count > 0
        assert stats.arena_bytes == arena_nbytes(2, stats.param_count)
        assert stats.wall_s > 0
        assert stats.steps_per_sec > 0
