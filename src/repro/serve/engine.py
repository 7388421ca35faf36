"""Dynamic micro-batching inference engine.

Serving a compiled model request-by-request wastes the throughput the batch
dimension offers: a batch-8 forward costs far less than eight batch-1
forwards.  :class:`Engine` closes that gap with the classic dynamic-batching
loop used by production model servers:

* :meth:`Engine.submit` enqueues a single sample and immediately returns a
  :class:`concurrent.futures.Future`;
* worker threads drain the shared queue, gathering up to ``max_batch``
  requests or waiting at most ``max_wait_ms`` for stragglers (the usual
  max-batch / max-wait policy);
* each worker assembles the gathered samples into its preallocated input
  buffer **padded to the next power-of-two batch size**, so the compiled
  engine reuses a handful of cached execution plans instead of replanning per
  request count;
* results are split back out and delivered through the per-request futures,
  and :meth:`Engine.stats` reports counters, batch-size mix and latency
  percentiles.

The engine serves any of the repo's inference backends — a
:class:`~repro.runtime.QuantizedNet` (the int8 engine; its execution plans
are cached per thread, so workers never share scratch), a
:class:`~repro.runtime.CompiledNet`, or a bare eager module.  Padding rows
with zeros is sound because none of the inference ops mix information across
the batch dimension; for the integer engine the per-sample results are
bit-identical regardless of batch assembly, which the test-suite asserts.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Engine", "EngineConfig", "ServeStats"]


@dataclass(frozen=True)
class EngineConfig:
    """Batching policy of a serving :class:`Engine`.

    Parameters
    ----------
    max_batch:
        Upper bound on requests fused into one forward pass.
    max_wait_ms:
        How long a worker holding a partial batch waits for more requests
        before running it.  ``0`` serves whatever is immediately available.
    workers:
        Number of batching worker threads sharing the request queue.

    Assembled batches are always padded up to the next power of two (capped
    at ``max_batch``), bounding the number of distinct execution plans.
    """

    max_batch: int = 16
    max_wait_ms: float = 2.0
    workers: int = 1

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass
class ServeStats:
    """Cumulative serving statistics (a consistent snapshot from :meth:`Engine.stats`)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    batches: int = 0
    batch_size_counts: dict = field(default_factory=dict)
    latency_ms_p50: float = float("nan")
    latency_ms_p95: float = float("nan")
    latency_ms_p99: float = float("nan")
    latency_ms_mean: float = float("nan")

    @property
    def mean_batch_size(self) -> float:
        return self.completed / self.batches if self.batches else 0.0

    def summary(self) -> str:
        lines = [
            f"requests          : {self.completed}/{self.submitted} completed, {self.failed} failed",
            f"batches           : {self.batches} (mean size {self.mean_batch_size:.2f})",
            f"latency (ms)      : p50 {self.latency_ms_p50:.2f}  p95 {self.latency_ms_p95:.2f}  "
            f"p99 {self.latency_ms_p99:.2f}  mean {self.latency_ms_mean:.2f}",
        ]
        return "\n".join(lines)


class _Request:
    __slots__ = ("sample", "future", "enqueued_at")

    def __init__(self, sample: np.ndarray):
        self.sample = sample
        self.future: Future = Future()
        self.enqueued_at = time.perf_counter()


_SHUTDOWN = object()
_LATENCY_WINDOW = 8192  # most recent request latencies kept for percentiles


class Engine:
    """Multi-worker dynamic-batching server around a compiled model.

    Parameters
    ----------
    net:
        Inference backend: anything with ``numpy_forward(batch) -> logits``
        (a :class:`~repro.runtime.QuantizedNet` or
        :class:`~repro.runtime.CompiledNet`), or a callable taking/returning
        arrays.
    input_shape:
        Per-sample shape ``(C, H, W)``; submissions are validated against it.
    config:
        Batching policy; individual fields can also be passed as keyword
        arguments (``max_batch=...`` etc.) for convenience.

    Use as a context manager, or call :meth:`close` to drain and stop the
    workers.
    """

    def __init__(
        self,
        net,
        input_shape: tuple[int, int, int],
        config: EngineConfig | None = None,
        **overrides,
    ):
        if config is None:
            config = EngineConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or keyword overrides, not both")
        self.net = net
        self.input_shape = tuple(int(s) for s in input_shape)
        self.config = config
        self._forward = net.numpy_forward if hasattr(net, "numpy_forward") else net
        self._queue: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._batches = 0
        self._batch_sizes: dict[int, int] = {}
        self._latencies: deque = deque(maxlen=_LATENCY_WINDOW)
        self._closed = False
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"serve-worker-{i}", daemon=True)
            for i in range(config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------ #
    # client API
    # ------------------------------------------------------------------ #
    def submit(self, sample: np.ndarray) -> Future:
        """Enqueue one ``(C, H, W)`` sample; returns a future of its logits."""
        sample = np.ascontiguousarray(sample, dtype=np.float32)
        if sample.shape != self.input_shape:
            raise ValueError(f"expected sample of shape {self.input_shape}, got {sample.shape}")
        request = _Request(sample)
        # The closed-check and enqueue share the lock with close() so a
        # request can never land behind the shutdown sentinels (which would
        # leave its future unresolved forever).
        with self._lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            self._submitted += 1
            self._queue.put(request)
        return request.future

    def predict(self, sample: np.ndarray, timeout: float | None = None) -> np.ndarray:
        """Blocking single-sample convenience wrapper around :meth:`submit`."""
        return self.submit(sample).result(timeout=timeout)

    def predict_batch(self, samples, timeout: float | None = None) -> np.ndarray:
        """Submit a sequence of samples and gather their results in order."""
        futures = [self.submit(sample) for sample in samples]
        return np.stack([future.result(timeout=timeout) for future in futures])

    def stats(self) -> ServeStats:
        """A consistent snapshot of the cumulative serving statistics."""
        with self._lock:
            latencies = np.asarray(self._latencies, dtype=np.float64)
            stats = ServeStats(
                submitted=self._submitted,
                completed=self._completed,
                failed=self._failed,
                batches=self._batches,
                batch_size_counts=dict(sorted(self._batch_sizes.items())),
            )
        if latencies.size:
            from ..eval.profiler import latency_percentiles

            pct = latency_percentiles(latencies)
            stats.latency_ms_p50 = pct["p50_ms"]
            stats.latency_ms_p95 = pct["p95_ms"]
            stats.latency_ms_p99 = pct["p99_ms"]
            stats.latency_ms_mean = float(latencies.mean())
        return stats

    def close(self, timeout: float = 10.0) -> None:
        """Stop the workers after the queue drains.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for _ in self._workers:
                self._queue.put(_SHUTDOWN)
        for worker in self._workers:
            worker.join(timeout=timeout)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    def _gather(self) -> list[_Request] | None:
        """Block for one request, then batch up stragglers within the window."""
        first = self._queue.get()
        if first is _SHUTDOWN:
            return None
        batch = [first]
        deadline = time.perf_counter() + self.config.max_wait_ms / 1e3
        while len(batch) < self.config.max_batch:
            remaining = deadline - time.perf_counter()
            try:
                item = self._queue.get(timeout=max(remaining, 0.0)) if remaining > 0 else self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                self._queue.put(_SHUTDOWN)  # keep the signal for this worker's next round
                break
            batch.append(item)
        return batch

    def _padded_size(self, count: int) -> int:
        size = 1
        while size < count:
            size *= 2
        return min(size, self.config.max_batch)

    def _worker_loop(self) -> None:
        buffer = np.zeros((self.config.max_batch,) + self.input_shape, dtype=np.float32)
        while True:
            batch = self._gather()
            if batch is None:
                return
            count = len(batch)
            padded = self._padded_size(count)
            for i, request in enumerate(batch):
                buffer[i] = request.sample
            if padded > count:
                buffer[count:padded] = 0.0
            # The whole per-batch handling is exception-safe: whatever the
            # backend does — raise mid-forward, return a malformed output that
            # breaks result splitting — every future in the batch resolves
            # (result or exception) and the worker survives to serve the next
            # batch.  A dead worker thread would strand queued requests forever.
            delivered = 0
            try:
                outputs = self._forward(buffer[:padded])
                done = time.perf_counter()
                latencies = [(done - request.enqueued_at) * 1e3 for request in batch]
                for i, request in enumerate(batch):
                    result = np.array(outputs[i], copy=True)
                    request.future.set_result(result)
                    delivered += 1
            except Exception as error:  # propagate to every still-waiting client
                with self._lock:
                    self._failed += count - delivered
                    self._completed += delivered
                    self._batches += 1
                for request in batch[delivered:]:
                    request.future.set_exception(error)
                continue
            with self._lock:
                self._completed += count
                self._batches += 1
                self._batch_sizes[count] = self._batch_sizes.get(count, 0) + 1
                self._latencies.extend(latencies)
