"""Replica lifecycle for the serving fleet: spawn, watch, restart, drain.

The :class:`Supervisor` owns the fleet's replica processes and nothing else —
request routing lives in :mod:`repro.serve.fleet`.  Each replica runs
:func:`_replica_main`: it attaches the shared-memory slot block, builds (or
inherits) its inference backend and serves micro-batches from a private
``multiprocessing`` pipe.

Both pipes carry fixed records of native ``u32`` words, never pickles; the
first word names the record::

    parent -> replica   RUN   | (gid, slot) pairs    one record per dispatch flush, and
                                                     one for a request that finds the replica idle
                        STOP
                        CFG   | fidelity rung
    replica -> parent   ACK_READY | pid
                        ACK_DONE  | (gid, crc) pairs   one record per micro-batch
                        ACK_ERR   | n | n gids | UTF-8 message
                                                     n = 0 before READY: the backend
                                                     build raised and the replica exits

The replica loop is work-conserving: it waits on one ``select.poll`` (made
once) only while it holds no work, then takes every record already queued,
runs up to ``max_batch`` of the held requests at once and keeps the rest for
its next batch — under load the pipe fills while the replica computes, so no
timed wait is needed.  Outputs and their CRC32s go into the slots and one
ACK_DONE (or ACK_ERR) record acks the whole batch.  Private pipes matter for fault
isolation: a replica killed mid-write can only poison *its own* channel.

The parent reads acks on the fleet's event loop: :meth:`Supervisor.spawn`
registers each replica's ack pipe with ``loop.add_reader``, so there is no
reader thread and no cross-thread hop per ack.

Replica state machine::

                 spawn                 ready msg
   DETACHED ────────────▶ STARTING ─────────────▶ READY ──┐
      ▲                       │                      │     │ serves
      │        start timeout  │   crash / SIGKILL /  │     │ batches
      │        or early exit  │   missed heartbeats  │ ◀───┘
      │                       ▼                      ▼
      │     FAILED ◀──── [retries exhausted, or ◀── DOWN
      │                   never was READY]
      │                                              │
      │                       restart after capped   │
      │ scale-down drain:     exponential backoff    ▼
      │ READY ─▶ DRAINING              └────────▶ STARTING ...
      └──── (in-flight work finishes, replica stops)
          (on shutdown: READY/STARTING ──▶ STOPPED)

The supervisor owns a fixed pool of ``max_replicas`` handles but only keeps
``target`` of them in service; :meth:`Supervisor.set_target` moves the line.
Scaling up (re)spawns DETACHED handles; scaling down marks the excess
DRAINING — they finish the micro-batches already assigned to them (the
fleet's zero-lost invariant must hold through a resize), then stop and
return to DETACHED.  A scale-up that arrives mid-drain simply flips the
replica back to READY: the process never stopped serving, so cancelling a
drain is free.

Liveness has two signals.  *Crash* is cheap to detect: the process exit code
flips, and the ack pipe reads EOF on the event loop at once.  *Hang* needs the
watchdog: the replica's worker loop — not a helper thread, the loop that
actually serves — writes a monotonic timestamp into a shared heartbeat array
every iteration, so a wedged loop (chaos ``hang``, a stuck kernel) stops
beating by construction and the supervisor SIGKILLs and restarts it after
``miss_threshold`` missed intervals.

A replica that dies (or times out) before its handle's first READY is
FAILED at once, with the child's build error when it sent one: a builder
that cannot run in a replica fails the same way on every respawn, so
:meth:`~repro.serve.fleet.Fleet.start` raises a typed error instead of
respawning it until ``start_timeout``.  A replica that was once READY is
restarted with capped exponential backoff
(``min(cap, base * 2**(failures-1))``) so a crash-looping replica cannot hog
the machine, and the failure count decays after a healthy period so one bad
minute does not penalize the replica forever.  All supervisor time
arithmetic goes through an injectable ``clock`` (default ``time.monotonic``),
so the backoff/decay schedule is testable without real sleeps.
"""

from __future__ import annotations

import os
import time
import zlib
import select
import traceback
import multiprocessing
from array import array
from collections import deque
from dataclasses import dataclass, field
from importlib import import_module
from multiprocessing import shared_memory

import numpy as np

from .chaos import ChaosConfig

__all__ = ["ReplicaSpec", "ReplicaHandle", "Supervisor", "resolve_builder"]

# Pipe record kinds (the first u32 word of a record; see the module docstring).
RUN, STOP, CFG = 1, 2, 3  # parent -> replica
ACK_READY, ACK_DONE, ACK_ERR = 1, 2, 3  # replica -> parent


def record(kind: int, *words: int) -> bytes:
    """One pipe record: ``kind`` and then ``words``, as native u32s."""
    return array("I", (kind, *words)).tobytes()


def decode_ack(data: bytes) -> tuple:
    """A replica record as ``("ready", pid)``, ``("done", [(gid, crc), ...])``
    or ``("err", [gid, ...], message)``."""
    words = memoryview(data)[: len(data) // 4 * 4].cast("I")
    kind = words[0]
    if kind == ACK_DONE:
        return "done", list(zip(words[1::2], words[2::2]))
    if kind == ACK_READY:
        return "ready", words[1]
    if kind == ACK_ERR:
        count = words[1]
        return "err", words[2 : 2 + count].tolist(), data[4 * (2 + count) :].decode()
    raise ValueError(f"unknown replica record kind {kind}")


_DONE_WORD = record(ACK_DONE)

# replica states
STARTING = "starting"
READY = "ready"
DOWN = "down"
FAILED = "failed"
STOPPED = "stopped"
DRAINING = "draining"  # scale-down: finish assigned work, take no new work
DETACHED = "detached"  # out of service (above the current target count)


def resolve_builder(path):
    """Resolve a ``"module:callable"`` backend builder path."""
    if callable(path):
        return path
    module_name, _, attr = str(path).partition(":")
    if not attr:
        raise ValueError(f"builder path {path!r} must look like 'package.module:callable'")
    return getattr(import_module(module_name), attr)


@dataclass
class ReplicaSpec:
    """Everything a replica process needs to serve (picklable for spawn)."""

    index: int
    replicas: int
    builder: str
    builder_kwargs: dict
    input_shape: tuple[int, ...]
    input_elements: int
    output_elements: int
    slot_elements: int
    n_slots: int
    slots_name: str
    hb_name: str
    max_batch: int
    heartbeat_interval: float
    chaos: ChaosConfig | None = None
    generation: int = 0  # the life Supervisor.spawn assigned; seeds its chaos draws
    prebuilt: object = field(default=None, repr=False)  # fork-only fast path


def _replica_main(spec: ReplicaSpec, work, resp) -> None:
    """Replica process entry: serve micro-batches until stop/EOF/fault."""
    slots_shm = shared_memory.SharedMemory(name=spec.slots_name)
    hb_shm = shared_memory.SharedMemory(name=spec.hb_name)
    try:
        slots = np.ndarray((spec.n_slots, spec.slot_elements), dtype=np.float32, buffer=slots_shm.buf)
        hb = np.ndarray((spec.replicas,), dtype=np.float64, buffer=hb_shm.buf)

        def beat():
            hb[spec.index] = time.monotonic()

        beat()
        try:
            backend = (
                spec.prebuilt
                if spec.prebuilt is not None
                else resolve_builder(spec.builder)(**spec.builder_kwargs)
            )
        except Exception as error:  # reported before exiting: the parent fails fast
            traceback.print_exc()
            resp.send_bytes(record(ACK_ERR, 0) + f"{type(error).__name__}: {error}".encode())
            return
        forward = backend.forward if hasattr(backend, "forward") else backend
        monkey = spec.chaos.monkey(spec.index, spec.generation) if spec.chaos and spec.chaos.faults else None
        in_elems, out_elems = spec.input_elements, spec.output_elements
        inputs = slots[:, :in_elems]
        outputs = slots[:, in_elems : in_elems + out_elems]
        batch_buf = np.empty((spec.max_batch,) + tuple(spec.input_shape), dtype=np.float32)
        batch_rows = batch_buf.reshape(spec.max_batch, in_elems)
        poller = select.poll()
        poller.register(work.fileno(), select.POLLIN)
        idle_ms = max(1, round(spec.heartbeat_interval * 500))
        held = np.empty((0, 2), dtype=np.uint32)  # dispatched (gid, slot) pairs not yet run
        beat()
        resp.send_bytes(record(ACK_READY, os.getpid()))

        stop = False
        while not stop:
            # Wait only while no work is held, heartbeating while idle: the
            # beat comes from THIS loop, so a wedged worker stops beating.
            beat()
            ready = poller.poll(0 if len(held) else idle_ms)
            # Work-conserving: take every record already queued, never wait for more.
            while ready and not stop:
                words = np.frombuffer(work.recv_bytes(), dtype=np.uint32)
                if words[0] == RUN:
                    pairs = words[1:].reshape(-1, 2)
                    held = np.concatenate((held, pairs)) if len(held) else pairs
                elif words[0] == CFG:
                    # live fidelity switch, no restart
                    if hasattr(backend, "set_rung"):
                        backend.set_rung(int(words[1]))
                else:
                    stop = True
                ready = poller.poll(0)
            if not len(held):
                continue
            batch, held = held[: spec.max_batch], held[spec.max_batch :]
            if monkey is not None:
                monkey.pre_batch()  # may SIGKILL, hang (starving beats), or sleep
            count = len(batch)
            gids, slot_ids = batch[:, 0], batch[:, 1]
            batch_rows[:count] = inputs[slot_ids]
            try:
                out = np.ascontiguousarray(forward(batch_buf[:count]), dtype=np.float32).reshape(count, -1)
                if out.shape[1] != out_elems:
                    raise RuntimeError(
                        f"backend produced {out.shape[1]} elements/sample, expected {out_elems}"
                    )
            except Exception as error:  # typed per-request error, replica survives
                message = f"{type(error).__name__}: {error}".encode()
                resp.send_bytes(record(ACK_ERR, count, *gids.tolist()) + message)
                continue
            outputs[slot_ids] = out
            acks = np.empty((count, 2), dtype=np.uint32)
            acks[:, 0] = gids
            acks[:, 1] = [zlib.crc32(row) for row in out]
            if monkey is not None:
                for slot in slot_ids:
                    monkey.corrupt_reply(outputs[slot])  # after crc: mismatch is detectable upstream
            resp.send_bytes(_DONE_WORD + acks.tobytes())
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away or told us to die; nothing to clean beyond shm
    finally:
        slots_shm.close()
        hb_shm.close()


@dataclass
class ReplicaHandle:
    """Parent-side view of one replica slot (survives restarts)."""

    index: int
    generation: int = 0
    state: str = DETACHED
    process: object = None
    work: object = None  # parent -> child dispatch connection
    resp: object = None  # child -> parent ack connection (read on the event loop)
    assigned: dict = field(default_factory=dict)  # gid -> entry, in flight on this replica
    outbox: array = field(default_factory=lambda: array("I"))  # (gid, slot) pairs to send
    served: int = 0
    batches: int = 0  # ACK_DONE records, one per micro-batch the replica ran
    failures: int = 0
    restarts: int = 0
    started_at: float = 0.0
    ready_since: float = 0.0
    cold_start_ms: float | None = None  # spawn -> READY of the last (re)start; None: never READY
    restart_at: float = 0.0
    error: str | None = None  # why the replica FAILED
    pid: int | None = None
    latencies: deque = field(default_factory=lambda: deque(maxlen=256))  # ms, recent

    def close_conns(self) -> None:
        self.outbox = array("I")
        for conn in (self.work, self.resp):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        self.work = self.resp = None


class Supervisor:
    """Owns replica processes: spawn, watch heartbeats, restart, stop.

    All methods run on the fleet's event-loop thread, which also reads every
    replica's acks: each ack pipe is registered with ``loop.add_reader``.

    Parameters
    ----------
    config:
        The :class:`~repro.serve.fleet.FleetConfig` (duck-typed here).
    spec:
        Template :class:`ReplicaSpec`; each spawn stamps its index.
    hb:
        Parent-side view of the shared heartbeat array.
    loop:
        The fleet's asyncio event loop; ack pipes are read from its selector.
    on_msg, on_down:
        Fleet callbacks: ``on_msg(handle, msg)`` for replica acks;
        ``on_down(handle, reason, assigned)`` with the dead replica's
        in-flight requests, which the fleet requeues.
    clock:
        Monotonic time source for all backoff/decay/watchdog arithmetic;
        injectable so the restart schedule is testable without real sleeps.
    """

    def __init__(
        self, config, spec: ReplicaSpec, hb: np.ndarray, *, loop, on_msg, on_down,
        clock=time.monotonic,
    ):
        self.config = config
        self.spec = spec
        self.hb = hb
        self._loop = loop
        self._on_msg = on_msg
        self._on_down = on_down
        self._clock = clock
        self.ctx = multiprocessing.get_context(config.resolved_start_method())
        resolved_max = getattr(config, "resolved_max_replicas", None)
        max_replicas = resolved_max() if callable(resolved_max) else config.replicas
        self.handles = [ReplicaHandle(index=i) for i in range(max_replicas)]
        self.target = config.replicas  # replicas meant to be in service
        self.restarts = 0  # successful respawns after a failure
        self.hangs_detected = 0
        self.crashes_detected = 0
        self.cold_start_ms: deque = deque(maxlen=64)  # spawn -> READY, recent
        self.retired = 0  # replicas drained away by scale-down
        self._stopping = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def spawn_all(self) -> None:
        for handle in self.handles[: self.target]:
            self.spawn(handle)

    def spawn(self, handle: ReplicaHandle) -> None:
        """(Re)start one replica with fresh pipes and a new generation."""
        import dataclasses

        generation = handle.generation + 1
        spec = dataclasses.replace(self.spec, index=handle.index, generation=generation)
        work_recv, work_send = self.ctx.Pipe(duplex=False)
        resp_recv, resp_send = self.ctx.Pipe(duplex=False)
        process = self.ctx.Process(
            target=_replica_main,
            args=(spec, work_recv, resp_send),
            name=f"serve-replica-{handle.index}",
            daemon=True,
        )
        process.start()
        # the child's ends must be closed here so a dead child yields EOF
        work_recv.close()
        resp_send.close()
        if handle.state == DOWN and handle.process is not None:
            handle.restarts += 1
            self.restarts += 1
        handle.generation = generation
        handle.process = process
        handle.work = work_send
        handle.resp = resp_recv
        handle.state = STARTING
        handle.error = None
        handle.started_at = self._clock()
        handle.pid = process.pid
        handle.assigned.clear()
        self.hb[handle.index] = self._clock()
        self._loop.add_reader(
            resp_recv.fileno(), self._on_readable, handle.index, handle.generation, resp_recv
        )

    def _on_readable(self, index: int, generation: int, conn) -> None:
        """Read one ack record of a replica generation (event-loop callback)."""
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):  # replica exited, possibly mid-record
            self._loop.remove_reader(conn.fileno())
            self._handle_eof(index, generation)
            return
        self._handle_msg(index, generation, decode_ack(data))

    def _handle_msg(self, index: int, generation: int, msg) -> None:
        handle = self.handles[index]
        if handle.generation != generation or self._stopping:
            return  # stale generation: the crash was already handled
        if msg[0] == "err" and handle.state == STARTING:
            self.crashes_detected += 1  # the backend build raised; the replica is exiting
            self.mark_down(handle, f"backend build failed: {msg[2]}")
            return
        if msg[0] == "ready" and handle.state == STARTING:
            # a handle that was set DRAINING while still starting stays
            # draining — its late "ready" must not put it back in rotation
            handle.state = READY
            handle.ready_since = self._clock()
            handle.cold_start_ms = (handle.ready_since - handle.started_at) * 1e3
            self.cold_start_ms.append(handle.cold_start_ms)
            self.hb[index] = handle.ready_since
        self._on_msg(handle, msg)

    def _handle_eof(self, index: int, generation: int) -> None:
        handle = self.handles[index]
        if handle.generation != generation or handle.state in (DOWN, FAILED, STOPPED, DETACHED):
            return
        self.crashes_detected += 1
        self.mark_down(handle, "pipe closed (replica exited)")

    # ------------------------------------------------------------------ #
    # failure handling
    # ------------------------------------------------------------------ #
    def mark_down(self, handle: ReplicaHandle, reason: str) -> None:
        """Take a replica out of rotation and schedule its restart."""
        if handle.state in (DOWN, FAILED, STOPPED, DETACHED):
            return
        never_ready = handle.state == STARTING and handle.cold_start_ms is None
        handle.state = DOWN
        self._close(handle)
        if handle.process is not None:
            try:
                handle.process.join(timeout=0)
            except (OSError, ValueError, AssertionError):
                pass
        assigned = dict(handle.assigned)
        handle.assigned.clear()
        handle.failures += 1
        limit = self.config.max_restarts
        if handle.index >= self.target:
            # died while draining: its work is requeued below, but there is
            # no slot to restart into — the replica leaves service instead
            handle.state = DETACHED
            self.retired += 1
        elif never_ready or (limit is not None and handle.failures > limit):
            handle.state = FAILED
            handle.error = reason
        else:
            backoff = min(
                self.config.restart_backoff_cap,
                self.config.restart_backoff_base * 2 ** (handle.failures - 1),
            )
            handle.restart_at = self._clock() + backoff
        self._on_down(handle, reason, assigned)

    # ------------------------------------------------------------------ #
    # elasticity
    # ------------------------------------------------------------------ #
    def set_target(self, n: int) -> int:
        """Move the in-service line to ``n`` replicas; returns the clamp.

        Scale-up (re)spawns detached handles; scale-down marks the excess
        DRAINING (they keep serving what is already assigned to them and are
        retired by :meth:`poll` once empty).  A scale-up that lands on a
        still-draining handle just flips it back to READY — the process
        never stopped, so cancelling a drain costs nothing.
        """
        n = max(1, min(len(self.handles), int(n)))
        self.target = n
        for handle in self.handles[:n]:
            if handle.state == DETACHED:
                self.spawn(handle)
            elif handle.state == DRAINING:
                handle.state = READY
        for handle in self.handles[n:]:
            if handle.state in (READY, STARTING):
                handle.state = DRAINING
            elif handle.state in (DOWN, FAILED):
                handle.state = DETACHED  # cancel any pending restart
        return n

    def _retire(self, handle: ReplicaHandle) -> None:
        """Stop a fully drained replica and detach it from service."""
        if handle.work is not None:
            try:
                handle.work.send_bytes(record(STOP))
            except (OSError, ValueError):
                pass
        self._close(handle)
        if handle.process is not None:
            try:
                handle.process.join(timeout=0)
            except (OSError, ValueError, AssertionError):
                pass
        handle.state = DETACHED
        self.retired += 1

    def poll(self) -> None:
        """One watchdog pass: detect crash/hang/stuck-start, run due restarts."""
        if self._stopping:
            return
        now = self._clock()
        cfg = self.config
        for handle in self.handles:
            if handle.state == READY:
                if not handle.process.is_alive():
                    self.crashes_detected += 1
                    self.mark_down(handle, "process died")
                elif now - self.hb[handle.index] > cfg.heartbeat_interval * cfg.miss_threshold:
                    self.hangs_detected += 1
                    self._kill(handle)
                    self.mark_down(
                        handle,
                        f"missed {cfg.miss_threshold} heartbeats "
                        f"({cfg.heartbeat_interval * cfg.miss_threshold:.2f}s)",
                    )
                elif handle.failures and now - handle.ready_since > cfg.restart_reset_after:
                    handle.failures = 0  # healthy long enough: forgive old crashes
            elif handle.state == STARTING:
                if not handle.process.is_alive():
                    self.crashes_detected += 1
                    self.mark_down(handle, "died during startup")
                elif now - handle.started_at > cfg.start_timeout:
                    self._kill(handle)
                    self.mark_down(handle, "startup timed out")
            elif handle.state == DRAINING:
                if not handle.process.is_alive():
                    self.crashes_detected += 1
                    self.mark_down(handle, "process died while draining")
                elif handle.assigned and (
                    now - self.hb[handle.index] > cfg.heartbeat_interval * cfg.miss_threshold
                ):
                    self.hangs_detected += 1
                    self._kill(handle)
                    self.mark_down(handle, "hung while draining")
                elif not handle.assigned:
                    self._retire(handle)
            elif handle.state == DOWN:
                if handle.index >= self.target:
                    handle.state = DETACHED  # restart cancelled by a scale-down
                elif now >= handle.restart_at:
                    self.spawn(handle)

    def _close(self, handle: ReplicaHandle) -> None:
        """Stop reading a replica's acks, then close its pipes."""
        if handle.resp is not None:
            self._loop.remove_reader(handle.resp.fileno())
        handle.close_conns()

    def _kill(self, handle: ReplicaHandle) -> None:
        try:
            handle.process.kill()
        except (OSError, ValueError, AttributeError):
            pass

    # ------------------------------------------------------------------ #
    # queries / shutdown
    # ------------------------------------------------------------------ #
    def ready_handles(self) -> list[ReplicaHandle]:
        return [h for h in self.handles if h.state == READY]

    def active_handles(self) -> list[ReplicaHandle]:
        """Handles currently in (or leaving) service — everything not detached."""
        return [h for h in self.handles if h.state != DETACHED]

    def draining(self) -> int:
        return sum(1 for h in self.handles if h.state == DRAINING)

    def alive(self) -> bool:
        """Can the fleet still make progress (some in-service replica not FAILED)?"""
        return any(h.state != FAILED for h in self.handles[: self.target])

    def stop_all(self, timeout: float = 10.0) -> None:
        """Graceful stop: ask replicas to exit, then escalate to SIGKILL."""
        self._stopping = True
        for handle in self.handles:
            if handle.work is not None:
                try:
                    handle.work.send_bytes(record(STOP))
                except OSError:
                    pass
        deadline = self._clock() + timeout
        for handle in self.handles:
            process = handle.process
            if process is None:
                continue
            try:
                process.join(timeout=max(deadline - self._clock(), 0.0))
                if process.is_alive():
                    process.kill()
                    process.join(timeout=2.0)
            except (OSError, ValueError, AssertionError):
                pass
            self._close(handle)
            if handle.state not in (FAILED, DETACHED):
                handle.state = STOPPED
