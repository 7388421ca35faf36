"""Replica lifecycle for the serving fleet: spawn, watch, restart, drain.

The :class:`Supervisor` owns the fleet's replica processes and nothing else —
request routing lives in :mod:`repro.serve.fleet`.  Each replica runs
:func:`_replica_main`: it attaches the shared-memory slot block, builds (or
inherits) its inference backend and serves micro-batches from a private
``multiprocessing`` pipe.  The loop is work-conserving: it blocks for one
request, adds what is already queued (up to ``max_batch``) and runs the batch
at once — under load the queue fills while the replica computes, so no timed
wait is needed.  Outputs and their CRC32s go into the slots, and one message
on a second private pipe acks the whole batch: ``("done", [(gid, crc), ...])``
or ``("err", [gid, ...], message)``.  Private pipes matter for fault
isolation: a replica killed mid-write can only poison *its own* channel.

Replica state machine::

                 spawn                 ready msg
   DETACHED ────────────▶ STARTING ─────────────▶ READY ──┐
      ▲                       │                      │     │ serves
      │        start timeout  │   crash / SIGKILL /  │     │ batches
      │        or early exit  │   missed heartbeats  │ ◀───┘
      │                       ▼                      ▼
      │     FAILED ◀──── [retries exhausted] ◀──── DOWN
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
flips, and the parent's pipe reader sees EOF immediately.  *Hang* needs the
watchdog: the replica's worker loop — not a helper thread, the loop that
actually serves — writes a monotonic timestamp into a shared heartbeat array
every iteration, so a wedged loop (chaos ``hang``, a stuck kernel) stops
beating by construction and the supervisor SIGKILLs and restarts it after
``miss_threshold`` missed intervals.

Restarts use capped exponential backoff (``min(cap, base * 2**(failures-1))``)
so a crash-looping replica cannot hog the machine, and the failure count
decays after a healthy period so one bad minute does not penalize the replica
forever.  All supervisor time arithmetic goes through an injectable ``clock``
(default ``time.monotonic``), so the backoff/decay schedule is testable
without real sleeps.
"""

from __future__ import annotations

import os
import time
import zlib
import threading
import multiprocessing
from collections import deque
from dataclasses import dataclass, field
from importlib import import_module
from multiprocessing import shared_memory

import numpy as np

from .chaos import ChaosConfig

__all__ = ["ReplicaSpec", "ReplicaHandle", "Supervisor", "resolve_builder"]

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
        backend = (
            spec.prebuilt
            if spec.prebuilt is not None
            else resolve_builder(spec.builder)(**spec.builder_kwargs)
        )
        forward = backend.forward if hasattr(backend, "forward") else backend
        monkey = spec.chaos.monkey(spec.index) if spec.chaos and spec.chaos.faults else None
        in_elems, out_elems = spec.input_elements, spec.output_elements
        batch_buf = np.empty((spec.max_batch,) + tuple(spec.input_shape), dtype=np.float32)
        beat()
        resp.send(("ready", os.getpid()))

        def apply_cfg(payload: dict) -> None:
            # Live fidelity switch, no restart.  Unknown keys are ignored so
            # the pipe protocol stays forward-compatible across generations.
            rung = payload.get("fidelity")
            if rung is not None and hasattr(backend, "set_rung"):
                backend.set_rung(int(rung))

        stop = False
        while not stop:
            # Block for the first request, heartbeating while idle: the beat
            # comes from THIS loop, so a wedged worker stops beating.
            msg = None
            while msg is None:
                beat()
                if work.poll(spec.heartbeat_interval / 2):
                    msg = work.recv()
                    if msg[0] == "cfg":
                        apply_cfg(msg[1])
                        msg = None
            if msg[0] == "stop":
                break
            # Work-conserving: batch what is already queued, never wait for more.
            batch = [msg]
            while len(batch) < spec.max_batch and work.poll(0):
                m = work.recv()
                if m[0] == "stop":
                    stop = True
                    break
                if m[0] == "cfg":
                    apply_cfg(m[1])
                    continue
                batch.append(m)
            beat()
            if monkey is not None:
                monkey.pre_batch()  # may SIGKILL, hang (starving beats), or sleep
            count = len(batch)
            for i, (_, _, slot) in enumerate(batch):
                batch_buf[i] = slots[slot, :in_elems].reshape(spec.input_shape)
            try:
                out = np.asarray(forward(batch_buf[:count]), dtype=np.float32).reshape(count, -1)
                if out.shape[1] != out_elems:
                    raise RuntimeError(
                        f"backend produced {out.shape[1]} elements/sample, expected {out_elems}"
                    )
            except Exception as error:  # typed per-request error, replica survives
                resp.send(("err", [gid for _, gid, _ in batch], f"{type(error).__name__}: {error}"))
                beat()
                continue
            acks = []
            for i, (_, gid, slot) in enumerate(batch):
                dest = slots[slot, in_elems : in_elems + out_elems]
                dest[:] = out[i]
                acks.append((gid, zlib.crc32(dest.tobytes())))
                if monkey is not None:
                    monkey.corrupt_reply(dest)  # after crc: mismatch is detectable upstream
            resp.send(("done", acks))
            beat()
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
    resp: object = None  # child -> parent ack connection (read by a thread)
    assigned: dict = field(default_factory=dict)  # gid -> entry, in flight on this replica
    served: int = 0
    batches: int = 0  # "done" acks, one per micro-batch the replica ran
    failures: int = 0
    restarts: int = 0
    started_at: float = 0.0
    ready_since: float = 0.0
    cold_start_ms: float | None = None  # spawn -> READY of the last (re)start
    restart_at: float = 0.0
    pid: int | None = None
    latencies: deque = field(default_factory=lambda: deque(maxlen=256))  # ms, recent

    def close_conns(self) -> None:
        for conn in (self.work, self.resp):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        self.work = self.resp = None


class Supervisor:
    """Owns replica processes: spawn, watch heartbeats, restart, stop.

    All methods run on the fleet's event-loop thread; replica acks arrive via
    per-replica reader threads that post back onto the loop through ``post``.

    Parameters
    ----------
    config:
        The :class:`~repro.serve.fleet.FleetConfig` (duck-typed here).
    spec:
        Template :class:`ReplicaSpec`; each spawn stamps its index.
    hb:
        Parent-side view of the shared heartbeat array.
    post:
        ``post(fn, *args)`` schedules a callback on the loop thread.
    on_msg, on_down:
        Fleet callbacks: ``on_msg(handle, msg)`` for replica acks;
        ``on_down(handle, reason, assigned)`` with the dead replica's
        in-flight requests, which the fleet requeues.
    clock:
        Monotonic time source for all backoff/decay/watchdog arithmetic;
        injectable so the restart schedule is testable without real sleeps.
    """

    def __init__(
        self, config, spec: ReplicaSpec, hb: np.ndarray, *, post, on_msg, on_down,
        clock=time.monotonic,
    ):
        self.config = config
        self.spec = spec
        self.hb = hb
        self._post = post
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

        spec = dataclasses.replace(self.spec, index=handle.index)
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
        handle.generation += 1
        handle.process = process
        handle.work = work_send
        handle.resp = resp_recv
        handle.state = STARTING
        handle.started_at = self._clock()
        handle.pid = process.pid
        handle.assigned.clear()
        self.hb[handle.index] = self._clock()
        threading.Thread(
            target=self._reader,
            args=(handle.index, handle.generation, resp_recv),
            name=f"serve-replica-{handle.index}-reader",
            daemon=True,
        ).start()

    def _reader(self, index: int, generation: int, conn) -> None:
        """Pump one replica generation's acks onto the loop thread."""
        while True:
            try:
                msg = conn.recv()
            except Exception:  # EOF, closed pipe, or a truncated/corrupt frame
                break
            self._post(self._handle_msg, index, generation, msg)
        self._post(self._handle_eof, index, generation)

    def _handle_msg(self, index: int, generation: int, msg) -> None:
        handle = self.handles[index]
        if handle.generation != generation or self._stopping:
            return  # stale generation: the crash was already handled
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
        handle.state = DOWN
        handle.close_conns()
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
        elif limit is not None and handle.failures > limit:
            handle.state = FAILED
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
                handle.work.send(("stop",))
            except (OSError, ValueError):
                pass
        handle.close_conns()
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
                    handle.work.send(("stop",))
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
            handle.close_conns()
            if handle.state not in (FAILED, DETACHED):
                handle.state = STOPPED
