"""Supervised multi-process serving fleet with an asyncio front door.

The in-process :class:`~repro.serve.Engine` tops out at one GIL and has no
recovery story.  :class:`Fleet` is the production-shaped tier above it:

* **N replica processes**, each holding an engine named by one of
  :data:`ENGINES` (``engine="int8"`` / ``"float"``) and built
  by :func:`resolve_net`, supervised by :class:`~repro.serve.supervisor.Supervisor`
  (heartbeat watchdog, crash/hang detection, capped-exponential-backoff
  restart, graceful drain).
* **Shared-memory slots** for tensor traffic: request and response tensors
  live side by side in fixed ``multiprocessing.shared_memory`` ring slots
  sized by the arena planner's :func:`repro.runtime.plan_io` hook, so a
  request's input bytes survive a crashed replica and can be redispatched
  without asking the client again.
* **An asyncio front door** speaking the length-prefixed protocol of
  :mod:`repro.serve.transport`: per-request deadlines (every admitted request
  resolves within its deadline — result or typed error), bounded admission
  (no free slot ⇒ an explicit ``Overloaded`` reply instead of an unbounded
  queue), CRC-validated replies, and automatic redispatch of failed attempts
  up to ``max_attempts``.
* **A fixed cost per read, not per request.**  Each client connection is an
  :class:`asyncio.Protocol`: one ``data_received`` admits every complete
  frame in its buffer and then sends each replica one RUN record of
  ``(gid, slot)`` pairs; only a request that finds its replica idle is
  sent at once, so the replica computes while the rest is admitted.  Replica
  acks are read on the same event loop (no reader threads), and the replies
  of one ACK_DONE record go out as one write per connection.  REQUEST
  frames without a deadline and RESPONSE frames carry no JSON meta; clients
  shape replies from the handshake.
* **Fault injection** via :mod:`repro.serve.chaos` — kill/hang/slow/corrupt
  faults in replicas and connection drops at the front door — so every
  recovery path above is exercised by tests and ``benchmarks/bench_serve.py``
  rather than trusted.

Quickstart::

    from repro.serve import Fleet, FleetClient

    with Fleet(replicas=4, builder_kwargs={"engine": "int8"}) as fleet:
        with fleet.client() as client:
            logits = client.predict(image)       # (C, H, W) -> (classes,)
        print(fleet.stats().summary())

The "zero lost requests" invariant: every request admitted by the front door
is eventually answered with a result or a typed error, across replica
crashes, hangs, corrupt replies, overload and drain.  ``FleetStats.lost``
counts violations and is asserted zero by the test suite and the chaos
benchmark gate.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
import zlib
from array import array
from collections import deque
from concurrent.futures import Future, TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, shared_memory

import numpy as np

from . import transport
from .chaos import ChaosConfig, parse_chaos
from .supervisor import CFG, FAILED, RUN, ReplicaSpec, Supervisor, record, resolve_builder
from .transport import (
    KIND_ERROR,
    KIND_PING,
    KIND_PONG,
    KIND_REQUEST,
    KIND_RESPONSE,
    KIND_STATS,
    KIND_STATS_REPLY,
    FleetClient,
    pack_frame,
)

__all__ = [
    "FleetConfig",
    "Fleet",
    "FleetStats",
    "ServingBackend",
    "model_backend",
    "echo_backend",
    "resolve_net",
    "ENGINES",
]

# Retry-after base while the stats window holds no completions yet (ms).
_RETRY_AFTER_IDLE_MS = 5.0
# gids travel as u32 words in pipe records, so they wrap
_GID_MASK = 0xFFFFFFFF
_RUN_WORD = record(RUN)


# --------------------------------------------------------------------------- #
# backends
# --------------------------------------------------------------------------- #
class ServingBackend:
    """A servable forward function plus its IO contract.

    Builders (``model_backend``, ``echo_backend``, or any
    ``"module:callable"`` path in :class:`FleetConfig.builder`) return one of
    these; replicas call ``forward(batch) -> outputs``.
    """

    def __init__(self, forward, input_shape: tuple[int, ...], net=None, name: str = "backend"):
        self.forward = forward
        self.input_shape = tuple(int(s) for s in input_shape)
        self.net = net
        self.name = name

    def io_plan(self):
        """Plan-derived slot sizing (:func:`repro.runtime.plan_io`)."""
        from ..runtime import plan_io

        return plan_io(self.net if self.net is not None else self.forward, self.input_shape)


# The engine names the serving layer accepts, both compiled by repro.compile.
ENGINES = ("float", "int8")


def resolve_net(
    model_name: str = "mobilenetv2-tiny",
    resolution: int = 16,
    num_classes: int = 16,
    engine: str = "int8",
    calibration_batches: int = 2,
    calibration_method: str = "minmax",
    seed: int = 0,
    artifact: str | None = None,
):
    """Build and compile a registry model for serving.

    ``engine`` is one of :data:`ENGINES`: ``"float"`` and ``"int8"`` compile
    with :func:`repro.compile` (a module the tracer does not know runs as an
    eager node inside the program); any other name raises ``ValueError``
    listing them.  Returns ``(net, input_shape)``.

    ``artifact`` short-circuits compilation entirely: the executor is loaded
    from a pre-compiled artifact file (:mod:`repro.runtime.artifact`) —
    skipping model init, quantization and calibration at boot — and the
    model/engine arguments are ignored in favor of the artifact header.
    """
    from ..compress import calibrate, quantize_model
    from ..models import create_model
    from ..runtime import compile_model
    from ..utils import seed_everything

    if artifact is not None:
        from ..runtime import load_artifact

        net = load_artifact(artifact)
        info = net.artifact
        shape = tuple(info.input_shape) if info.input_shape else (3, int(resolution), int(resolution))
        return net, shape
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; available: {list(ENGINES)}")
    seed_everything(seed)
    model = create_model(model_name, num_classes=num_classes)
    model.eval()
    input_shape = (3, int(resolution), int(resolution))
    if engine == "int8":
        rng = np.random.default_rng(seed)
        quantize_model(model)
        batches = [
            rng.normal(0.2, 0.8, size=(8,) + input_shape).astype(np.float32)
            for _ in range(calibration_batches)
        ]
        calibrate(model, batches, method=calibration_method)
    return compile_model(model, mode=engine), input_shape


def model_backend(
    model_name: str = "mobilenetv2-tiny",
    resolution: int = 16,
    num_classes: int = 16,
    engine: str = "int8",
    calibration_batches: int = 2,
    calibration_method: str = "minmax",
    seed: int = 0,
    artifact: str | None = None,
) -> ServingBackend:
    """Default fleet builder: a compiled registry model (int8 by default).

    With ``artifact=`` the engine is loaded from a compiled artifact file
    instead of compiled at boot (see :func:`resolve_net`).
    """
    net, input_shape = resolve_net(
        model_name=model_name,
        resolution=resolution,
        num_classes=num_classes,
        engine=engine,
        calibration_batches=calibration_batches,
        calibration_method=calibration_method,
        seed=seed,
        artifact=artifact,
    )
    if artifact is not None:
        name = f"artifact:{os.path.basename(artifact)}[{net.artifact.mode}]"
    else:
        name = f"{model_name}[{engine}]"
    return ServingBackend(net.numpy_forward, input_shape, net=net, name=name)


def echo_backend(
    resolution: int = 8, channels: int = 3, classes: int = 4, delay_ms: float = 0.0
) -> ServingBackend:
    """Deterministic model-free builder for fleet tests and chaos drills.

    The output is a cheap, exactly-reproducible function of the input (the
    per-sample features are split into ``classes`` contiguous chunks and each
    chunk summed), so correctness through crashes and redispatches can be
    asserted bit-for-bit without compiling a model.  ``delay_ms`` makes the
    backend artificially slow for overload and deadline tests.
    """
    input_shape = (int(channels), int(resolution), int(resolution))

    def forward(batch):
        if delay_ms:
            time.sleep(delay_ms / 1e3)
        flat = np.asarray(batch, dtype=np.float32).reshape(len(batch), -1)
        chunks = np.array_split(flat, classes, axis=1)
        return np.stack([chunk.sum(axis=1) for chunk in chunks], axis=1)

    return ServingBackend(forward, input_shape, name="echo")


# --------------------------------------------------------------------------- #
# config and stats
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FleetConfig:
    """Policy of a serving :class:`Fleet`.

    Parameters
    ----------
    replicas:
        Number of supervised replica processes started initially.
    max_replicas:
        Capacity ceiling for :meth:`Fleet.resize` — shared-memory heartbeat
        slots are allocated for this many replicas up front, so the fleet can
        scale between 1 and ``max_replicas`` without remapping memory.
        ``None`` (the default) means ``replicas`` (a fixed-size fleet).
    max_batch:
        Cap on a replica's micro-batch.  Replicas are work-conserving: each
        runs what is queued on its pipe at once, with no timed batching wait,
        and acks the batch with one message.
    max_pending:
        Bound on admitted-but-unfinished requests; this is also the number of
        shared-memory slots.  When full, new requests are shed with a typed
        ``Overloaded`` reply — the queue never grows without bound.
    default_deadline_ms:
        Server-side deadline for requests that do not carry their own; every
        admitted request resolves (result or typed error) within it.
    max_attempts:
        Dispatch attempts per request across crashed replicas, replica
        errors and corrupt replies before a typed error is returned.
    heartbeat_interval, miss_threshold:
        Replicas heartbeat from their serving loop every ``interval``
        seconds; ``miss_threshold`` missed beats mark a replica hung, which
        SIGKILLs and restarts it.
    start_timeout:
        Budget for a replica to build its backend and report ready.
    restart_backoff_base, restart_backoff_cap, restart_reset_after, max_restarts:
        Capped exponential restart backoff
        (``min(cap, base * 2**(failures-1))``); the failure count resets
        after ``restart_reset_after`` healthy seconds.  ``max_restarts=None``
        retries forever.
    builder, builder_kwargs:
        ``"module:callable"`` returning a :class:`ServingBackend`; defaults
        to the compiled registry model builder (:func:`model_backend`).
    chaos:
        A :class:`~repro.serve.chaos.ChaosConfig`, a spec string, or ``None``
        to read ``$REPRO_CHAOS``.
    start_method:
        ``"fork"`` (fast spawn + restart; replicas inherit the parent-built
        backend) or ``"spawn"`` (replicas rebuild from the spec).  ``None``
        picks fork when the platform offers it.
    stats_window_s:
        Sliding window for the fleet-level latency percentiles in
        :class:`FleetStats` — the autoscaler's pressure signal.  Only
        completions inside the window count, so the signal decays when
        traffic stops instead of pinning at the last burst's tail.
    """

    replicas: int = 2
    max_replicas: int | None = None
    max_batch: int = 8
    max_pending: int = 128
    default_deadline_ms: float = 10_000.0
    max_attempts: int = 3
    heartbeat_interval: float = 0.1
    miss_threshold: int = 5
    start_timeout: float = 60.0
    restart_backoff_base: float = 0.05
    restart_backoff_cap: float = 2.0
    restart_reset_after: float = 5.0
    max_restarts: int | None = None
    host: str = "127.0.0.1"
    port: int = 0
    builder: str = "repro.serve.fleet:model_backend"
    builder_kwargs: dict = field(default_factory=dict)
    chaos: "ChaosConfig | str | None" = None
    start_method: str | None = None
    drain_timeout: float = 15.0
    stats_window_s: float = 5.0

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if self.max_replicas is not None and self.max_replicas < self.replicas:
            raise ValueError("max_replicas must be >= replicas")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.heartbeat_interval <= 0 or self.miss_threshold < 1:
            raise ValueError("heartbeat_interval must be > 0 and miss_threshold >= 1")
        if self.start_method not in (None, "fork", "spawn", "forkserver"):
            raise ValueError(f"unknown start_method {self.start_method!r}")
        if self.stats_window_s <= 0:
            raise ValueError("stats_window_s must be > 0")

    def resolved_max_replicas(self) -> int:
        return self.max_replicas if self.max_replicas is not None else self.replicas

    def resolved_start_method(self) -> str:
        if self.start_method is not None:
            return self.start_method
        return "fork" if "fork" in get_all_start_methods() else "spawn"

    def resolved_chaos(self) -> ChaosConfig:
        if self.chaos is None:
            return ChaosConfig.from_env()
        return parse_chaos(self.chaos)


@dataclass
class FleetStats:
    """Snapshot of fleet counters; ``lost`` must be zero at all times."""

    replicas: int = 0
    target: int = 0
    max_replicas: int = 0
    ready: int = 0
    draining: int = 0
    submitted: int = 0
    completed: int = 0
    shed: int = 0
    errors: dict = field(default_factory=dict)
    requeued: int = 0
    corrupt_detected: int = 0
    deadline_expired: int = 0
    restarts: int = 0
    hangs_detected: int = 0
    crashes_detected: int = 0
    inflight: int = 0
    queue_depth: int = 0
    latency_ms_p50: float | None = None
    latency_ms_p95: float | None = None
    latency_ms_p99: float | None = None
    degradation_level: int = 0
    effective_deadline_ms: float = 0.0
    effective_max_pending: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    scale_events: list = field(default_factory=list)
    cold_start_ms_mean: float | None = None
    cold_start_ms_max: float | None = None
    fidelity: dict | None = None
    per_replica: list = field(default_factory=list)

    @property
    def error_total(self) -> int:
        return sum(self.errors.values())

    @property
    def lost(self) -> int:
        """Admitted requests unaccounted for — the invariant is zero."""
        return self.submitted - self.completed - self.error_total - self.inflight

    @property
    def batch_size_mean(self) -> float | None:
        """Requests served per replica batch ack, over the replicas listed."""
        batches = sum(r["batches"] for r in self.per_replica)
        return sum(r["served"] for r in self.per_replica) / batches if batches else None

    def summary(self) -> str:
        def ms(value: float | None) -> str:
            return "-" if value is None else f"{value:.2f} ms"

        mean_batch = self.batch_size_mean
        lines = [
            f"fleet             : {self.ready}/{self.target} replicas ready "
            f"(cap {self.max_replicas}, {self.draining} draining), "
            f"{self.restarts} restarts ({self.crashes_detected} crashes, "
            f"{self.hangs_detected} hangs detected)",
            f"requests          : {self.completed}/{self.submitted} completed, "
            f"{self.error_total} typed errors {dict(sorted(self.errors.items()))}, "
            f"{self.shed} shed, {self.inflight} in flight, {self.lost} lost",
            f"latency           : p50 {ms(self.latency_ms_p50)} / p95 {ms(self.latency_ms_p95)}"
            f" / p99 {ms(self.latency_ms_p99)}, queue depth {self.queue_depth}",
            f"batching          : {sum(r['batches'] for r in self.per_replica)} batches, "
            f"{'-' if mean_batch is None else f'{mean_batch:.2f}'} served per batch",
            f"recovery          : {self.requeued} requeued, {self.corrupt_detected} corrupt "
            f"replies caught, {self.deadline_expired} deadlines expired",
            f"elasticity        : {self.scale_ups} scale-ups / {self.scale_downs} scale-downs, "
            f"degradation level {self.degradation_level} "
            f"(deadline {self.effective_deadline_ms:.0f} ms, "
            f"pending cap {self.effective_max_pending})",
        ]
        if self.cold_start_ms_mean is not None:
            lines.append(
                f"cold start        : {self.cold_start_ms_mean:.1f} ms mean / "
                f"{self.cold_start_ms_max:.1f} ms max (spawn -> READY)"
            )
        if self.fidelity is not None:
            rungs = self.fidelity.get("rungs", [])
            active = self.fidelity.get("active_rung", 0)
            rung_bits = ", ".join(
                f"{'*' if i == active else ''}{r['name']} "
                f"({r['completed']} served, p99 {ms(r['latency_ms_p99'])}, "
                f"agree {r['agreement']:.2f})"
                for i, r in enumerate(rungs)
            )
            lines.append(
                f"fidelity          : rung {active}/{len(rungs) - 1}, "
                f"{self.fidelity.get('switches', 0)} switches [{rung_bits}]"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "replicas": self.replicas,
            "target": self.target,
            "max_replicas": self.max_replicas,
            "ready": self.ready,
            "draining": self.draining,
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "errors": dict(self.errors),
            "requeued": self.requeued,
            "corrupt_detected": self.corrupt_detected,
            "deadline_expired": self.deadline_expired,
            "restarts": self.restarts,
            "hangs_detected": self.hangs_detected,
            "crashes_detected": self.crashes_detected,
            "inflight": self.inflight,
            "queue_depth": self.queue_depth,
            "latency_ms_p50": self.latency_ms_p50,
            "latency_ms_p95": self.latency_ms_p95,
            "latency_ms_p99": self.latency_ms_p99,
            "degradation_level": self.degradation_level,
            "effective_deadline_ms": self.effective_deadline_ms,
            "effective_max_pending": self.effective_max_pending,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "scale_events": list(self.scale_events),
            "cold_start_ms_mean": self.cold_start_ms_mean,
            "cold_start_ms_max": self.cold_start_ms_max,
            "fidelity": dict(self.fidelity) if self.fidelity is not None else None,
            "lost": self.lost,
            "per_replica": list(self.per_replica),
        }


class _Entry:
    """Front-door bookkeeping for one admitted request."""

    __slots__ = (
        "gid", "conn", "request_id", "slot", "attempts",
        "dispatched", "done", "released", "timer", "admitted",
    )

    def __init__(self, gid, conn, request_id, slot):
        self.gid = gid
        self.conn = conn
        self.request_id = request_id
        self.slot = slot
        self.attempts = 0
        self.dispatched = None  # (replica_index, generation) while on a replica
        self.done = False  # client has its final answer
        self.released = False  # slot returned to the free pool
        self.timer = None
        self.admitted = 0.0  # monotonic admission timestamp for latency stats


class _Connection(asyncio.Protocol):
    """One client connection of the front door (event-loop thread).

    ``data_received`` handles every complete frame in the bytes so far, then
    flushes the dispatches they made, so a burst of frames read at once
    costs each replica at most two pipe writes (see :meth:`Fleet._dispatch`).
    Bytes of an incomplete frame wait in ``pending`` for the next read.
    """

    def __init__(self, fleet: "Fleet"):
        self.fleet = fleet
        self.transport = None
        self.pending = bytearray()

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.fleet._conns.add(self)

    def connection_lost(self, exc) -> None:
        self.fleet._conns.discard(self)

    def data_received(self, data: bytes) -> None:
        if self.pending:
            self.pending += data
            data = self.pending
        used = self.fleet._read_frames(self, data)
        if data is self.pending:
            del self.pending[:used]
        elif used < len(data):
            self.pending += data[used:]
        self.fleet._flush()

    def write(self, data: bytes) -> None:
        if not self.transport.is_closing():
            self.transport.write(data)


# --------------------------------------------------------------------------- #
# the fleet
# --------------------------------------------------------------------------- #
class Fleet:
    """Supervised multi-process serving fleet (see module docstring).

    All routing state lives on the event-loop thread; public methods are safe
    to call from any thread.  Use as a context manager or call :meth:`close`
    (graceful drain by default).
    """

    def __init__(self, config: FleetConfig | None = None, **overrides):
        if config is None:
            config = FleetConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or keyword overrides, not both")
        self.config = config
        self.address: tuple[str, int] | None = None
        self.io = None
        self._chaos = config.resolved_chaos()
        self._front_monkey = self._chaos.monkey(-2) if self._chaos.faults else None
        self._backend = None
        self._slots_shm = None
        self._hb_shm = None
        self._slots = None
        self._hb = None
        self._loop = None
        self._thread = None
        self._supervisor = None
        self._started = threading.Event()
        # bumped and notified by the loop when a replica turns READY or goes
        # DOWN / FAILED, so wait_ready() sleeps until the ready count can move
        self._replica_change = threading.Condition()
        self._replica_changes = 0
        self._start_error = None
        self._shutdown = None
        self._closed = False
        self._draining = False
        # routing state (event-loop thread only)
        self._free_slots: list[int] = []
        self._inflight: dict[int, _Entry] = {}
        self._undispatched: deque = deque()
        self._dirty: list = []  # replica handles with a non-empty outbox
        self._conns: set = set()  # open client connections
        self._next_gid = 0
        # counters (event-loop thread only)
        self._submitted = 0
        self._completed = 0
        self._shed = 0
        self._errors: dict[str, int] = {}
        self._requeued = 0
        self._corrupt_detected = 0
        self._deadline_expired = 0
        self._final_stats: FleetStats | None = None
        # elasticity and degradation state (event-loop thread only)
        self._t0 = time.monotonic()
        # (monotonic, ms) pairs pruned to stats_window_s, so the latency
        # percentiles — the autoscaler's main signal — decay when idle
        # instead of pinning at the last burst's tail forever
        self._latencies: deque = deque(maxlen=4096)
        self._scale_events: list[dict] = []
        self._scale_ups = 0
        self._scale_downs = 0
        self._degradation = 0
        self._eff_deadline_ms = config.default_deadline_ms
        self._eff_max_pending = config.max_pending
        # fidelity ladder state (event-loop thread only); populated when the
        # backend is a LadderBackend (repro.serve.fidelity)
        self._fidelity_rung = 0
        self._fidelity_switches = 0
        self._rung_completed: dict[int, int] = {}
        self._rung_latencies: dict[int, deque] = {}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self, wait_ready: bool = True) -> "Fleet":
        """Build the backend, map the slots, spawn replicas, open the door."""
        if self._thread is not None:
            raise RuntimeError("fleet already started")
        cfg = self.config
        self._backend = resolve_builder(cfg.builder)(**cfg.builder_kwargs)
        self.io = self._backend.io_plan()
        self._t0 = time.monotonic()
        n_slots = cfg.max_pending
        max_replicas = cfg.resolved_max_replicas()
        self._slots_shm = shared_memory.SharedMemory(
            create=True, size=max(n_slots * self.io.slot_bytes, 1)
        )
        # heartbeat slots are sized for the resize() ceiling up front, so the
        # fleet can scale between 1 and max_replicas without remapping memory
        self._hb_shm = shared_memory.SharedMemory(create=True, size=max_replicas * 8)
        self._slots = np.ndarray(
            (n_slots, self.io.slot_elements), dtype=np.float32, buffer=self._slots_shm.buf
        )
        self._inputs = self._slots[:, : self.io.input_elements]
        self._outputs = self._slots[:, self.io.input_elements :]
        self._hb = np.ndarray((max_replicas,), dtype=np.float64, buffer=self._hb_shm.buf)
        self._free_slots = list(range(n_slots))
        use_fork = cfg.resolved_start_method() == "fork"
        spec = ReplicaSpec(
            index=0,
            replicas=max_replicas,
            builder=cfg.builder,
            builder_kwargs=dict(cfg.builder_kwargs),
            input_shape=self.io.input_shape,
            input_elements=self.io.input_elements,
            output_elements=self.io.output_elements,
            slot_elements=self.io.slot_elements,
            n_slots=n_slots,
            slots_name=self._slots_shm.name,
            hb_name=self._hb_shm.name,
            max_batch=cfg.max_batch,
            heartbeat_interval=cfg.heartbeat_interval,
            chaos=self._chaos if self._chaos.faults else None,
            prebuilt=self._backend if use_fork else None,
        )
        self._spec = spec
        self._thread = threading.Thread(target=self._run_loop, name="fleet-front-door", daemon=True)
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._start_error is not None:
            raise self._start_error
        if self.address is None:
            raise RuntimeError("fleet front door failed to start")
        if wait_ready:
            try:
                self.wait_ready(timeout=cfg.start_timeout)
            except BaseException:
                self.close(drain=False)
                raise
        return self

    def wait_ready(self, timeout: float = 60.0, replicas: int = 1) -> None:
        """Block until at least ``replicas`` replicas report ready.

        Reads the count from :meth:`stats`, then sleeps until the loop reports
        a replica state change; raises :class:`TimeoutError` at the deadline,
        or :class:`~repro.serve.transport.ReplicaFailed` with the replicas'
        errors once FAILED replicas leave too few in service to get there.
        """
        deadline = time.monotonic() + timeout
        change = self._replica_change
        while True:
            with change:
                seen = self._replica_changes
            stats = self.stats()
            if stats.ready >= replicas:
                return
            failed = [r for r in stats.per_replica if r["state"] == FAILED and r["index"] < stats.target]
            if stats.target - len(failed) < min(replicas, stats.target):
                raise transport.ReplicaFailed(
                    "; ".join(f"replica {r['index']} failed: {r['error']}" for r in failed)
                )
            with change:
                remaining = deadline - time.monotonic()
                if not change.wait_for(lambda: self._replica_changes != seen, max(remaining, 0.0)):
                    raise TimeoutError(f"no {replicas} ready replicas within {timeout:.1f}s")

    def _notify_replica_change(self) -> None:
        with self._replica_change:
            self._replica_changes += 1
            self._replica_change.notify_all()

    def client(self, **kwargs) -> FleetClient:
        """A connected :class:`~repro.serve.transport.FleetClient`."""
        if self.address is None:
            raise RuntimeError("fleet is not started")
        return FleetClient(self.address, **kwargs)

    def stats(self) -> FleetStats:
        """A consistent snapshot of the fleet counters (any thread)."""
        if self._final_stats is not None or self._loop is None:
            return self._final_stats or FleetStats(replicas=self.config.replicas)
        fut: Future = Future()

        def grab():
            try:
                fut.set_result(self._stats_snapshot())
            except Exception as error:
                fut.set_exception(error)

        self._post(grab)
        try:
            return fut.result(timeout=5.0)
        except FutureTimeout:  # the loop is gone, so no snapshot will come
            return self._final_stats or FleetStats(replicas=self.config.replicas)

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop admitting, finish in-flight (when draining), stop replicas."""
        if self._closed:
            return
        self._closed = True
        if self._thread is None:
            self._cleanup_shm()
            return
        if timeout is None:
            timeout = self.config.drain_timeout + 15.0
        self._post(self._begin_shutdown, drain)
        self._thread.join(timeout=timeout)
        self._cleanup_shm()

    def __enter__(self) -> "Fleet":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _cleanup_shm(self) -> None:
        self._slots = self._inputs = self._outputs = None
        self._hb = None
        if self._supervisor is not None:
            self._supervisor.hb = None
        for shm_attr in ("_slots_shm", "_hb_shm"):
            shm = getattr(self, shm_attr)
            if shm is None:
                continue
            setattr(self, shm_attr, None)
            try:
                shm.close()
                shm.unlink()
            except (BufferError, FileNotFoundError, OSError):
                pass

    # ------------------------------------------------------------------ #
    # event loop
    # ------------------------------------------------------------------ #
    def _run_loop(self) -> None:
        try:
            asyncio.run(self._serve_main())
        except Exception as error:  # pragma: no cover - defensive
            self._start_error = error
            self._started.set()

    def _post(self, fn, *args) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:
            pass  # loop shut down between the check and the call

    async def _serve_main(self) -> None:
        cfg = self.config
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._drain_requested = True
        self._supervisor = Supervisor(
            cfg,
            self._spec,
            self._hb,
            loop=self._loop,
            on_msg=self._on_replica_msg,
            on_down=self._on_replica_down,
        )
        server = await self._loop.create_server(lambda: _Connection(self), cfg.host, cfg.port)
        self.address = server.sockets[0].getsockname()[:2]
        self._supervisor.spawn_all()
        watchdog = asyncio.create_task(self._watchdog())
        self._started.set()
        await self._shutdown.wait()
        # ---- graceful drain: stop admitting, finish in-flight, stop fleet
        self._draining = True
        server.close()
        if self._drain_requested:
            deadline = time.monotonic() + cfg.drain_timeout
            while any(not e.done for e in self._inflight.values()) and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
        for entry in list(self._inflight.values()):
            if not entry.done:
                self._finish_error(entry, transport.ServerClosed("fleet shut down"))
            entry.dispatched = None
            self._release(entry)
        watchdog.cancel()
        self._supervisor.stop_all(timeout=5.0)
        for conn in list(self._conns):
            conn.transport.close()
        await server.wait_closed()
        self._final_stats = self._stats_snapshot()

    def _begin_shutdown(self, drain: bool) -> None:
        self._drain_requested = drain
        if self._shutdown is not None:
            self._shutdown.set()

    async def _watchdog(self) -> None:
        interval = max(self.config.heartbeat_interval / 2, 0.01)
        while True:
            await asyncio.sleep(interval)
            self._supervisor.poll()
            self._flush_undispatched()

    # ------------------------------------------------------------------ #
    # client connections
    # ------------------------------------------------------------------ #
    def _read_frames(self, conn: _Connection, data) -> int:
        """Handle each complete frame in ``data``; returns the bytes used."""
        head = transport.HEADER
        pos, size = 0, len(data)
        while size - pos >= head.size:
            length, kind, request_id, meta_len = head.unpack_from(data, pos)
            if not 9 <= length <= transport.MAX_FRAME_BYTES or meta_len > length - 9:
                conn.transport.close()
                return size
            end = pos + 4 + length
            if end > size:
                break
            start = pos + head.size
            try:
                meta = json.loads(data[start : start + meta_len]) if meta_len else {}
            except ValueError:
                meta = None
            if not isinstance(meta, dict):  # malformed meta: drop the stream
                conn.transport.close()
                return size
            start += meta_len
            pos = end
            if kind == KIND_REQUEST:
                if self._front_monkey is not None and self._front_monkey.drop_connection():
                    conn.transport.abort()  # chaos: sever the connection mid-request
                    return size
                self._admit(conn, request_id, meta, data, start, end)
            elif kind == KIND_PING:
                conn.write(
                    pack_frame(
                        KIND_PONG,
                        request_id,
                        {
                            "input_shape": list(self.io.input_shape),
                            "output_shape": list(self.io.output_shape),
                            "replicas": self.config.replicas,
                        },
                    )
                )
            elif kind == KIND_STATS:
                conn.write(pack_frame(KIND_STATS_REPLY, request_id, self._stats_snapshot().to_dict()))
        return pos

    def _reply_error(
        self, conn: _Connection, request_id: int, code: str, message: str, extra: dict | None = None
    ) -> None:
        meta = {"code": code, "message": message}
        if extra:
            meta.update(extra)
        conn.write(pack_frame(KIND_ERROR, request_id, meta))

    # ------------------------------------------------------------------ #
    # admission and dispatch (event-loop thread)
    # ------------------------------------------------------------------ #
    def _admit(self, conn: _Connection, request_id: int, meta: dict, data, start, end) -> None:
        """Admit the request whose payload is ``data[start:end]``; no dispatch flush."""
        if self._draining:
            self._reply_error(conn, request_id, "shutdown", "fleet is draining")
            return
        n_in = self.io.input_elements
        if end - start != n_in * 4:
            self._reply_error(
                conn,
                request_id,
                "bad_request",
                f"expected {n_in * 4} payload bytes, got {end - start}",
            )
            return
        if not self._supervisor.alive():
            self._reply_error(conn, request_id, "replica_failed", "all replicas failed permanently")
            return
        if not self._free_slots or len(self._inflight) >= self._eff_max_pending:
            self._shed += 1
            self._reply_error(
                conn, request_id, "overloaded",
                f"admission queue full ({self._eff_max_pending} pending)",
                extra={
                    "retry_after_ms": round(self._retry_after_hint(), 2),
                    "level": self._degradation,
                },
            )
            return
        slot = self._free_slots.pop()
        self._inputs[slot] = np.frombuffer(data, dtype=np.float32, count=n_in, offset=start)
        self._next_gid = (self._next_gid + 1) & _GID_MASK
        entry = _Entry(self._next_gid, conn, request_id, slot)
        deadline_ms = min(
            float(meta.get("deadline_ms") or self.config.default_deadline_ms),
            self._eff_deadline_ms,
        )
        entry.timer = self._loop.call_later(deadline_ms / 1e3, self._expire, entry)
        entry.admitted = time.monotonic()
        self._inflight[entry.gid] = entry
        self._submitted += 1
        self._dispatch(entry)

    def _dispatch(self, entry: _Entry) -> None:
        """Assign ``entry`` to the least-loaded ready replica's outbox.

        A replica with nothing in flight is sent the entry at once, so it
        computes while the rest of the read is admitted.  Otherwise nothing
        is sent until :meth:`_flush`; every path that dispatches flushes
        before it returns to the event loop.  Holding the first request of
        a burst back too made every burst one convoy: the replica ran all
        of it while the front door waited, and sent it all back at once, so
        the next burst came whole again, and throughput fell by a quarter
        in the rounds that locked into it.
        """
        ready = self._supervisor.ready_handles()
        if not ready:
            self._undispatched.append(entry)
            return
        handle = min(ready, key=lambda h: len(h.assigned))
        entry.dispatched = (handle.index, handle.generation)
        idle = len(handle.assigned) == len(handle.outbox) // 2
        handle.assigned[entry.gid] = entry
        if not handle.outbox:
            self._dirty.append(handle)
        handle.outbox.append(entry.gid)
        handle.outbox.append(entry.slot)
        if idle:
            self._send_run(handle)

    def _flush(self) -> None:
        """Send each replica its queued dispatches as one RUN record."""
        while self._dirty:
            self._send_run(self._dirty.pop())

    def _send_run(self, handle) -> None:
        pairs, handle.outbox = handle.outbox, array("I")
        if not pairs or handle.work is None:
            return  # sent already, or the replica went down (mark_down requeued its entries)
        try:
            handle.work.send_bytes(_RUN_WORD + pairs.tobytes())
        except (OSError, ValueError):
            # the pipe just broke under us: this replica is dead; mark_down
            # requeues everything assigned to it (including these entries)
            self._supervisor.crashes_detected += 1
            self._supervisor.mark_down(handle, "dispatch pipe error")

    def _flush_undispatched(self) -> None:
        while self._undispatched and self._supervisor.ready_handles():
            entry = self._undispatched.popleft()
            if entry.done or entry.dispatched is not None:
                continue
            self._dispatch(entry)
        self._flush()

    # ------------------------------------------------------------------ #
    # elasticity and degradation
    # ------------------------------------------------------------------ #
    def resize(self, replicas: int, reason: str = "manual", timeout: float = 30.0) -> int:
        """Change the in-service replica count (any thread); returns the clamp.

        Scale-up respawns retired handles up to ``max_replicas``; scale-down
        marks the highest-index replicas draining — each finishes its
        in-flight work before retiring, so ``FleetStats.lost`` stays zero.
        Blocks until the new target is applied (not until draining ends).
        """
        if self._loop is None or self._closed:
            raise RuntimeError("fleet is not running")
        fut: Future = Future()

        def apply():
            try:
                fut.set_result(self._apply_resize(int(replicas), reason))
            except Exception as error:  # pragma: no cover - defensive
                fut.set_exception(error)

        self._post(apply)
        return fut.result(timeout=timeout)

    def _apply_resize(self, replicas: int, reason: str) -> int:
        sup = self._supervisor
        old = sup.target
        new = sup.set_target(replicas)
        if new != old:
            self._scale_events.append(
                {
                    "t": round(time.monotonic() - self._t0, 3),
                    "from": old,
                    "to": new,
                    "reason": reason,
                }
            )
            del self._scale_events[:-64]
            if new > old:
                self._scale_ups += 1
            else:
                self._scale_downs += 1
            self._flush_undispatched()
            self._notify_replica_change()  # a draining replica may be READY again
        return new

    def set_degradation(
        self,
        level: int,
        *,
        deadline_ms: float | None = None,
        max_pending: int | None = None,
    ) -> None:
        """Apply a graceful-degradation step (any thread).

        Level 0 restores the configured policy; higher levels install the
        supplied effective deadline and pending cap.  Both are front-door
        admission limits: replicas are work-conserving and have no batching
        wait to tune, so a degradation step sends them nothing.
        """
        if self._loop is None or self._closed:
            raise RuntimeError("fleet is not running")
        self._post(self._apply_degradation, int(level), deadline_ms, max_pending)

    def _apply_degradation(self, level, deadline_ms, max_pending) -> None:
        cfg = self.config
        self._degradation = max(0, level)
        if self._degradation == 0:
            self._eff_deadline_ms = cfg.default_deadline_ms
            self._eff_max_pending = cfg.max_pending
        else:
            if deadline_ms is not None:
                self._eff_deadline_ms = max(1.0, float(deadline_ms))
            if max_pending is not None:
                self._eff_max_pending = max(1, int(max_pending))

    # ------------------------------------------------------------------ #
    # fidelity ladder (repro.serve.fidelity)
    # ------------------------------------------------------------------ #
    @property
    def fidelity_rungs(self) -> int:
        """Rung count of the backend's fidelity ladder (1 = no ladder)."""
        return len(getattr(self._backend, "rungs", ()) or ()) or 1

    def set_fidelity(self, rung: int, reason: str = "manual") -> None:
        """Switch every replica to ladder rung ``rung`` (any thread).

        Rung 0 is full fidelity; higher rungs trade accuracy for latency.
        Replicas pick the switch up over their work pipes (no restart); a
        replica that restarts mid-ladder is re-synced from its ready ack.
        """
        if self._loop is None or self._closed:
            raise RuntimeError("fleet is not running")
        self._post(self._apply_fidelity, int(rung), str(reason))

    def _apply_fidelity(self, rung: int, reason: str) -> None:
        rung = max(0, min(rung, self.fidelity_rungs - 1))
        if rung == self._fidelity_rung:
            return
        old, self._fidelity_rung = self._fidelity_rung, rung
        self._fidelity_switches += 1
        self._scale_events.append(
            {
                "t": time.monotonic() - self._t0,
                "kind": "fidelity",
                "from": old,
                "to": rung,
                "reason": reason,
            }
        )
        del self._scale_events[:-64]
        self._broadcast_cfg()

    def _broadcast_cfg(self, handle=None) -> None:
        handles = [handle] if handle is not None else self._supervisor.active_handles()
        cfg = record(CFG, self._fidelity_rung)
        for h in handles:
            if h.work is None:
                continue
            try:
                h.work.send_bytes(cfg)
            except (OSError, ValueError):
                pass  # dying replica; the watchdog deals with it

    def _retry_after_hint(self) -> float:
        """Server-side estimate of when a retry is worth it, in milliseconds."""
        self._prune_latencies()
        if self._latencies:
            ordered = sorted(value for _, value in self._latencies)
            base = ordered[len(ordered) // 2]
        else:
            base = _RETRY_AFTER_IDLE_MS
        sup = self._supervisor
        ready = max(1, len(sup.ready_handles())) if sup is not None else 1
        backlog = len(self._undispatched) / (ready * self.config.max_batch)
        hint = base * (1.0 + backlog) * (1.0 + self._degradation)
        return float(min(max(hint, 1.0), self.config.default_deadline_ms / 2))

    # ------------------------------------------------------------------ #
    # replica events (event-loop thread, via supervisor)
    # ------------------------------------------------------------------ #
    def _on_replica_msg(self, handle, msg) -> None:
        kind = msg[0]
        if kind == "ready":
            if self._fidelity_rung:
                self._broadcast_cfg(handle)  # replica (re)started mid-ladder
            self._flush_undispatched()
            self._notify_replica_change()
        elif kind == "done":
            handle.batches += 1
            replies: dict = {}  # connection -> reply frames of this batch
            for gid, crc in msg[1]:
                entry = self._take(handle, gid)
                if entry is not None:
                    frame = self._complete(handle, entry, crc)
                    if frame is not None:
                        replies.setdefault(entry.conn, []).append(frame)
            for conn, frames in replies.items():
                conn.write(b"".join(frames))
            self._flush()  # corrupt replies were redispatched
        elif kind == "err":
            _, gids, message = msg
            for gid in gids:
                entry = self._take(handle, gid)
                if entry is not None:
                    self._retry(entry, transport.ReplicaFailed(message))
            self._flush()

    def _take(self, handle, gid: int) -> "_Entry | None":
        """Pop an acked request off its replica; None if stale or already answered."""
        entry = handle.assigned.pop(gid, None)
        if entry is None:
            return None
        entry.dispatched = None
        if entry.done:  # deadline already answered the client; reclaim the slot
            self._release(entry)
            return None
        return entry

    def _complete(self, handle, entry: _Entry, crc: int) -> bytes | None:
        """Validate one reply in its slot; returns its RESPONSE frame, or None
        after redispatching a corrupt reply."""
        data = self._outputs[entry.slot]
        if zlib.crc32(data) != crc:
            self._corrupt_detected += 1
            self._retry(entry, transport.CorruptReply("reply failed checksum validation"))
            return None
        handle.served += 1
        now = time.monotonic()
        latency_ms = (now - entry.admitted) * 1e3
        self._latencies.append((now, latency_ms))
        handle.latencies.append(latency_ms)
        if self.fidelity_rungs > 1:
            # Attribute to the fleet-wide active rung; switches are rare
            # enough that boundary requests don't distort the buckets.
            rung = self._fidelity_rung
            self._rung_completed[rung] = self._rung_completed.get(rung, 0) + 1
            self._rung_latencies.setdefault(rung, deque(maxlen=512)).append(latency_ms)
        self._completed += 1
        self._finish(entry)
        self._release(entry)
        return pack_frame(KIND_RESPONSE, entry.request_id, None, data.tobytes())

    def _on_replica_down(self, handle, reason: str, assigned: dict) -> None:
        for entry in assigned.values():
            entry.dispatched = None
            if entry.done:
                self._release(entry)
            else:
                self._retry(entry, transport.ReplicaFailed(f"replica {handle.index} down: {reason}"))
        self._flush()
        self._notify_replica_change()

    # ------------------------------------------------------------------ #
    # completion paths
    # ------------------------------------------------------------------ #
    def _retry(self, entry: _Entry, error: "transport.FleetError") -> None:
        entry.attempts += 1
        if entry.attempts >= self.config.max_attempts:
            self._finish_error(entry, error)
            self._release(entry)
            return
        self._requeued += 1
        self._dispatch(entry)

    def _expire(self, entry: _Entry) -> None:
        if entry.done:
            return
        self._deadline_expired += 1
        self._finish_error(
            entry, transport.DeadlineExceeded("request deadline expired"), cancel_timer=False
        )
        if entry.dispatched is None:
            # never on a replica right now: the slot can be reclaimed at once;
            # if it sits in the undispatched queue the flush skips done entries
            self._release(entry)
        # else: a replica is still writing this slot — it is released when the
        # late ack arrives or the replica dies (zombie slot accounting)

    def _finish(self, entry: _Entry, cancel_timer: bool = True) -> None:
        entry.done = True
        if cancel_timer and entry.timer is not None:
            entry.timer.cancel()

    def _finish_error(self, entry: _Entry, error, cancel_timer: bool = True) -> None:
        code = getattr(error, "code", "error")
        self._errors[code] = self._errors.get(code, 0) + 1
        self._reply_error(entry.conn, entry.request_id, code, str(error))
        self._finish(entry, cancel_timer=cancel_timer)

    def _release(self, entry: _Entry) -> None:
        if entry.released or entry.dispatched is not None:
            return
        entry.released = True
        self._inflight.pop(entry.gid, None)
        self._free_slots.append(entry.slot)

    # ------------------------------------------------------------------ #
    # stats
    # ------------------------------------------------------------------ #
    def _prune_latencies(self) -> None:
        cutoff = time.monotonic() - self.config.stats_window_s
        while self._latencies and self._latencies[0][0] < cutoff:
            self._latencies.popleft()

    @staticmethod
    def _percentiles(samples) -> tuple[float | None, float | None, float | None]:
        if not samples:
            return None, None, None
        arr = np.asarray(samples, dtype=np.float64)
        p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
        return float(p50), float(p95), float(p99)

    def _stats_snapshot(self) -> FleetStats:
        sup = self._supervisor
        per_replica = []
        ready = 0
        target = self.config.replicas
        draining = 0
        cold_starts: list = []
        if sup is not None:
            for handle in sup.active_handles():
                _, _, handle_p99 = self._percentiles(handle.latencies)
                per_replica.append(
                    {
                        "index": handle.index,
                        "state": handle.state,
                        "served": handle.served,
                        "batches": handle.batches,
                        "restarts": handle.restarts,
                        "pid": handle.pid,
                        "inflight": len(handle.assigned),
                        "latency_ms_p99": handle_p99,
                        "cold_start_ms": handle.cold_start_ms,
                        "error": handle.error,
                    }
                )
            ready = len(sup.ready_handles())
            target = sup.target
            draining = sup.draining()
            cold_starts = list(sup.cold_start_ms)
        fidelity = None
        if self.fidelity_rungs > 1:
            names = getattr(self._backend, "rung_names", None) or [
                f"rung{i}" for i in range(self.fidelity_rungs)
            ]
            agreement = getattr(self._backend, "agreement", None) or [1.0] * len(names)
            rungs = []
            for i, name in enumerate(names):
                _, _, rung_p99 = self._percentiles(self._rung_latencies.get(i, ()))
                rungs.append(
                    {
                        "name": name,
                        "completed": self._rung_completed.get(i, 0),
                        "latency_ms_p99": rung_p99,
                        "agreement": float(agreement[i]) if i < len(agreement) else 1.0,
                    }
                )
            fidelity = {
                "active_rung": self._fidelity_rung,
                "switches": self._fidelity_switches,
                "rungs": rungs,
            }
        self._prune_latencies()
        p50, p95, p99 = self._percentiles([value for _, value in self._latencies])
        return FleetStats(
            replicas=self.config.replicas,
            target=target,
            max_replicas=self.config.resolved_max_replicas(),
            ready=ready,
            draining=draining,
            submitted=self._submitted,
            completed=self._completed,
            shed=self._shed,
            errors=dict(self._errors),
            requeued=self._requeued,
            corrupt_detected=self._corrupt_detected,
            deadline_expired=self._deadline_expired,
            restarts=sup.restarts if sup is not None else 0,
            hangs_detected=sup.hangs_detected if sup is not None else 0,
            crashes_detected=sup.crashes_detected if sup is not None else 0,
            inflight=sum(1 for e in self._inflight.values() if not e.done),
            queue_depth=sum(
                1 for e in self._undispatched if not e.done and e.dispatched is None
            ),
            latency_ms_p50=p50,
            latency_ms_p95=p95,
            latency_ms_p99=p99,
            degradation_level=self._degradation,
            effective_deadline_ms=self._eff_deadline_ms,
            effective_max_pending=self._eff_max_pending,
            scale_ups=self._scale_ups,
            scale_downs=self._scale_downs,
            scale_events=list(self._scale_events),
            cold_start_ms_mean=float(np.mean(cold_starts)) if cold_starts else None,
            cold_start_ms_max=float(np.max(cold_starts)) if cold_starts else None,
            fidelity=fidelity,
            per_replica=per_replica,
        )
