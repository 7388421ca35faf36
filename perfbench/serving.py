"""The request path: the contracted net served by a one-replica fleet.

Load comes from this process through one ``FleetClient`` connection and one
submitting thread, in rounds of three phases of equal length; each metric is
the median over rounds of its per-round value:

* ``single`` — closed loop, one request outstanding (unloaded latency);
* ``window`` — closed loop, 16 outstanding, so the replica micro-batches;
* ``open``   — open loop at a constant arrival rate, the only phase that can
  build a queue at the front door.  Latency is timed from each request's
  scheduled send time, so a stalled generator shows up as latency and as
  ``serve.gen_late_ms`` instead of vanishing.

Every reply is checked against a direct ``numpy_forward`` of the same payload
on the executor the replica serves: bit-identical for int8, within a float
tolerance for float (the replica runs other batch sizes).
"""

from __future__ import annotations

import copy
import mmap
import os
import queue
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.compress import calibrate, quantize_model
from repro.serve import Fleet, FleetConfig
from repro.serve.fleet import ServingBackend

PHASES = ("single", "window", "open")
ROUNDS = 16
WINDOW = 16
# req/s: a fifth to a third of the float window capacity on 2 CPUs.  Nearer
# saturation the open-loop percentiles mostly tracked the machine's speed.
OPEN_RATE = 400.0
REPLY_TIMEOUT_S = 30.0
FLOAT_RTOL = 1e-4
PIN = True


class ForwardCounters:
    """[batches, samples, seconds] in an anonymous shared mapping.

    Created before the fleet forks its replica, so the replica's timing
    wrapper and this process see the same memory.
    """

    def __init__(self):
        self._map = mmap.mmap(-1, 3 * 8)
        self.values = np.frombuffer(self._map, dtype=np.float64)

    def snapshot(self) -> np.ndarray:
        return self.values.copy()


def serving_backend(model, engine, calibration, counters=None, sink=None) -> ServingBackend:
    """Fleet builder: compile (and for int8 quantize + calibrate) ``model``.

    Passed to ``FleetConfig.builder``; with the fork start method the replica
    inherits the executor built here, which ``sink["net"]`` hands back to the
    benchmark for reference outputs.
    """
    served = copy.deepcopy(model)
    served.eval()
    if engine == "int8":
        quantize_model(served)
        calibrate(served, calibration)
        net = repro.compile(served, mode="int8")
    else:
        net = repro.compile(served)
    forward = net.numpy_forward
    if counters is not None:
        values, inner = counters.values, net.numpy_forward

        def forward(batch):
            t0 = time.perf_counter()
            out = inner(batch)
            values[2] += time.perf_counter() - t0
            values[1] += len(batch)
            values[0] += 1
            return out

    if sink is not None:
        sink["net"] = net
    shape = tuple(calibration[0].shape[1:])
    return ServingBackend(forward, shape, net=net, name=f"contracted[{engine}]")


def _set_process_affinity(cores) -> None:
    """``sched_setaffinity`` on every thread of this process (it is per thread)."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cores)
        except ProcessLookupError:
            pass  # the thread ended meanwhile


def _pin(fleet) -> set | None:
    """The caller process on one core and the replica on another.

    Left to the scheduler, the caller's threads and the replica were placed
    differently from run to run, and run medians moved with the placement.
    Returns the caller's former mask, or None when nothing was pinned (fewer
    than two usable cores, or affinity not settable here).
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        return None
    (replica,) = fleet.stats().per_replica
    try:
        os.sched_setaffinity(replica["pid"], {cores[1]})
        _set_process_affinity({cores[0]})
    except OSError:
        _set_process_affinity(set(cores))
        return None
    return set(cores)


@dataclass
class PhaseResult:
    latencies_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    elapsed_s: float = 0.0
    submit_s: list = field(default_factory=list)
    late_s: list = field(default_factory=list)

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.latencies_ms, q)) if self.latencies_ms else float("nan")

    @property
    def rps(self) -> float:
        return len(self.latencies_ms) / self.elapsed_s if self.elapsed_s > 0 else 0.0


class _Checker:
    def __init__(self, references: np.ndarray, exact: bool):
        self.references = references
        self.exact = exact
        self.tolerance = FLOAT_RTOL * float(np.abs(references).max())

    def __call__(self, index: int, out: np.ndarray) -> bool:
        ref = self.references[index]
        if self.exact:
            return out.shape == ref.shape and bool(np.array_equal(out, ref))
        return out.shape == ref.shape and bool(np.max(np.abs(out - ref)) <= self.tolerance)


def _collect(done: queue.SimpleQueue, phase: PhaseResult, check: _Checker) -> None:
    future, index, t_sent, t_done = done.get(timeout=REPLY_TIMEOUT_S)
    try:
        out = future.result()
    except Exception:  # typed fleet error after the client's own retries
        phase.failed += 1
        return
    phase.latencies_ms.append(1e3 * (t_done - t_sent))
    if not check(index, out):
        phase.mismatched += 1


def _send(client, payloads, index, t_sent, done, phase, timed):
    t0 = time.perf_counter()
    future = client.submit(payloads[index])
    if timed:
        phase.submit_s.append(time.perf_counter() - t0)
    future.add_done_callback(
        lambda f, i=index, t=t_sent: done.put((f, i, t, time.perf_counter()))
    )


def closed_loop(client, payloads, order, outstanding, seconds, check, timed=False) -> PhaseResult:
    """Keep ``outstanding`` requests in flight for ``seconds``, then drain."""
    phase = PhaseResult()
    done: queue.SimpleQueue = queue.SimpleQueue()
    inflight = 0
    start = time.perf_counter()
    end = start + seconds
    while inflight < outstanding:
        index = order[phase.attempted % len(order)]
        _send(client, payloads, index, time.perf_counter(), done, phase, timed)
        phase.attempted += 1
        inflight += 1
    while inflight:
        _collect(done, phase, check)
        inflight -= 1
        if time.perf_counter() < end:
            index = order[phase.attempted % len(order)]
            _send(client, payloads, index, time.perf_counter(), done, phase, timed)
            phase.attempted += 1
            inflight += 1
    phase.elapsed_s = time.perf_counter() - start
    return phase


def open_loop(client, payloads, order, rate, seconds, check) -> PhaseResult:
    """Send on a constant-rate schedule; time each request from its due time."""
    phase = PhaseResult()
    done: queue.SimpleQueue = queue.SimpleQueue()
    n = max(int(rate * seconds), 1)
    start = time.perf_counter()
    for k in range(n):
        due = start + k / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        phase.late_s.append(max(time.perf_counter() - due, 0.0))
        _send(client, payloads, order[k % len(order)], due, done, phase, False)
        phase.attempted += 1
    for _ in range(n):
        _collect(done, phase, check)
    phase.elapsed_s = time.perf_counter() - start
    return phase


@dataclass
class ServingResult:
    setup_s: float
    warmup: PhaseResult
    rounds: dict  # phase name -> one PhaseResult per round
    front: dict  # phase name -> FleetStats read at the end of each round's phase
    forward: dict  # phase name -> replica [batches, samples, seconds] (traced runs)
    final: object = None  # FleetStats after close
    net: object = None  # the executor the replica served
    payloads: np.ndarray | None = None

    @property
    def phases(self) -> list:
        return [self.warmup] + [p for runs in self.rounds.values() for p in runs]

    def median(self, phase: str, stat) -> float:
        """Median over rounds of one per-round statistic."""
        return statistics.median(stat(p) for p in self.rounds[phase])


def run_serving(contracted, corpus, engine, seed, seconds, traced, setup_repeats,
                calibration_batches, batch_size) -> ServingResult:
    payloads = np.ascontiguousarray(corpus.val.images, dtype=np.float32)
    calibration = [corpus.train.images[i * batch_size:(i + 1) * batch_size]
                   for i in range(calibration_batches)]
    order = np.random.default_rng(seed).permutation(len(payloads))
    phase_s = seconds / (len(PHASES) * ROUNDS)
    counters = ForwardCounters() if traced else None
    sink: dict = {}
    config = FleetConfig(
        replicas=1,
        builder=serving_backend,
        builder_kwargs=dict(model=contracted, engine=engine, calibration=calibration,
                            counters=counters, sink=sink),
        start_method="fork",
        # Front-door percentiles cover the last 90% of the phase they are read after.
        stats_window_s=0.9 * phase_s,
    )
    drivers = {
        "single": lambda client, check: closed_loop(client, payloads, order, 1, phase_s, check, traced),
        "window": lambda client, check: closed_loop(client, payloads, order, WINDOW, phase_s, check, traced),
        "open": lambda client, check: open_loop(client, payloads, order, OPEN_RATE, phase_s, check),
    }

    setups = []
    fleet = None
    pinned = None
    try:
        for _ in range(setup_repeats):
            if fleet is not None:
                fleet.close()
            fleet = Fleet(config)
            t0 = time.perf_counter()
            fleet.start()
            setups.append(time.perf_counter() - t0)
        pinned = _pin(fleet) if PIN else None
        net = sink["net"]
        references = np.concatenate([net.numpy_forward(payloads[i:i + 1]) for i in range(len(payloads))])
        check = _Checker(references, exact=engine == "int8")
        result = ServingResult(
            setup_s=statistics.median(setups),
            warmup=PhaseResult(),
            rounds={name: [] for name in PHASES},
            front={name: [] for name in PHASES},
            forward={name: np.zeros(3) for name in PHASES},
            net=net,
            payloads=payloads,
        )
        with fleet.client() as client:
            result.warmup = closed_loop(client, payloads, order, WINDOW, phase_s, check)
            # Phases interleave round by round, so slow drifts of the machine
            # reach every phase alike and the per-round medians discard bursts.
            for _ in range(ROUNDS):
                for name in PHASES:
                    before = counters.snapshot() if traced else None
                    result.rounds[name].append(drivers[name](client, check))
                    result.front[name].append(fleet.stats())
                    if traced:
                        result.forward[name] += counters.snapshot() - before
    finally:
        if fleet is not None:
            fleet.close()
        if pinned is not None:
            _set_process_affinity(pinned)
    result.final = fleet.stats()
    return result


def _time_forward(net, batch, repeats: int) -> float:
    net.numpy_forward(batch)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        net.numpy_forward(batch)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def serve_layers(result: ServingResult) -> dict:
    """Per-layer metrics of the request path, from a traced run."""
    def forward_ms(phase):
        batches, samples, seconds = result.forward[phase]
        return (1e3 * seconds / batches, samples / batches) if batches else (0.0, 0.0)

    single_forward_ms, _ = forward_ms("single")
    window_forward_ms, window_batch = forward_ms("window")
    front_p50 = statistics.median(s.latency_ms_p50 or 0.0 for s in result.front["single"])
    front_p99 = statistics.median(s.latency_ms_p99 or 0.0 for s in result.front["window"])
    submits = [t for name in ("single", "window") for p in result.rounds[name] for t in p.submit_s]
    late = [t for p in result.rounds["open"] for t in p.late_s]
    final = result.final
    return {
        "serve.submit_us": (1e6 * statistics.fmean(submits), "us"),
        "serve.frontdoor_p50_ms": (front_p50, "ms"),
        "serve.frontdoor_p99_ms": (front_p99, "ms"),
        "serve.client_gap_ms": (result.median("single", lambda p: p.percentile(50)) - front_p50, "ms"),
        "serve.single_p99_ms": (result.median("single", lambda p: p.percentile(99)), "ms"),
        "runtime.forward_ms": (window_forward_ms, "ms"),
        "runtime.forward_single_ms": (single_forward_ms, "ms"),
        "serve.batch_size_mean": (window_batch, "count"),
        "serve.dispatch_gap_ms": (front_p50 - single_forward_ms, "ms"),
        "runtime.b1_ms": (_time_forward(result.net, result.payloads[:1], 300), "ms"),
        "runtime.b8_ms": (_time_forward(result.net, result.payloads[:8], 100), "ms"),
        "serve.shed": (final.shed, "count"),
        "serve.requeued": (final.requeued, "count"),
        "serve.lost": (final.lost, "count"),
        "serve.gen_late_ms": (1e3 * statistics.fmean(late), "ms"),
    }
