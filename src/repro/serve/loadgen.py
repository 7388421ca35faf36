"""Load generator for the serving engine and fleet: closed- and open-loop.

Drives anything with an ``Engine``-shaped ``submit`` — the in-process
:class:`~repro.serve.Engine` or a fleet
:class:`~repro.serve.transport.FleetClient` — in one of two modes:

* **Closed loop** (``mode="closed"``, the default): ``concurrency``
  synchronous clients, each submitting a request, waiting for its result,
  then submitting the next.  Offered load adapts to the server — the classic
  benchmark model, but it cannot overload anything.
* **Open loop** (``mode="open"``): requests are submitted on a fixed arrival
  schedule derived from ``rate`` (req/s) and ``duration_s`` regardless of
  how fast the server answers — the production model, and the only one that
  can actually drive a server past saturation.  ``traffic`` shapes the
  schedule: ``"constant"``, ``"ramp"`` (linear ramp up to ``rate``),
  ``"spike"`` (``spike_mult`` x burst inside ``spike_window``) and ``"step"``
  (rate doubles at ``step_at``).  The report's ``latency_ms_p99_tail`` is
  the p99 over the *last 35%* of the schedule — the post-convergence number
  an autoscaler is judged on.

Used by ``python -m repro.serve`` and ``benchmarks/bench_serve.py``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor, TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field

import numpy as np

__all__ = ["LoadReport", "run_load", "arrival_offsets", "TRAFFIC_SHAPES", "SERVING_ERRORS"]

TRAFFIC_SHAPES = ("constant", "ramp", "spike", "step")

_TAIL_FRACTION = 0.35  # share of the schedule counted as "post-convergence"

# What a served request can fail with: the fleet's typed errors and a closed
# engine or client (RuntimeError; FleetError is one), a dropped connection or
# a timeout (OSError), a rejected sample (ValueError).  They are counted per
# class; any other exception is a bug and propagates out of run_load.
SERVING_ERRORS = (RuntimeError, OSError, ValueError)


def _count(counts: dict, error: BaseException) -> None:
    name = type(error).__name__
    counts[name] = counts.get(name, 0) + 1


@dataclass
class LoadReport:
    """Result of one load run (closed- or open-loop)."""

    requests: int
    concurrency: int
    elapsed_s: float
    requests_per_sec: float
    latency_ms_p50: float
    latency_ms_p95: float
    latency_ms_p99: float
    latency_ms_mean: float
    errors: int = 0
    timeouts: int = 0
    mode: str = "closed"
    offered: int = 0
    offered_rate: float = 0.0
    latency_ms_p99_tail: float | None = None
    error_classes: dict = field(default_factory=dict)  # measured errors per class
    warmup_errors: dict = field(default_factory=dict)  # warmup failures per class

    def summary(self) -> str:
        if self.mode == "open":
            head = (
                f"{self.requests}/{self.offered} requests @ "
                f"{self.offered_rate:.1f} req/s offered (open loop): "
            )
        else:
            head = f"{self.requests} requests @ concurrency {self.concurrency}: "
        tail = (
            f", tail p99 {self.latency_ms_p99_tail:.2f} ms"
            if self.latency_ms_p99_tail is not None
            else ""
        )
        return (
            head
            + f"{self.requests_per_sec:.1f} req/s, "
            f"latency p50 {self.latency_ms_p50:.2f} ms / "
            f"p95 {self.latency_ms_p95:.2f} ms / p99 {self.latency_ms_p99:.2f} ms"
            + tail
            + (f", {self.errors} errors {self.error_classes}" if self.errors else "")
            + (f", {self.timeouts} timeouts" if self.timeouts else "")
            + (f", warmup errors {self.warmup_errors}" if self.warmup_errors else "")
        )


def arrival_offsets(
    traffic: str,
    rate: float,
    duration_s: float,
    *,
    ramp_from: float = 0.25,
    spike_mult: float = 4.0,
    spike_window: tuple[float, float] = (0.4, 0.6),
    step_at: float = 0.5,
    step_mult: float = 2.0,
) -> list[float]:
    """Deterministic open-loop arrival schedule, as offsets in seconds.

    The instantaneous rate function of each shape is integrated by stepping
    ``t += 1 / rate(t)`` — no randomness, so a schedule is exactly
    reproducible across runs and machines.

    * ``constant`` — ``rate`` throughout.
    * ``ramp`` — linear from ``ramp_from * rate`` up to ``rate``.
    * ``spike`` — ``rate``, but ``spike_mult * rate`` inside
      ``spike_window`` (fractions of the duration).
    * ``step`` — ``rate`` before ``step_at``, ``step_mult * rate`` after.
    """
    if traffic not in TRAFFIC_SHAPES:
        raise ValueError(f"unknown traffic shape {traffic!r}; known: {TRAFFIC_SHAPES}")
    if rate <= 0 or duration_s <= 0:
        raise ValueError("rate and duration_s must be > 0")
    lo, hi = spike_window
    if not 0 <= lo < hi <= 1:
        raise ValueError("spike_window must satisfy 0 <= lo < hi <= 1")

    def rate_at(t: float) -> float:
        frac = t / duration_s
        if traffic == "ramp":
            return rate * (ramp_from + (1.0 - ramp_from) * frac)
        if traffic == "spike":
            return rate * spike_mult if lo <= frac < hi else rate
        if traffic == "step":
            return rate * step_mult if frac >= step_at else rate
        return rate

    offsets: list[float] = []
    t = 0.0
    while t < duration_s:
        offsets.append(t)
        t += 1.0 / rate_at(t)
    return offsets


def run_load(
    engine,
    n_requests: int,
    concurrency: int = 8,
    input_shape: tuple[int, int, int] | None = None,
    seed: int = 0,
    warmup: int = 8,
    timeout: float | None = None,
    mode: str = "closed",
    rate: float | None = None,
    duration_s: float | None = None,
    traffic: str = "constant",
    **shape_kwargs,
) -> LoadReport:
    """Drive ``engine`` with synthetic load and report latency percentiles.

    Parameters
    ----------
    engine:
        An :class:`~repro.serve.Engine` or
        :class:`~repro.serve.transport.FleetClient` (anything with
        ``submit``).
    n_requests:
        Total measured requests across all clients (closed loop only; the
        open-loop count comes from ``rate * duration_s``).
    concurrency:
        Number of concurrent closed-loop clients.
    input_shape:
        Per-sample shape; defaults to ``engine.input_shape``.
    seed:
        Seed for the synthetic request payloads.
    warmup:
        Unmeasured requests issued first (plan building, kernel auto-tuning).
    timeout:
        Per-request wait in seconds; a request that does not resolve in time
        counts in ``LoadReport.timeouts`` (separately from ``errors``) and
        the client moves on instead of blocking the whole run on one stuck
        future.  ``None`` waits forever (the historical behavior).
    mode:
        ``"closed"`` (constant concurrency) or ``"open"`` (fixed arrival
        schedule; requires ``rate`` and ``duration_s``).
    rate, duration_s, traffic, **shape_kwargs:
        Open-loop schedule parameters (see :func:`arrival_offsets`).
    """
    if mode not in ("closed", "open"):
        raise ValueError(f"unknown load mode {mode!r}; use 'closed' or 'open'")
    if mode == "open" and (rate is None or duration_s is None):
        raise ValueError("open-loop mode requires rate and duration_s")
    shape = tuple(input_shape or engine.input_shape)
    rng = np.random.default_rng(seed)
    # a small pool of distinct payloads, cycled by the clients
    pool = [rng.normal(0.2, 0.8, size=shape).astype(np.float32) for _ in range(16)]

    warmup_errors: dict = {}
    for i in range(warmup):
        try:
            engine.submit(pool[i % len(pool)]).result(timeout=timeout)
        except SERVING_ERRORS as error:
            _count(warmup_errors, error)

    if mode == "open":
        report = _run_open_loop(engine, pool, rate, duration_s, traffic, timeout, **shape_kwargs)
    else:
        report = _run_closed_loop(engine, pool, n_requests, concurrency, timeout)
    report.warmup_errors = warmup_errors
    return report


def _run_closed_loop(engine, pool, n_requests, concurrency, timeout) -> LoadReport:
    remaining = [n_requests]
    counter_lock = threading.Lock()
    latencies: list[float] = []
    errors: dict = {}
    timeouts = [0]

    def client(client_index: int) -> None:
        local: list[float] = []
        local_errors: dict = {}
        local_timeouts = 0
        step = client_index
        while True:
            with counter_lock:
                if remaining[0] <= 0:
                    break
                remaining[0] -= 1
            start = time.perf_counter()
            try:
                engine.submit(pool[step % len(pool)]).result(timeout=timeout)
                local.append((time.perf_counter() - start) * 1e3)
            except FutureTimeoutError:
                local_timeouts += 1
            except SERVING_ERRORS as error:
                _count(local_errors, error)
            step += concurrency
        with counter_lock:
            latencies.extend(local)
            for name, n in local_errors.items():
                errors[name] = errors.get(name, 0) + n
            timeouts[0] += local_timeouts

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as clients:
        runs = [clients.submit(client, i) for i in range(concurrency)]
    for run in runs:
        run.result()  # an error outside SERVING_ERRORS propagates here
    elapsed = time.perf_counter() - started
    return _report(latencies, None, elapsed, errors, timeouts[0], concurrency=concurrency)


def _run_open_loop(engine, pool, rate, duration_s, traffic, timeout, **shape_kwargs) -> LoadReport:
    offsets = arrival_offsets(traffic, rate, duration_s, **shape_kwargs)
    total = len(offsets)
    lock = threading.Lock()
    samples: list[tuple[float, float]] = []  # (submit offset, latency ms)
    errors: dict = {}
    unexpected: list = []  # errors outside SERVING_ERRORS, raised after the run
    resolved = [0]
    all_done = threading.Event()

    def finish_one() -> None:
        resolved[0] += 1  # caller holds the lock
        if resolved[0] >= total:
            all_done.set()

    def make_callback(start: float, offset: float):
        def callback(future) -> None:
            error = future.exception()
            latency_ms = (time.perf_counter() - start) * 1e3
            with lock:
                if error is None:
                    samples.append((offset, latency_ms))
                elif isinstance(error, SERVING_ERRORS):
                    _count(errors, error)
                else:
                    unexpected.append(error)
                finish_one()

        return callback

    t0 = time.perf_counter()
    for index, offset in enumerate(offsets):
        delay = t0 + offset - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        start = time.perf_counter()
        try:
            future = engine.submit(pool[index % len(pool)])
        except SERVING_ERRORS as error:
            with lock:
                _count(errors, error)
                finish_one()
            continue
        future.add_done_callback(make_callback(start, offset))
    # grace period: the server resolves every admitted request within its
    # deadline, so anything still unresolved after the grace is a timeout
    grace = (timeout if timeout is not None else 30.0) + 5.0
    all_done.wait(timeout=grace)
    elapsed = time.perf_counter() - t0
    with lock:
        timeouts = total - resolved[0]
        done_samples = list(samples)
        error_classes = dict(errors)
        if unexpected:
            raise unexpected[0]
    tail_cut = duration_s * (1.0 - _TAIL_FRACTION)
    tail = [latency for offset, latency in done_samples if offset >= tail_cut]
    report = _report(
        [latency for _, latency in done_samples],
        tail,
        elapsed,
        error_classes,
        timeouts,
        concurrency=0,
    )
    report.mode = "open"
    report.offered = total
    report.offered_rate = total / duration_s
    return report


def _report(latencies, tail, elapsed, errors, timeouts, concurrency) -> LoadReport:
    from ..eval.profiler import latency_percentiles

    lat = np.asarray(latencies, dtype=np.float64)
    pct = (
        latency_percentiles(lat)
        if lat.size
        else {"p50_ms": float("nan"), "p95_ms": float("nan"), "p99_ms": float("nan")}
    )
    tail_p99 = None
    if tail:
        tail_p99 = float(np.percentile(np.asarray(tail, dtype=np.float64), 99.0))
    return LoadReport(
        requests=len(latencies),
        concurrency=concurrency,
        elapsed_s=elapsed,
        requests_per_sec=len(latencies) / elapsed if elapsed > 0 else 0.0,
        latency_ms_p50=pct["p50_ms"],
        latency_ms_p95=pct["p95_ms"],
        latency_ms_p99=pct["p99_ms"],
        latency_ms_mean=float(lat.mean()) if lat.size else float("nan"),
        errors=sum(errors.values()),
        timeouts=timeouts,
        latency_ms_p99_tail=tail_p99,
        error_classes=errors,
    )
