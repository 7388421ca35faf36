"""Serving benchmarks: int8 vs float throughput, batching, and the fleet.

Eight lanes, written to ``BENCH_serve.json`` so the perf trajectory is tracked
across PRs and gated by ``scripts/check_bench.py``:

1. **Engine lane** — single-stream throughput (imgs/sec) of the int8 integer
   engine (``repro.compile(model, mode="int8")``) vs the float compiled
   runtime (``repro.compile(model)``) on MobileNetV2-Tiny at batch
   1 / 8 / 64.  Both engines run the same planned program and kernels, the
   int8 one on integer grids; the gate caps the grid overhead at
   ``int8_ms <= 1.25 * float_ms`` at batches 1 and 8.  The two engines are
   timed interleaved (bench_ops' ``interleaved_ms``), and each median is
   recorded with its quartiles (``<key>_p25`` / ``<key>_p75``) next to the
   report's ``cpu_count``.
2. **Serving lane** — sustained req/s of the dynamic-batching engine
   (max-batch window, padded assembly) vs serial batch-1 serving, both driven
   by the closed-loop load generator.  The acceptance floor is batched >= 2x
   serial.
3. **Fleet lane** — the supervised multi-process fleet (4 replicas over
   shared memory + loopback sockets) vs the threaded in-process engine with
   the same worker count.  The 1.5x fleet-over-threaded floor only applies
   on machines with >= 4 CPU cores — on fewer cores the replicas time-share
   one core and the IPC overhead cannot be amortized, so the gate drops to a
   sanity floor.  ``cpu_count`` is recorded in the report so the gate can
   tell which regime produced it.
4. **Echo lane** — the fleet lane's closed-loop load through
   ``echo_backend``, which does no compute, with one replica and with
   ``FLEET_REPLICAS``: the transport ceiling of the request path, so a fleet
   lane below it is bound by compute and one near it by transport.
   Recorded, with zero lost as its only gate.
5. **Chaos lane** — the fleet lane's fleet under fault injection (replica SIGKILLs,
   corrupt replies, slow batches).  Gates: zero lost requests, at least one
   supervised restart actually exercised, all replicas serving again at the
   end of the run, and chaos p99 within a small multiple of the clean p99.
6. **Autoscale lane** — a one-replica fleet with an
   :class:`~repro.serve.AutoscaleController` under a ramped spike of
   open-loop (fixed arrival schedule) load.  Single-replica capacity is
   measured closed-loop first, then the spike offers a multiple of it, so
   the lane self-calibrates to the machine; a fixed sleep per batch
   (``SPIKE_CHAOS``) keeps that capacity below what one load thread can
   offer.  Gates: the spike forces at
   least one scale-up, the fleet reconverges to ``min_replicas`` with the
   degradation ladder fully recovered once the spike clears, and zero
   requests are lost throughout.  The post-convergence tail p99 must meet
   the SLO on machines with >= 4 CPU cores (on starved runners the replicas
   time-share one core, so only the robustness gates apply — same regime
   split as the fleet lane).
7. **Cold-start lane** — fleet boot time (``Fleet()`` to all replicas READY)
   compiling the model at boot (init + quantize + calibrate + compile) vs
   loading a pre-compiled artifact (:mod:`repro.runtime.artifact`), on a
   calibration-heavy config where the difference matters.  Both fleets must
   produce bit-identical predictions; the artifact boot must be measurably
   faster (CPU-count independent — this is single-process work).
8. **Fidelity lane** — a one-replica fleet serving a two-rung
   :class:`~repro.serve.fidelity.FidelityLadder` (float above int8 of the
   same model) under the same self-calibrated open-loop spike as the
   autoscale lane, pinned at ``max_replicas`` so the controller's only move
   is the ladder.  Records the per-rung latency/agreement tradeoff curve and
   gates that the *first* degradation step was a fidelity drop (not a shed),
   that the low rung actually served work, that the ladder recovered to the
   top rung at idle, and that zero requests were lost.

Also records the int8-vs-fake-quant parity error (max |logit delta|), so a
perf win can never silently trade away correctness.

Run with::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full sizes
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke    # CI-sized
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import repro
from repro import nn
from repro.compress import calibrate, quantize_model
from repro.models import create_model
from repro.serve import Engine, build_server
from repro.serve.autoscale import AutoscaleController, SLOConfig
from repro.serve.fleet import Fleet, FleetConfig
from repro.serve.loadgen import run_load
from repro.utils import seed_everything

from bench_ops import interleaved_ms, quartiles

FLEET_REPLICAS = 4
FLEET_CHAOS = "kill:prob=0.02,max=2;corrupt:prob=0.01,max=5;slow:prob=0.05,ms=2"

AUTOSCALE_SPIKE_MULT = 3.0
AUTOSCALE_SPIKE_WINDOW = (0.25, 0.55)
# one submitting thread must outrun the schedule, so the spike peak is capped
AUTOSCALE_MAX_SPIKE_RATE = 2400.0
# The spike lanes' replicas sleep through every batch (a deterministic chaos
# fault), so one replica serves at most SPIKE_MAX_BATCH / 10 ms = 400 req/s,
# and the spike, 2.1x the measured capacity, overloads it on any machine,
# however fast the engine and the transport.  Calibrated from compute alone,
# a fleet serving 4000+ req/s per replica absorbs the whole capped spike,
# and the scale-up and fidelity gates read nothing.
SPIKE_MAX_BATCH = 4
SPIKE_CHAOS = "slow:prob=1,ms=10"


def build_engines(model_name: str, resolution: int, seed: int = 0):
    """Float-compiled and int8-compiled engines over the same architecture."""
    seed_everything(seed)
    rng = np.random.default_rng(seed)
    model = create_model(model_name, num_classes=16)
    model.eval()
    float_net = repro.compile(model)  # snapshot before fake-quant rewrites weights
    quantize_model(model)
    calibrate(
        model,
        [rng.normal(0.2, 0.8, size=(8, 3, resolution, resolution)).astype(np.float32) for _ in range(2)],
    )
    int8_net = repro.compile(model, mode="int8")
    return float_net, int8_net, model


def engine_lane(float_net, int8_net, model, resolution: int, repeats: int, rng) -> dict:
    results: dict[str, dict] = {}
    for batch in (1, 8, 64):
        x = rng.normal(0.2, 0.8, size=(batch, 3, resolution, resolution)).astype(np.float32)
        n = repeats if batch < 64 else max(3, repeats // 3)
        timings = interleaved_ms(
            {"float": lambda: float_net.numpy_forward(x), "int8": lambda: int8_net.numpy_forward(x)},
            n,
            warmup=5,
        )
        row = {**quartiles("float_ms", timings["float"]), **quartiles("int8_ms", timings["int8"])}
        row.update(
            float_imgs_per_sec=batch / row["float_ms"] * 1e3,
            int8_imgs_per_sec=batch / row["int8_ms"] * 1e3,
            speedup_int8_vs_float=row["float_ms"] / row["int8_ms"],
        )
        results[f"batch{batch}"] = row
    # parity: the integer engine must track the fake-quant oracle
    x = rng.normal(0.2, 0.8, size=(8, 3, resolution, resolution)).astype(np.float32)
    with nn.no_grad():
        oracle = model(nn.Tensor(x)).numpy()
    results["parity_max_abs_logit_delta"] = float(
        np.abs(int8_net.numpy_forward(x) - oracle).max()
    )
    return results


def serving_lane(int8_net, resolution: int, n_requests: int) -> dict:
    shape = (3, resolution, resolution)
    with Engine(int8_net, shape, max_batch=1, max_wait_ms=0.0, workers=1) as serial:
        serial_report = run_load(serial, n_requests=n_requests, concurrency=1, warmup=8)
    with Engine(int8_net, shape, max_batch=16, max_wait_ms=2.0, workers=1) as batched:
        batched_report = run_load(batched, n_requests=n_requests, concurrency=32, warmup=16)
        batched_stats = batched.stats()
    return {
        "serial_req_per_sec": serial_report.requests_per_sec,
        "serial_p50_ms": serial_report.latency_ms_p50,
        "batched_req_per_sec": batched_report.requests_per_sec,
        "batched_p50_ms": batched_report.latency_ms_p50,
        "batched_p99_ms": batched_report.latency_ms_p99,
        "batched_mean_batch_size": batched_stats.mean_batch_size,
        "speedup_batched_vs_serial": batched_report.requests_per_sec
        / max(serial_report.requests_per_sec, 1e-9),
    }


def _fleet_run(resolution: int, n_requests: int, chaos: str | None, replicas: int = FLEET_REPLICAS,
               echo: bool = False):
    """One closed-loop load run against a fresh replica fleet.

    ``echo`` serves :func:`~repro.serve.fleet.echo_backend`, which does no
    compute, instead of the int8 model.
    """
    if echo:
        builder, builder_kwargs = "repro.serve.fleet:echo_backend", {"resolution": resolution}
    else:
        builder = FleetConfig.builder
        builder_kwargs = {"model_name": "mobilenetv2-tiny", "resolution": resolution, "engine": "int8"}
    config = FleetConfig(
        replicas=replicas,
        max_batch=16,
        max_pending=256,
        max_attempts=6,
        builder=builder,
        builder_kwargs=builder_kwargs,
        chaos=chaos,
    )
    with Fleet(config) as fleet:
        fleet.wait_ready(replicas=replicas, timeout=120.0)
        with fleet.client(timeout=60.0, retries=6) as client:
            report = run_load(client, n_requests=n_requests, concurrency=32, warmup=16, timeout=60.0)
        # "serving again within the run": give restarts in flight a moment to
        # finish, then count ready replicas BEFORE the drain stops everything
        deadline = time.monotonic() + 10.0
        while fleet.stats().ready < replicas and time.monotonic() < deadline:
            time.sleep(0.05)
        ready_at_end = fleet.stats().ready
        fleet.close()  # drain before reading the final counters
        stats = fleet.stats()
        stats.ready = ready_at_end
    return report, stats


def fleet_lane(resolution: int, n_requests: int) -> dict:
    """Multi-process fleet vs the threaded engine, clean and under chaos."""
    threaded = build_server(
        "mobilenetv2-tiny",
        resolution=resolution,
        workers=FLEET_REPLICAS,
        max_batch=16,
        max_wait_ms=2.0,
    )
    with threaded:
        threaded_report = run_load(threaded, n_requests=n_requests, concurrency=32, warmup=16)

    clean_report, clean_stats = _fleet_run(resolution, n_requests, chaos=None)
    chaos_report, chaos_stats = _fleet_run(resolution, n_requests, chaos=FLEET_CHAOS)

    clean_p99 = clean_report.latency_ms_p99
    return {
        "replicas": FLEET_REPLICAS,
        "cpu_count": os.cpu_count(),
        "threaded_req_per_sec": threaded_report.requests_per_sec,
        "threaded_p99_ms": threaded_report.latency_ms_p99,
        "fleet_req_per_sec": clean_report.requests_per_sec,
        "fleet_p50_ms": clean_report.latency_ms_p50,
        "fleet_p99_ms": clean_p99,
        "speedup_fleet_vs_threaded": clean_report.requests_per_sec
        / max(threaded_report.requests_per_sec, 1e-9),
        "clean_lost": clean_stats.lost,
        "clean_errors": clean_report.errors,
        "chaos": {
            "spec": FLEET_CHAOS,
            "req_per_sec": chaos_report.requests_per_sec,
            "p99_ms": chaos_report.latency_ms_p99,
            "p99_ratio_vs_clean": chaos_report.latency_ms_p99 / max(clean_p99, 1e-9),
            "lost": chaos_stats.lost,
            "load_errors": chaos_report.errors,
            "load_timeouts": chaos_report.timeouts,
            "typed_errors": chaos_stats.errors,
            "restarts": chaos_stats.restarts,
            "crashes_detected": chaos_stats.crashes_detected,
            "corrupt_detected": chaos_stats.corrupt_detected,
            "requeued": chaos_stats.requeued,
            "ready_at_end": chaos_stats.ready,
        },
    }


def echo_lane(resolution: int, n_requests: int) -> dict:
    """The fleet's transport ceiling: the fleet lane's load through an echo backend.

    The echo backend does no compute, so its req/s bound what any model can
    get through the fleet's request path (client, front door, slots, pipes,
    replica loop) with one replica and with the fleet lane's replica count.
    """
    rows = {}
    for replicas in (1, FLEET_REPLICAS):
        report, stats = _fleet_run(resolution, n_requests, chaos=None, replicas=replicas, echo=True)
        rows[f"replicas{replicas}"] = {
            "req_per_sec": report.requests_per_sec,
            "p50_ms": report.latency_ms_p50,
            "p99_ms": report.latency_ms_p99,
            "batch_size_mean": stats.batch_size_mean,
            "errors": report.errors,
            "lost": stats.lost,
        }
    return {"cpu_count": os.cpu_count(), "concurrency": 32, **rows}


def autoscale_lane(resolution: int, smoke: bool) -> dict:
    """SLO-driven autoscaling under an open-loop traffic spike.

    The lane self-calibrates: it measures single-replica capacity closed-loop
    against the live fleet, offers ``0.7x`` of that as the base rate and
    multiplies it by ``AUTOSCALE_SPIKE_MULT`` inside the spike window — a load
    one replica provably cannot absorb, whatever the machine, because the
    ``SPIKE_CHAOS`` sleep keeps that capacity below the generator's cap.
    The p99 SLO is derived from the measured baseline the same way.  After the schedule ends
    the lane waits for the controller to walk the fleet back to the floor and
    the degradation ladder back to level 0 before snapshotting.
    """
    cpus = os.cpu_count() or 1
    max_replicas = 4 if cpus >= 4 else 2
    config = FleetConfig(
        replicas=1,
        max_replicas=max_replicas,
        max_batch=SPIKE_MAX_BATCH,
        max_pending=512,
        max_attempts=6,
        stats_window_s=1.5,
        builder_kwargs={
            "model_name": "mobilenetv2-tiny",
            "resolution": resolution,
            "engine": "int8",
        },
        chaos=SPIKE_CHAOS,
    )
    with Fleet(config) as fleet:
        fleet.wait_ready(replicas=1, timeout=120.0)
        with fleet.client(timeout=60.0, retries=6) as client:
            base = run_load(
                client, n_requests=300 if smoke else 600, concurrency=8, warmup=16, timeout=60.0
            )
        capacity = base.requests_per_sec
        slo_p99 = max(25.0, base.latency_ms_p99 * 6.0)
        rate = min(0.7 * capacity, AUTOSCALE_MAX_SPIKE_RATE / AUTOSCALE_SPIKE_MULT)
        duration = 6.0 if smoke else 10.0
        slo = SLOConfig(
            p99_target_ms=slo_p99,
            queue_target=4.0,
            min_replicas=1,
            max_replicas=max_replicas,
            interval=0.1,
            window=3,
            up_cooldown=0.3,
            down_cooldown=0.6,
            ladder_patience=3,
            recover_patience=2,
        )
        with AutoscaleController(fleet, slo) as controller:
            with fleet.client(timeout=60.0, retries=6) as client:
                report = run_load(
                    client,
                    n_requests=0,
                    warmup=8,
                    timeout=60.0,
                    mode="open",
                    rate=rate,
                    duration_s=duration,
                    traffic="spike",
                    spike_mult=AUTOSCALE_SPIKE_MULT,
                    spike_window=AUTOSCALE_SPIKE_WINDOW,
                )
            # idle reconvergence: the controller must walk back to the floor
            # and fully recover the ladder once the spike clears
            deadline = time.monotonic() + slo.down_cooldown * (max_replicas + 2) + 15.0
            while time.monotonic() < deadline:
                if controller.target <= slo.min_replicas and controller.level == 0:
                    break
                time.sleep(0.05)
            state = controller.state()
        fleet.close()  # drain before reading the final counters
        stats = fleet.stats()
    return {
        "cpu_count": cpus,
        "min_replicas": slo.min_replicas,
        "max_replicas": max_replicas,
        "capacity_req_per_sec": capacity,
        "slo_p99_ms": slo_p99,
        "offered_rate": report.offered_rate,
        "spike_mult": AUTOSCALE_SPIKE_MULT,
        "spike_chaos": SPIKE_CHAOS,
        "duration_s": duration,
        "offered": report.offered,
        "completed": report.requests,
        "errors": report.errors,
        "timeouts": report.timeouts,
        "p99_ms": report.latency_ms_p99,
        "p99_tail_ms": report.latency_ms_p99_tail,
        "lost": stats.lost,
        "shed": stats.shed,
        "scale_ups": state["scale_ups"],
        "scale_downs": state["scale_downs"],
        "degrades": state["degrades"],
        "recoveries": state["recoveries"],
        "peak_target": state["peak_target"],
        "final_target": state["target"],
        "final_level": state["level"],
        "history": state["history"],
    }


COLD_START_MODEL = "mobilenetv2-100"
COLD_START_RESOLUTION = 32
COLD_START_CALIBRATION = 16
COLD_START_REPLICAS = 2

FIDELITY_RUNGS = "float:mobilenetv2-tiny,int8:mobilenetv2-tiny"


def cold_start_lane(smoke: bool) -> dict:
    """Fleet boot: compile-at-boot vs artifact-load, bit-identity asserted.

    Uses a calibration-heavy int8 config (``COLD_START_CALIBRATION`` batches
    on ``COLD_START_MODEL``) because calibration is the honest cost an
    artifact skips — trace/passes/build are sub-millisecond once the process
    is warm, so a calibration-light config would measure nothing.
    """
    import shutil
    import tempfile

    from repro.serve.fleet import resolve_net

    repeats = 2 if smoke else 3
    recipe = {
        "model_name": COLD_START_MODEL,
        "resolution": COLD_START_RESOLUTION,
        "engine": "int8",
        "calibration_batches": COLD_START_CALIBRATION,
    }
    # the artifact is produced once, outside the timers, from the identical
    # recipe the compile-at-boot path runs — so the fleets must agree bitwise
    net, shape = resolve_net(**recipe)
    tmp = tempfile.mkdtemp(prefix="bench-artifact-")
    path = os.path.join(tmp, "net.rpa")
    start = time.perf_counter()
    info = net.save(path, input_shape=shape)
    save_ms = (time.perf_counter() - start) * 1e3

    probe = np.random.default_rng(7).normal(0.2, 0.8, size=shape).astype(np.float32)

    def boot(builder_kwargs):
        config = FleetConfig(
            replicas=COLD_START_REPLICAS,
            max_batch=8,
            max_pending=64,
            builder_kwargs=builder_kwargs,
        )
        start = time.perf_counter()
        with Fleet(config) as fleet:
            fleet.wait_ready(replicas=COLD_START_REPLICAS, timeout=180.0)
            boot_ms = (time.perf_counter() - start) * 1e3
            stats = fleet.stats()
            with fleet.client(timeout=60.0) as client:
                prediction = client.predict(probe, timeout=60.0)
        return boot_ms, stats.cold_start_ms_mean, prediction

    try:
        compile_boots, artifact_boots = [], []
        compile_cold, artifact_cold = [], []
        compile_pred = artifact_pred = None
        for _ in range(repeats):
            boot_ms, cold_ms, compile_pred = boot(recipe)
            compile_boots.append(boot_ms)
            compile_cold.append(cold_ms)
            boot_ms, cold_ms, artifact_pred = boot({"artifact": path})
            artifact_boots.append(boot_ms)
            artifact_cold.append(cold_ms)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    compile_boot_ms = float(np.median(compile_boots))
    artifact_boot_ms = float(np.median(artifact_boots))
    return {
        "model": COLD_START_MODEL,
        "resolution": COLD_START_RESOLUTION,
        "calibration_batches": COLD_START_CALIBRATION,
        "replicas": COLD_START_REPLICAS,
        "repeats": repeats,
        "artifact_bytes": info.nbytes,
        "artifact_save_ms": save_ms,
        "compile_boot_ms": compile_boot_ms,
        "artifact_boot_ms": artifact_boot_ms,
        "boot_speedup_artifact_vs_compile": compile_boot_ms / max(artifact_boot_ms, 1e-9),
        "compile_replica_cold_start_ms": float(np.mean(compile_cold)),
        "artifact_replica_cold_start_ms": float(np.mean(artifact_cold)),
        "outputs_bit_identical": bool(np.array_equal(compile_pred, artifact_pred)),
    }


def fidelity_lane(resolution: int, smoke: bool) -> dict:
    """Multi-fidelity ladder under an open-loop spike, pinned at max capacity.

    ``max_replicas=1`` removes scale-up from the controller's toolbox, so a
    spike that out-runs rung 0 leaves exactly one graceful move: drop
    fidelity.  The lane records the per-rung latency/agreement tradeoff curve
    first (closed-loop at a fixed rung, on a plain fleet), then runs the
    spike on a fleet whose batches sleep ``SPIKE_CHAOS``, and checks the
    ladder recovered to the top rung once traffic cleared.
    """
    cpus = os.cpu_count() or 1
    config = FleetConfig(
        replicas=1,
        max_replicas=1,
        max_batch=16,
        max_pending=512,
        max_attempts=6,
        stats_window_s=1.5,
        builder="repro.serve.fidelity:ladder_backend",
        builder_kwargs={
            "rungs": FIDELITY_RUNGS,
            "resolution": resolution,
            "probe_batch": 64,
        },
    )
    n_requests = 300 if smoke else 600
    with Fleet(config) as fleet:
        fleet.wait_ready(replicas=1, timeout=120.0)
        curve = []
        for rung in range(fleet.fidelity_rungs):
            fleet.set_fidelity(rung, reason="bench")
            time.sleep(0.2)
            with fleet.client(timeout=60.0, retries=6) as client:
                rung_report = run_load(
                    client, n_requests=n_requests, concurrency=8, warmup=16, timeout=60.0
                )
            curve.append(
                {
                    "rung": rung,
                    "req_per_sec": rung_report.requests_per_sec,
                    "p50_ms": rung_report.latency_ms_p50,
                    "p99_ms": rung_report.latency_ms_p99,
                }
            )
        snapshot = fleet.stats().to_dict()["fidelity"]
        for point, rung_stats in zip(curve, snapshot["rungs"]):
            point["name"] = rung_stats["name"]
            point["agreement"] = rung_stats["agreement"]

    with Fleet(replace(config, max_batch=SPIKE_MAX_BATCH, chaos=SPIKE_CHAOS)) as fleet:
        fleet.wait_ready(replicas=1, timeout=120.0)
        with fleet.client(timeout=60.0, retries=6) as client:
            base = run_load(client, n_requests=n_requests, concurrency=8, warmup=16, timeout=60.0)
        capacity = base.requests_per_sec
        slo_p99 = max(25.0, base.latency_ms_p99 * 6.0)
        rate = min(0.7 * capacity, AUTOSCALE_MAX_SPIKE_RATE / AUTOSCALE_SPIKE_MULT)
        duration = 6.0 if smoke else 10.0
        slo = SLOConfig(
            p99_target_ms=slo_p99,
            queue_target=4.0,
            min_replicas=1,
            max_replicas=1,
            interval=0.1,
            window=3,
            up_cooldown=0.3,
            down_cooldown=0.6,
            ladder_patience=2,
            recover_patience=2,
        )
        with AutoscaleController(fleet, slo) as controller:
            with fleet.client(timeout=60.0, retries=6) as client:
                report = run_load(
                    client,
                    n_requests=0,
                    warmup=8,
                    timeout=60.0,
                    mode="open",
                    rate=rate,
                    duration_s=duration,
                    traffic="spike",
                    spike_mult=AUTOSCALE_SPIKE_MULT,
                    spike_window=AUTOSCALE_SPIKE_WINDOW,
                )
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if controller.level == 0:
                    break
                time.sleep(0.05)
            state = controller.state()
        fleet.close()  # drain before reading the final counters
        stats = fleet.stats()
    # the spike fleet served only rung 0 before the spike
    fidelity = stats.to_dict()["fidelity"]
    low_rung_served = sum(r["completed"] for r in fidelity["rungs"][1:])
    degrade_levels = [h["level"] for h in state["history"] if h["decision"] == "degrade"]
    return {
        "cpu_count": cpus,
        "rungs": FIDELITY_RUNGS,
        "tradeoff_curve": curve,
        "capacity_req_per_sec": capacity,
        "slo_p99_ms": slo_p99,
        "offered_rate": report.offered_rate,
        "spike_mult": AUTOSCALE_SPIKE_MULT,
        "spike_chaos": SPIKE_CHAOS,
        "duration_s": duration,
        "offered": report.offered,
        "completed": report.requests,
        "errors": report.errors,
        "timeouts": report.timeouts,
        "lost": stats.lost,
        "shed": stats.shed,
        "degrades": state["degrades"],
        "recoveries": state["recoveries"],
        "first_degrade_level": degrade_levels[0] if degrade_levels else None,
        "fidelity_rungs": state["fidelity_rungs"],
        "final_level": state["level"],
        "final_rung": fidelity["active_rung"],
        "rung_switches": fidelity["switches"],
        "low_rung_served": low_rung_served,
        "history": state["history"],
    }


def run_benchmarks(smoke: bool, repeats: int) -> dict:
    resolution = 12  # the MCU-scale substrate: experiments run 12-16 px inputs
    n_requests = 1500 if smoke else 3000
    fleet_requests = 1200 if smoke else 2500
    float_net, int8_net, model = build_engines("mobilenetv2-tiny", resolution)
    rng = np.random.default_rng(1)
    return {
        "model": "mobilenetv2-tiny",
        "resolution": resolution,
        "engine": engine_lane(float_net, int8_net, model, resolution, repeats, rng),
        "serving": serving_lane(int8_net, resolution, n_requests),
        "fleet": fleet_lane(resolution, fleet_requests),
        "echo": echo_lane(resolution, fleet_requests),
        "autoscale": autoscale_lane(resolution, smoke),
        "cold_start": cold_start_lane(smoke),
        "fidelity": fidelity_lane(resolution, smoke),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats per point")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_serve.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args()
    repeats = args.repeats if args.repeats is not None else (15 if args.smoke else 40)

    results = run_benchmarks(smoke=args.smoke, repeats=repeats)
    report = {
        "suite": "bench_serve",
        "mode": "smoke" if args.smoke else "full",
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "benchmarks": results,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    engine = results["engine"]
    print(f"{'batch':>6s} {'float ms':>10s} {'int8 ms':>10s} {'speedup':>8s}")
    for batch in (1, 8, 64):
        row = engine[f"batch{batch}"]
        print(
            f"{batch:>6d} {row['float_ms']:>10.3f} {row['int8_ms']:>10.3f} "
            f"{row['speedup_int8_vs_float']:>7.2f}x"
        )
    print(f"parity max |logit delta| : {engine['parity_max_abs_logit_delta']:.4f}")
    serving = results["serving"]
    print(
        f"serving: serial {serving['serial_req_per_sec']:.0f} req/s, "
        f"batched {serving['batched_req_per_sec']:.0f} req/s "
        f"({serving['speedup_batched_vs_serial']:.2f}x, "
        f"mean batch {serving['batched_mean_batch_size']:.1f})"
    )
    fleet = results["fleet"]
    chaos = fleet["chaos"]
    print(
        f"fleet ({fleet['replicas']} replicas, {fleet['cpu_count']} cpus): "
        f"threaded {fleet['threaded_req_per_sec']:.0f} req/s, "
        f"fleet {fleet['fleet_req_per_sec']:.0f} req/s "
        f"({fleet['speedup_fleet_vs_threaded']:.2f}x), p99 {fleet['fleet_p99_ms']:.1f} ms"
    )
    print(
        f"chaos: {chaos['req_per_sec']:.0f} req/s, p99 {chaos['p99_ms']:.1f} ms "
        f"({chaos['p99_ratio_vs_clean']:.2f}x clean), lost {chaos['lost']}, "
        f"restarts {chaos['restarts']} ({chaos['crashes_detected']} crashes, "
        f"{chaos['corrupt_detected']} corrupt caught), "
        f"ready at end {chaos['ready_at_end']}/{fleet['replicas']}"
    )
    echo = results["echo"]
    print(
        "echo (transport ceiling): "
        + ", ".join(
            f"{n} replica(s) {echo[f'replicas{n}']['req_per_sec']:.0f} req/s "
            f"(p99 {echo[f'replicas{n}']['p99_ms']:.1f} ms, "
            f"{echo[f'replicas{n}']['batch_size_mean']:.1f} per batch)"
            for n in (1, FLEET_REPLICAS)
        )
    )
    scale = results["autoscale"]
    tail = scale["p99_tail_ms"]
    print(
        f"autoscale [{scale['min_replicas']}..{scale['max_replicas']}]: "
        f"spike {scale['offered_rate']:.0f} req/s offered "
        f"({scale['spike_mult']:.0f}x burst vs {scale['capacity_req_per_sec']:.0f} capacity), "
        f"peak target {scale['peak_target']}, final {scale['final_target']} "
        f"(level {scale['final_level']}), "
        f"{scale['scale_ups']} up / {scale['scale_downs']} down / "
        f"{scale['degrades']} degrade, "
        + (
            f"tail p99 {tail:.1f} ms vs SLO {scale['slo_p99_ms']:.0f} ms"
            if tail is not None
            else "tail p99 n/a"
        )
        + f", lost {scale['lost']}, shed {scale['shed']}"
    )
    cold = results["cold_start"]
    print(
        f"cold start ({cold['model']}@{cold['resolution']}, "
        f"{cold['calibration_batches']} calib batches, {cold['replicas']} replicas): "
        f"compile-at-boot {cold['compile_boot_ms']:.0f} ms vs artifact "
        f"{cold['artifact_boot_ms']:.0f} ms "
        f"({cold['boot_speedup_artifact_vs_compile']:.2f}x, "
        f"{cold['artifact_bytes'] / 1024:.0f} kB file, "
        f"bit-identical {cold['outputs_bit_identical']})"
    )
    fid = results["fidelity"]
    curve_txt = "; ".join(
        f"{p['name']}: {p['req_per_sec']:.0f} req/s, p99 {p['p99_ms']:.1f} ms, "
        f"agree {p['agreement']:.2f}"
        for p in fid["tradeoff_curve"]
    )
    print(f"fidelity curve: {curve_txt}")
    print(
        f"fidelity spike: first degrade at level {fid['first_degrade_level']} "
        f"(fidelity floor {fid['fidelity_rungs'] - 1}), "
        f"{fid['low_rung_served']} served below top rung, "
        f"{fid['rung_switches']} switches, final rung {fid['final_rung']} "
        f"(level {fid['final_level']}), lost {fid['lost']}, shed {fid['shed']}"
    )
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
