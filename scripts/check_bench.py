#!/usr/bin/env python
"""Regression gates over the benchmark JSON reports.

Dispatches on the report's ``suite`` field:

* ``bench_train`` (``BENCH_train.json``) — the Trainer's train step must
  stay above the seed-speedup floor; the distributed data-parallel lane must show aggregate steps/s scaling at max
  workers (CPU-count-aware floor, sanity floor on starved runners) and the
  single-worker bitwise-parity flag must hold everywhere.  The ``corpus`` lane
  (corpus build and decode cost per image) is required, with its spread.
* ``bench_serve`` (``BENCH_serve.json``) — the int8 integer engine's forward
  must stay within the configured multiple of the float compiled engine's at
  batches 1 and 8 (both run the same planned kernels), and
  dynamic batching must sustain the configured multiple of serial batch-1
  serving req/s.  The multi-process fleet lane must beat the threaded engine
  on machines with enough cores (CPU-count-aware floor), and the chaos lane
  must show zero lost requests, exercised-and-recovered restarts, and a
  bounded chaos-vs-clean p99 ratio, and the echo lane (the fleet's transport
  ceiling) zero lost requests.  The autoscale lane must show the
  traffic spike forcing a scale-up, reconvergence to the replica floor with
  the degradation ladder fully recovered, zero lost or unresolved requests,
  and (on >= 4 cores) a post-convergence tail p99 within the derived SLO.  The artifact cold-start lane must boot the fleet
  from a compiled artifact measurably faster than compiling at boot, with
  bit-identical predictions; the fidelity lane must drop fidelity before
  shedding under the spike, actually serve work on the low rung, and recover
  to the top rung at idle with zero lost requests.
* ``bench_ops`` (``BENCH_ops.json``) — the compiled inference program must
  stay above the seed-speedup floor.

A train or ops report, and a serve report's engine lane, must also record the
host's ``cpu_count`` and, next to every timed median ``<key>``, its quartiles
``<key>_p25`` / ``<key>_p75``: a median without its CPU count and spread
cannot be read against noise.

Run after the corresponding benchmark::

    PYTHONPATH=src python benchmarks/bench_train.py --smoke --output /tmp/BENCH_train.json
    python scripts/check_bench.py /tmp/BENCH_train.json

    PYTHONPATH=src python benchmarks/bench_serve.py --smoke --output /tmp/BENCH_serve.json
    python scripts/check_bench.py /tmp/BENCH_serve.json

A small tolerance absorbs timer noise on shared CI runners; the full-mode
numbers committed in the repo are the ones that matter for the perf
trajectory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def check_spread(report: dict, medians: list[tuple[str, str]]) -> list[str]:
    """Require ``cpu_count`` and the quartiles of each ``(lane, key)`` median.

    A dotted ``lane`` (``"engine.batch1"``) names a nested row.
    """
    failures = []
    if not report.get("cpu_count"):
        failures.append(f"{report['suite']} report does not record cpu_count")
    for lane, key in medians:
        row = report["benchmarks"]
        for part in lane.split("."):
            row = row.get(part, {})
        missing = [f"{key}_{q}" for q in ("p25", "p75") if f"{key}_{q}" not in row]
        if missing:
            failures.append(f"lane {lane!r} records {key} without {' / '.join(missing)}")
    return failures


def check_train(report: dict, args) -> list[str]:
    """Gate the training-throughput report; returns failure messages."""
    train = report["benchmarks"]["train_step"]
    trainer = train["trainer_steps_per_sec"]
    seed = train["seed_steps_per_sec"]
    failures = check_spread(
        report,
        [
            ("train_step", "seed_steps_per_sec"),
            ("train_step", "trainer_steps_per_sec"),
            ("transforms", "batched_ms"),
            ("transforms", "per_image_ms"),
            ("corpus", "build_ms"),
            *(("corpus", f"decode_r{res}_us_per_image") for res in (12, 20, 32)),
        ],
    )
    if trainer < args.min_seed_ratio * seed:
        failures.append(
            f"trainer-vs-seed speedup below floor: {trainer / seed:.2f}x < "
            f"{args.min_seed_ratio:.2f}x"
        )
    print(
        f"steps/sec — seed {seed:.2f}, trainer {trainer:.2f} "
        f"({train['speedup_trainer_vs_seed']:.2f}x vs seed)"
    )
    failures.extend(check_train_dp(report["benchmarks"].get("distributed"), args))
    return failures


def check_train_dp(lane: dict | None, args) -> list[str]:
    """Gate the data-parallel distributed-training lane of a train report.

    CPU-count aware like the fleet gate: aggregate steps/s only
    scales when the workers have cores to run on, so the full
    ``--min-dp-speedup`` floor applies on >= 4 cpus and a sanity floor (the
    fleet must not collapse: workers time-share one core, so the aggregate
    rate stays near the single-worker rate) elsewhere.  The single-worker
    bitwise-parity flag must hold everywhere — ``workers=1`` runs the exact
    ``Trainer`` code path and any drift there is a correctness bug, not a
    performance regression.
    """
    if lane is None:
        return ["report missing the distributed (data-parallel) lane"]
    failures = []
    cpus = lane.get("cpu_count") or 1
    if not lane.get("single_worker_bitwise", False):
        failures.append(
            "single-worker DistributedTrainer is not bitwise identical to Trainer"
        )
    if cpus >= 4:
        floor, regime = args.min_dp_speedup, f"{cpus} cpus"
    else:
        floor, regime = args.min_dp_speedup_scarce, f"only {cpus} cpu(s), degraded floor"
    scaling = lane["scaling_vs_single"]
    if scaling < floor:
        failures.append(
            f"distributed scaling below floor at workers={lane['max_workers']}: "
            f"{scaling:.2f}x < {floor:.2f}x vs single worker ({regime})"
        )
    if lane["gossip_steps_per_sec"] <= 0:
        failures.append("gossip topology lane recorded no throughput")
    print(
        f"distributed: {scaling:.2f}x aggregate at workers={lane['max_workers']} "
        f"({regime}), gossip {lane['gossip_steps_per_sec']:.2f} steps/s, "
        f"bitwise@1w {'ok' if lane.get('single_worker_bitwise') else 'FAIL'}"
    )
    return failures


def check_serve(report: dict, args) -> list[str]:
    """Gate the serving report; returns failure messages."""
    bench = report["benchmarks"]
    engine = bench["engine"]
    serving = bench["serving"]
    failures = check_spread(
        report,
        [(f"engine.batch{batch}", key) for batch in (1, 8, 64) for key in ("float_ms", "int8_ms")],
    )
    for batch in (1, 8):
        row = engine[f"batch{batch}"]
        if row["int8_ms"] > args.max_int8_overhead * row["float_ms"]:
            failures.append(
                f"int8 engine over its cap at batch {batch}: {row['int8_ms']:.3f} ms > "
                f"{args.max_int8_overhead:.2f} x {row['float_ms']:.3f} ms float compiled"
            )
    batching = serving["speedup_batched_vs_serial"]
    if batching < args.min_batching_speedup:
        failures.append(
            f"dynamic batching below floor: {batching:.2f}x < "
            f"{args.min_batching_speedup:.2f}x vs serial batch-1 serving"
        )
    parity = engine["parity_max_abs_logit_delta"]
    if parity > args.max_parity_delta:
        failures.append(
            f"int8 parity drifted: max |logit delta| {parity:.4f} > {args.max_parity_delta}"
        )
    failures.extend(check_fleet(bench.get("fleet"), args))
    failures.extend(check_echo(bench.get("echo")))
    failures.extend(check_autoscale(bench.get("autoscale"), args))
    failures.extend(check_cold_start(bench.get("cold_start"), args))
    failures.extend(check_fidelity(bench.get("fidelity"), args))
    speedups = " ".join(
        f"b{batch}={engine[f'batch{batch}']['speedup_int8_vs_float']:.2f}x"
        for batch in (1, 8, 64)
    )
    print(
        f"int8 vs float compiled: {speedups}; "
        f"serving {serving['serial_req_per_sec']:.0f} -> "
        f"{serving['batched_req_per_sec']:.0f} req/s ({batching:.2f}x batched); "
        f"parity {parity:.4f}"
    )
    return failures


def check_fleet(fleet: dict | None, args) -> list[str]:
    """Gate the multi-process fleet and chaos lanes of a serving report.

    The fleet-vs-threaded speedup floor is CPU-count aware: process-level
    parallelism needs cores to run on, so the full ``--min-fleet-speedup``
    floor only applies when the report was produced on >= 4 cores; on
    smaller machines (1-2 core CI runners) the replicas time-share and only
    a sanity floor is enforced.  The robustness gates — zero lost requests,
    restarts exercised and recovered from, bounded chaos tail latency —
    apply everywhere.
    """
    if fleet is None:
        return ["report missing the multi-process fleet lane"]
    failures = []
    chaos = fleet["chaos"]
    cpus = fleet.get("cpu_count") or 1
    if cpus >= 4:
        floor, regime = args.min_fleet_speedup, f"{cpus} cpus"
    else:
        floor, regime = args.min_fleet_speedup_scarce, f"only {cpus} cpu(s), degraded floor"
    speedup = fleet["speedup_fleet_vs_threaded"]
    if speedup < floor:
        failures.append(
            f"fleet throughput below floor: {speedup:.2f}x < {floor:.2f}x "
            f"vs threaded engine ({regime})"
        )
    if fleet["clean_lost"] != 0:
        failures.append(f"clean fleet run lost {fleet['clean_lost']} requests")
    if chaos["lost"] != 0:
        failures.append(f"chaos fleet run lost {chaos['lost']} requests")
    if chaos["restarts"] < 1:
        failures.append("chaos run exercised no supervised restart (kill fault never fired?)")
    if chaos["ready_at_end"] < fleet["replicas"]:
        failures.append(
            f"crashed replicas not all serving again at end of chaos run: "
            f"{chaos['ready_at_end']}/{fleet['replicas']} ready"
        )
    ratio = chaos["p99_ratio_vs_clean"]
    if ratio > args.max_chaos_p99_ratio:
        failures.append(
            f"chaos tail latency blew up: p99 {ratio:.2f}x clean > "
            f"{args.max_chaos_p99_ratio:.2f}x"
        )
    print(
        f"fleet: {speedup:.2f}x vs threaded ({regime}); chaos p99 {ratio:.2f}x clean, "
        f"lost {chaos['lost']}, restarts {chaos['restarts']}, "
        f"ready {chaos['ready_at_end']}/{fleet['replicas']}"
    )
    return failures


def check_autoscale(lane: dict | None, args) -> list[str]:
    """Gate the SLO-driven autoscaling lane of a serving report.

    Robustness gates apply everywhere: the traffic spike must force at least
    one scale-up past the floor, the controller must walk the fleet back to
    ``min_replicas`` with the degradation ladder fully recovered once the
    spike clears, and no request may be lost or left unresolved.  The tail
    (post-convergence) p99-vs-SLO gate mirrors the fleet lane's CPU-count
    split: extra replicas only buy latency when there are cores to run them
    on, so it applies on >= 4 cores only.
    """
    if lane is None:
        return ["report missing the autoscale lane"]
    failures = []
    cpus = lane.get("cpu_count") or 1
    if lane["lost"] != 0:
        failures.append(f"autoscale run lost {lane['lost']} requests")
    if lane["timeouts"] != 0:
        failures.append(
            f"autoscale run left {lane['timeouts']} requests unresolved "
            "(every admitted request must resolve to a result or typed error)"
        )
    if lane["scale_ups"] < 1:
        failures.append("traffic spike never forced a scale-up (spike too weak?)")
    if lane["peak_target"] <= lane["min_replicas"]:
        failures.append(
            f"fleet never grew past the floor: peak target {lane['peak_target']} "
            f"<= min_replicas {lane['min_replicas']}"
        )
    if lane["final_target"] != lane["min_replicas"]:
        failures.append(
            f"fleet did not reconverge to the floor after the spike: "
            f"final target {lane['final_target']} != min_replicas {lane['min_replicas']}"
        )
    if lane["final_level"] != 0:
        failures.append(
            f"degradation ladder still engaged after the spike cleared: "
            f"level {lane['final_level']} != 0"
        )
    tail = lane["p99_tail_ms"]
    if cpus >= 4:
        regime = f"{cpus} cpus"
        if tail is None:
            failures.append("autoscale lane recorded no post-convergence tail latencies")
        elif tail > args.max_autoscale_p99_ratio * lane["slo_p99_ms"]:
            failures.append(
                f"post-convergence tail p99 missed the SLO: {tail:.1f} ms > "
                f"{args.max_autoscale_p99_ratio:.2f} * {lane['slo_p99_ms']:.0f} ms"
            )
    else:
        regime = f"only {cpus} cpu(s), tail-p99 gate waived"
    tail_txt = f"{tail:.1f} ms" if tail is not None else "n/a"
    print(
        f"autoscale: peak {lane['peak_target']} -> final {lane['final_target']} "
        f"[{lane['min_replicas']}..{lane['max_replicas']}], "
        f"{lane['scale_ups']} up / {lane['scale_downs']} down / {lane['degrades']} degrade, "
        f"tail p99 {tail_txt} vs SLO {lane['slo_p99_ms']:.0f} ms ({regime}), "
        f"lost {lane['lost']}, shed {lane['shed']}"
    )
    return failures


def check_echo(lane: dict | None) -> list[str]:
    """The echo lane records the transport ceiling; its only gate is zero lost."""
    if lane is None:
        return ["report missing the echo (transport ceiling) lane"]
    rows = {name: row for name, row in lane.items() if name.startswith("replicas")}
    failures = [
        f"echo lane ({name}) lost {row['lost']} requests" for name, row in rows.items() if row["lost"]
    ]
    print(
        "echo (transport ceiling): "
        + ", ".join(f"{name} {row['req_per_sec']:.0f} req/s" for name, row in rows.items())
    )
    return failures


def check_cold_start(lane: dict | None, args) -> list[str]:
    """Gate the artifact cold-start lane of a serving report.

    A fleet booted from a compiled artifact must reach READY measurably
    faster than one compiling (init + quantize + calibrate + compile) at
    boot, and both fleets must produce bit-identical predictions.  No
    CPU-count split: replica boot is single-process work, so the floor
    applies everywhere.
    """
    if lane is None:
        return ["report missing the artifact cold-start lane"]
    failures = []
    speedup = lane["boot_speedup_artifact_vs_compile"]
    if speedup < args.min_cold_start_speedup:
        failures.append(
            f"artifact boot not faster than compile-at-boot: {speedup:.2f}x < "
            f"{args.min_cold_start_speedup:.2f}x "
            f"({lane['artifact_boot_ms']:.0f} ms vs {lane['compile_boot_ms']:.0f} ms)"
        )
    if not lane.get("outputs_bit_identical", False):
        failures.append(
            "artifact-served fleet predictions are not bit-identical to the "
            "compile-at-boot fleet"
        )
    print(
        f"cold start: compile {lane['compile_boot_ms']:.0f} ms -> artifact "
        f"{lane['artifact_boot_ms']:.0f} ms ({speedup:.2f}x, "
        f"{lane['artifact_bytes'] / 1024:.0f} kB artifact), bit-identical"
    )
    return failures


def check_fidelity(lane: dict | None, args) -> list[str]:
    """Gate the multi-fidelity ladder lane of a serving report.

    Robustness gates, CPU-count independent (the lane is pinned to one
    replica by construction): under the spike the controller's *first*
    degradation step must be a fidelity drop (level <= rungs - 1, which by
    construction touches no deadline/admission knob), the low rung must have
    actually served work, the ladder must recover to the top rung once the
    spike clears, and nothing may be lost or left unresolved.  The tradeoff
    curve must be well-formed: the low rung stays within a sanity fraction of
    the top rung's throughput.  This is a broken-rung detector, not an int8
    speedup gate — on a starved single-core runner the quantized rung's
    per-request cost at serving batch sizes can trail the float rung even
    when its small-batch latency (the quantity the ladder actually trades
    on) is well ahead; the engine lane owns the speedup floor.
    """
    if lane is None:
        return ["report missing the fidelity ladder lane"]
    failures = []
    floor = lane["fidelity_rungs"] - 1
    first = lane["first_degrade_level"]
    if lane["degrades"] < 1:
        failures.append("fidelity spike never engaged the ladder (spike too weak?)")
    elif first is None or first > floor:
        failures.append(
            f"first degradation was not a fidelity drop: level {first} > "
            f"fidelity floor {floor} (shed before dropping fidelity)"
        )
    if lane["low_rung_served"] < 1:
        failures.append("no requests were served below the top rung during the spike")
    if lane["final_rung"] != 0:
        failures.append(
            f"ladder did not recover to the top rung at idle: final rung "
            f"{lane['final_rung']} != 0"
        )
    if lane["final_level"] != 0:
        failures.append(
            f"degradation ladder still engaged after the spike cleared: "
            f"level {lane['final_level']} != 0"
        )
    if lane["lost"] != 0:
        failures.append(f"fidelity spike lost {lane['lost']} requests")
    if lane["timeouts"] != 0:
        failures.append(
            f"fidelity spike left {lane['timeouts']} requests unresolved "
            "(every admitted request must resolve to a result or typed error)"
        )
    curve = lane["tradeoff_curve"]
    if len(curve) < 2:
        failures.append("fidelity tradeoff curve has fewer than two rungs")
    elif curve[-1]["req_per_sec"] < args.min_fidelity_low_rung_ratio * curve[0]["req_per_sec"]:
        failures.append(
            f"low rung slower than the top rung: "
            f"{curve[-1]['req_per_sec']:.0f} < "
            f"{args.min_fidelity_low_rung_ratio:.2f} * {curve[0]['req_per_sec']:.0f} req/s"
        )
    curve_txt = "; ".join(
        f"{p['name']} {p['req_per_sec']:.0f} req/s (agree {p['agreement']:.2f})"
        for p in curve
    )
    print(
        f"fidelity: {curve_txt}; spike first-degrade level {first} "
        f"(floor {floor}), {lane['low_rung_served']} low-rung served, "
        f"final rung {lane['final_rung']}, lost {lane['lost']}"
    )
    return failures


def check_ops(report: dict, args) -> list[str]:
    """Gate the operator/inference report; returns failure messages."""
    infer = report["benchmarks"]["mobilenetv2_tiny_infer"]
    failures = check_spread(
        report,
        [
            (lane, key)
            for lane, row in report["benchmarks"].items()
            for key in row
            if key.endswith("median_ms")
        ],
    )
    speedup = infer["speedup"]
    if speedup < args.min_ops_seed_ratio:
        failures.append(
            f"compiled inference below seed floor: {speedup:.2f}x < "
            f"{args.min_ops_seed_ratio:.2f}x"
        )
    print(f"infer — seed/compiled {speedup:.2f}x, compiled {infer['compiled_median_ms']:.3f} ms")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "report",
        type=Path,
        nargs="?",
        default=Path(__file__).resolve().parent.parent / "BENCH_train.json",
        help="path to a bench_train / bench_serve JSON report",
    )
    parser.add_argument(
        "--min-seed-ratio",
        type=float,
        default=1.2,
        help="[train] minimum trainer/seed steps-per-sec ratio",
    )
    parser.add_argument(
        "--min-dp-speedup",
        type=float,
        default=1.5,
        help="[train] minimum aggregate-steps/s scaling of the distributed lane at "
        "max workers vs a single worker, on machines with >= 4 cpus",
    )
    parser.add_argument(
        "--min-dp-speedup-scarce",
        type=float,
        default=0.2,
        help="[train] sanity floor for the distributed scaling on < 4 cpus "
        "(workers time-share the core)",
    )
    parser.add_argument(
        "--max-int8-overhead",
        type=float,
        default=1.25,
        help="[serve] maximum int8 forward time as a multiple of the float compiled "
        "forward at batches 1 and 8 (both engines run the same planned kernels)",
    )
    parser.add_argument(
        "--min-batching-speedup",
        type=float,
        default=2.0,
        help="[serve] minimum batched-vs-serial served req/s ratio",
    )
    parser.add_argument(
        "--max-parity-delta",
        type=float,
        default=1.0,
        help="[serve] maximum int8-vs-fake-quant |logit delta|",
    )
    parser.add_argument(
        "--min-fleet-speedup",
        type=float,
        default=1.5,
        help="[serve] minimum fleet-vs-threaded req/s ratio on machines with >= 4 cpus",
    )
    parser.add_argument(
        "--min-fleet-speedup-scarce",
        type=float,
        default=0.2,
        help="[serve] sanity floor for the fleet ratio on < 4 cpus (replicas time-share)",
    )
    parser.add_argument(
        "--max-autoscale-p99-ratio",
        type=float,
        default=1.5,
        help="[serve] post-convergence tail p99 must stay within this multiple of the "
        "derived SLO on machines with >= 4 cpus (waived on starved runners)",
    )
    parser.add_argument(
        "--min-cold-start-speedup",
        type=float,
        default=1.3,
        help="[serve] minimum artifact-boot vs compile-at-boot fleet READY speedup",
    )
    parser.add_argument(
        "--min-fidelity-low-rung-ratio",
        type=float,
        default=0.6,
        help="[serve] sanity floor: the ladder's low rung must reach this "
        "fraction of the top rung's closed-loop req/s (catches a broken rung, "
        "not an int8 speedup regression — the engine lane owns that)",
    )
    parser.add_argument(
        "--max-chaos-p99-ratio",
        type=float,
        default=3.0,
        help="[serve] maximum chaos-vs-clean p99 latency ratio for the fleet",
    )
    parser.add_argument(
        "--min-ops-seed-ratio",
        type=float,
        default=1.2,
        help="[ops] minimum compiled-inference/seed speedup",
    )
    args = parser.parse_args()

    report = json.loads(args.report.read_text())
    suite = report.get("suite", "bench_train")
    if suite == "bench_serve":
        failures = check_serve(report, args)
    elif suite == "bench_train":
        failures = check_train(report, args)
    elif suite == "bench_ops":
        failures = check_ops(report, args)
    else:
        print(f"FAIL: unknown benchmark suite {suite!r}", file=sys.stderr)
        return 1
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
