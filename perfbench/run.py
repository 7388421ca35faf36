"""Repository benchmark: the NetBooster pipeline, then the contracted net served.

Every run does the whole user path once:

1. set-up: build the synthetic corpus and MNv2-tiny (several times, median);
2. the paper pipeline, single-threaded and uncached (``perfbench/pipeline.py``);
3. the contracted net served by a one-replica fleet, started several times
   (median set-up), then driven for ``--seconds`` in rounds of three load
   phases (``perfbench/serving.py``).

Workloads differ in the serving engine: ``float`` serves the fused float
executor, ``int8`` the true-integer one.  An int8-engine change must move
``int8`` and leave ``float`` flat; a transport or pipeline change moves both.

Run from the repository root::

    python3 perfbench/run.py --workload float --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the run
with the layer wrappers of ``perfbench/tracer.py`` installed and prints the
per-layer metrics instead, together with the whole-run numbers too noisy to
bound (``DIAGNOSTIC``).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
record the run context and every correctness check.  ``--smoke`` shrinks the
run to seconds for ``perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys

# One BLAS thread per process: the pipeline runs single-threaded and, while
# serving, the caller process and the replica each get one of the two cores.
# Set before NumPy loads; it also fixes the summation order, so accuracies
# repeat exactly per seed.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.getcwd()
WORKLOADS = ("float", "int8")
SETUP_REPEATS = 5
STATE_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def _import_repro():
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit(f"perfbench: no src/repro under {ROOT}; run from the repository root")
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def _whole_run(pipe, serve) -> dict:
    """Every whole-run number, untraced end-to-end metric or not."""
    requests = sum(p.attempted for p in serve.phases)
    failed = sum(p.failed for p in serve.phases)
    return {
        "setup_s": (pipe.build_s + serve.setup_s, "s"),
        "pipeline_s": (pipe.pipeline_s, "s"),
        "train_samples_per_s": (pipe.train_samples / pipe.train_s, "1/s"),
        "top1_contracted": (pipe.top1_contracted, "%"),
        "top1_vanilla": (pipe.top1_vanilla, "%"),
        "single_p50_ms": (serve.median("single", lambda p: p.percentile(50)), "ms"),
        "window_rps": (serve.median("window", lambda p: p.rps), "1/s"),
        "window_p99_ms": (serve.median("window", lambda p: p.percentile(99)), "ms"),
        "success_rate": ((requests - failed) / requests, "ratio"),
        "open_p50_ms": (serve.median("open", lambda p: p.percentile(50)), "ms"),
        "open_p99_ms": (serve.median("open", lambda p: p.percentile(99)), "ms"),
    }


# Whole-run numbers whose spread over ten seeds on a shared 2-CPU host
# reached 0.2-1.0 of their median (training wall time drifts with the host;
# tails need more rounds than a run can afford).  The traced run reports
# them as per-layer diagnostics instead of end-to-end metrics with a bound.
DIAGNOSTIC = {
    "pipeline_s": "pipeline.wall_s",
    "train_samples_per_s": "train.samples_per_s",
    "window_p99_ms": "serve.window_p99_ms",
    "open_p99_ms": "serve.open_p99_ms",
}


def _overhead(path: str, traced: dict) -> str:
    """Traced end-to-end numbers over the last untraced run's, per metric."""
    if not os.path.isfile(path):
        return "n/a (no untraced run of this workload on record)"
    with open(path) as fh:
        untraced = json.load(fh)
    ratios = [f"{name} x{value / untraced[name]:.3f}" for name, (value, _) in traced.items()
              if name in ("pipeline_s", "single_p50_ms", "window_rps", "open_p50_ms") and untraced.get(name)]
    return ", ".join(ratios)


def _stop_children(timeout: float = 10.0) -> None:
    """Stop and reap every process the run started, on every way out of it.

    The fleet joins its replicas on close; this catches any it could not, and
    the ``multiprocessing`` resource tracker its shared memory started, which
    otherwise outlives the run (as a zombie where nothing reaps orphans).  The
    replicas are gone first, so the tracker, whose pipe they inherited by
    fork, sees end-of-file and exits.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join(timeout)
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        _stop_children()


def _main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of all serving rounds together")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpus and one set-up, for the self-test")
    args = parser.parse_args(argv)
    _import_repro()

    import numpy as np

    from perfbench.pipeline import PipelineScale, pipeline_layers, run_pipeline
    from perfbench.serving import run_serving, serve_layers
    from perfbench.tracer import Tracer, instrument

    traced = bool(args.trace)
    scale = PipelineScale.smoke() if args.smoke else PipelineScale()
    repeats = 1 if args.smoke else SETUP_REPEATS
    print(f"context: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
          f"blas_threads={BLAS_THREADS}")

    tracer = Tracer(traced)
    with instrument(tracer):
        pipe = run_pipeline(scale, args.seed, tracer, repeats)
    # The pipeline's garbage is not the front door's to collect, and what it
    # keeps alive (corpus, giant, spans) is frozen out of later collections,
    # in this process and in the replica forked from it.
    gc.collect()
    gc.freeze()
    serve = run_serving(pipe.contracted, pipe.corpus, args.workload, args.seed, args.seconds, traced,
                        repeats, scale.calibration_batches, scale.batch_size)

    phases = serve.phases
    checks = dict(pipe.checks)
    checks["replies_match_direct_forward"] = sum(p.mismatched for p in phases) == 0
    checks["fleet_lost_zero"] = serve.final.lost == 0
    for name, ok in checks.items():
        print(f"check: {name} {'ok' if ok else 'FAILED'}")
    print(f"fleet: {serve.final.summary()}".replace("\n", "\n fleet: "))
    samples = {name: int(serve.median(name, lambda p: len(p.latencies_ms))) for name in serve.rounds}
    print(f"context: serving {len(serve.rounds['single'])} rounds; median replies per round {samples}")

    whole = _whole_run(pipe, serve)
    label = args.workload + ("-smoke" if args.smoke else "")
    untraced_path = os.path.join(STATE_DIR, f"untraced-{label}.json")
    if traced:
        metrics = {**pipeline_layers(tracer, pipe), **serve_layers(serve)}
        metrics.update({layer: whole[name] for name, layer in DIAGNOSTIC.items()})
        print(f"context: tracing overhead ({label}): {_overhead(untraced_path, whole)}")
        tracer.dump(os.path.join(STATE_DIR, f"trace-{label}-{args.seed}.json"))
    else:
        metrics = {name: value for name, value in whole.items() if name not in DIAGNOSTIC}
        os.makedirs(STATE_DIR, exist_ok=True)
        with open(untraced_path, "w") as fh:
            json.dump({name: value for name, (value, _) in whole.items()}, fh)

    correct = all(checks.values())
    result = {
        "correct": correct,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
