"""Shared workload profile, step context and table printer for the benchmarks.

Every paper benchmark regenerates one table or figure of the NetBooster paper
by running the matching experiment of :mod:`repro.experiments.registry`
(``run_experiment(name, PROFILE, CONTEXT)``), printing its rows and applying
its noise-floor assertions to them.  The shared artifacts several tables
reuse (the vanilla TNN, the NetBooster deep giant, the KD teacher) are the
registry's shared steps, resolved through :data:`CONTEXT` and the
orchestrator's content-addressed on-disk cache: the first benchmark to need
an artifact trains and stores it, every later benchmark — in this process or
any other — loads it from disk.

Environment variables:

* ``REPRO_BENCH_SCALE`` — ``"small"`` (default), ``"full"`` or ``"tiny"``;
  the full scale uses more classes/samples/epochs and is closer to the
  under-fitting regime of the paper but takes several times longer, the
  tiny scale runs every benchmark in seconds (a glue check, not a result).
* ``REPRO_BENCH_FULL_NETWORKS`` — set to ``1`` to run every network of
  Table I (MobileNetV2-Tiny, MCUNet, MobileNetV2-50/100; the last two are
  expensive); by default Table I covers MobileNetV2-Tiny only.
* ``REPRO_CACHE_DIR`` — cache root shared with ``python -m repro.experiments
  run-all`` (default ``.repro_cache``); ``REPRO_BENCH_CACHE=0`` disables the
  on-disk cache and keeps artifacts in-process only.
"""

from __future__ import annotations

import os
import time

from repro.experiments import ExperimentScale, ResultCache, ResultRow, StepContext

__all__ = ["PROFILE", "CONTEXT", "print_table", "bench_main"]

PROFILE: ExperimentScale = ExperimentScale.named(os.environ.get("REPRO_BENCH_SCALE", "small"))

#: Dependency resolver shared by the whole benchmark process; backed by the
#: same on-disk cache the orchestrator uses unless REPRO_BENCH_CACHE=0.
CONTEXT = StepContext(
    PROFILE,
    cache=None if os.environ.get("REPRO_BENCH_CACHE", "1") == "0" else ResultCache(),
)


def print_table(title: str, rows: list[ResultRow]) -> None:
    """Print experiment rows as a fixed-width paper-vs-measured table."""
    header = ["setting", "paper", "measured", "unit"]
    cells = [
        [
            row.setting,
            "-" if row.paper_value is None else f"{row.paper_value:.2f}",
            f"{row.measured_value:.2f}",
            row.unit,
        ]
        for row in rows
    ]
    widths = [max(len(header[i]), *(len(line[i]) for line in cells)) for i in range(len(header))]
    print(f"\n=== {title} ===")
    print(" | ".join(cell.ljust(width) for cell, width in zip(header, widths)))
    print("-+-".join("-" * width for width in widths))
    for line in cells:
        print(" | ".join(cell.ljust(width) for cell, width in zip(line, widths)))


def bench_main(run_fn):
    """Standalone entry point for one benchmark file.

    Runs the benchmark body directly (``python benchmarks/bench_xxx.py``),
    without its assertions, against the orchestrator's shared on-disk cache,
    so artifacts trained here are reused by ``python -m repro.experiments
    run-all`` and vice versa.  Returns a process exit code.
    """
    where = CONTEXT.cache.root if CONTEXT.cache is not None else "disabled (REPRO_BENCH_CACHE=0)"
    print(f"profile: {PROFILE}\nresult cache: {where}")
    started = time.perf_counter()
    run_fn()
    print(f"\ncompleted in {time.perf_counter() - started:.1f}s")
    return 0
