"""Figure 1(a) — TNNs under-fit: regularisation hurts, NetBooster helps.

The paper's motivating figure shows that DropBlock — a regulariser designed
for over-fitting large networks — *reduces* MobileNetV2 accuracy on ImageNet,
whereas NetBooster's extra training-time capacity improves it.  The registry's
``fig1a`` experiment reproduces the three-way comparison (Vanilla,
Vanilla+DropBlock, NetBooster) on the synthetic corpus.
"""

from __future__ import annotations

from repro.experiments import EXPERIMENTS, run_experiment

from common import CONTEXT, PROFILE, print_table


def run_fig1a():
    rows = run_experiment("fig1a", PROFILE, CONTEXT)
    print_table(EXPERIMENTS["fig1a"].title, rows)
    return rows


def test_fig1a_underfitting(benchmark):
    rows = benchmark.pedantic(run_fig1a, rounds=1, iterations=1)
    acc = {row.setting: row.measured_value for row in rows}
    # Qualitative shape: DropBlock must not *help* a tiny under-fitting network
    # by a meaningful margin, and NetBooster should not be worse than vanilla
    # (both bounds widened to the CPU-scale single-seed noise floor).
    assert acc["DropBlock"] <= acc["Vanilla"] + 3.0
    assert acc["NetBooster"] >= acc["Vanilla"] - 2.5


if __name__ == "__main__":  # standalone run through the orchestrator cache
    from common import bench_main

    raise SystemExit(bench_main(run_fig1a))
