"""Figure 1(b) — longer finetuning cannot rescue a vanilla-pretrained TNN.

The paper finetunes an ImageNet-pretrained MobileNetV2-35 on CIFAR-100 and
shows that quadrupling the number of finetuning epochs barely moves the
accuracy, while NetBooster's better-pretrained features do.  The registry's
``fig1b`` experiment sweeps the finetuning length for the vanilla-pretrained
model and compares the plateau against the NetBooster-transferred model.
"""

from __future__ import annotations

from repro.experiments import EXPERIMENTS, run_experiment

from common import CONTEXT, PROFILE, print_table


def run_fig1b():
    rows = run_experiment("fig1b", PROFILE, CONTEXT)
    print_table(EXPERIMENTS["fig1b"].title, rows)
    return rows


def test_fig1b_finetune_epochs(benchmark):
    rows = benchmark.pedantic(run_fig1b, rounds=1, iterations=1)
    acc = {row.setting: row.measured_value for row in rows}
    # Qualitative shape: 4x more vanilla finetuning gives only a marginal gain
    # (the pretrained features are the bottleneck, paper Constraint 2).  At the
    # CPU scale the 1x budget is far from convergence, so the plateau argument
    # only holds loosely; the bound below rejects a qualitative reversal (4x
    # being transformatively better) without claiming the paper's 0.2-point gap.
    assert acc["vanilla 4x"] - acc["vanilla 1x"] <= 15.0
    assert acc["NetBooster"] >= acc["vanilla 1x"] - 8.0


if __name__ == "__main__":  # standalone run through the orchestrator cache
    from common import bench_main

    raise SystemExit(bench_main(run_fig1b))
