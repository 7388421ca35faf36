"""Table III — Pascal VOC object detection (AP50) with a MobileNetV2-35 backbone.

The paper transfers ImageNet-pretrained backbones to Pascal VOC and reports
AP50 for Vanilla, NetAug and NetBooster.  The registry's ``table3`` experiment
plugs the corpus-pretrained backbones into the tiny anchor-free detector and
trains it on the synthetic VOC dataset; the NetBooster backbone runs PLT
during detection finetuning and is contracted before the final evaluation.
"""

from __future__ import annotations

from repro.experiments import EXPERIMENTS, run_experiment

from common import CONTEXT, PROFILE, print_table


def run_table3():
    rows = run_experiment("table3", PROFILE, CONTEXT)
    print_table(EXPERIMENTS["table3"].title, rows)
    return rows


def test_table3_detection(benchmark):
    rows = benchmark.pedantic(run_table3, rounds=1, iterations=1)
    ap50 = {row.setting: row.measured_value for row in rows}
    # Pretrained-backbone detectors should produce a meaningful AP50, and
    # NetBooster should not fall behind vanilla by more than noise.
    assert all(0.0 <= v <= 100.0 for v in ap50.values())
    assert ap50["NetBooster"] >= ap50["Vanilla"] - 10.0


if __name__ == "__main__":  # standalone run through the orchestrator cache
    from common import bench_main

    raise SystemExit(bench_main(run_table3))
