"""Table I — large-scale-dataset accuracy of TNN training methods.

The paper compares Vanilla, RocketLaunching, tf-KD, RCO-KD, NetAug and
NetBooster on ImageNet for MobileNetV2-Tiny, MCUNet, MobileNetV2-50 and
MobileNetV2-100.  The registry's ``table1`` experiment reruns the comparison
on the synthetic corpus: all six methods for MobileNetV2-Tiny, and the
three-method comparison (Vanilla / NetAug / NetBooster) for the other networks
only when ``REPRO_BENCH_FULL_NETWORKS=1`` because of their CPU cost.
"""

from __future__ import annotations

from repro.experiments import EXPERIMENTS, run_experiment

from common import CONTEXT, PROFILE, print_table


def run_table1():
    rows = run_experiment("table1", PROFILE, CONTEXT)
    print_table(EXPERIMENTS["table1"].title, rows)
    return rows


def test_table1_imagenet(benchmark):
    rows = benchmark.pedantic(run_table1, rounds=1, iterations=1)
    tiny = {
        row.setting.partition(" / ")[2]: row.measured_value
        for row in rows
        if row.setting.startswith("mobilenetv2-tiny / ")
    }
    # Qualitative claim: NetBooster improves over vanilla training (paper: +2.5)
    # and is competitive with the strongest baseline.  The single-seed noise
    # floor of the CPU-scale corpus is about +/-2.5 points, so the assertions
    # only reject results that fall outside that band.
    assert tiny["NetBooster"] >= tiny["Vanilla"] - 2.5
    best_baseline = max(v for k, v in tiny.items() if k != "NetBooster")
    assert tiny["NetBooster"] >= best_baseline - 6.0


if __name__ == "__main__":  # standalone run through the orchestrator cache
    from common import bench_main

    raise SystemExit(bench_main(run_table1))
