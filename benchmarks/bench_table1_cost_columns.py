"""Table I cost columns — FLOPs / parameters of the model zoo, and invariance.

Table I of the paper reports, next to the accuracy of every training method,
the inference complexity of each network (23.5 M FLOPs / 0.75 M params for
MobileNetV2-Tiny at 144x144, and so on).  The registry's ``cost`` experiment
regenerates those columns analytically on the scaled-down model zoo and checks
the remark below Eq. 4: the *contracted* NetBooster model has exactly the same
structure (so the same FLOPs and parameters) as the original TNN, for every
network and for expansion ratios 2 and 6.

This bench involves no training and runs in seconds.
"""

from __future__ import annotations

from repro.experiments import EXPERIMENTS, run_experiment

from common import CONTEXT, PROFILE, print_table


def run_cost_columns():
    rows = run_experiment("cost", PROFILE, CONTEXT)
    print_table(EXPERIMENTS["cost"].title, rows)
    return rows


def test_table1_cost_columns(benchmark):
    rows = benchmark.pedantic(run_cost_columns, rounds=1, iterations=1)
    mflops = [row for row in rows if row.unit == "MFLOPs"]
    measured = {row.setting: row.measured_value for row in rows}
    # The relative ordering of the four networks' complexity must match Table I.
    measured_order = sorted(range(len(mflops)), key=lambda i: mflops[i].measured_value)
    paper_order = sorted(range(len(mflops)), key=lambda i: mflops[i].paper_value)
    assert measured_order == paper_order
    # Contraction never changes the inference cost (paper Eq. 4 remark).
    assert all(measured[f"{row.setting} / contracted == original"] == 1.0 for row in mflops)


if __name__ == "__main__":  # standalone run through the orchestrator cache
    from common import bench_main

    raise SystemExit(bench_main(run_cost_columns))
