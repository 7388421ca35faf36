"""Unit tests for the programmatic experiment registry and its CLI."""

import pytest

from repro.experiments import ExperimentScale, StepContext, available_experiments, run_experiment
from repro.experiments.__main__ import main

# The row settings each experiment's consumer reads: the paper benchmark's
# assertions (benchmarks/bench_*.py) and, for dp / fidelity, the CLI reports.
TABLE1_METHODS = ("Vanilla", "RocketLaunch", "tf-KD", "RCO-KD", "NetAug", "NetBooster")
NETWORKS = ("mobilenetv2-tiny", "mcunet", "mobilenetv2-50", "mobilenetv2-100")
DATASETS = ("cifar100", "cars", "flowers102", "food101", "pets")
SETTINGS_READ = {
    "cost": {*NETWORKS, *(f"{n} / contracted == original" for n in NETWORKS)},
    "table1": {f"mobilenetv2-tiny / {m}" for m in TABLE1_METHODS},
    "table2": {f"{d} / {m}" for d in DATASETS for m in ("Vanilla", "NetBooster")},
    "table3": {"Vanilla", "NetBooster"},
    "table4": {"inverted_residual", "basic", "bottleneck"},
    "table5": {"first", "middle", "last", "uniform"},
    "table6": {"Vanilla", "Vanilla / FLOPs", *(f"ratio={r}" for r in (2, 4, 6, 8)),
               *(f"ratio={r} / contracted FLOPs" for r in (2, 4, 6, 8))},
    "fig1a": {"Vanilla", "DropBlock", "NetBooster"},
    "fig1b": {"vanilla 1x", "vanilla 4x", "NetBooster"},
    "dp": {"workers=1 (reference)", "allreduce x 2 workers", "gossip x 2 workers"},
    "fidelity": {"float / top-1", "float / latency", "int8 / top-1", "int8 / latency"},
}


@pytest.fixture(scope="module")
def tiny_scale():
    return ExperimentScale.tiny()


@pytest.fixture(scope="module")
def rows_of(tiny_scale):
    """Rows of each experiment at tiny scale, run once per module against one
    step context, so every shared step trains once."""
    ctx = StepContext(tiny_scale)
    rows: dict[str, list] = {}

    def get(name: str) -> list:
        if name not in rows:
            rows[name] = run_experiment(name, tiny_scale, ctx)
        return rows[name]

    return get


@pytest.mark.parametrize("name", available_experiments())
def test_experiment_has_the_rows_its_consumers_read(name, rows_of):
    rows = rows_of(name)
    settings = [row.setting for row in rows]
    assert len(settings) == len(set(settings))
    assert SETTINGS_READ[name] <= set(settings)


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        names = available_experiments()
        assert {"table1", "table2", "table3", "table4", "table5", "table6", "fig1a", "fig1b", "cost"} <= set(names)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("table99")

    def test_cost_experiment_is_analytic_and_ordered(self, rows_of):
        rows = rows_of("cost")
        assert [row.setting for row in rows if row.unit == "MFLOPs"] == list(NETWORKS)
        measured = {row.setting: row.measured_value for row in rows}
        assert measured["mobilenetv2-tiny"] < measured["mobilenetv2-100"]
        assert measured["mobilenetv2-tiny / params"] < measured["mobilenetv2-100 / params"]
        assert all(measured[f"{n} / contracted == original"] == 1.0 for n in NETWORKS)

    def test_table1_returns_all_methods(self, rows_of):
        rows = [row for row in rows_of("table1") if row.setting.startswith("mobilenetv2-tiny / ")]
        assert [row.setting for row in rows] == [f"mobilenetv2-tiny / {m}" for m in TABLE1_METHODS]
        assert all(0.0 <= row.measured_value <= 100.0 for row in rows)
        assert all(row.paper_value is not None for row in rows)

    def test_table6_sweeps_all_ratios(self, rows_of):
        settings = [row.setting for row in rows_of("table6")]
        assert [s for s in settings if s.startswith("ratio=") and " / " not in s] == [
            "ratio=2", "ratio=4", "ratio=6", "ratio=8"
        ]

    def test_fidelity_sweeps_both_rungs(self, rows_of):
        rows = rows_of("fidelity")
        assert [row.setting for row in rows] == [
            "float / top-1",
            "float / latency",
            "int8 / top-1",
            "int8 / latency",
        ]
        units = {row.setting: row.unit for row in rows}
        assert units["float / top-1"] == "top-1 %"
        assert units["int8 / latency"] == "ms p99"
        assert all(row.paper_value is None for row in rows)
        assert all(row.measured_value > 0 for row in rows)

    def test_row_string_contains_paper_and_measured(self, rows_of):
        row = rows_of("cost")[0]
        text = str(row)
        assert "paper=" in text and "measured=" in text

    def test_scale_helpers_build_consistent_configs(self, tiny_scale):
        corpus = tiny_scale.corpus()
        assert corpus.train.num_classes == tiny_scale.num_classes
        assert tiny_scale.pretrain_config().epochs == tiny_scale.pretrain_epochs
        assert tiny_scale.pretrain_config(3).epochs == tiny_scale.pretrain_epochs + 3
        assert tiny_scale.finetune_config().lr == pytest.approx(tiny_scale.finetune_lr)


class TestCli:
    def test_list_subcommand(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "cost" in out

    def test_no_arguments_prints_usage(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "run-all" in out and "Available experiments" in out and "table1" in out

    def test_unknown_experiment_prints_available_instead_of_raising(self, capsys):
        assert main(["table99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err and "table1" in err

    def test_unknown_flag_exits_with_usage(self, capsys):
        assert main(["--bogus-flag"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_runs_named_experiment(self, capsys, tmp_path):
        argv = ["run", "cost", "--scale", "tiny", "--out", str(tmp_path / "results"),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cost" in out and "measured=" in out
