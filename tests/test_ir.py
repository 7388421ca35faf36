"""Tests for the unified graph IR, the pass pipelines and the repro.compile frontend."""

import numpy as np
import pytest

import repro
from repro import nn
from repro.compress import calibrate, quantize_model
from repro.models import create_model
from repro.models.blocks import ConvBNAct, InvertedResidual
from repro.runtime import (
    CompiledNet,
    QuantizedNet,
    load_artifact,
    trace,
)
from repro.runtime.ir import CompileError, Graph, OpNode
from repro.runtime.passes import annotate


def _randomize_bn_stats(model: nn.Module, rng) -> None:
    for _, module in model.named_modules():
        if isinstance(module, nn.BatchNorm2d):
            module.running_mean[...] = rng.normal(0.0, 0.2, size=module.num_features)
            module.running_var[...] = rng.uniform(0.5, 1.5, size=module.num_features)


def _quantized_model(name: str, rng, res: int = 16):
    model = create_model(name, num_classes=8)
    _randomize_bn_stats(model, rng)
    model.eval()
    quantize_model(model)
    batches = [rng.normal(0.2, 0.8, size=(8, 3, res, res)).astype(np.float32) for _ in range(2)]
    calibrate(model, batches)
    return model


class TestTracer:
    @pytest.mark.parametrize("name", ["mobilenetv2-tiny", "mcunet"])
    def test_round_trip_covers_every_leaf(self, name):
        """Every conv/linear/bn leaf of the model appears exactly once in the graph."""
        model = create_model(name, num_classes=8)
        graph = trace(model)
        traced = [node.module for node, _ in graph.walk() if node.kind in ("conv", "linear", "bn")]
        leaves = [
            m
            for _, m in model.named_modules()
            if isinstance(m, (nn.Conv2d, nn.Linear, nn.BatchNorm2d))
        ]
        assert len(traced) == len(leaves)
        assert set(map(id, traced)) == set(map(id, leaves))

    @pytest.mark.parametrize("name", ["mobilenetv2-tiny", "mcunet"])
    def test_round_trip_compiles_to_eager_parity(self, rng, name):
        """Trace -> passes -> backend reproduces the eager forward."""
        model = create_model(name, num_classes=8)
        _randomize_bn_stats(model, rng)
        model.eval()
        x = rng.normal(size=(2, 3, 16, 16)).astype(np.float32)
        with nn.no_grad():
            eager = model(nn.Tensor(x)).numpy()
        out = repro.compile(model).numpy_forward(x)
        np.testing.assert_allclose(out, eager, rtol=1e-4, atol=1e-4)

    def test_residual_blocks_become_residual_nodes(self):
        block = InvertedResidual(6, 6, stride=1, expand_ratio=2)
        graph = trace(block)
        assert [n.kind for n in graph.nodes] == ["residual"]
        body_kinds = graph.nodes[0].body.kinds()
        assert body_kinds.count("conv") == 3 and body_kinds.count("bn") == 3

    def test_unknown_module_becomes_eager_node(self):
        class Odd(nn.Module):
            def __init__(self):
                super().__init__()
                self.linear = nn.Linear(4, 2)

            def forward(self, x):
                return self.linear(x).tanh()

        assert trace(Odd()).kinds() == ["eager"]

    def test_node_names_follow_module_paths(self):
        model = create_model("mobilenetv2-tiny", num_classes=4)
        graph = trace(model)
        names = [node.name for node, _ in graph.walk()]
        assert any(name.startswith("features.0") for name in names)
        assert "classifier" in names


class TestPassOrdering:
    def test_bn_folds_recorded_before_fusion(self):
        block = ConvBNAct(3, 4, kernel_size=3)  # conv -> bn -> relu6
        graph = annotate(trace(block), int8=False)
        assert graph.kinds() == ["conv"]
        conv = graph.nodes[0]
        assert len(conv.meta["bn_folds"]) == 1
        assert conv.meta["act"] == ("relu6",)


class TestFrontend:
    def test_mode_dispatch_types(self, rng):
        model = create_model("mobilenetv2-tiny", num_classes=4)
        model.eval()
        assert isinstance(repro.compile(model), CompiledNet)
        qmodel = _quantized_model("mobilenetv2-tiny", rng)
        assert isinstance(repro.compile(qmodel, mode="int8"), QuantizedNet)

    def test_unknown_mode_raises(self):
        model = create_model("mobilenetv2-tiny", num_classes=4)
        for mode in ("jit", "train", "training"):
            with pytest.raises(CompileError):
                repro.compile(model, mode=mode)

    def test_describe_reports_passes_and_nodes(self, rng):
        model = create_model("mobilenetv2-tiny", num_classes=4)
        model.eval()
        report = repro.compile(model).describe()
        assert "fold_batchnorm" in report and "fuse_activations" in report
        assert "features.0.conv" in report
        qreport = repro.compile(_quantized_model("mobilenetv2-tiny", rng), mode="int8").describe()
        assert "lower_int8" in qreport and "grid=" in qreport

    def test_unknown_option_is_a_type_error(self, tmp_path):
        """The compile and load entry points take no tuning knobs at all."""
        assert not hasattr(repro, "CompileOptions")
        model = create_model("mobilenetv2-tiny", num_classes=4)
        with pytest.raises(TypeError):
            repro.compile(model, threads=2)
        with pytest.raises(TypeError):
            repro.compile(model, mode="int8", dw_kernel="einsum")
        with pytest.raises(TypeError):
            load_artifact(str(tmp_path / "net.rpa"), dw_kernel="flat")


class TestMemoryPlans:
    def test_float_compiled_net_reports_arena_plan(self, rng):
        model = create_model("mobilenetv2-tiny", num_classes=8)
        model.eval()
        plan = repro.compile(model).memory_plan((1, 3, 16, 16))
        assert plan.peak_value_int8_bytes > 0
        assert plan.arena_elements > 0
        assert "peak working set" in plan.summary()

    def test_float_plan_matches_analytic_peak_on_plain_chain(self, rng):
        """On a fusion-free sequential chain the liveness plan equals
        max(input + output) — the analytic deployment approximation.  (With a
        fusable activation in the chain the plan comes out *tighter*, because
        the compiled program runs conv+act as one step.)"""
        from repro.eval.deployment import peak_activation_memory

        model = nn.Sequential(
            nn.Conv2d(3, 8, 3, stride=1, padding=0),
            nn.Conv2d(8, 4, 3, stride=1, padding=0),
            nn.Conv2d(4, 4, 3, stride=1, padding=0),
        )
        model.eval()
        plan = repro.compile(model).memory_plan((1, 3, 12, 12))
        assert plan.peak_value_int8_bytes == peak_activation_memory(model, (3, 12, 12))

    def test_quantized_net_memory_plan_alias(self, rng):
        """``memory_plan`` is the arena of the plan the engine runs."""
        engine = repro.compile(_quantized_model("mobilenetv2-tiny", rng), mode="int8")
        shape = (1, 3, 16, 16)
        assert engine.memory_plan(shape) is engine.plan(shape).memory

    def test_deployment_report_surfaces_planner_peaks(self, rng):
        from repro.eval.deployment import deployment_report

        model = create_model("mobilenetv2-tiny", num_classes=8)
        model.eval()
        report = deployment_report(model, (3, 16, 16))
        assert report.planner_backend == "float"
        assert report.planned_peak_int8_bytes > 0
        assert "planned peak SRAM" in report.summary()

        qmodel = _quantized_model("mobilenetv2-tiny", rng)
        qreport = deployment_report(qmodel, (3, 16, 16))
        assert qreport.planner_backend == "int8"
        assert qreport.planned_peak_int8_bytes > 0
