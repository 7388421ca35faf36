"""Unit tests for the experiment orchestrator and its on-disk result cache.

Covers the satellite requirements of the orchestrator PR: parallel execution
through the worker pool, cache hit/miss behaviour (content-addressed keys),
and resume-from-manifest.  Everything runs at :meth:`ExperimentScale.tiny`
with the cheap experiments so the whole module stays in the seconds range.
"""

import json

import numpy as np
import pytest

from repro.experiments import ExperimentScale, run_experiment
from repro.experiments.cache import Artifact, ResultCache, config_digest, source_fingerprint
from repro.experiments.orchestrator import MANIFEST_NAME, Orchestrator, build_plan
from repro.experiments.registry import StepContext, shared_step


@pytest.fixture
def tiny_scale():
    return ExperimentScale.tiny()


class TestResultCache:
    def test_digest_is_stable_and_order_insensitive(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})
        assert config_digest("x") != config_digest("y")
        assert len(config_digest("x")) == 64

    def test_source_fingerprint_distinguishes_functions(self):
        assert source_fingerprint(config_digest) != source_fingerprint(source_fingerprint)

    def test_miss_then_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = config_digest("entry")
        assert cache.load(key) is None and not cache.has(key)
        state = {"model": {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}}
        cache.store(key, Artifact(meta={"accuracy": 51.2, "rows": [1, 2]}, states=state))
        assert cache.has(key)
        loaded = cache.load(key)
        assert loaded.meta == {"accuracy": 51.2, "rows": [1, 2]}
        np.testing.assert_array_equal(loaded.states["model"]["w"], state["model"]["w"])

    def test_store_is_idempotent(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = config_digest("twice")
        cache.store(key, Artifact(meta={"v": 1}))
        cache.store(key, Artifact(meta={"v": 2}))  # discarded: same key == same content
        assert cache.load(key).meta == {"v": 1}

    def test_memoize_hit_and_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return Artifact(meta={"v": 7})

        _, hit = cache.memoize(config_digest("memo"), compute)
        assert not hit
        _, hit = cache.memoize(config_digest("memo"), compute)
        assert hit and len(calls) == 1

    def test_corrupt_states_evicted_and_repaired(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = config_digest("corrupt-states")
        cache.store(key, Artifact(meta={"v": 1}, states={"m": {"w": np.ones(2)}}))
        (cache._entry_dir(key) / "states.npz").write_bytes(b"not a zip")
        assert cache.load(key) is None  # corrupt entry -> evicted, miss
        cache.store(key, Artifact(meta={"v": 2}))  # ...and store can repair it
        assert cache.load(key).meta == {"v": 2}

    def test_corrupt_meta_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = config_digest("corrupt-meta")
        cache.store(key, Artifact(meta={"v": 1}))
        (cache._entry_dir(key) / "entry.json").write_text("{truncated", encoding="utf-8")
        assert cache.load(key) is None
        assert not cache.has(key)

    def test_clear_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(config_digest("s"), Artifact(meta={}))
        assert cache.stats()["entries"] == 1
        cache.clear()
        assert cache.stats() == {"entries": 0, "bytes": 0, "evicted": 0}

    def test_truncated_states_evicted_and_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = config_digest("truncated-states")
        cache.store(key, Artifact(meta={"v": 1}, states={"m": {"w": np.arange(64.0)}}))
        states = cache._entry_dir(key) / "states.npz"
        states.write_bytes(states.read_bytes()[: states.stat().st_size // 2])
        assert cache.load(key) is None
        assert not cache.has(key)
        assert cache.stats()["evicted"] == 1

    def test_unexpected_load_error_propagates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        key = config_digest("type-error")
        cache.store(key, Artifact(meta={"v": 1}))

        def broken_load(handle):
            raise TypeError("a bug, not a damaged entry")

        monkeypatch.setattr("repro.experiments.cache.json.load", broken_load)
        with pytest.raises(TypeError):
            cache.load(key)
        monkeypatch.undo()
        assert cache.has(key)
        assert cache.stats()["evicted"] == 0


class TestPlan:
    def test_plan_includes_transitive_steps(self):
        plan = build_plan(["table4"])
        assert set(plan) == {
            "experiment/table4",
            "step/netbooster/mobilenetv2-tiny",
            "step/giant/mobilenetv2-tiny",
        }
        assert plan["step/netbooster/mobilenetv2-tiny"].deps == ("step/giant/mobilenetv2-tiny",)
        assert plan["experiment/table4"].deps == ("step/netbooster/mobilenetv2-tiny",)

    def test_analytic_experiment_has_no_deps(self):
        plan = build_plan(["cost"])
        assert set(plan) == {"experiment/cost"}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            build_plan(["table99"])

    def test_unknown_shared_step_rejected(self):
        with pytest.raises(KeyError):
            shared_step("frobnicate/mobilenetv2-tiny")


class TestStepContext:
    def test_step_keys_depend_on_scale_and_name(self, tiny_scale):
        ctx_tiny = StepContext(tiny_scale)
        ctx_small = StepContext(ExperimentScale())
        name = "vanilla/mobilenetv2-tiny"
        assert ctx_tiny.step_key(name) == StepContext(tiny_scale).step_key(name)
        assert ctx_tiny.step_key(name) != ctx_small.step_key(name)
        assert ctx_tiny.step_key(name) != ctx_tiny.step_key("pretrain/mobilenetv2-tiny")

    def test_dep_uses_cache_across_contexts(self, tiny_scale, tmp_path):
        cache = ResultCache(tmp_path)
        first = StepContext(tiny_scale, cache).dep("vanilla/mobilenetv2-tiny")
        # A fresh context in (conceptually) another process hits the disk entry.
        second = StepContext(tiny_scale, cache).dep("vanilla/mobilenetv2-tiny")
        assert first.meta["history"]["val_accuracy"] == second.meta["history"]["val_accuracy"]
        assert cache.stats()["entries"] == 1


class TestOrchestrator:
    def test_serial_run_writes_reports_and_manifest(self, tiny_scale, tmp_path):
        out = tmp_path / "results"
        orchestrator = Orchestrator(tiny_scale, cache_dir=tmp_path / "cache", workers=1, out_dir=out)
        report = orchestrator.run(["cost"])
        assert report.failed_jobs == []
        assert [row.unit for row in report.rows_for("cost")] == ["MFLOPs"] * 4
        assert (out / "cost.json").is_file() and (out / "cost.md").is_file()
        assert (out / "REPORT.md").is_file()
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert manifest["jobs"]["experiment/cost"]["status"] == "done"
        assert not manifest["jobs"]["experiment/cost"]["cached"]

    def test_second_run_is_pure_cache_replay(self, tiny_scale, tmp_path):
        kwargs = dict(cache_dir=tmp_path / "cache", workers=1, out_dir=tmp_path / "results")
        first = Orchestrator(tiny_scale, **kwargs).run(["cost"])
        second = Orchestrator(tiny_scale, **kwargs).run(["cost"])
        assert first.cached_jobs == 0
        assert second.cached_jobs == len(second.outcomes)
        assert [r.to_dict() for r in first.rows_for("cost")] == [
            r.to_dict() for r in second.rows_for("cost")
        ]

    def test_parallel_run_executes_dag(self, tiny_scale, tmp_path):
        out = tmp_path / "results"
        orchestrator = Orchestrator(tiny_scale, cache_dir=tmp_path / "cache", workers=2, out_dir=out)
        report = orchestrator.run(["cost", "table4"])
        assert report.failed_jobs == []
        assert set(report.outcomes) == {
            "experiment/cost",
            "experiment/table4",
            "step/giant/mobilenetv2-tiny",
            "step/netbooster/mobilenetv2-tiny",
        }
        settings = [row.setting for row in report.rows_for("table4")]
        assert settings == ["inverted_residual", "basic", "bottleneck"]
        # The shared-step artifacts landed in the same cache the registry uses.
        ctx = StepContext(tiny_scale, ResultCache(tmp_path / "cache"))
        assert ctx.cache.has(ctx.step_key("giant/mobilenetv2-tiny"))

    def test_resume_from_manifest_skips_done_jobs(self, tiny_scale, tmp_path):
        out = tmp_path / "results"
        kwargs = dict(cache_dir=tmp_path / "cache", out_dir=out)
        # "Interrupted" run: only the analytic experiment completed.
        Orchestrator(tiny_scale, workers=1, **kwargs).run(["cost"])
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert set(manifest["jobs"]) == {"experiment/cost"}

        lines = []
        resumed = Orchestrator(tiny_scale, workers=1, progress=lines.append, **kwargs)
        report = resumed.run(["cost", "fig1a"])
        assert report.outcomes["experiment/cost"].cached
        assert not report.outcomes["experiment/fig1a"].cached
        assert any(line.startswith("[resume]") for line in lines)
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert manifest["jobs"]["experiment/fig1a"]["status"] == "done"

    def test_cleared_cache_invalidates_manifest_resume(self, tiny_scale, tmp_path):
        out = tmp_path / "results"
        cache = ResultCache(tmp_path / "cache")
        kwargs = dict(cache_dir=tmp_path / "cache", workers=1, out_dir=out)
        Orchestrator(tiny_scale, **kwargs).run(["cost"])
        cache.clear()  # manifest still says done, but the artifacts are gone
        report = Orchestrator(tiny_scale, **kwargs).run(["cost"])
        assert not report.outcomes["experiment/cost"].cached
        assert report.failed_jobs == []

    def test_no_resume_re_dispatches_jobs(self, tiny_scale, tmp_path):
        kwargs = dict(cache_dir=tmp_path / "cache", workers=1, out_dir=tmp_path / "results")
        Orchestrator(tiny_scale, **kwargs).run(["cost"])
        lines = []
        report = Orchestrator(tiny_scale, progress=lines.append, **kwargs).run(["cost"], resume=False)
        # The job is re-dispatched (not skipped upfront) ...
        assert any(line.startswith("[run]") for line in lines)
        # ... but the worker honestly reports it resolved as a cache replay.
        assert report.outcomes["experiment/cost"].cached

    def test_registry_and_orchestrator_agree(self, tiny_scale, tmp_path):
        direct = run_experiment("cost", tiny_scale)
        report = Orchestrator(
            tiny_scale, cache_dir=tmp_path / "cache", workers=1, out_dir=tmp_path / "results"
        ).run(["cost"])
        assert [row.to_dict() for row in direct] == [row.to_dict() for row in report.rows_for("cost")]


class TestCliOrchestration:
    def test_run_subcommand(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.__main__ import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        rc = main(["run", "cost", "--scale", "tiny", "--workers", "1", "--out", str(tmp_path / "results")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cache hits" in out and "measured=" in out
        assert (tmp_path / "results" / MANIFEST_NAME).is_file()

    def test_run_subcommand_rejects_unknown(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        assert main(["run", "table99", "--out", str(tmp_path)]) == 2
        assert "unknown experiment" in capsys.readouterr().err
