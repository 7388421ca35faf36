"""Multi-fidelity serving: ladder specs, rung backends, fleet integration."""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro
from helpers import rewrite_header
from repro.models import create_model
from repro.serve.fidelity import (
    FidelityLadder,
    LadderBackend,
    RungSpec,
    default_ladder,
    ladder_backend,
    parse_fidelity,
)
from repro.utils import seed_everything

RESOLUTION = 12
CLASSES = 8


class TestParseFidelity:
    def test_engine_model_pairs(self):
        rungs = parse_fidelity("float:mobilenetv2-50,int8:mobilenetv2-tiny")
        assert [r.engine for r in rungs] == ["float", "int8"]
        assert [r.model for r in rungs] == ["mobilenetv2-50", "mobilenetv2-tiny"]

    def test_bare_engine_uses_default_model(self):
        rungs = parse_fidelity("float,int8", default_model="mcunet")
        assert all(r.model == "mcunet" for r in rungs)

    def test_artifact_rung(self):
        (rung,) = parse_fidelity("artifact:/some/dir/net.rpa")
        assert rung.artifact == "/some/dir/net.rpa"
        assert rung.name == "artifact:net.rpa"

    def test_artifact_rung_needs_path(self):
        with pytest.raises(ValueError, match="needs a path"):
            parse_fidelity("artifact:")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="no rungs"):
            parse_fidelity(" , ")

    def test_default_ladder(self):
        rungs = default_ladder("mcunet")
        assert [r.engine for r in rungs] == ["float", "int8"]
        assert all(r.model == "mcunet" for r in rungs)


class TestLadderBackend:
    @pytest.fixture(scope="class")
    def backend(self):
        return ladder_backend(
            "float:mobilenetv2-tiny,int8:mobilenetv2-tiny",
            resolution=RESOLUTION,
            num_classes=CLASSES,
            probe_batch=32,
        )

    def test_build_merges_io_contract(self, backend):
        assert isinstance(backend, LadderBackend)
        assert backend.input_shape == (3, RESOLUTION, RESOLUTION)
        io = backend.io_plan()
        assert io.output_shape == (CLASSES,)
        # the merged slot must fit every rung's own plan
        from repro.runtime import plan_io

        for net in backend.nets:
            assert io.slot_elements >= plan_io(net, backend.input_shape).slot_elements

    def test_dispatch_follows_active_rung(self, backend):
        rng = np.random.default_rng(0)
        x = rng.normal(0.2, 0.8, size=(2, 3, RESOLUTION, RESOLUTION)).astype(np.float32)
        backend.set_rung(0)
        top = backend.forward(x)
        backend.set_rung(1)
        low = backend.forward(x)
        backend.set_rung(0)
        assert not np.array_equal(top, low)  # int8 rung computes different numbers
        np.testing.assert_array_equal(top, backend.forward(x))

    def test_set_rung_clamps(self, backend):
        assert backend.set_rung(99) == 1
        assert backend.set_rung(-5) == 0
        assert backend.active_rung == 0

    def test_agreement_probe(self, backend):
        assert backend.agreement[0] == 1.0
        assert 0.0 <= backend.agreement[1] <= 1.0
        assert backend.rung_names == ["float:mobilenetv2-tiny", "int8:mobilenetv2-tiny"]

    def test_single_rung_ladder(self):
        backend = ladder_backend("float", resolution=RESOLUTION, num_classes=CLASSES,
                                 probe_batch=0)
        assert len(backend.rungs) == 1
        assert backend.agreement == [1.0]

    def test_mismatched_output_contract_rejected(self, tmp_path):
        seed_everything(0)
        other = create_model("mobilenetv2-tiny", num_classes=CLASSES + 1)
        other.eval()
        path = tmp_path / "other.rpa"
        repro.compile(other).save(str(path), input_shape=(3, RESOLUTION, RESOLUTION))
        ladder = FidelityLadder(
            [
                RungSpec(name="float", engine="float", model="mobilenetv2-tiny"),
                RungSpec(name="odd", artifact=str(path)),
            ],
            resolution=RESOLUTION,
            num_classes=CLASSES,
        )
        with pytest.raises(ValueError, match="output contract"):
            ladder.build()

    def test_mismatched_input_contract_rejected(self, tmp_path):
        seed_everything(0)
        other = create_model("mobilenetv2-tiny", num_classes=CLASSES)
        other.eval()
        path = tmp_path / "small.rpa"
        repro.compile(other).save(str(path), input_shape=(3, 8, 8))
        ladder = FidelityLadder(
            [
                RungSpec(name="float", engine="float", model="mobilenetv2-tiny"),
                RungSpec(name="small", artifact=str(path)),
            ],
            resolution=RESOLUTION,
            num_classes=CLASSES,
        )
        with pytest.raises(ValueError, match="input contract"):
            ladder.build()

    def test_train_artifact_rejected(self, tmp_path):
        seed_everything(0)
        model = create_model("mobilenetv2-tiny", num_classes=CLASSES)
        model.eval()
        path = tmp_path / "train.rpa"
        repro.compile(model).save(str(path), input_shape=(3, RESOLUTION, RESOLUTION))
        rewrite_header(path, mode="train")
        ladder = FidelityLadder([RungSpec(name="t", artifact=str(path))],
                                resolution=RESOLUTION, num_classes=CLASSES)
        with pytest.raises(repro.ArtifactError, match="mode 'train'"):
            ladder.build()

    def test_artifact_rung_matches_compiled_rung(self, tmp_path):
        """An artifact rung computes the same bits as its compiled twin."""
        from repro.serve.fleet import resolve_net

        net, shape = resolve_net(
            model_name="mobilenetv2-tiny", resolution=RESOLUTION,
            num_classes=CLASSES, engine="int8", seed=0,
        )
        path = tmp_path / "int8.rpa"
        net.save(str(path), input_shape=shape)
        compiled = ladder_backend("float:mobilenetv2-tiny,int8:mobilenetv2-tiny",
                                  resolution=RESOLUTION, num_classes=CLASSES, probe_batch=0)
        mixed = ladder_backend(f"float:mobilenetv2-tiny,artifact:{path}",
                               resolution=RESOLUTION, num_classes=CLASSES, probe_batch=0)
        rng = np.random.default_rng(1)
        x = rng.normal(0.2, 0.8, size=(2,) + shape).astype(np.float32)
        compiled.set_rung(1)
        mixed.set_rung(1)
        np.testing.assert_array_equal(compiled.forward(x), mixed.forward(x))


class TestLadderFleet:
    def test_rung_switch_over_live_fleet(self):
        from repro.serve.fleet import Fleet, FleetConfig

        config = FleetConfig(
            replicas=1,
            max_pending=16,
            builder="repro.serve.fidelity:ladder_backend",
            builder_kwargs={
                "rungs": "float:mobilenetv2-tiny,int8:mobilenetv2-tiny",
                "resolution": RESOLUTION,
                "num_classes": CLASSES,
                "probe_batch": 16,
            },
        )
        rng = np.random.default_rng(0)
        x = rng.normal(0.2, 0.8, size=(3, RESOLUTION, RESOLUTION)).astype(np.float32)
        with Fleet(config) as fleet:
            assert fleet.fidelity_rungs == 2
            with fleet.client() as client:
                full = client.predict(x, timeout=30.0)
                fleet.set_fidelity(1, reason="test")
                time.sleep(0.2)
                fast = client.predict(x, timeout=30.0)
                fleet.set_fidelity(0)
                time.sleep(0.2)
                again = client.predict(x, timeout=30.0)
            assert not np.array_equal(full, fast)
            np.testing.assert_array_equal(full, again)
            stats = fleet.stats()
            payload = stats.to_dict()["fidelity"]
            assert payload["active_rung"] == 0
            assert payload["switches"] == 2
            assert [r["name"] for r in payload["rungs"]] == [
                "float:mobilenetv2-tiny",
                "int8:mobilenetv2-tiny",
            ]
            assert sum(r["completed"] for r in payload["rungs"]) == 3
            assert stats.cold_start_ms_mean is not None
            assert stats.cold_start_ms_mean > 0
            assert "fidelity" in stats.summary()
            events = [e for e in stats.scale_events if e.get("kind") == "fidelity"]
            assert [e["to"] for e in events] == [1, 0]
        assert stats.lost == 0
