"""Compiled-artifact serialization: bit-identity, robustness, registry plumbing.

The artifact contract (:mod:`repro.runtime.artifact`): a loaded executor is
bit-identical to the freshly compiled one in every mode, and every corruption
of the file or skew between file and code fails with a typed
:class:`~repro.runtime.ArtifactError` — never a silent misexecution.
"""

from __future__ import annotations

import zipfile

import numpy as np
import pytest

import repro
from helpers import rewrite_header
from repro.compress import calibrate, quantize_model
from repro.models import available_models, create_model
from repro.runtime import (
    ArtifactError,
    ArtifactInfo,
    load_artifact,
    model_fingerprint,
    read_artifact_info,
    save_artifact,
)
from repro.runtime import artifact as artifact_mod
from repro.utils import seed_everything

RESOLUTION = 12
CLASSES = 8
SHAPE = (3, RESOLUTION, RESOLUTION)


def make_model(name="mobilenetv2-tiny", mode="infer", seed=0):
    """A prepared registry model for ``mode`` (quantized+calibrated for int8)."""
    seed_everything(seed)
    model = create_model(name, num_classes=CLASSES)
    rng = np.random.default_rng(seed)
    model.eval()
    if mode == "int8":
        quantize_model(model)
        batches = [rng.normal(0.2, 0.8, size=(4,) + SHAPE).astype(np.float32) for _ in range(2)]
        calibrate(model, batches)
    return model, rng


def batch_for(rng, n=3):
    return rng.normal(0.2, 0.8, size=(n,) + SHAPE).astype(np.float32)


# --------------------------------------------------------------------------- #
# round trip: loaded executables are bit-identical to freshly compiled
# --------------------------------------------------------------------------- #
class TestRoundTrip:
    @pytest.mark.parametrize("model_name", available_models())
    @pytest.mark.parametrize("mode", ["infer", "int8"])
    def test_bit_identity_every_model_every_mode(self, tmp_path, model_name, mode):
        model, rng = make_model(model_name, mode)
        fresh = repro.compile(model, mode=mode)
        path = tmp_path / f"{model_name}-{mode}.rpa"
        info = fresh.save(str(path))
        assert isinstance(info, ArtifactInfo)
        assert info.mode == mode
        loaded = load_artifact(str(path))
        x = batch_for(rng)
        np.testing.assert_array_equal(fresh.numpy_forward(x), loaded.numpy_forward(x))

    def test_memory_plan_before_save_does_not_poison_record(self, tmp_path):
        """memory_plan()/describe() re-annotate the live graph for the shape
        they saw; saving afterwards must still produce a loadable artifact
        (regression: recorded ``out_shape`` tripped the drift check)."""
        model, rng = make_model()
        fresh = repro.compile(model, mode="infer")
        x = batch_for(rng)
        fresh.numpy_forward(x)
        fresh.memory_plan((4,) + SHAPE)
        fresh.describe()
        path = tmp_path / "net.rpa"
        fresh.save(str(path))
        loaded = load_artifact(str(path))
        np.testing.assert_array_equal(fresh.numpy_forward(x), loaded.numpy_forward(x))

    def test_loaded_executor_carries_artifact_info(self, tmp_path):
        model, _ = make_model()
        path = tmp_path / "net.rpa"
        repro.compile(model, mode="infer").save(str(path), input_shape=SHAPE)
        loaded = load_artifact(str(path))
        info = loaded.artifact
        assert info.mode == "infer"
        assert tuple(info.input_shape) == SHAPE
        assert info.model["name"] == "mobilenetv2-tiny"
        assert len(info.fingerprint) == 64
        assert "mobilenetv2-tiny" in info.summary()

    def test_int8_state_restored_exactly(self, tmp_path):
        """Quantized weights (data-dependent int8/int16 dtypes) survive exactly."""
        model, _ = make_model(mode="int8")
        fresh = repro.compile(model, mode="int8")
        path = tmp_path / "net.rpa"
        fresh.save(str(path))
        loaded = load_artifact(str(path))
        fresh_state = fresh.source.state_dict()
        loaded_state = loaded.source.state_dict()
        assert set(fresh_state) == set(loaded_state)
        for name, value in fresh_state.items():
            assert value.dtype == loaded_state[name].dtype, name
            np.testing.assert_array_equal(value, loaded_state[name])

    def test_save_load_is_stable_across_generations(self, tmp_path):
        """save -> load -> save again produces the same fingerprint."""
        model, _ = make_model()
        first = tmp_path / "a.rpa"
        second = tmp_path / "b.rpa"
        info_a = repro.compile(model, mode="infer").save(str(first))
        loaded = load_artifact(str(first))
        info_b = loaded.save(str(second))
        assert info_a.fingerprint == info_b.fingerprint

    def test_legacy_options_block_is_ignored(self, tmp_path):
        """Headers written before the int8 kernel knob was removed carry an
        ``options`` block; the loader ignores it."""
        model, rng = make_model()
        fresh = repro.compile(model, mode="infer")
        path = tmp_path / "net.rpa"
        fresh.save(str(path), input_shape=SHAPE)
        rewrite_header(path, options={"dw_kernel": "auto"})
        loaded = load_artifact(str(path))
        x = batch_for(rng)
        np.testing.assert_array_equal(fresh.numpy_forward(x), loaded.numpy_forward(x))

    def test_read_artifact_info_verify(self, tmp_path):
        model, _ = make_model()
        path = tmp_path / "net.rpa"
        repro.compile(model, mode="infer").save(str(path))
        info = read_artifact_info(str(path), verify=True)
        assert info.mode == "infer"

    def test_top_level_load_export(self, tmp_path):
        model, _ = make_model()
        path = tmp_path / "net.rpa"
        repro.compile(model, mode="infer").save(str(path))
        assert repro.load is load_artifact
        assert repro.ArtifactError is ArtifactError
        loaded = repro.load(str(path))
        assert loaded.artifact.mode == "infer"


# --------------------------------------------------------------------------- #
# robustness: every skew fails typed, never silently
# --------------------------------------------------------------------------- #
class TestRobustness:
    def save_one(self, tmp_path, mode="infer"):
        model, rng = make_model(mode=mode)
        path = tmp_path / "net.rpa"
        repro.compile(model, mode=mode).save(str(path))
        return path, model, rng

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="does not exist"):
            load_artifact(str(tmp_path / "nope.rpa"))

    def test_not_an_artifact(self, tmp_path):
        path = tmp_path / "garbage.rpa"
        path.write_bytes(b"this is not an artifact" * 100)
        with pytest.raises(ArtifactError, match="not a readable repro artifact"):
            load_artifact(str(path))

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "foreign.rpa"
        with open(path, "wb") as handle:  # np.savez(path) would append .npz
            np.savez(handle, weights=np.zeros(4))
        with pytest.raises(ArtifactError, match="not a repro artifact"):
            load_artifact(str(path))

    def test_truncated_file(self, tmp_path):
        path, _, _ = self.save_one(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ArtifactError):
            load_artifact(str(path))

    def test_corrupted_payload(self, tmp_path):
        path, _, _ = self.save_one(tmp_path)
        data = bytearray(path.read_bytes())
        # flip bytes in the middle of the zip payload, keeping the container
        # readable enough that the corruption must be caught by validation
        for i in range(len(data) // 2, len(data) // 2 + 64):
            data[i] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ArtifactError):
            load_artifact(str(path))

    def test_format_version_skew(self, tmp_path, monkeypatch):
        monkeypatch.setattr(artifact_mod, "FORMAT_VERSION", 999)
        path, _, _ = self.save_one(tmp_path)
        monkeypatch.undo()
        with pytest.raises(ArtifactError, match="format version"):
            load_artifact(str(path))

    def test_cross_mode_confusion(self, tmp_path):
        path, _, _ = self.save_one(tmp_path, mode="int8")
        with pytest.raises(ArtifactError, match="refusing cross-mode"):
            load_artifact(str(path), mode="infer")
        # aliases resolve before the check: "quantized" is the stored mode
        assert load_artifact(str(path), mode="quantized").artifact.mode == "int8"

    def test_fingerprint_mismatch_after_model_mutation(self, tmp_path):
        path, model, _ = self.save_one(tmp_path)
        param = next(iter(model.parameters()))
        param.data[...] = param.data + 1.0
        with pytest.raises(ArtifactError, match="mutated"):
            load_artifact(str(path), model=model)

    def test_matching_model_accepted(self, tmp_path):
        path, model, rng = self.save_one(tmp_path)
        loaded = load_artifact(str(path), model=model)
        x = batch_for(rng)
        np.testing.assert_array_equal(
            loaded.numpy_forward(x), repro.compile(model, mode="infer").numpy_forward(x)
        )

    def test_header_mode_tamper_breaks_fingerprint(self, tmp_path):
        """Rewriting the header (e.g. its mode) cannot go unnoticed."""
        path, _, _ = self.save_one(tmp_path)
        rewrite_header(path, mode="int8")
        with pytest.raises(ArtifactError):
            load_artifact(str(path))

    def test_removed_train_mode_rejected(self, tmp_path):
        """A header claiming the removed ``train`` mode fails typed, up front."""
        path, _, _ = self.save_one(tmp_path)
        rewrite_header(path, mode="train")
        for read in (load_artifact, read_artifact_info):
            with pytest.raises(ArtifactError, match="mode 'train'"):
                read(str(path))

    def test_error_on_unreadable_zip_member(self, tmp_path):
        path, _, _ = self.save_one(tmp_path)
        # rewrite the archive without one state entry: manifest says truncated
        with zipfile.ZipFile(path) as src:
            names = src.namelist()
            keep = [n for n in names if "state::" not in n or n == sorted(names)[-1]]
            payload = {n: src.read(n) for n in keep}
        assert len(payload) < len(names)
        with zipfile.ZipFile(path, "w") as dst:
            for name, blob in payload.items():
                dst.writestr(name, blob)
        with pytest.raises(ArtifactError):
            load_artifact(str(path))

    def test_model_fingerprint_tracks_structure_and_state(self):
        model, _ = make_model()
        base = model_fingerprint(model, "infer")
        assert base == model_fingerprint(model, "infer")
        assert base != model_fingerprint(model, "int8")
        param = next(iter(model.parameters()))
        param.data[...] = param.data + 1.0
        assert base != model_fingerprint(model, "infer")


# --------------------------------------------------------------------------- #
# artifact-backed engines: the serving CLI and the save() entry points
# --------------------------------------------------------------------------- #
class TestArtifactEngines:
    def test_cli_missing_artifact_fails_before_fork(self, tmp_path, capsys):
        """The serving CLI validates --artifact in the parent, before any fork."""
        from repro.serve.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--artifact", str(tmp_path / "nope.rpa")])
        assert exit_info.value.code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_save_artifact_function_matches_method(self, tmp_path):
        model, _ = make_model()
        net = repro.compile(model, mode="infer")
        a = net.save(str(tmp_path / "a.rpa"))
        b = save_artifact(net, str(tmp_path / "b.rpa"))
        assert a.fingerprint == b.fingerprint
