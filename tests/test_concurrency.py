"""Concurrency tests for the compiled engines.

The in-process serving :class:`~repro.serve.Engine` runs several worker
threads over one shared executor.  Threading bugs in a NumPy runtime are
silent — torn outputs, stale workspace reuse, cross-thread plan-cache
aliasing — so this file pins the contract from every side:

* race stress: one engine hammered from many client threads with mismatched
  shapes/batches, every response checksum-verified against a serial oracle;
* determinism: same seed + same inputs ⇒ byte-identical outputs across
  repeated runs, for the float and int8 engines and a fleet replica;
* the thread-local workspace-cache contract in :mod:`repro.nn.functional`.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.models import create_model
from repro.nn import functional as F
from repro.utils import seed_everything

from test_quantized_runtime import _quantized_model

RES = 12


def _fresh_model(name: str, num_classes: int = 8):
    seed_everything(7)
    model = create_model(name, num_classes=num_classes)
    model.eval()
    return model


# --------------------------------------------------------------------------- #
# race stress: mismatched shapes, many client threads, checksummed replies
# --------------------------------------------------------------------------- #
class TestRaceStress:
    CLIENTS = 6
    REQUESTS_PER_CLIENT = 8

    def _hammer(self, forward, requests, expected):
        failures = []
        barrier = threading.Barrier(self.CLIENTS)

        def client(worker: int) -> None:
            barrier.wait()
            for index in range(self.REQUESTS_PER_CLIENT):
                key = (worker, index)
                out = forward(requests[key])
                if out.tobytes() != expected[key]:
                    failures.append(key)

        with ThreadPoolExecutor(max_workers=self.CLIENTS) as pool:
            list(pool.map(client, range(self.CLIENTS)))
        assert not failures, f"torn/cross-talked outputs for requests {failures}"

    def _requests(self, rng):
        # Mismatched shapes and batch sizes per request: resolutions 12/16,
        # batches 1..8 — exercises the per-shape plan caches and the
        # workspace cache from many threads at once.
        requests = {}
        for worker in range(self.CLIENTS):
            for index in range(self.REQUESTS_PER_CLIENT):
                res = (12, 16)[(worker + index) % 2]
                n = 1 + (worker + 3 * index) % 8
                requests[(worker, index)] = rng.normal(
                    0.1, 0.7, size=(n, 3, res, res)
                ).astype(np.float32)
        return requests

    def test_int8_engine_survives_mismatched_concurrent_load(self, rng):
        model = _quantized_model("mobilenetv2-tiny", rng, res=16)
        qnet = repro.compile(model, mode="int8")
        requests = self._requests(rng)
        expected = {key: qnet.numpy_forward(x).tobytes() for key, x in requests.items()}
        self._hammer(qnet.numpy_forward, requests, expected)

    def test_float_engine_survives_mismatched_concurrent_load(self, rng):
        model = _fresh_model("mobilenetv2-tiny")
        net = repro.compile(model)
        requests = self._requests(rng)
        expected = {key: net.numpy_forward(x).tobytes() for key, x in requests.items()}
        self._hammer(net.numpy_forward, requests, expected)


# --------------------------------------------------------------------------- #
# determinism across repeated runs
# --------------------------------------------------------------------------- #
class TestDeterminism:
    RUNS = 3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float_engine_byte_identical_across_runs(self, seed):
        model = _fresh_model("mobilenetv2-tiny")
        net = repro.compile(model)
        x = np.random.default_rng(seed).normal(size=(16, 3, RES, RES)).astype(np.float32)
        outputs = {net.numpy_forward(x).tobytes() for _ in range(self.RUNS)}
        assert len(outputs) == 1

    @pytest.mark.parametrize("seed", [0, 1])
    def test_int8_engine_byte_identical_across_runs(self, rng, seed):
        model = _quantized_model("mobilenetv2-tiny", rng, res=RES)
        qnet = repro.compile(model, mode="int8")
        x = np.random.default_rng(seed).normal(0.2, 0.8, size=(16, 3, RES, RES)).astype(np.float32)
        outputs = {qnet.numpy_forward(x).tobytes() for _ in range(self.RUNS)}
        assert len(outputs) == 1

    def test_fleet_replica_byte_identical_across_runs(self):
        # The same builder the fleet's replica processes run, with the same
        # seed and inputs, must produce byte-identical replies every time.
        from repro.serve.fleet import model_backend

        x = np.random.default_rng(5).normal(size=(4, 3, RES, RES)).astype(np.float32)
        replies = set()
        for _ in range(self.RUNS):
            backend = model_backend(model_name="mobilenetv2-tiny", resolution=RES, engine="float")
            replies.add(backend.forward(x).tobytes())
        assert len(replies) == 1


# --------------------------------------------------------------------------- #
# workspace cache: explicitly thread-local (regression for latent hostility)
# --------------------------------------------------------------------------- #
class TestWorkspaceThreadLocal:
    def test_same_shape_yields_distinct_buffers_per_thread(self):
        shape, results = (4, 3, 9, 9), {}
        barrier = threading.Barrier(4)

        def grab(index: int) -> None:
            barrier.wait()
            buf = F._workspace(shape, np.float32, tag="test")
            buf.fill(float(index))
            # Keep the live buffer in ``results`` so ids cannot be recycled.
            results[index] = buf

        threads = [threading.Thread(target=grab, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ids = [id(buf) for buf in results.values()]
        assert len(set(ids)) == len(ids), "workspace buffer shared across threads"
        for index, buf in results.items():
            np.testing.assert_array_equal(buf, np.full(shape, float(index), np.float32))

    def test_clear_workspaces_only_touches_the_calling_thread(self):
        F._workspace((2, 2), np.float32, tag="keepme")
        before = len(F._workspaces())
        assert before >= 1

        def other_thread_clear():
            F._workspace((3, 3), np.float32, tag="other")
            F.clear_workspaces()

        t = threading.Thread(target=other_thread_clear)
        t.start()
        t.join()
        assert len(F._workspaces()) == before
        F.clear_workspaces()
        assert len(F._workspaces()) == 0

    def test_pad2d_reuse_is_safe_under_concurrency(self):
        # _pad2d(reuse=True) is the kernel-facing consumer of the cache: two
        # threads padding the same shape concurrently must get different
        # backing buffers with intact contents.
        x = np.arange(2 * 3 * 5 * 5, dtype=np.float32).reshape(2, 3, 5, 5)
        outputs = {}
        barrier = threading.Barrier(4)

        def pad(tag):
            barrier.wait()
            # Holding the returned view in ``outputs`` keeps each thread's
            # workspace alive, so equal addresses would mean real sharing.
            outputs[tag] = F._pad2d(x, 2, reuse=True)

        threads = [threading.Thread(target=pad, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        addresses = [padded.ctypes.data for padded in outputs.values()]
        assert len(set(addresses)) == len(addresses)
        reference = F._pad2d(x, 2, reuse=False)
        for padded in outputs.values():
            np.testing.assert_array_equal(padded, reference)
