"""Tests for the dynamic-batching serving engine."""

import threading
import time

import numpy as np
import pytest

import repro
from repro import nn
from repro.compress import calibrate, quantize_model
from repro.models import create_model
from repro.serve import Engine, EngineConfig, build_server, run_load


RES = 12
SHAPE = (3, RES, RES)


@pytest.fixture(scope="module")
def qnet():
    """One calibrated int8 engine shared by the serving tests."""
    rng = np.random.default_rng(0)
    model = create_model("mobilenetv2-tiny", num_classes=8)
    model.eval()
    quantize_model(model)
    calibrate(model, [rng.normal(0.2, 0.8, size=(8,) + SHAPE).astype(np.float32)])
    return repro.compile(model, mode="int8")


def _samples(n, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.normal(0.2, 0.8, size=SHAPE).astype(np.float32) for _ in range(n)]


class TestEngineBasics:
    def test_predict_matches_direct_inference(self, qnet):
        sample = _samples(1)[0]
        expected = qnet.numpy_forward(sample[None])[0]
        with Engine(qnet, SHAPE, max_batch=4, max_wait_ms=0.5) as engine:
            result = engine.predict(sample, timeout=10.0)
        np.testing.assert_array_equal(result, expected)

    def test_submit_returns_future(self, qnet):
        with Engine(qnet, SHAPE) as engine:
            future = engine.submit(_samples(1)[0])
            out = future.result(timeout=10.0)
        assert out.shape == (8,)

    def test_wrong_shape_rejected_immediately(self, qnet):
        with Engine(qnet, SHAPE) as engine:
            with pytest.raises(ValueError):
                engine.submit(np.zeros((3, RES + 1, RES), dtype=np.float32))

    def test_submit_after_close_raises(self, qnet):
        engine = Engine(qnet, SHAPE)
        engine.close()
        engine.close()  # idempotent
        with pytest.raises(RuntimeError):
            engine.submit(_samples(1)[0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(max_batch=0)
        with pytest.raises(ValueError):
            EngineConfig(max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            EngineConfig(workers=0)
        with pytest.raises(ValueError):
            Engine(lambda x: x, SHAPE, config=EngineConfig(), max_batch=4)

    def test_backend_error_propagates_to_futures(self):
        def broken(batch):
            raise RuntimeError("backend exploded")

        with Engine(broken, SHAPE, max_batch=4, max_wait_ms=0.5) as engine:
            future = engine.submit(_samples(1)[0])
            with pytest.raises(RuntimeError, match="backend exploded"):
                future.result(timeout=10.0)
            deadline = time.time() + 5.0
            while engine.stats().failed < 1 and time.time() < deadline:
                time.sleep(0.01)
            assert engine.stats().failed == 1

    def test_worker_survives_malformed_backend_output(self):
        """A backend returning garbage (here: too few rows, so result splitting
        itself raises) must fail every stranded future and leave the worker
        alive for the next batch."""
        calls = [0]

        def flaky(batch):
            calls[0] += 1
            if calls[0] == 1:
                return np.zeros((0, 8), dtype=np.float32)  # indexing row 0 raises
            return np.zeros((len(batch), 8), dtype=np.float32)

        with Engine(flaky, SHAPE, max_batch=1, max_wait_ms=0.0) as engine:
            bad = engine.submit(_samples(1)[0])
            with pytest.raises(IndexError):
                bad.result(timeout=10.0)
            # the same worker (workers=1) must still serve the next request
            good = engine.submit(_samples(1)[0]).result(timeout=10.0)
        assert good.shape == (8,)
        stats = engine.stats()
        assert stats.failed == 1
        assert stats.completed == 1

    def test_batch_error_resolves_every_future(self):
        """One broken batch must resolve all of its futures, not just one."""

        def broken(batch):
            raise RuntimeError("backend exploded")

        with Engine(broken, SHAPE, max_batch=8, max_wait_ms=20.0) as engine:
            futures = [engine.submit(s) for s in _samples(6)]
            for future in futures:
                with pytest.raises(RuntimeError, match="backend exploded"):
                    future.result(timeout=10.0)


class TestDynamicBatching:
    def test_concurrent_submitters_get_their_own_answers(self, qnet):
        """Determinism and ordering: under many concurrent submitters every
        future must resolve to exactly the prediction for its own sample (the
        int8 engine is bitwise batch-invariant, so equality is exact)."""
        samples = _samples(64)
        expected = [qnet.numpy_forward(s[None])[0] for s in samples]
        results: dict[int, np.ndarray] = {}
        lock = threading.Lock()

        with Engine(qnet, SHAPE, max_batch=8, max_wait_ms=2.0, workers=2) as engine:

            def client(indices):
                for i in indices:
                    out = engine.submit(samples[i]).result(timeout=30.0)
                    with lock:
                        results[i] = out

            threads = [
                threading.Thread(target=client, args=(range(start, 64, 8),))
                for start in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert sorted(results) == list(range(64))
        for i in range(64):
            np.testing.assert_array_equal(results[i], expected[i], err_msg=f"request {i}")

    def test_batches_are_actually_fused(self, qnet):
        """With concurrent submitters the engine must run fewer forward passes
        than requests."""
        samples = _samples(48)
        with Engine(qnet, SHAPE, max_batch=16, max_wait_ms=5.0) as engine:
            futures = [engine.submit(s) for s in samples]
            for future in futures:
                future.result(timeout=30.0)
            stats = engine.stats()
        assert stats.completed == 48
        assert stats.batches < 48
        assert stats.mean_batch_size > 1.5

    def test_serial_mode_runs_batch_one(self, qnet):
        with Engine(qnet, SHAPE, max_batch=1, max_wait_ms=0.0) as engine:
            out = engine.predict_batch(_samples(5), timeout=30.0)
            stats = engine.stats()
        assert out.shape == (5, 8)
        assert stats.batches == 5
        assert stats.batch_size_counts == {1: 5}

    def test_padded_assembly_preserves_results(self, qnet):
        """Odd request counts run at power-of-two padded batch sizes without
        affecting any result."""
        samples = _samples(5)
        expected = [qnet.numpy_forward(s[None])[0] for s in samples]
        with Engine(qnet, SHAPE, max_batch=8, max_wait_ms=50.0) as engine:
            futures = [engine.submit(s) for s in samples]
            outs = [f.result(timeout=30.0) for f in futures]
        for out, exp in zip(outs, expected):
            np.testing.assert_array_equal(out, exp)

    def test_stats_percentiles_ordered(self, qnet):
        with Engine(qnet, SHAPE, max_batch=8, max_wait_ms=1.0) as engine:
            for sample in _samples(20):
                engine.submit(sample)
            deadline = time.time() + 10.0
            while engine.stats().completed < 20 and time.time() < deadline:
                time.sleep(0.01)
            stats = engine.stats()
        assert stats.completed == 20
        assert stats.latency_ms_p50 <= stats.latency_ms_p95 <= stats.latency_ms_p99
        assert "latency" in stats.summary()


class TestLoadGenAndBuilder:
    def test_run_load_reports_throughput(self, qnet):
        with Engine(qnet, SHAPE, max_batch=8, max_wait_ms=1.0) as engine:
            report = run_load(engine, n_requests=64, concurrency=8, warmup=4)
        assert report.requests == 64
        assert report.errors == 0
        assert report.requests_per_sec > 0
        assert report.latency_ms_p50 <= report.latency_ms_p99
        assert "req/s" in report.summary()

    def test_run_load_counts_timeouts(self):
        """A stuck backend must surface as counted timeouts, not a hung run."""
        from concurrent.futures import Future

        class StuckEngine:
            input_shape = SHAPE

            def submit(self, sample):
                return Future()  # never resolves

        report = run_load(StuckEngine(), n_requests=6, concurrency=2, warmup=1, timeout=0.05)
        assert report.timeouts == 6
        assert report.requests == 0
        assert report.errors == 0
        assert "timeouts" in report.summary()

    def test_run_load_counts_errors_per_class(self):
        """Typed failures are counted by class, in both modes and in warmup."""
        from concurrent.futures import Future

        from repro.serve import Overloaded

        class FailingEngine:
            input_shape = SHAPE

            def __init__(self):
                self.calls = 0

            def submit(self, sample):
                self.calls += 1
                future = Future()
                if self.calls % 2:
                    future.set_exception(Overloaded("busy"))
                else:
                    future.set_exception(ConnectionError("connection to fleet lost"))
                return future

        closed = run_load(FailingEngine(), n_requests=8, concurrency=2, warmup=2)
        assert closed.requests == 0
        assert closed.errors == 8
        assert closed.error_classes == {"Overloaded": 4, "ConnectionError": 4}
        assert closed.warmup_errors == {"Overloaded": 1, "ConnectionError": 1}
        assert "Overloaded" in closed.summary()
        opened = run_load(FailingEngine(), 0, warmup=0, mode="open", rate=200.0, duration_s=0.05)
        assert opened.errors == opened.offered > 0
        assert sum(opened.error_classes.values()) == opened.errors
        assert set(opened.error_classes) == {"Overloaded", "ConnectionError"}

    def test_run_load_propagates_untyped_errors(self):
        """A failure outside the serving errors is a bug: it ends the run."""
        from concurrent.futures import Future

        class BuggyEngine:
            input_shape = SHAPE

            def submit(self, sample):
                future = Future()
                future.set_exception(KeyError("bug"))
                return future

        with pytest.raises(KeyError):
            run_load(BuggyEngine(), n_requests=4, concurrency=2, warmup=0)
        with pytest.raises(KeyError):
            run_load(BuggyEngine(), 0, warmup=0, mode="open", rate=200.0, duration_s=0.05)

    def test_build_server_int8_roundtrip(self):
        engine = build_server(
            "mobilenetv2-tiny", resolution=RES, num_classes=8, max_batch=4, max_wait_ms=0.5
        )
        with engine:
            out = engine.predict(np.zeros(SHAPE, dtype=np.float32), timeout=30.0)
        assert out.shape == (8,)

    def test_build_server_float_backend(self):
        engine = build_server(
            "mobilenetv2-tiny", resolution=RES, num_classes=8, engine="float", max_batch=4
        )
        with engine:
            out = engine.predict(np.zeros(SHAPE, dtype=np.float32), timeout=30.0)
        assert out.shape == (8,)

    def test_build_server_rejects_unknown_backend(self):
        for name in ("tpu", "quantized", "infer", "eager"):
            with pytest.raises(ValueError) as error:
                build_server("mobilenetv2-tiny", engine=name)
            assert all(known in str(error.value) for known in ("float", "int8"))

    def test_float_and_int8_servers_agree_roughly(self, qnet):
        """The served int8 predictions track the eager fake-quant model."""
        sample = _samples(1)[0]
        model = qnet.source
        with nn.no_grad():
            oracle = model(nn.Tensor(sample[None])).numpy()[0]
        with Engine(qnet, SHAPE, max_batch=2, max_wait_ms=0.5) as engine:
            served = engine.predict(sample, timeout=30.0)
        assert np.abs(served - oracle).max() < 0.5
