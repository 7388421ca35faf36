"""Fault-matrix tests for the multi-process serving fleet.

Every scenario asserts the fleet's core invariant — zero lost requests: each
admitted request resolves to a result or a typed error, across replica
SIGKILLs, hangs, corrupt replies, overload shedding and drain-on-shutdown —
and that crashed replicas come back within the restart backoff budget.
"""

from __future__ import annotations

import multiprocessing
import socket
import time

import numpy as np
import pytest

from repro.serve import (
    BadRequest,
    DeadlineExceeded,
    Fleet,
    FleetConfig,
    Overloaded,
    ReplicaFailed,
    echo_backend,
    parse_chaos,
)
from repro.serve.chaos import ChaosConfig, ChaosMonkey, Fault
from repro.serve.fleet import ServingBackend
from repro.serve.supervisor import RUN
from repro.serve.transport import (
    HEADER,
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    error_for,
    pack_frame,
    read_frame,
    split_frame,
)

RES = 4
CLASSES = 4
SHAPE = (3, RES, RES)


def fleet_config(**overrides) -> FleetConfig:
    """Fast-heartbeat echo fleet sized for tests."""
    defaults = dict(
        replicas=2,
        builder="repro.serve.fleet:echo_backend",
        builder_kwargs={"resolution": RES, "classes": CLASSES},
        heartbeat_interval=0.04,
        miss_threshold=4,
        start_timeout=30.0,
        restart_backoff_base=0.02,
        restart_backoff_cap=0.5,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def poisoned_echo_backend(**kwargs) -> ServingBackend:
    """Echo backend whose forward raises on any input above 100."""
    echo = echo_backend(**kwargs)

    def forward(batch):
        if np.max(batch) > 100:
            raise ValueError("poisoned input")
        return echo.forward(batch)

    return ServingBackend(forward, echo.input_shape, name="poisoned-echo")


def replica_only_failing_backend(**kwargs) -> ServingBackend:
    """Echo backend that builds in the parent but raises in every replica."""
    if multiprocessing.parent_process() is not None:
        raise OSError("no device in the replica")
    return echo_backend(**kwargs)


def grid_echo_backend(**kwargs) -> ServingBackend:
    """Echo backend whose per-sample output is a (2, 2) grid, not a vector."""
    echo = echo_backend(**kwargs)

    def forward(batch):
        return echo.forward(batch).reshape(len(batch), 2, 2)

    return ServingBackend(forward, echo.input_shape, name="grid-echo")


def oracle(xs: np.ndarray) -> np.ndarray:
    return echo_backend(resolution=RES, classes=CLASSES).forward(xs)


def samples(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n,) + SHAPE).astype(np.float32)


def assert_zero_lost(fleet: Fleet) -> None:
    stats = fleet.stats()
    assert stats.lost == 0, f"lost requests: {stats.to_dict()}"


def request_frames(xs: np.ndarray) -> list[bytes]:
    """REQUEST frames with ids 1..n and no meta, as a client without a deadline sends."""
    return [pack_frame(KIND_REQUEST, i + 1, None, x.tobytes()) for i, x in enumerate(xs)]


def recv_exact(sock: socket.socket, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ConnectionError("connection closed")
        data += chunk
    return data


def wait_until(predicate, timeout: float, message: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(message)


# --------------------------------------------------------------------------- #
# transport units
# --------------------------------------------------------------------------- #
class TestTransport:
    def test_frame_roundtrip(self):
        frame = pack_frame(KIND_REQUEST, 42, {"deadline_ms": 5.0}, b"\x01\x02\x03")
        kind, request_id, meta, payload = split_frame(frame[4:])
        assert (kind, request_id, meta, payload) == (
            KIND_REQUEST,
            42,
            {"deadline_ms": 5.0},
            b"\x01\x02\x03",
        )

    def test_empty_meta_and_payload(self):
        kind, request_id, meta, payload = split_frame(pack_frame(KIND_RESPONSE, 7)[4:])
        assert (kind, request_id, meta, payload) == (KIND_RESPONSE, 7, {}, b"")

    def test_error_for_maps_codes(self):
        assert isinstance(error_for("overloaded"), Overloaded)
        assert isinstance(error_for("deadline"), DeadlineExceeded)
        assert isinstance(error_for("bad_request"), BadRequest)
        assert error_for("overloaded").retryable
        assert not error_for("deadline").retryable
        assert error_for("no-such-code", "boom").args == ("boom",)


# --------------------------------------------------------------------------- #
# chaos units
# --------------------------------------------------------------------------- #
class TestChaos:
    def test_parse_spec(self):
        config = parse_chaos("kill:prob=1,warmup=3,max=1;slow:prob=0.1,ms=20")
        assert [f.kind for f in config.faults] == ["kill", "slow"]
        kill, slow = config.faults
        assert (kill.prob, kill.warmup, kill.max_events) == (1.0, 3, 1)
        assert (slow.prob, slow.ms) == (0.1, 20.0)
        assert "kill" in config.describe()

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_chaos("explode:prob=1")
        with pytest.raises(ValueError):
            parse_chaos("kill:frequency=1")

    def test_empty_spec_disables(self):
        assert parse_chaos("").faults == ()
        assert parse_chaos(None).faults == ()

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "corrupt:prob=0.5,max=2")
        config = ChaosConfig.from_env()
        assert config.faults[0].kind == "corrupt"
        monkeypatch.delenv("REPRO_CHAOS")
        assert ChaosConfig.from_env().faults == ()

    def test_warmup_and_cap(self):
        config = ChaosConfig(faults=(Fault(kind="slow", prob=1.0, warmup=3, max_events=2, ms=1),))
        monkey = ChaosMonkey(config, scope=0)
        fires = [monkey.draw("slow") is not None for _ in range(10)]
        assert fires == [False] * 3 + [True, True] + [False] * 5

    def test_corrupt_reply_flips_bytes(self):
        config = ChaosConfig(faults=(Fault(kind="corrupt", prob=1.0),))
        monkey = ChaosMonkey(config, scope=1)
        buf = np.ones(4, dtype=np.float32)
        before = buf.tobytes()
        assert monkey.corrupt_reply(buf)
        assert buf.tobytes() != before

    def test_negative_scope_is_valid(self):
        ChaosMonkey(ChaosConfig(faults=(Fault(kind="drop", prob=1.0),)), scope=-2).draw("drop")

    def test_each_generation_draws_its_own_sequence(self):
        config = ChaosConfig(faults=(Fault(kind="kill", prob=0.5),))

        def fires(generation):
            monkey = ChaosMonkey(config, scope=0, generation=generation)
            return [monkey.draw("kill") is not None for _ in range(64)]

        assert fires(1) == fires(1)
        assert fires(1) != fires(2)


# --------------------------------------------------------------------------- #
# fleet behavior
# --------------------------------------------------------------------------- #
class TestFleetServing:
    def test_roundtrip_matches_backend(self):
        xs = samples(24)
        with Fleet(fleet_config()) as fleet:
            with fleet.client() as client:
                assert client.input_shape == SHAPE
                assert client.output_shape == (CLASSES,)
                futures = [client.submit(x) for x in xs]
                outs = np.stack([f.result(timeout=30) for f in futures])
            assert np.allclose(outs, oracle(xs))
            stats = fleet.stats()
            assert stats.completed == 24
            assert_zero_lost(fleet)
        assert fleet.stats().lost == 0  # final post-drain snapshot

    def test_io_plan_sizes_slots(self):
        with Fleet(fleet_config()) as fleet:
            io = fleet.io
            assert io.input_elements == int(np.prod(SHAPE))
            assert io.output_elements == CLASSES
            assert io.slot_elements == io.input_elements + io.output_elements
            assert io.slot_bytes == io.slot_elements * 4

    def test_replica_sigkill_mid_batch_zero_lost_and_restart(self):
        config = fleet_config(chaos="kill:prob=1,warmup=1,max=1", max_attempts=6)
        xs = samples(40)
        with Fleet(config) as fleet:
            fleet.wait_ready(replicas=2, timeout=30)
            with fleet.client(timeout=30.0, retries=4) as client:
                futures = [client.submit(x) for x in xs]
                resolved = 0
                for future, x in zip(futures, xs):
                    try:
                        out = future.result(timeout=30)
                        assert np.allclose(out, oracle(x[None])[0])
                    except Exception:
                        pass  # a typed error is an answer, not a loss
                    resolved += 1
                assert resolved == len(xs)
                assert_zero_lost(fleet)
                stats = fleet.stats()
                assert stats.crashes_detected >= 1
                # restart within the backoff budget: the watchdog must bring
                # the fleet back to full strength while we watch
                wait_until(
                    lambda: fleet.stats().ready == config.replicas,
                    timeout=10.0,
                    message="killed replica was not restarted within budget",
                )
                assert fleet.stats().restarts >= 1
                # the recovered fleet still serves correct answers
                out = client.predict(xs[0], timeout=30)
                assert np.allclose(out, oracle(xs[0][None])[0])
            assert_zero_lost(fleet)

    def test_replica_hang_detected_and_restarted(self):
        config = fleet_config(chaos="hang:prob=1,warmup=1,max=1", max_attempts=6)
        xs = samples(40)
        with Fleet(config) as fleet:
            fleet.wait_ready(replicas=2, timeout=30)
            with fleet.client(timeout=30.0, retries=4) as client:
                futures = [client.submit(x) for x in xs]
                for future in futures:
                    try:
                        future.result(timeout=30)
                    except Exception:
                        pass
                wait_until(
                    lambda: fleet.stats().hangs_detected >= 1,
                    timeout=10.0,
                    message="hung replica was not detected by the heartbeat watchdog",
                )
                wait_until(
                    lambda: fleet.stats().ready == config.replicas,
                    timeout=10.0,
                    message="hung replica was not restarted within budget",
                )
                assert fleet.stats().restarts >= 1
                out = client.predict(xs[0], timeout=30)
                assert np.allclose(out, oracle(xs[0][None])[0])
            assert_zero_lost(fleet)

    def test_corrupt_reply_detected_and_redispatched(self):
        config = fleet_config(chaos="corrupt:prob=1,warmup=0,max=2", max_attempts=6)
        xs = samples(24)
        with Fleet(config) as fleet:
            with fleet.client(timeout=30.0) as client:
                futures = [client.submit(x) for x in xs]
                outs = np.stack([f.result(timeout=30) for f in futures])
            # every answer is correct: corrupted replies were caught by the
            # CRC check and redispatched, never surfaced to the client
            assert np.allclose(outs, oracle(xs))
            stats = fleet.stats()
            assert stats.corrupt_detected >= 1
            assert stats.requeued >= 1
            assert_zero_lost(fleet)

    def test_overload_sheds_with_typed_error(self):
        config = fleet_config(
            replicas=1,
            builder_kwargs={"resolution": RES, "classes": CLASSES, "delay_ms": 30},
            max_pending=4,
            max_batch=2,
        )
        xs = samples(24)
        with Fleet(config) as fleet:
            with fleet.client(timeout=30.0, retries=0) as client:
                futures = [client.submit(x) for x in xs]
                ok = shed = 0
                for future in futures:
                    try:
                        future.result(timeout=30)
                        ok += 1
                    except Overloaded:
                        shed += 1
            stats = fleet.stats()
            assert ok >= 1, "admitted requests must still complete"
            assert shed >= 1, "past max_pending the fleet must shed explicitly"
            assert stats.shed == shed
            assert ok + shed == len(xs)
            assert_zero_lost(fleet)

    def test_overloaded_retries_eventually_succeed(self):
        config = fleet_config(
            replicas=1,
            builder_kwargs={"resolution": RES, "classes": CLASSES, "delay_ms": 5},
            max_pending=4,
            max_batch=4,
        )
        xs = samples(24)
        with Fleet(config) as fleet:
            with fleet.client(timeout=60.0, retries=10, backoff_base=0.02) as client:
                futures = [client.submit(x) for x in xs]
                outs = np.stack([f.result(timeout=60) for f in futures])
            assert np.allclose(outs, oracle(xs))
            assert_zero_lost(fleet)

    def test_deadline_exceeded_is_typed(self):
        config = fleet_config(
            replicas=1,
            builder_kwargs={"resolution": RES, "classes": CLASSES, "delay_ms": 200},
            default_deadline_ms=40.0,
        )
        with Fleet(config) as fleet:
            with fleet.client(timeout=10.0, retries=0) as client:
                with pytest.raises(DeadlineExceeded):
                    client.predict(samples(1)[0], timeout=10)
            stats = fleet.stats()
            assert stats.deadline_expired >= 1
            assert_zero_lost(fleet)

    def test_drain_on_shutdown_answers_everything(self):
        config = fleet_config(
            builder_kwargs={"resolution": RES, "classes": CLASSES, "delay_ms": 5},
        )
        xs = samples(32)
        fleet = Fleet(config).start()
        client = fleet.client(timeout=30.0, retries=0)
        futures = [client.submit(x) for x in xs]
        fleet.close(drain=True)  # while requests are still in flight
        answered = 0
        for future in futures:
            try:
                future.result(timeout=10)
            except Exception:
                pass  # typed shutdown/connection errors still count as answers
            answered += 1
        client.close()
        assert answered == len(xs)
        stats = fleet.stats()
        assert stats.lost == 0, stats.to_dict()
        assert stats.inflight == 0
        assert all(r["state"] in ("stopped", "failed") for r in stats.per_replica)

    def test_bad_payload_size_rejected(self):
        with Fleet(fleet_config()) as fleet:
            with socket.create_connection(fleet.address, timeout=10) as sock:
                sock.sendall(pack_frame(KIND_REQUEST, 1, {}, b"\x00" * 12))
                kind, request_id, meta, _ = read_frame(sock)
            assert kind == KIND_ERROR
            assert request_id == 1
            assert meta["code"] == "bad_request"
            assert_zero_lost(fleet)

    def test_client_submit_after_close_raises(self):
        with Fleet(fleet_config(replicas=1)) as fleet:
            client = fleet.client()
            client.close()
            with pytest.raises(RuntimeError):
                client.submit(samples(1)[0])

    def test_loadgen_drives_fleet(self):
        with Fleet(fleet_config()) as fleet:
            with fleet.client(timeout=30.0) as client:
                from repro.serve import run_load

                report = run_load(client, n_requests=32, concurrency=4, warmup=2, timeout=30.0)
            assert report.requests == 32
            assert report.errors == 0
            assert report.timeouts == 0
            assert_zero_lost(fleet)

    def test_stats_over_the_wire(self):
        with Fleet(fleet_config()) as fleet:
            with fleet.client() as client:
                client.predict(samples(1)[0], timeout=30)
                stats = client.server_stats()
            assert stats["submitted"] >= 1
            assert stats["lost"] == 0
            assert len(stats["per_replica"]) == fleet.config.replicas

    def test_stats_errors_propagate(self, monkeypatch):
        def broken_snapshot():
            raise RuntimeError("boom")

        with Fleet(fleet_config(replicas=1)) as fleet:
            with monkeypatch.context() as patch:
                patch.setattr(fleet, "_stats_snapshot", broken_snapshot)
                with pytest.raises(RuntimeError, match="boom"):
                    fleet.stats()
            assert_zero_lost(fleet)


class TestBatching:
    """Replicas batch what is queued, with no timed wait, and ack once per batch."""

    def test_sequential_requests_are_one_batch_each(self):
        with Fleet(fleet_config(replicas=1, max_batch=8)) as fleet:
            with fleet.client() as client:
                for x in samples(5):
                    client.predict(x, timeout=30)
            (replica,) = fleet.stats().per_replica
            assert (replica["served"], replica["batches"]) == (5, 5)
            assert fleet.stats().batch_size_mean == 1.0

    def test_backend_error_fails_every_request_of_the_batch(self):
        config = fleet_config(
            replicas=1, builder=poisoned_echo_backend, start_method="fork", max_attempts=2
        )
        poison = np.full(SHAPE, 1000.0, dtype=np.float32)
        with Fleet(config) as fleet:
            with fleet.client(timeout=30.0, retries=0) as client:
                futures = [client.submit(poison) for _ in range(6)]
                for future in futures:
                    with pytest.raises(ReplicaFailed, match="poisoned input"):
                        future.result(timeout=30)
                # the replica survives its backend's error and keeps serving
                x = samples(1)[0]
                assert np.allclose(client.predict(x, timeout=30), oracle(x[None])[0])
            stats = fleet.stats()
            assert stats.errors == {"replica_failed": 6}
            assert stats.requeued == 6
            assert stats.restarts == 0
            assert_zero_lost(fleet)

    def test_burst_forms_batches_without_waiting(self):
        config = fleet_config(
            replicas=1,
            max_batch=8,
            builder_kwargs={"resolution": RES, "classes": CLASSES, "delay_ms": 20},
        )
        xs = samples(16)
        with Fleet(config) as fleet:
            with fleet.client(timeout=30.0) as client:
                futures = [client.submit(x) for x in xs]
                outs = np.stack([f.result(timeout=30) for f in futures])
            assert np.allclose(outs, oracle(xs))
            stats = fleet.stats()
            (replica,) = stats.per_replica
            assert replica["served"] == 16
            assert 2 <= replica["batches"] <= 6, replica
            assert stats.to_dict()["per_replica"][0]["batches"] == replica["batches"]
            assert "served per batch" in stats.summary()
            assert_zero_lost(fleet)


class TestFrontDoorStream:
    """The front door parses a byte stream, however the client's writes are cut."""

    def test_split_and_coalesced_frames_each_answered_once(self):
        xs = samples(8)
        stream = b"".join(request_frames(xs))
        # cuts through a length word, a header, a payload, then several whole
        # frames in one write, then the tail
        cuts = [1, 2, 3, 7, 11, 150, 2 * len(stream) // 3]
        with Fleet(fleet_config(replicas=1)) as fleet:
            with socket.create_connection(fleet.address, timeout=10) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                pos = 0
                for cut in cuts:
                    sock.sendall(stream[pos:cut])
                    pos = cut
                    time.sleep(0.01)  # let each piece arrive as its own read
                sock.sendall(stream[pos:])
                replies = [read_frame(sock) for _ in xs]
                sock.settimeout(0.3)
                with pytest.raises(TimeoutError):
                    sock.recv(1)  # exactly once: nothing else is coming
            assert sorted(request_id for _, request_id, _, _ in replies) == list(range(1, len(xs) + 1))
            for kind, request_id, _, payload in replies:
                assert kind == KIND_RESPONSE
                expected = oracle(xs[request_id - 1][None])[0]
                assert np.allclose(np.frombuffer(payload, dtype=np.float32), expected)
            assert fleet.stats().completed == len(xs)
            assert_zero_lost(fleet)

    @pytest.mark.parametrize(
        "bad_frame",
        [
            HEADER.pack(3, KIND_REQUEST, 1, 0),  # length below the header's 9 bytes
            HEADER.pack(9, KIND_REQUEST, 1, 1),  # meta longer than the frame
            HEADER.pack(11, KIND_REQUEST, 1, 2) + b"{[",  # meta that is not JSON
            HEADER.pack(11, KIND_REQUEST, 1, 2) + b"[]",  # meta that is not an object
        ],
        ids=["length", "meta_len", "json", "not_object"],
    )
    def test_malformed_frame_closes_the_connection(self, bad_frame):
        with Fleet(fleet_config(replicas=1)) as fleet:
            with socket.create_connection(fleet.address, timeout=10) as sock:
                sock.sendall(bad_frame)
                assert sock.recv(1) == b""
            with fleet.client() as client:  # the door itself stays open
                x = samples(1)[0]
                assert np.allclose(client.predict(x, timeout=30), oracle(x[None])[0])
            assert_zero_lost(fleet)

    def test_idle_replica_is_sent_a_burst_first_request_at_once(self):
        # A burst sent to an idle replica as one record runs whole while the
        # front door admits nothing and comes back whole, so the next burst
        # is whole again: the fleet locks into a convoy.  The first request
        # must go out alone, the rest of the read after it.
        xs = samples(16)
        with Fleet(fleet_config(replicas=1, max_batch=8)) as fleet:
            (handle,) = fleet._supervisor.handles
            runs = []  # requests per RUN record, in send order
            pipe = handle.work

            class RecordingPipe:
                def send_bytes(self, data):
                    words = np.frombuffer(data, dtype=np.uint32)
                    if words[0] == RUN:
                        runs.append((len(words) - 1) // 2)
                    pipe.send_bytes(data)

                def close(self):
                    pipe.close()

            handle.work = RecordingPipe()
            with socket.create_connection(fleet.address, timeout=10) as sock:
                sock.sendall(b"".join(request_frames(xs)))  # one write, read at once
                replies = sorted(request_id for _, request_id, _, _ in (read_frame(sock) for _ in xs))
            assert replies == list(range(1, len(xs) + 1))
            assert runs[0] == 1, runs
            assert sum(runs) == len(xs)
            assert_zero_lost(fleet)

    def test_burst_larger_than_max_batch_is_fully_answered(self):
        xs = samples(40)
        with Fleet(fleet_config(replicas=1, max_batch=4)) as fleet:
            with socket.create_connection(fleet.address, timeout=10) as sock:
                sock.sendall(b"".join(request_frames(xs)))  # one write, read at once
                replies = {request_id: payload for _, request_id, _, payload in (read_frame(sock) for _ in xs)}
            assert sorted(replies) == list(range(1, len(xs) + 1))
            outs = np.stack([np.frombuffer(replies[i + 1], dtype=np.float32) for i in range(len(xs))])
            assert np.allclose(outs, oracle(xs))
            stats = fleet.stats()
            assert stats.completed == len(xs)
            assert stats.batch_size_mean <= 4
            assert_zero_lost(fleet)

    def test_reply_keeps_multidimensional_shape_without_meta(self):
        config = fleet_config(replicas=1, builder=grid_echo_backend, start_method="fork")
        x = samples(1)[0]
        with Fleet(config) as fleet:
            with fleet.client() as client:
                assert client.output_shape == (2, 2)
                out = client.predict(x, timeout=30)
            with socket.create_connection(fleet.address, timeout=10) as sock:
                sock.sendall(request_frames(x[None])[0])
                length, kind, request_id, meta_len = HEADER.unpack(recv_exact(sock, HEADER.size))
                payload = recv_exact(sock, length - 9)
        assert out.shape == (2, 2)
        assert np.allclose(out, oracle(x[None])[0].reshape(2, 2))
        assert (kind, request_id, meta_len) == (KIND_RESPONSE, 1, 0)
        assert np.array_equal(np.frombuffer(payload, dtype=np.float32), out.ravel())

    def test_spawn_start_method_round_trips(self):
        xs = samples(8)
        with Fleet(fleet_config(replicas=1, start_method="spawn")) as fleet:
            with fleet.client(timeout=60.0) as client:
                outs = np.stack([f.result(timeout=60) for f in [client.submit(x) for x in xs]])
            assert np.allclose(outs, oracle(xs))
            assert_zero_lost(fleet)


class TestWaitReady:
    def test_start_waits_on_ready_without_sleeping(self, monkeypatch):
        def no_sleep(seconds):
            raise AssertionError(f"polled with time.sleep({seconds})")

        # a spawned replica takes a few hundred ms to report READY, so start()
        # must wait for it; a forked one can beat the first readiness check
        fleet = Fleet(fleet_config(replicas=1, start_method="spawn"))
        try:
            with monkeypatch.context() as patch:
                patch.setattr("repro.serve.fleet.time.sleep", no_sleep)
                fleet.start()
                assert fleet.stats().ready == 1
        finally:
            fleet.close()

    def test_replica_build_error_fails_start_fast(self):
        config = fleet_config(replicas=2, builder=replica_only_failing_backend, start_method="spawn")
        fleet = Fleet(config)
        t0 = time.monotonic()
        with pytest.raises(ReplicaFailed, match="OSError: no device in the replica"):
            fleet.start()
        assert time.monotonic() - t0 < config.start_timeout / 3
        stats = fleet.stats()
        assert stats.restarts == 0 and stats.ready == 0
        assert [r["state"] for r in stats.per_replica] == ["failed", "failed"]

    def test_timeout_still_raises(self):
        with Fleet(fleet_config(replicas=1)) as fleet:
            with pytest.raises(TimeoutError):
                fleet.wait_ready(replicas=2, timeout=0.2)


class TestFleetConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FleetConfig(replicas=0)
        with pytest.raises(ValueError):
            FleetConfig(max_pending=0)
        with pytest.raises(ValueError):
            FleetConfig(start_method="threads")

    def test_batching_wait_knob_removed(self):
        with pytest.raises(TypeError):
            FleetConfig(max_wait_ms=1.0)

    def test_cli_rejects_unknown_engine(self, capsys):
        from repro.serve.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--engine", "tpu"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown engine" in err
        assert "int8" in err and "float" in err
