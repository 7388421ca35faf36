"""SLO-driven autoscaling: controller law, supervisor elasticity, integration.

Three layers of coverage:

* Pure control-law tests drive :class:`AutoscaleController.step` with
  synthetic :class:`FleetStats` and a fake clock — hysteresis, cooldowns,
  restart awareness and the degradation ladder are asserted deterministically,
  no processes and no sleeps.
* Supervisor tests exercise the scale-up/scale-down state machine and the
  restart backoff/decay schedule through the injected ``clock`` with stubbed
  process handles.
* Integration tests run a real echo-backend fleet: resize under in-flight
  traffic, kill chaos composed with the controller, degradation shedding
  with retry-after hints — all holding the zero-lost invariant.
"""

import threading
import time

import numpy as np
import pytest

from repro.serve import (
    AutoscaleController,
    Fleet,
    FleetClient,
    FleetConfig,
    FleetStats,
    Overloaded,
    SLOConfig,
    parse_autoscale,
)
from repro.serve.loadgen import arrival_offsets, run_load
from repro.serve.supervisor import (
    DETACHED,
    DOWN,
    DRAINING,
    READY,
    ReplicaSpec,
    Supervisor,
)
from repro.serve.transport import _ClientRequest, error_for


# --------------------------------------------------------------------------- #
# shared fakes
# --------------------------------------------------------------------------- #
class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class FakeProcess:
    def __init__(self):
        self.alive = True
        self.killed = False
        self.pid = 4242

    def is_alive(self):
        return self.alive

    def kill(self):
        self.killed = True
        self.alive = False

    def join(self, timeout=None):
        pass


def fleet_config(**overrides) -> FleetConfig:
    defaults = dict(
        replicas=1,
        builder="repro.serve.fleet:echo_backend",
        builder_kwargs={"delay_ms": 3.0},
        heartbeat_interval=0.05,
        miss_threshold=5,
        restart_backoff_base=0.02,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def make_supervisor(clock, **config_overrides):
    """A Supervisor over fake processes: spawn is recorded, never executed."""
    cfg = fleet_config(**config_overrides)
    spec = ReplicaSpec(
        index=0,
        replicas=cfg.resolved_max_replicas(),
        builder=cfg.builder,
        builder_kwargs={},
        input_shape=(3, 8, 8),
        input_elements=192,
        output_elements=4,
        slot_elements=196,
        n_slots=4,
        slots_name="unused",
        hb_name="unused",
        max_batch=4,
        heartbeat_interval=cfg.heartbeat_interval,
    )
    hb = np.zeros(cfg.resolved_max_replicas(), dtype=np.float64)
    messages, downs = [], []
    sup = Supervisor(
        cfg,
        spec,
        hb,
        loop=None,
        on_msg=lambda handle, msg: messages.append((handle.index, msg)),
        on_down=lambda handle, reason, assigned: downs.append((handle.index, reason)),
        clock=clock,
    )
    spawned = []
    sup.spawn = lambda handle: spawned.append((handle.index, clock.now))
    sup.messages, sup.downs, sup.spawned = messages, downs, spawned
    return sup


def ready_handle(sup, index=0, clock=None):
    handle = sup.handles[index]
    handle.state = READY
    handle.process = FakeProcess()
    now = clock.now if clock is not None else 0.0
    handle.ready_since = now
    sup.hb[index] = now
    return handle


# --------------------------------------------------------------------------- #
# supervisor: restart backoff + decay under an injected clock
# --------------------------------------------------------------------------- #
class TestSupervisorBackoffClock:
    def test_backoff_schedule_is_capped_exponential(self):
        clock = FakeClock(100.0)
        sup = make_supervisor(
            clock, restart_backoff_base=0.1, restart_backoff_cap=0.5, max_restarts=None
        )
        handle = ready_handle(sup, clock=clock)
        expected = [0.1, 0.2, 0.4, 0.5, 0.5]  # min(cap, base * 2**(failures-1))
        for backoff in expected:
            handle.state = READY
            handle.process = FakeProcess()
            sup.mark_down(handle, "test crash")
            assert handle.state == DOWN
            assert handle.restart_at == pytest.approx(clock.now + backoff)
            clock.advance(1.0)

    def test_restart_fires_only_when_due(self):
        clock = FakeClock(50.0)
        sup = make_supervisor(clock, restart_backoff_base=0.2)
        handle = ready_handle(sup, clock=clock)
        sup.mark_down(handle, "test crash")
        assert handle.restart_at == pytest.approx(50.2)
        clock.advance(0.1)
        sup.poll()
        assert sup.spawned == []  # backoff not elapsed: no respawn yet
        clock.advance(0.15)
        sup.poll()
        assert sup.spawned == [(0, clock.now)]

    def test_failure_count_decays_after_healthy_period(self):
        clock = FakeClock(10.0)
        sup = make_supervisor(clock, restart_reset_after=5.0)
        handle = ready_handle(sup, clock=clock)
        handle.failures = 3
        clock.advance(4.9)
        sup.hb[0] = clock.now  # fresh beat so the watchdog sees a live loop
        sup.poll()
        assert handle.failures == 3  # not healthy long enough yet
        clock.advance(0.2)
        sup.hb[0] = clock.now
        sup.poll()
        assert handle.failures == 0  # forgiven: backoff restarts from base

    def test_decay_resets_the_backoff_schedule(self):
        clock = FakeClock(0.0)
        sup = make_supervisor(
            clock, restart_backoff_base=0.1, restart_backoff_cap=2.0, restart_reset_after=1.0
        )
        handle = ready_handle(sup, clock=clock)
        for _ in range(3):
            handle.state = READY
            handle.process = FakeProcess()
            sup.mark_down(handle, "crash loop")
        assert handle.restart_at == pytest.approx(clock.now + 0.4)
        handle.state = READY
        handle.process = FakeProcess()
        handle.ready_since = clock.now
        clock.advance(1.5)  # healthy past restart_reset_after
        sup.hb[0] = clock.now
        sup.poll()
        assert handle.failures == 0
        sup.mark_down(handle, "first crash after recovery")
        assert handle.restart_at == pytest.approx(clock.now + 0.1)  # back to base


class TestSupervisorElasticity:
    def test_set_target_spawns_drains_and_cancels(self):
        clock = FakeClock()
        sup = make_supervisor(clock, replicas=2, max_replicas=3)
        first = ready_handle(sup, 0, clock)
        second = ready_handle(sup, 1, clock)
        assert sup.set_target(1) == 1
        assert second.state == DRAINING
        assert sup.draining() == 1
        # scale back up mid-drain: the replica never stopped, drain cancels
        assert sup.set_target(3) == 3
        assert second.state == READY
        assert sup.spawned == [(2, 0.0)]  # detached third handle gets a spawn
        assert first.state == READY

    def test_drained_replica_retires_once_empty(self):
        clock = FakeClock()
        sup = make_supervisor(clock, replicas=2, max_replicas=2)
        ready_handle(sup, 0, clock)
        second = ready_handle(sup, 1, clock)
        second.assigned[7] = object()  # in-flight work pins the drain
        sup.set_target(1)
        sup.poll()
        assert second.state == DRAINING and sup.retired == 0
        second.assigned.clear()
        sup.poll()
        assert second.state == DETACHED
        assert sup.retired == 1

    def test_death_while_draining_detaches_without_restart(self):
        clock = FakeClock()
        sup = make_supervisor(clock, replicas=2, max_replicas=2)
        ready_handle(sup, 0, clock)
        second = ready_handle(sup, 1, clock)
        second.assigned[1] = object()
        sup.set_target(1)
        second.process.alive = False
        sup.poll()  # crash detection requeues the work, but no restart slot
        assert second.state == DETACHED
        assert sup.downs and sup.downs[-1][0] == 1
        sup.poll()
        assert sup.spawned == []

    def test_scale_down_cancels_pending_restart(self):
        clock = FakeClock()
        sup = make_supervisor(clock, replicas=2, max_replicas=2)
        ready_handle(sup, 0, clock)
        second = ready_handle(sup, 1, clock)
        sup.mark_down(second, "crash")
        assert second.state == DOWN
        sup.set_target(1)
        assert second.state == DETACHED  # restart cancelled by the scale-down
        clock.advance(10.0)
        sup.poll()
        assert sup.spawned == []

    def test_late_ready_does_not_resurrect_draining_replica(self):
        clock = FakeClock()
        sup = make_supervisor(clock, replicas=2, max_replicas=2)
        ready_handle(sup, 0, clock)
        second = sup.handles[1]
        second.state = DRAINING
        second.generation = 1
        sup._handle_msg(1, 1, ("ready", 4242))
        assert second.state == DRAINING  # stays out of rotation


# --------------------------------------------------------------------------- #
# control law: pure decisions over synthetic stats
# --------------------------------------------------------------------------- #
class FakeFleet:
    def __init__(self, replicas=1, max_replicas=4):
        self.config = fleet_config(replicas=replicas, max_replicas=max_replicas)
        self.target = replicas
        self.resizes = []
        self.degradations = []

    def resize(self, n, reason="", timeout=None):
        self.target = max(1, min(self.config.resolved_max_replicas(), int(n)))
        self.resizes.append((self.target, reason))
        return self.target

    def set_degradation(self, level, **kwargs):
        self.degradations.append((level, kwargs))

    def stats(self):  # the law tests always pass stats explicitly
        raise AssertionError("step() should receive stats explicitly in these tests")


def make_controller(fleet=None, clock=None, **slo_overrides):
    defaults = dict(
        p99_target_ms=100.0,
        queue_target=4.0,
        min_replicas=1,
        max_replicas=4,
        window=1,
        up_threshold=1.0,
        down_threshold=0.45,
        up_cooldown=1.0,
        down_cooldown=2.0,
        max_step_up=2,
        ladder_patience=2,
        recover_patience=2,
        ladder_levels=3,
    )
    defaults.update(slo_overrides)
    fleet = fleet or FakeFleet()
    clock = clock or FakeClock()
    return AutoscaleController(fleet, SLOConfig(**defaults), clock=clock), fleet, clock


def stats_for(ctrl, pressure: float, *, via="queue", converging=False) -> FleetStats:
    """Synthesize FleetStats that produce exactly ``pressure`` in the law."""
    target = ctrl.target
    stats = FleetStats(ready=target - 1 if converging else target, target=target)
    if via == "queue":
        stats.inflight = int(round(pressure * ctrl.slo.queue_target * target))
    else:
        stats.latency_ms_p99 = pressure * ctrl.slo.p99_target_ms
    return stats


class TestControllerLaw:
    def test_pressure_is_max_of_queue_and_latency_terms(self):
        ctrl, _, _ = make_controller()
        stats = FleetStats(ready=1, target=1, inflight=2, latency_ms_p99=250.0)
        assert ctrl.pressure(stats) == pytest.approx(2.5)  # latency term wins
        stats = FleetStats(ready=1, target=1, inflight=20, latency_ms_p99=50.0)
        assert ctrl.pressure(stats) == pytest.approx(5.0)  # queue term wins
        assert ctrl.pressure(FleetStats(ready=1, target=1)) == 0.0  # idle, no signal

    def test_spike_scales_up_by_max_step(self):
        ctrl, fleet, clock = make_controller()
        assert ctrl.step(stats_for(ctrl, 3.0), clock.now) == "up"
        assert ctrl.target == 3 and fleet.target == 3  # 1 + max_step_up
        assert ctrl.counters.scale_ups == 1

    def test_up_cooldown_blocks_back_to_back_ups(self):
        ctrl, fleet, clock = make_controller()
        ctrl.step(stats_for(ctrl, 3.0), clock.now)
        clock.advance(0.5)  # < up_cooldown
        assert ctrl.step(stats_for(ctrl, 3.0), clock.now) == "hold"
        assert fleet.target == 3
        clock.advance(0.6)  # past the cooldown
        assert ctrl.step(stats_for(ctrl, 3.0), clock.now) == "up"
        assert fleet.target == 4  # clamped at max_replicas

    def test_hysteresis_band_holds_without_flapping(self):
        ctrl, fleet, clock = make_controller()
        for _ in range(20):
            clock.advance(5.0)  # every cooldown long expired
            assert ctrl.step(stats_for(ctrl, 0.7), clock.now) == "hold"
        assert fleet.resizes == []
        assert ctrl.counters.scale_ups == ctrl.counters.scale_downs == 0

    def test_idle_scales_down_one_step_per_cooldown(self):
        ctrl, fleet, clock = make_controller()
        ctrl.target = fleet.target = 3
        assert ctrl.step(stats_for(ctrl, 0.0), clock.now) == "down"
        assert fleet.target == 2  # one at a time: draining is the pricey direction
        clock.advance(0.5)
        assert ctrl.step(stats_for(ctrl, 0.0), clock.now) == "hold"  # cooling down
        clock.advance(2.0)
        assert ctrl.step(stats_for(ctrl, 0.0), clock.now) == "down"
        assert fleet.target == 1
        clock.advance(5.0)
        assert ctrl.step(stats_for(ctrl, 0.0), clock.now) == "hold"  # at the floor
        assert fleet.target == 1

    def test_restart_convergence_suppresses_decisions(self):
        ctrl, fleet, clock = make_controller()
        ctrl.target = fleet.target = 2
        hot_but_converging = stats_for(ctrl, 5.0, converging=True)
        for _ in range(10):
            clock.advance(5.0)
            assert ctrl.step(hot_but_converging, clock.now) == "converging"
        assert fleet.resizes == []  # a chaos kill must not trigger scale churn
        assert ctrl.counters.holds_converging == 10

    def test_ladder_engages_at_max_and_recovers_before_scale_down(self):
        ctrl, fleet, clock = make_controller()
        ctrl.target = fleet.target = 4  # pinned at max_replicas
        hot = lambda: stats_for(ctrl, 2.0)
        cool = lambda: stats_for(ctrl, 0.0)
        # sustained heat walks down the ladder, one level per patience streak
        for level in (1, 2, 3):
            clock.advance(1.0)
            assert ctrl.step(hot(), clock.now) == "hold"
            clock.advance(1.0)
            assert ctrl.step(hot(), clock.now) == "degrade"
            assert ctrl.level == level
        clock.advance(1.0)
        assert ctrl.step(hot(), clock.now) == "hold"  # floor of the ladder
        assert ctrl.level == 3
        # every degrade tightened the effective policy monotonically
        deadlines = [kw["deadline_ms"] for _, kw in fleet.degradations]
        assert deadlines == sorted(deadlines, reverse=True)
        assert all(kw["max_pending"] >= 1 for _, kw in fleet.degradations)
        # calm traffic recovers the ladder fully before any replica drains
        for level in (2, 1, 0):
            clock.advance(1.0)
            assert ctrl.step(cool(), clock.now) == "hold"
            clock.advance(1.0)
            assert ctrl.step(cool(), clock.now) == "recover"
            assert ctrl.level == level
        assert fleet.target == 4  # no scale-down while the ladder recovered
        clock.advance(5.0)
        assert ctrl.step(cool(), clock.now) == "down"
        assert fleet.degradations[-1] == (0, {})  # level 0 resets the policy

    def test_one_hot_sample_does_not_degrade(self):
        ctrl, fleet, clock = make_controller()
        ctrl.target = fleet.target = 4
        ctrl.step(stats_for(ctrl, 2.0), clock.now)  # streak 1 of patience 2
        clock.advance(1.0)
        ctrl.step(stats_for(ctrl, 0.7), clock.now)  # back in band: streak resets
        clock.advance(1.0)
        ctrl.step(stats_for(ctrl, 2.0), clock.now)
        assert ctrl.level == 0 and fleet.degradations == []

    def test_latency_term_triggers_scale_up(self):
        ctrl, fleet, clock = make_controller()
        assert ctrl.step(stats_for(ctrl, 2.0, via="latency"), clock.now) == "up"
        assert fleet.target == 3

    def test_window_smoothing_absorbs_single_spike(self):
        ctrl, fleet, clock = make_controller(window=4)
        for _ in range(3):
            ctrl.step(stats_for(ctrl, 0.6), clock.now)
            clock.advance(0.1)
        assert ctrl.step(stats_for(ctrl, 1.5), clock.now) == "hold"  # mean 0.825
        assert fleet.resizes == []

    def test_slo_ceiling_clamped_to_fleet_capacity(self):
        fleet = FakeFleet(replicas=1, max_replicas=2)
        ctrl, _, _ = make_controller(fleet=fleet, max_replicas=8)
        assert ctrl.slo.max_replicas == 2

    def test_state_and_describe_surface_counters(self):
        ctrl, _, clock = make_controller()
        ctrl.step(stats_for(ctrl, 3.0), clock.now)
        state = ctrl.state()
        assert state["scale_ups"] == 1 and state["target"] == 3
        assert state["history"][-1]["decision"] == "up"
        text = ctrl.describe()
        assert "target 3" in text and "1 ups" in text


class LadderFleet(FakeFleet):
    """A FakeFleet serving a 3-rung fidelity ladder."""

    fidelity_rungs = 3

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.fidelity_calls = []

    def set_fidelity(self, rung, reason="manual"):
        self.fidelity_calls.append((rung, reason))
        return rung


class TestControllerLoop:
    def test_shutdown_errors_are_counted_not_swallowed(self):
        def stopped_fleet_stats():
            raise RuntimeError("fleet is not running")

        controller = AutoscaleController(
            FakeFleet(), SLOConfig(interval=0.01), stats_fn=stopped_fleet_stats
        )
        with controller:
            deadline = time.monotonic() + 10.0
            while controller.counters.step_errors.get("RuntimeError", 0) < 2:
                assert time.monotonic() < deadline, "the loop stopped counting failed ticks"
                time.sleep(0.01)
        assert controller.state()["step_errors"]["RuntimeError"] >= 2
        assert "failed ticks" in controller.describe()


class TestFidelityBeforeShedding:
    """The controller walks the fidelity ladder before the shedding ladder."""

    def make_hot_controller(self):
        ctrl, fleet, clock = make_controller(
            fleet=LadderFleet(replicas=4, max_replicas=4)
        )
        return ctrl, fleet, clock

    def drive(self, ctrl, clock, pressure, steps):
        decisions = []
        for _ in range(steps):
            clock.advance(5.0)
            decisions.append(ctrl.step(stats_for(ctrl, pressure), clock.now))
        return decisions

    def test_ladder_depth_prepends_fidelity_rungs(self):
        ctrl, _, _ = self.make_hot_controller()
        assert ctrl.fidelity_rungs == 3
        assert ctrl.ladder_depth == 2 + ctrl.slo.ladder_levels
        plain, _, _ = make_controller()
        assert plain.fidelity_rungs == 1
        assert plain.ladder_depth == plain.slo.ladder_levels

    def test_drops_fidelity_before_shedding(self):
        ctrl, fleet, clock = self.make_hot_controller()
        self.drive(ctrl, clock, 3.0, 12)
        # first two degrades only switch rungs: no deadline tightening yet
        assert fleet.fidelity_calls[:2] == [(1, "autoscale"), (2, "autoscale")]
        assert fleet.degradations[0] == (0, {})
        assert fleet.degradations[1] == (0, {})
        # beyond the ladder floor the usual shedding levels begin at 1
        assert fleet.degradations[2][0] == 1
        assert fleet.degradations[2][1]["deadline_ms"] < fleet.config.default_deadline_ms
        assert ctrl.level == ctrl.ladder_depth

    def test_recovers_fidelity_before_scale_down(self):
        ctrl, fleet, clock = self.make_hot_controller()
        self.drive(ctrl, clock, 3.0, 12)
        fleet.resizes.clear()
        self.drive(ctrl, clock, 0.1, 10)
        # the ladder fully recovers (rung 0, shed level 0) before any resize
        assert fleet.fidelity_calls[-1] == (0, "autoscale")
        assert fleet.degradations[-1] == (0, {})
        assert ctrl.level == 0
        assert fleet.resizes == []
        self.drive(ctrl, clock, 0.1, 4)
        assert fleet.resizes  # only now does capacity drain

    def test_ladderless_fleet_unchanged(self):
        ctrl, fleet, clock = make_controller(fleet=FakeFleet(replicas=4, max_replicas=4))
        self.drive(ctrl, clock, 3.0, 4)
        assert not hasattr(fleet, "fidelity_calls")
        assert fleet.degradations[0][0] == 1  # level 1 sheds immediately

    def test_state_reports_ladder_shape(self):
        ctrl, _, _ = self.make_hot_controller()
        state = ctrl.state()
        assert state["fidelity_rungs"] == 3
        assert state["ladder_depth"] == ctrl.ladder_depth


class TestParseAutoscale:
    def test_disabled_specs(self):
        for spec in (None, "", "0", "off", "false", "none", "  "):
            assert parse_autoscale(spec) is None

    def test_enabled_defaults(self):
        for spec in ("1", "on", "true", "yes"):
            assert parse_autoscale(spec) == SLOConfig()

    def test_key_value_spec(self):
        slo = parse_autoscale("min=2, max=6, p99=80, queue=3, down=0.3")
        assert slo.min_replicas == 2
        assert slo.max_replicas == 6
        assert slo.p99_target_ms == 80.0
        assert slo.queue_target == 3.0
        assert slo.down_threshold == 0.3

    def test_passthrough_and_errors(self):
        slo = SLOConfig(max_replicas=7)
        assert parse_autoscale(slo) is slo
        with pytest.raises(ValueError, match="unknown autoscale key"):
            parse_autoscale("bogus=1")
        with pytest.raises(ValueError, match="key=value"):
            parse_autoscale("min")
        with pytest.raises(ValueError):
            SLOConfig(min_replicas=4, max_replicas=2)
        with pytest.raises(ValueError):
            SLOConfig(up_threshold=0.4, down_threshold=0.5)


# --------------------------------------------------------------------------- #
# transport: retry-after hints
# --------------------------------------------------------------------------- #
def bare_client(jitter=0.0):
    """A FleetClient shell with just the retry machinery initialized."""
    client = object.__new__(FleetClient)
    client._closed = False
    client._retries = 3
    client._backoff_base = 0.05
    client._backoff_cap = 2.0
    client._jitter = jitter
    client._rng = np.random.default_rng(0)
    client._lock = threading.Lock()
    client._retry_heap = []
    client._retry_seq = 0
    client._retry_wakeup = threading.Condition(client._lock)
    return client


class TestRetryAfterHint:
    def test_error_for_attaches_hint_from_meta(self):
        error = error_for("overloaded", "busy", {"retry_after_ms": 12.5, "level": 2})
        assert isinstance(error, Overloaded)
        assert error.retry_after_ms == 12.5
        assert error_for("overloaded", "busy").retry_after_ms is None
        assert Overloaded.retry_after_ms is None  # instance attr, class untouched
        assert error_for("overloaded", "busy", {"retry_after_ms": "junk"}).retry_after_ms is None

    def _scheduled_delay(self, client, error):
        request = _ClientRequest(1, b"", {}, timeout=60.0)
        request.attempts = 1
        with client._lock:
            client._retry_or_fail_locked(request, error)
        due, _, queued = client._retry_heap[-1]
        assert queued is request
        return due - time.monotonic()

    def test_client_paces_to_server_hint(self):
        client = bare_client()
        hinted = error_for("overloaded", "busy", {"retry_after_ms": 500.0})
        delay = self._scheduled_delay(client, hinted)
        assert 0.45 <= delay <= 0.51  # ~500 ms, not the 50 ms blind backoff

    def test_blind_backoff_without_hint(self):
        client = bare_client()
        delay = self._scheduled_delay(client, error_for("overloaded", "busy"))
        assert 0.04 <= delay <= 0.06  # backoff_base * 2**0

    def test_hint_capped_and_jittered(self):
        client = bare_client(jitter=0.5)
        huge = error_for("overloaded", "busy", {"retry_after_ms": 60_000.0})
        delay = self._scheduled_delay(client, huge)
        assert 1.9 <= delay <= 3.1  # capped at backoff_cap, then jittered up


# --------------------------------------------------------------------------- #
# loadgen: open-loop arrival schedules
# --------------------------------------------------------------------------- #
class TestArrivalOffsets:
    def test_constant_rate_and_determinism(self):
        offsets = arrival_offsets("constant", 100.0, 2.0)
        assert offsets == arrival_offsets("constant", 100.0, 2.0)
        assert len(offsets) == 200
        assert offsets == sorted(offsets)
        assert offsets[0] == 0.0 and offsets[-1] < 2.0
        gaps = np.diff(offsets)
        assert np.allclose(gaps, 0.01)

    def test_ramp_back_loads_the_schedule(self):
        offsets = np.asarray(arrival_offsets("ramp", 100.0, 2.0, ramp_from=0.25))
        first, second = np.sum(offsets < 1.0), np.sum(offsets >= 1.0)
        assert second > first * 1.3  # arrival density grows along the ramp

    def test_spike_concentrates_in_window(self):
        offsets = np.asarray(
            arrival_offsets("spike", 100.0, 2.0, spike_mult=4.0, spike_window=(0.4, 0.6))
        )
        inside = np.sum((offsets >= 0.8) & (offsets < 1.2))
        outside_rate = (len(offsets) - inside) / 1.6
        assert inside / 0.4 == pytest.approx(4 * outside_rate, rel=0.15)

    def test_step_doubles_after_the_step(self):
        offsets = np.asarray(arrival_offsets("step", 100.0, 2.0, step_at=0.5, step_mult=2.0))
        first, second = np.sum(offsets < 1.0), np.sum(offsets >= 1.0)
        assert second == pytest.approx(2 * first, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown traffic shape"):
            arrival_offsets("sawtooth", 10.0, 1.0)
        with pytest.raises(ValueError):
            arrival_offsets("constant", 0.0, 1.0)
        with pytest.raises(ValueError, match="spike_window"):
            arrival_offsets("spike", 10.0, 1.0, spike_window=(0.7, 0.2))
        with pytest.raises(ValueError, match="open-loop mode requires"):
            run_load(None, 10, mode="open")
        with pytest.raises(ValueError, match="unknown load mode"):
            run_load(None, 10, mode="poisson")


# --------------------------------------------------------------------------- #
# integration: a real fleet
# --------------------------------------------------------------------------- #
class TestFleetElasticity:
    def test_resize_up_and_down_preserves_zero_lost_under_traffic(self):
        shape = (3, 8, 8)
        with Fleet(fleet_config(replicas=1, max_replicas=3)) as fleet:
            fleet.wait_ready(replicas=1)
            with fleet.client() as client:
                futures = [client.submit(np.ones(shape, dtype=np.float32)) for _ in range(40)]
                assert fleet.resize(3, reason="test") == 3
                for future in futures:
                    future.result(timeout=15.0)
                fleet.wait_ready(replicas=3, timeout=15.0)
                futures = [client.submit(np.ones(shape, dtype=np.float32)) for _ in range(40)]
                assert fleet.resize(1, reason="test") == 1
                for future in futures:
                    future.result(timeout=15.0)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and fleet.stats().draining:
                time.sleep(0.02)
            stats = fleet.stats()
            assert stats.lost == 0
            assert stats.target == 1 and stats.draining == 0
            assert stats.scale_ups == 1 and stats.scale_downs == 1
            assert [e["to"] for e in stats.scale_events] == [3, 1]
            fleet.close()
            assert fleet.stats().lost == 0

    def test_resize_is_clamped_to_capacity(self):
        with Fleet(fleet_config(replicas=1, max_replicas=2)) as fleet:
            fleet.wait_ready(replicas=1)
            assert fleet.resize(99) == 2
            assert fleet.resize(0) == 1

    def test_max_replicas_validation(self):
        with pytest.raises(ValueError, match="max_replicas"):
            fleet_config(replicas=3, max_replicas=2)

    def test_degradation_sheds_with_retry_after_hint(self):
        config = fleet_config(
            replicas=1, builder_kwargs={"delay_ms": 40.0}, max_pending=16, max_batch=1
        )
        shape = (3, 8, 8)
        with Fleet(config) as fleet:
            fleet.wait_ready(replicas=1)
            fleet.set_degradation(2, deadline_ms=2_000.0, max_pending=1)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and fleet.stats().degradation_level != 2:
                time.sleep(0.01)
            stats = fleet.stats()
            assert stats.degradation_level == 2
            assert stats.effective_max_pending == 1
            assert stats.effective_deadline_ms == 2_000.0
            with fleet.client(retries=0) as client:
                futures = [client.submit(np.ones(shape, dtype=np.float32)) for _ in range(8)]
                sheds = []
                for future in futures:
                    try:
                        future.result(timeout=15.0)
                    except Overloaded as error:
                        sheds.append(error)
                assert sheds, "expected overload sheds at pending cap 1"
                assert all(e.retry_after_ms is not None and e.retry_after_ms > 0 for e in sheds)
            # level 0 restores the configured policy
            fleet.set_degradation(0)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and fleet.stats().degradation_level != 0:
                time.sleep(0.01)
            stats = fleet.stats()
            assert stats.effective_max_pending == config.max_pending
            assert stats.effective_deadline_ms == config.default_deadline_ms
            assert fleet.stats().lost == 0

    def test_stats_surface_queue_depth_and_percentiles(self):
        with Fleet(fleet_config(replicas=1, max_replicas=2)) as fleet:
            fleet.wait_ready(replicas=1)
            with fleet.client() as client:
                for _ in range(12):
                    client.predict(np.ones((3, 8, 8), dtype=np.float32), timeout=10.0)
                wire = client.server_stats()
            for key in (
                "queue_depth",
                "latency_ms_p50",
                "latency_ms_p95",
                "latency_ms_p99",
                "target",
                "max_replicas",
                "degradation_level",
                "scale_events",
            ):
                assert key in wire, key
            assert wire["latency_ms_p99"] is not None
            assert wire["latency_ms_p50"] <= wire["latency_ms_p99"]
            assert wire["max_replicas"] == 2
            for replica in wire["per_replica"]:
                assert "inflight" in replica and "latency_ms_p99" in replica
            stats = fleet.stats()
            assert "latency" in stats.summary() and "elasticity" in stats.summary()

    def test_controller_scales_up_on_spike_and_reconverges(self):
        config = fleet_config(
            replicas=1,
            max_replicas=3,
            builder_kwargs={"delay_ms": 15.0},
            max_batch=4,
            max_pending=64,
            stats_window_s=1.5,
        )
        slo = SLOConfig(
            p99_target_ms=60.0,
            queue_target=2.0,
            min_replicas=1,
            max_replicas=3,
            interval=0.1,
            window=2,
            up_cooldown=0.2,
            down_cooldown=0.4,
            ladder_patience=2,
            recover_patience=2,
        )
        with Fleet(config) as fleet:
            fleet.wait_ready(replicas=1)
            with AutoscaleController(fleet, slo) as controller:
                with fleet.client() as client:
                    report = run_load(
                        client,
                        0,
                        mode="open",
                        rate=150.0,
                        duration_s=4.0,
                        traffic="spike",
                        spike_mult=2.5,
                        spike_window=(0.2, 0.6),
                        timeout=20.0,
                        warmup=4,
                    )
                assert report.mode == "open" and report.offered > 0
                deadline = time.monotonic() + 25.0
                while time.monotonic() < deadline:
                    if controller.target == slo.min_replicas and controller.level == 0:
                        break
                    time.sleep(0.1)
                state = controller.state()
            fleet.close()
            stats = fleet.stats()
        assert state["scale_ups"] >= 1, state
        assert state["peak_target"] > 1
        assert state["target"] == slo.min_replicas  # idle reconvergence
        assert state["level"] == 0
        assert stats.lost == 0

    def test_controller_with_kill_chaos_converges_without_oscillation(self):
        config = fleet_config(
            replicas=2,
            max_replicas=3,
            chaos="kill:prob=1,warmup=20,max=1",
            builder_kwargs={"delay_ms": 2.0},
        )
        # SLO chosen so the offered load sits inside the hysteresis band:
        # pressure stays below up_threshold (24 inflight / (16 * 2) = 0.75)
        # and the only capacity change the run sees is the chaos kill —
        # which the controller must ride out without resizing at all
        slo = SLOConfig(
            p99_target_ms=5_000.0,
            queue_target=16.0,
            min_replicas=2,
            max_replicas=3,
            interval=0.05,
            window=2,
            down_cooldown=0.5,
        )
        shape = (3, 8, 8)
        with Fleet(config) as fleet:
            fleet.wait_ready(replicas=2)
            with AutoscaleController(fleet, slo) as controller:
                with fleet.client() as client:
                    for _ in range(10):
                        futures = [
                            client.submit(np.ones(shape, dtype=np.float32)) for _ in range(24)
                        ]
                        for future in futures:
                            future.result(timeout=20.0)
                # the kill fired; wait for the watchdog to restore capacity
                deadline = time.monotonic() + 20.0
                while time.monotonic() < deadline:
                    stats = fleet.stats()
                    if stats.restarts >= 1 and stats.ready >= stats.target:
                        break
                    time.sleep(0.05)
                stats = fleet.stats()
                state = controller.state()
            fleet.close()
            final = fleet.stats()
        assert final.restarts >= 1  # chaos actually killed a replica
        assert stats.ready >= stats.target == 2  # restored to target, not resized
        assert state["scale_ups"] == 0  # the requeue burst never read as load...
        assert state["scale_downs"] == 0  # ...and the dip never read as "idle"
        assert final.lost == 0
