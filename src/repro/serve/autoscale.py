"""SLO-driven autoscaling and graceful degradation for the serving fleet.

:class:`AutoscaleController` closes the loop around :class:`~repro.serve.Fleet`:
it samples :class:`~repro.serve.FleetStats` on a fixed interval, folds the
latency p99 and admission queue depth into one *pressure* signal, and steers
the in-service replica count between ``min_replicas`` and ``max_replicas``
through :meth:`Fleet.resize`.  The control loop is deliberately conservative —
DACFL-style dynamic consensus under churn, not a bang-bang thermostat:

* **Hysteresis band.**  Pressure above ``up_threshold`` scales up; only
  pressure below ``down_threshold`` scales down.  The dead band between the
  two absorbs noise so the fleet does not flap around a boundary.
* **Cooldowns.**  After any resize the controller holds for
  ``up_cooldown`` / ``down_cooldown`` seconds (scale-down is the slower of
  the two: adding capacity is cheap, draining it is not).
* **Restart awareness.**  While the supervisor is still converging —
  ``ready < target`` because chaos killed a replica and the watchdog is
  restarting it — the controller holds rather than mistaking the transient
  capacity dip for organic load, so kill chaos does not cause oscillation.
* **Degradation ladder.**  Pinned at ``max_replicas`` with pressure still
  above the band for ``ladder_patience`` consecutive samples, the controller
  steps DOWN a ladder instead of failing: each level tightens the effective
  deadline, caps admitted work harder, and sheds with a ``retry_after_ms``
  hint in the typed ``Overloaded`` error.  ``recover_patience`` calm samples
  step back UP one level at a time; replicas are only drained once the
  ladder is fully recovered.
* **Fidelity before shedding.**  A fleet serving a multi-rung
  :class:`~repro.serve.fidelity.LadderBackend` prepends its fidelity drops to
  that ladder: the first ``rungs - 1`` levels merely switch every replica to
  a cheaper engine (``Fleet.set_fidelity`` — no restart, no refusals), and
  only beyond the ladder floor does deadline/admission tightening begin.
  Recovery is symmetric: full fidelity is restored before capacity drains.

Deterministic by construction: ``step(stats, now)`` is a pure function of its
inputs and the controller's own state, so tests drive it with a fake clock
and synthetic stats — no sleeps, no real fleet required.

Quickstart::

    from repro.serve import Fleet, AutoscaleController, SLOConfig

    fleet = Fleet(replicas=1, max_replicas=4).start()
    slo = SLOConfig(p99_target_ms=50.0, min_replicas=1, max_replicas=4)
    with AutoscaleController(fleet, slo):   # samples in a daemon thread
        serve_traffic(fleet)
    print(fleet.stats().summary())

CLI: ``python -m repro.serve --autoscale --min-replicas 1 --max-replicas 4
--slo-p99-ms 50`` or ``$REPRO_AUTOSCALE="min=1,max=4,p99=50"``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace

__all__ = ["SLOConfig", "AutoscaleController", "parse_autoscale", "ENV_VAR"]

ENV_VAR = "REPRO_AUTOSCALE"


@dataclass(frozen=True)
class SLOConfig:
    """Service-level objective and control-loop policy for autoscaling.

    Parameters
    ----------
    p99_target_ms:
        Latency SLO; p99 at the target is pressure 1.0 from the latency term.
    queue_target:
        Healthy in-flight requests per in-service replica; the queue term of
        the pressure signal is ``inflight / (queue_target * target)``.
    min_replicas, max_replicas:
        Bounds for the controller's target replica count.
    interval:
        Sampling period of the control loop thread, seconds.
    window:
        Pressure samples averaged before a decision — smooths one-sample
        spikes without adding much lag.
    up_threshold, down_threshold:
        Hysteresis band over smoothed pressure: scale up above
        ``up_threshold``, down below ``down_threshold``, hold in between.
    up_cooldown, down_cooldown:
        Minimum seconds between scale-ups / scale-downs.
    max_step_up:
        Replicas added per scale-up decision (scale-down is always one at a
        time — draining is the expensive direction).
    ladder_levels:
        Depth of the graceful-degradation ladder used at ``max_replicas``.
    ladder_patience, recover_patience:
        Consecutive hot (cool) samples required to step down (up) the ladder.
    deadline_factor, pending_factor:
        Per-level multipliers applied to the fleet's configured deadline and
        pending cap (``value * factor**level``).
    """

    p99_target_ms: float = 100.0
    queue_target: float = 4.0
    min_replicas: int = 1
    max_replicas: int = 4
    interval: float = 0.25
    window: int = 4
    up_threshold: float = 1.0
    down_threshold: float = 0.45
    up_cooldown: float = 0.5
    down_cooldown: float = 2.0
    max_step_up: int = 2
    ladder_levels: int = 3
    ladder_patience: int = 3
    recover_patience: int = 3
    deadline_factor: float = 0.6
    pending_factor: float = 0.7

    def __post_init__(self):
        if self.p99_target_ms <= 0:
            raise ValueError("p99_target_ms must be > 0")
        if self.queue_target <= 0:
            raise ValueError("queue_target must be > 0")
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be at least 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if self.interval <= 0:
            raise ValueError("interval must be > 0")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if not 0 < self.down_threshold < self.up_threshold:
            raise ValueError("need 0 < down_threshold < up_threshold")
        if self.up_cooldown < 0 or self.down_cooldown < 0:
            raise ValueError("cooldowns must be >= 0")
        if self.max_step_up < 1:
            raise ValueError("max_step_up must be at least 1")
        if self.ladder_levels < 0:
            raise ValueError("ladder_levels must be >= 0")
        if self.ladder_patience < 1 or self.recover_patience < 1:
            raise ValueError("ladder_patience and recover_patience must be >= 1")
        for name in ("deadline_factor", "pending_factor"):
            if not 0 < getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in (0, 1]")


_SPEC_KEYS = {
    "min": ("min_replicas", int),
    "max": ("max_replicas", int),
    "p99": ("p99_target_ms", float),
    "queue": ("queue_target", float),
    "interval": ("interval", float),
    "window": ("window", int),
    "up": ("up_threshold", float),
    "down": ("down_threshold", float),
    "up_cooldown": ("up_cooldown", float),
    "down_cooldown": ("down_cooldown", float),
    "step": ("max_step_up", int),
    "levels": ("ladder_levels", int),
}


def parse_autoscale(spec: "str | SLOConfig | None") -> SLOConfig | None:
    """Parse an ``$REPRO_AUTOSCALE``-style spec into an :class:`SLOConfig`.

    ``None``/``""``/``"0"``/``"off"`` disable autoscaling (returns ``None``);
    ``"1"``/``"true"``/``"on"`` enable it with defaults; otherwise a
    comma-separated key=value list, e.g. ``"min=1,max=4,p99=50,queue=4"``
    (see ``_SPEC_KEYS`` for the short names).
    """
    if spec is None or isinstance(spec, SLOConfig):
        return spec
    text = spec.strip()
    if not text or text.lower() in ("0", "off", "false", "no", "none"):
        return None
    if text.lower() in ("1", "on", "true", "yes"):
        return SLOConfig()
    overrides = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad autoscale spec item {part!r}; expected key=value")
        key, value = part.split("=", 1)
        key = key.strip().lower()
        if key not in _SPEC_KEYS:
            raise ValueError(
                f"unknown autoscale key {key!r}; known: {sorted(_SPEC_KEYS)}"
            )
        name, cast = _SPEC_KEYS[key]
        overrides[name] = cast(value.strip())
    return SLOConfig(**overrides)


@dataclass
class _Counters:
    scale_ups: int = 0
    scale_downs: int = 0
    degrades: int = 0
    recoveries: int = 0
    holds_converging: int = 0
    peak_target: int = 0
    decisions: int = 0
    last_pressure: float = 0.0
    last_decision: str = "idle"
    history: list = field(default_factory=list)
    step_errors: dict = field(default_factory=dict)  # error class -> ticks it failed


class AutoscaleController:
    """Closed-loop controller steering ``Fleet.resize`` from ``FleetStats``.

    ``step()`` makes one decision; :meth:`start` runs it on ``slo.interval``
    in a daemon thread (also available as a context manager).  Pass ``clock``
    and call ``step(stats, now)`` directly for deterministic tests.
    """

    def __init__(self, fleet, slo: SLOConfig | None = None, *, clock=time.monotonic,
                 stats_fn=None):
        slo = slo or SLOConfig()
        max_cap = getattr(fleet.config, "resolved_max_replicas", None)
        if callable(max_cap):
            cap = max_cap()
            if slo.max_replicas > cap:
                slo = replace(slo, max_replicas=cap)
        self.fleet = fleet
        self.slo = slo
        self._clock = clock
        self._stats_fn = stats_fn if stats_fn is not None else fleet.stats
        self.target = max(slo.min_replicas, min(slo.max_replicas, fleet.config.replicas))
        self.level = 0
        self.counters = _Counters(peak_target=self.target)
        self._pressures: deque = deque(maxlen=slo.window)
        self._last_scale_up = -float("inf")
        self._last_scale_down = -float("inf")
        self._hot_streak = 0
        self._cool_streak = 0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------ #
    # the control law
    # ------------------------------------------------------------------ #
    def pressure(self, stats) -> float:
        """Fold stats into one scalar: 1.0 means 'exactly at the SLO'."""
        slo = self.slo
        target = max(1, getattr(stats, "target", self.target) or self.target)
        queue_term = stats.inflight / (slo.queue_target * target)
        p99 = stats.latency_ms_p99
        latency_term = (p99 / slo.p99_target_ms) if p99 is not None else 0.0
        return max(queue_term, latency_term)

    def step(self, stats=None, now: float | None = None) -> str:
        """Sample, decide, act.  Returns the decision for logging/tests.

        Decisions: ``"hold"`` (in the hysteresis band or cooling down),
        ``"converging"`` (restarts in progress — suppressed), ``"up"``,
        ``"down"``, ``"degrade"``, ``"recover"``.
        """
        slo = self.slo
        if stats is None:
            stats = self._stats_fn()
        if now is None:
            now = self._clock()
        self.counters.decisions += 1
        pressure = self.pressure(stats)
        self._pressures.append(pressure)
        smoothed = sum(self._pressures) / len(self._pressures)
        self.counters.last_pressure = smoothed

        # chaos/watchdog awareness: ready below target means the supervisor
        # is still restoring capacity — deciding now would double-count the
        # dip (scale up) or misread the lull (scale down), i.e. oscillate
        if stats.ready < min(self.target, getattr(stats, "target", self.target)):
            self._hot_streak = 0
            self._cool_streak = 0
            self.counters.holds_converging += 1
            return self._record("converging", now)

        if smoothed > slo.up_threshold:
            self._cool_streak = 0
            if self.target < slo.max_replicas:
                self._hot_streak = 0
                if now - self._last_scale_up < slo.up_cooldown:
                    return self._record("hold", now)
                new = min(slo.max_replicas, self.target + slo.max_step_up)
                self._resize(new, "pressure", now)
                self._last_scale_up = now
                self.counters.scale_ups += 1
                self.counters.peak_target = max(self.counters.peak_target, new)
                return self._record("up", now)
            # pinned at max: walk the degradation ladder after sustained heat
            self._hot_streak += 1
            if self.level < self.ladder_depth and self._hot_streak >= slo.ladder_patience:
                self._hot_streak = 0
                self._set_level(self.level + 1)
                self.counters.degrades += 1
                return self._record("degrade", now)
            return self._record("hold", now)

        if smoothed < slo.down_threshold:
            self._hot_streak = 0
            if self.level > 0:
                # recover the ladder before giving capacity back
                self._cool_streak += 1
                if self._cool_streak >= slo.recover_patience:
                    self._cool_streak = 0
                    self._set_level(self.level - 1)
                    self.counters.recoveries += 1
                    return self._record("recover", now)
                return self._record("hold", now)
            if self.target > slo.min_replicas:
                if now - self._last_scale_down < slo.down_cooldown:
                    return self._record("hold", now)
                self._resize(self.target - 1, "idle", now)
                self._last_scale_down = now
                self.counters.scale_downs += 1
                return self._record("down", now)
            return self._record("hold", now)

        # inside the hysteresis band: by design, do nothing
        self._hot_streak = 0
        self._cool_streak = 0
        return self._record("hold", now)

    def _record(self, decision: str, now: float) -> str:
        self.counters.last_decision = decision
        if decision not in ("hold", "converging"):
            self.counters.history.append(
                {
                    "t": round(now, 3),
                    "decision": decision,
                    "target": self.target,
                    "level": self.level,
                    "pressure": round(self.counters.last_pressure, 4),
                }
            )
            del self.counters.history[:-64]
        return decision

    def _resize(self, replicas: int, reason: str, now: float) -> None:
        self.target = self.fleet.resize(replicas, reason=f"autoscale:{reason}")

    @property
    def fidelity_rungs(self) -> int:
        """Rung count of the fleet's fidelity ladder (1 for ladder-less fleets)."""
        return max(1, int(getattr(self.fleet, "fidelity_rungs", 1) or 1))

    @property
    def ladder_depth(self) -> int:
        """Total degradation depth: fidelity rungs first, then shedding levels.

        A fleet serving a :class:`~repro.serve.fidelity.LadderBackend`
        prepends its ``rungs - 1`` fidelity drops to the shedding ladder, so
        under sustained overload the controller *lowers fidelity before it
        sheds work* — and, symmetrically, climbs back to full fidelity before
        handing capacity back.
        """
        return (self.fidelity_rungs - 1) + self.slo.ladder_levels

    def _set_level(self, level: int) -> None:
        slo = self.slo
        cfg = self.fleet.config
        rungs = self.fidelity_rungs
        self.level = max(0, min(self.ladder_depth, level))
        if rungs > 1:
            # drop fidelity before shedding: the first rungs-1 levels only
            # switch the fleet's active rung (see repro.serve.fidelity)
            self.fleet.set_fidelity(min(self.level, rungs - 1), reason="autoscale")
        shed = max(0, self.level - (rungs - 1))
        if shed == 0:
            self.fleet.set_degradation(0)
            return
        self.fleet.set_degradation(
            shed,
            deadline_ms=cfg.default_deadline_ms * slo.deadline_factor**shed,
            max_pending=max(1, int(cfg.max_pending * slo.pending_factor**shed)),
        )

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def state(self) -> dict:
        """Controller state for the CLI ``--json`` payload."""
        c = self.counters
        return {
            "target": self.target,
            "level": self.level,
            "ladder_depth": self.ladder_depth,
            "fidelity_rungs": self.fidelity_rungs,
            "min_replicas": self.slo.min_replicas,
            "max_replicas": self.slo.max_replicas,
            "p99_target_ms": self.slo.p99_target_ms,
            "queue_target": self.slo.queue_target,
            "pressure": round(c.last_pressure, 4),
            "last_decision": c.last_decision,
            "decisions": c.decisions,
            "scale_ups": c.scale_ups,
            "scale_downs": c.scale_downs,
            "degrades": c.degrades,
            "recoveries": c.recoveries,
            "holds_converging": c.holds_converging,
            "peak_target": c.peak_target,
            "step_errors": dict(c.step_errors),
            "history": list(c.history),
        }

    def describe(self) -> str:
        """One-paragraph human summary for stats output."""
        c = self.counters
        return (
            f"autoscale         : target {self.target} "
            f"[{self.slo.min_replicas}..{self.slo.max_replicas}], "
            f"pressure {c.last_pressure:.2f} (p99 SLO {self.slo.p99_target_ms:.0f} ms, "
            f"queue target {self.slo.queue_target:g}/replica), "
            f"last decision {c.last_decision!r}\n"
            f"                    {c.scale_ups} ups / {c.scale_downs} downs "
            f"(peak {c.peak_target}), ladder level {self.level}/{self.ladder_depth} "
            f"({c.degrades} degrades, {c.recoveries} recoveries), "
            f"{c.holds_converging} holds while restarts converged"
            + (f", failed ticks {c.step_errors}" if c.step_errors else "")
        )

    # ------------------------------------------------------------------ #
    # background loop
    # ------------------------------------------------------------------ #
    def start(self) -> "AutoscaleController":
        """Run :meth:`step` every ``slo.interval`` seconds in a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("controller already started")
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, name="autoscale", daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=timeout)
        self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.slo.interval):
            try:
                self.step()
            except (RuntimeError, TimeoutError) as error:
                # the fleet is shutting down under the controller: its setters
                # raise "not running" and a resize can time out once its loop
                # is gone.  Counted, and the next tick retries.
                name = type(error).__name__
                self.counters.step_errors[name] = self.counters.step_errors.get(name, 0) + 1
                if self._stop.is_set():
                    return

    def __enter__(self) -> "AutoscaleController":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
