"""Fault injection for the serving fleet.

Robustness claims that are never exercised rot.  This module makes the
fleet's failure paths *first-class and injectable*: a :class:`ChaosConfig`
declares which faults fire, how often, and when, and every fleet process —
replicas and the front door — draws faults from its own seeded
:class:`ChaosMonkey`, so chaos runs are reproducible.

Supported faults
----------------
``kill``
    The replica SIGKILLs itself mid-batch (requests already claimed) —
    exercises crash detection, in-flight requeue and supervised restart.
``hang``
    The replica's worker loop blocks without heartbeating — exercises the
    missed-heartbeat watchdog (the supervisor must kill and restart it).
``slow``
    The replica sleeps ``ms`` before running the batch — exercises deadline
    handling and tail-latency accounting.
``corrupt``
    The replica flips bytes in a reply *after* computing its checksum — the
    front door must detect the CRC mismatch and redispatch.
``drop``
    The front door abruptly closes a client connection — exercises
    client-side reconnect and retry with backoff.

Faults are configured programmatically, as a compact spec string, or through
the ``REPRO_CHAOS`` environment variable (read by the serving CLI and by
replicas at startup), e.g.::

    REPRO_CHAOS="kill:prob=1,warmup=10,max=1;corrupt:prob=0.05,max=3"

Each clause is ``kind:key=value,...`` with keys ``prob`` (per-batch firing
probability), ``warmup`` (trials skipped before the fault may fire), ``max``
(total firings per process) and ``ms`` (duration for ``slow``/``hang``).
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

import numpy as np

__all__ = ["Fault", "ChaosConfig", "ChaosMonkey", "parse_chaos", "FAULT_KINDS", "ENV_VAR"]

FAULT_KINDS = ("kill", "hang", "slow", "corrupt", "drop")
ENV_VAR = "REPRO_CHAOS"
_HANG_DEFAULT_MS = 3_600_000.0  # an injected hang blocks "forever" (watchdog must act)


@dataclass(frozen=True)
class Fault:
    """One injectable fault: what fires, how often, and for how long."""

    kind: str
    prob: float = 0.0
    warmup: int = 0
    max_events: int | None = None
    ms: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"fault probability must be in [0, 1], got {self.prob}")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        if self.max_events is not None and self.max_events < 0:
            raise ValueError("max_events must be non-negative")
        if self.ms < 0:
            raise ValueError("ms must be non-negative")


@dataclass(frozen=True)
class ChaosConfig:
    """A reproducible set of faults shared by every process of a fleet."""

    faults: tuple[Fault, ...] = ()
    seed: int = 1234

    def monkey(self, scope: int, generation: int = 0) -> "ChaosMonkey":
        """Build the per-process fault source; ``scope`` decorrelates streams
        (replica index, or a negative id for the front door) and
        ``generation`` the lives of one replica across restarts."""
        return ChaosMonkey(self, scope, generation)

    def describe(self) -> str:
        if not self.faults:
            return "chaos: off"
        parts = []
        for fault in self.faults:
            bits = [f"prob={fault.prob:g}"]
            if fault.warmup:
                bits.append(f"warmup={fault.warmup}")
            if fault.max_events is not None:
                bits.append(f"max={fault.max_events}")
            if fault.ms:
                bits.append(f"ms={fault.ms:g}")
            parts.append(f"{fault.kind}:{','.join(bits)}")
        return "chaos: " + ";".join(parts)

    @staticmethod
    def from_env() -> "ChaosConfig":
        """Parse ``$REPRO_CHAOS`` (an empty/unset variable means no chaos)."""
        return parse_chaos(os.environ.get(ENV_VAR, ""))


def parse_chaos(spec: "str | ChaosConfig | None", seed: int = 1234) -> ChaosConfig:
    """Parse a compact chaos spec string into a :class:`ChaosConfig`.

    ``"kill:prob=1,warmup=3,max=1;slow:prob=0.1,ms=20"`` → two faults.
    ``None`` / ``""`` → an empty (disabled) config.  An existing
    :class:`ChaosConfig` passes through unchanged.
    """
    if isinstance(spec, ChaosConfig):
        return spec
    if not spec:
        return ChaosConfig(seed=seed)
    faults = []
    for clause in str(spec).split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kind, _, argstr = clause.partition(":")
        kwargs: dict = {"kind": kind.strip()}
        for pair in filter(None, (p.strip() for p in argstr.split(","))):
            key, _, value = pair.partition("=")
            key = {"max": "max_events"}.get(key.strip(), key.strip())
            if key == "prob":
                kwargs["prob"] = float(value)
            elif key == "warmup":
                kwargs["warmup"] = int(value)
            elif key == "max_events":
                kwargs["max_events"] = int(value)
            elif key == "ms":
                kwargs["ms"] = float(value)
            elif key == "seed":
                seed = int(value)
            else:
                raise ValueError(f"unknown chaos parameter {key!r} in clause {clause!r}")
        faults.append(Fault(**kwargs))
    return ChaosConfig(faults=tuple(faults), seed=seed)


class ChaosMonkey:
    """Per-process fault source with seeded, warmup/cap-bounded draws.

    Each life draws its own stream, seeded from ``(seed, scope, generation)``:
    a restarted replica (the supervisor bumps its generation) does not replay
    its predecessor's draws.
    """

    def __init__(self, config: ChaosConfig, scope: int, generation: int = 0):
        self._faults = {fault.kind: fault for fault in config.faults}
        # scopes may be negative (the front door); SeedSequence takes words >= 0
        entropy = [value % 2**32 for value in (config.seed, scope, generation)]
        self._rng = np.random.default_rng(np.random.SeedSequence(entropy))
        self._trials: dict[str, int] = {}
        self._fired: dict[str, int] = {}

    def fired(self, kind: str) -> int:
        """How many times ``kind`` has fired in this process."""
        return self._fired.get(kind, 0)

    def draw(self, kind: str) -> Fault | None:
        """One trial of ``kind``; returns the fault iff it fires now."""
        fault = self._faults.get(kind)
        if fault is None or fault.prob <= 0.0:
            return None
        self._trials[kind] = self._trials.get(kind, 0) + 1
        if self._trials[kind] <= fault.warmup:
            return None
        if fault.max_events is not None and self.fired(kind) >= fault.max_events:
            return None
        if float(self._rng.random()) >= fault.prob:
            return None
        self._fired[kind] = self.fired(kind) + 1
        return fault

    # ------------------------------------------------------------------ #
    # replica-side faults
    # ------------------------------------------------------------------ #
    def pre_batch(self) -> None:
        """Apply worker faults before a batch runs: kill, hang, or slow.

        ``kill`` SIGKILLs the process (no cleanup — that is the point).
        ``hang`` sleeps without returning control, so the worker loop stops
        heartbeating and the supervisor's watchdog must intervene.
        """
        if self.draw("kill"):
            os.kill(os.getpid(), signal.SIGKILL)
        fault = self.draw("hang")
        if fault:
            time.sleep((fault.ms or _HANG_DEFAULT_MS) / 1e3)
        fault = self.draw("slow")
        if fault:
            time.sleep(fault.ms / 1e3)

    def corrupt_reply(self, view) -> bool:
        """Maybe flip bytes in a reply buffer; returns True when it did."""
        if not self.draw("corrupt"):
            return False
        view = memoryview(view).cast("B")
        n = min(8, len(view))
        for i in range(n):
            view[i] ^= 0xFF
        return True

    def drop_connection(self) -> bool:
        """Front-door fault: should this client connection be severed?"""
        return self.draw("drop") is not None
