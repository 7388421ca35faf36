"""Throughput-oriented model serving on top of the compiled runtimes.

Two serving tiers share one request model (submit a sample, get a future):

**In-process engine** — dynamic micro-batching over worker threads::

    from repro.serve import Engine, build_server

    engine = build_server("mobilenetv2-tiny", workers=4)   # int8 by default
    future = engine.submit(image)        # (C, H, W) -> Future of logits
    logits = future.result()
    print(engine.stats().summary())

**Supervised fleet** — N replica processes behind an asyncio front door,
with shared-memory tensor transport, heartbeat watchdog, crash/hang recovery
and typed-error semantics (every admitted request resolves to a result or a
typed error — never silence)::

    from repro.serve import Fleet

    with Fleet(replicas=4, builder_kwargs={"engine": "int8"}) as fleet:
        with fleet.client() as client:
            logits = client.predict(image)
        print(fleet.stats().summary())

:class:`Engine` implements the max-batch / max-wait dynamic batching policy;
:func:`repro.serve.loadgen.run_load` is the load harness (closed-loop
constant-concurrency or open-loop arrival-rate with ramp/spike shapes) and
drives either tier; ``python -m repro.serve --replicas 4`` runs a
self-contained fleet load test (with optional ``--chaos`` fault injection)
from the command line.  :class:`AutoscaleController` + :class:`SLOConfig`
(``--autoscale`` / ``$REPRO_AUTOSCALE``) close the loop: the fleet resizes
itself against a p99/queue-depth SLO and degrades gracefully at capacity.

Inference backends are resolved by name through the
:func:`repro.runtime.resolve_engine` registry (``--engine {float,int8}``) and
compiled with the unified :func:`repro.compile` frontend; ``"eager"`` serves
the uncompiled module.
"""

from __future__ import annotations

from .autoscale import AutoscaleController, SLOConfig, parse_autoscale
from .chaos import ChaosConfig, ChaosMonkey, parse_chaos
from .engine import Engine, EngineConfig, ServeStats
from .fleet import (
    Fleet,
    FleetConfig,
    FleetStats,
    ServingBackend,
    echo_backend,
    model_backend,
    resolve_net,
)
from .loadgen import LoadReport, run_load
from .transport import (
    BadRequest,
    CorruptReply,
    DeadlineExceeded,
    FleetClient,
    FleetError,
    Overloaded,
    ReplicaFailed,
    ServerClosed,
)

__all__ = [
    "Engine",
    "EngineConfig",
    "ServeStats",
    "LoadReport",
    "run_load",
    "build_server",
    "available_backends",
    # fleet tier
    "Fleet",
    "FleetConfig",
    "FleetStats",
    "FleetClient",
    "ServingBackend",
    "model_backend",
    "echo_backend",
    "resolve_net",
    # autoscaling / degradation
    "AutoscaleController",
    "SLOConfig",
    "parse_autoscale",
    # chaos / fault injection
    "ChaosConfig",
    "ChaosMonkey",
    "parse_chaos",
    # typed serving errors
    "FleetError",
    "Overloaded",
    "DeadlineExceeded",
    "ReplicaFailed",
    "CorruptReply",
    "ServerClosed",
    "BadRequest",
]


def available_backends() -> list[str]:
    """Engine names :func:`build_server` accepts (registry engines + eager)."""
    from ..runtime import available_engines

    return sorted(available_engines() + ["eager"])


def build_server(
    model_name: str = "mobilenetv2-tiny",
    resolution: int = 16,
    num_classes: int = 16,
    backend: str = "int8",
    calibration_batches: int = 2,
    calibration_method: str = "minmax",
    seed: int = 0,
    engine: str | None = None,
    **engine_kwargs,
) -> Engine:
    """Build a ready-to-serve :class:`Engine` for a registry model.

    The inference backend is resolved by name through the
    :func:`repro.runtime.resolve_engine` registry and compiled with the
    unified :func:`repro.compile` frontend: ``"int8"`` (the default)
    quantizes and calibrates the model on synthetic data first, ``"float"``
    serves the planned float runtime, and the special name ``"eager"`` serves
    the plain module.  ``engine`` is an alias for ``backend`` (matching the
    ``repro.serve --engine`` CLI flag) and wins when both are given.  Extra
    keyword arguments configure the engine's batching policy (``max_batch``,
    ``max_wait_ms``, ``workers``...).

    The model construction is shared with the fleet's
    :func:`~repro.serve.fleet.model_backend` builder, so both serving tiers
    serve bit-identical backends.
    """
    name = engine if engine is not None else backend
    net, input_shape = resolve_net(
        model_name=model_name,
        resolution=resolution,
        num_classes=num_classes,
        engine=name,
        calibration_batches=calibration_batches,
        calibration_method=calibration_method,
        seed=seed,
    )
    return Engine(net, input_shape, **engine_kwargs)
