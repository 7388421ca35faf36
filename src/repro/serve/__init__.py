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

Engines are named by :data:`~repro.serve.fleet.ENGINES` (``--engine
{float,int8}``): both are compiled with :func:`repro.compile`.
"""

from __future__ import annotations

from .autoscale import AutoscaleController, SLOConfig, parse_autoscale
from .chaos import ChaosConfig, ChaosMonkey, parse_chaos
from .engine import Engine, EngineConfig, ServeStats
from .fleet import (
    ENGINES,
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
    "ENGINES",
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


def build_server(
    model_name: str = "mobilenetv2-tiny",
    resolution: int = 16,
    num_classes: int = 16,
    engine: str = "int8",
    calibration_batches: int = 2,
    calibration_method: str = "minmax",
    seed: int = 0,
    **engine_kwargs,
) -> Engine:
    """Build a ready-to-serve :class:`Engine` for a registry model.

    ``engine`` is one of :data:`ENGINES`: ``"int8"`` (the default)
    quantizes and calibrates the model on synthetic data first and compiles
    it with :func:`repro.compile`, and ``"float"`` serves the planned float
    runtime.  Extra keyword arguments configure the engine's batching policy
    (``max_batch``, ``max_wait_ms``, ``workers``...).

    The model construction is shared with the fleet's
    :func:`~repro.serve.fleet.model_backend` builder, so both serving tiers
    serve bit-identical backends.
    """
    net, input_shape = resolve_net(
        model_name=model_name,
        resolution=resolution,
        num_classes=num_classes,
        engine=engine,
        calibration_batches=calibration_batches,
        calibration_method=calibration_method,
        seed=seed,
    )
    return Engine(net, input_shape, **engine_kwargs)
