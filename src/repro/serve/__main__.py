"""Command-line load test for the serving engine and the replica fleet.

Builds a registry model, compiles it (int8 by default), serves it and drives
it with a closed-loop load generator::

    PYTHONPATH=src python -m repro.serve --model mobilenetv2-tiny --workers 4
    PYTHONPATH=src python -m repro.serve --engine float --concurrency 64
    PYTHONPATH=src python -m repro.serve --replicas 4 --requests 5000
    PYTHONPATH=src python -m repro.serve --replicas 2 --chaos "kill:prob=1,warmup=50,max=1"
    PYTHONPATH=src python -m repro.serve --autoscale --min-replicas 1 --max-replicas 4 \\
        --slo-p99-ms 50 --rate 200 --duration-s 10 --traffic spike

Without ``--replicas`` the in-process dynamic-batching :class:`Engine`
serves; with ``--replicas N`` a supervised multi-process
:class:`~repro.serve.Fleet` serves over shared memory and loopback sockets,
optionally under ``--chaos`` fault injection (kill/hang/slow/corrupt/drop).
In fleet mode the exit code is nonzero if any request was lost — admitted
but never answered with a result or typed error.

``--autoscale`` (or ``$REPRO_AUTOSCALE``) implies fleet mode and runs an
:class:`~repro.serve.AutoscaleController` alongside the load: the fleet
resizes itself between ``--min-replicas`` and ``--max-replicas`` against the
``--slo-p99-ms`` target and degrades gracefully at capacity.  ``--rate`` /
``--duration-s`` / ``--traffic`` switch the load generator to open loop
(fixed arrival schedule; the only mode that can genuinely overload).

``--engine`` is ``float`` or ``int8`` (the default);
prints sustained req/s, latency percentiles and the batch-size mix.

Compiled artifacts (:mod:`repro.runtime.artifact`) plug in at three points::

    PYTHONPATH=src python -m repro.serve --save-artifact net.rpa --engine int8
    PYTHONPATH=src python -m repro.serve --replicas 2 --artifact net.rpa
    PYTHONPATH=src python -m repro.serve --replicas 2 \\
        --fidelity "float:mobilenetv2-tiny,int8:mobilenetv2-tiny" --autoscale

``--save-artifact`` compiles and serializes, then exits.  ``--artifact``
serves a fleet straight from the file — skipping quantization/calibration at
replica boot — and validates the file (existence, format version, payload
digest, model fingerprint) *before* the fleet forks.  ``--fidelity`` serves a
multi-rung ladder (comma-separated ``engine:model`` or ``artifact:<path>``
rungs, highest fidelity first); with ``--autoscale`` the controller drops
fidelity before shedding and climbs back at idle.
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import replace
from pathlib import Path

from . import ENGINES, build_server
from .autoscale import ENV_VAR, SLOConfig, parse_autoscale
from .loadgen import TRAFFIC_SHAPES, run_load


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.serve", description=__doc__)
    parser.add_argument("--model", default="mobilenetv2-tiny", help="registry model name")
    parser.add_argument(
        "--engine",
        default=None,
        help=f"inference engine, one of {', '.join(ENGINES)} (default: int8)",
    )
    parser.add_argument("--resolution", type=int, default=16, help="input resolution")
    parser.add_argument("--workers", type=int, default=2, help="batching worker threads")
    parser.add_argument(
        "--calibration-batches",
        type=int,
        default=2,
        help="int8 calibration batches at compile time (more = slower boot, "
        "better grids; artifact serving skips this entirely)",
    )
    parser.add_argument("--max-batch", type=int, default=16, help="dynamic batch cap")
    parser.add_argument("--max-wait-ms", type=float, default=2.0, help="batch window, in-process engine only")
    parser.add_argument("--requests", type=int, default=2000, help="measured requests")
    parser.add_argument("--concurrency", type=int, default=32, help="closed-loop clients")
    parser.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        help="per-request client wait; timed-out requests are counted, not fatal",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", type=Path, default=None, help="write the report as JSON")
    artifact_group = parser.add_argument_group("compiled artifacts (repro.runtime.artifact)")
    artifact_group.add_argument(
        "--artifact",
        type=Path,
        default=None,
        help="serve from a compiled-artifact file instead of compiling at boot "
        "(implies fleet mode; validated before the fleet forks)",
    )
    artifact_group.add_argument(
        "--save-artifact",
        type=Path,
        default=None,
        metavar="PATH",
        help="compile --model with --engine, save the artifact to PATH, and exit",
    )
    artifact_group.add_argument(
        "--fidelity",
        default=None,
        help="serve a multi-rung fidelity ladder (implies fleet mode); comma-separated "
        "rungs 'engine:model', bare 'engine', or 'artifact:<path>', highest fidelity first",
    )
    fleet_group = parser.add_argument_group("fleet mode (multi-process serving)")
    fleet_group.add_argument(
        "--replicas",
        type=int,
        default=0,
        help="serve from N supervised replica processes instead of in-process threads",
    )
    fleet_group.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="server-side deadline per request (fleet mode)",
    )
    fleet_group.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="admission bound; excess requests are shed with Overloaded (fleet mode)",
    )
    fleet_group.add_argument(
        "--chaos",
        default=None,
        help="fault-injection spec, e.g. 'kill:prob=1,warmup=50,max=1;slow:prob=0.05,ms=5'",
    )
    load_group = parser.add_argument_group("open-loop load (fixed arrival schedule)")
    load_group.add_argument(
        "--rate",
        type=float,
        default=None,
        help="offered request rate in req/s; with --duration-s switches to open loop",
    )
    load_group.add_argument(
        "--duration-s", type=float, default=None, help="open-loop schedule length in seconds"
    )
    load_group.add_argument(
        "--traffic",
        default="constant",
        choices=list(TRAFFIC_SHAPES),
        help="open-loop traffic shape",
    )
    scale_group = parser.add_argument_group("autoscaling (implies fleet mode)")
    scale_group.add_argument(
        "--autoscale",
        nargs="?",
        const="1",
        default=None,
        help="enable SLO-driven autoscaling; optional spec like 'min=1,max=4,p99=50' "
        "(default from $REPRO_AUTOSCALE)",
    )
    scale_group.add_argument(
        "--min-replicas", type=int, default=None, help="autoscale floor (overrides the spec)"
    )
    scale_group.add_argument(
        "--max-replicas", type=int, default=None, help="autoscale ceiling (overrides the spec)"
    )
    scale_group.add_argument(
        "--slo-p99-ms", type=float, default=None, help="latency SLO target (overrides the spec)"
    )
    args = parser.parse_args(argv)
    if (args.rate is None) != (args.duration_s is None):
        parser.error("--rate and --duration-s must be given together")
    spec = args.autoscale if args.autoscale is not None else os.environ.get(ENV_VAR)
    try:
        slo = parse_autoscale(spec)
    except ValueError as error:
        parser.error(str(error))
    if slo is None and (
        args.min_replicas is not None or args.max_replicas is not None or args.slo_p99_ms is not None
    ):
        slo = SLOConfig()  # the override flags alone opt in
    if slo is not None:
        overrides = {}
        if args.min_replicas is not None:
            overrides["min_replicas"] = args.min_replicas
        if args.max_replicas is not None:
            overrides["max_replicas"] = args.max_replicas
        if args.slo_p99_ms is not None:
            overrides["p99_target_ms"] = args.slo_p99_ms
        if overrides:
            try:
                slo = replace(slo, **overrides)
            except ValueError as error:
                parser.error(str(error))
    args.slo = slo
    engine_name = args.engine if args.engine is not None else "int8"
    if engine_name not in ENGINES:
        parser.error(f"unknown engine {engine_name!r}; available: {list(ENGINES)}")
    _validate_artifact_args(parser, args)
    if args.save_artifact is not None:
        return _do_save_artifact(parser, args, engine_name)
    timeout_s = args.timeout_ms / 1e3 if args.timeout_ms is not None else None

    if args.replicas > 0 or args.slo is not None or args.artifact is not None or args.fidelity is not None:
        return _run_fleet(args, engine_name, timeout_s)

    print(f"building {args.model} [{engine_name}] at {args.resolution}x{args.resolution} ...")
    engine = build_server(
        args.model,
        resolution=args.resolution,
        engine=engine_name,
        seed=args.seed,
        workers=args.workers,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
    )
    with engine:
        report = run_load(
            engine,
            n_requests=args.requests,
            concurrency=args.concurrency,
            seed=args.seed,
            timeout=timeout_s,
        )
        stats = engine.stats()
    print(report.summary())
    print(stats.summary())
    print(f"batch-size mix    : {stats.batch_size_counts}")
    if args.json is not None:
        payload = {
            "mode": "engine",
            "model": args.model,
            "backend": engine_name,
            "resolution": args.resolution,
            "workers": args.workers,
            "max_batch": args.max_batch,
            "max_wait_ms": args.max_wait_ms,
            "load": report.__dict__,
            "engine": {
                "submitted": stats.submitted,
                "completed": stats.completed,
                "failed": stats.failed,
                "batches": stats.batches,
                "mean_batch_size": stats.mean_batch_size,
                "batch_size_counts": stats.batch_size_counts,
            },
        }
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


def _validate_artifact_args(parser, args) -> None:
    """Fail fast on bad ``--artifact``/``--fidelity`` combos, before any fork.

    Every referenced artifact file is fully loaded here in the parent —
    existence, format version, payload digest, model fingerprint and compiler
    drift are all checked — so a bad file dies with a one-line parser error
    instead of a replica start-timeout after the fleet has forked.
    """
    if args.artifact is not None and args.fidelity is not None:
        parser.error(
            "--artifact and --fidelity are mutually exclusive; "
            "use an 'artifact:<path>' rung inside --fidelity instead"
        )
    if args.save_artifact is not None and (args.artifact is not None or args.fidelity is not None):
        parser.error("--save-artifact compiles and exits; drop --artifact/--fidelity")
    if args.fidelity is not None and args.engine is not None:
        parser.error("--fidelity rungs name their own engines; drop --engine")
    paths = [args.artifact] if args.artifact is not None else []
    if args.fidelity is not None:
        from .fidelity import parse_fidelity

        try:
            rungs = parse_fidelity(args.fidelity, default_model=args.model)
        except ValueError as error:
            parser.error(str(error))
        paths.extend(r.artifact for r in rungs if r.artifact)
    if not paths:
        return
    from ..runtime.artifact import ArtifactError, load_artifact
    from ..runtime.frontend import _MODE_ALIASES

    for path in paths:
        try:
            executor = load_artifact(str(path))
        except ArtifactError as error:
            parser.error(str(error))
        info = executor.artifact
        if args.artifact is not None and args.engine is not None:
            want = _MODE_ALIASES.get(str(args.engine).lower())
            if want != info.mode:
                parser.error(
                    f"--engine {args.engine!r} conflicts with artifact {path} "
                    f"(compiled for mode {info.mode!r}); drop --engine or match it"
                )
        print(f"validated artifact: {info.summary()}")


def _do_save_artifact(parser, args, engine_name: str) -> int:
    """``--save-artifact``: compile the requested engine, serialize, exit."""
    from .fleet import resolve_net

    print(f"compiling {args.model} [{engine_name}] at {args.resolution}x{args.resolution} ...")
    net, input_shape = resolve_net(
        model_name=args.model,
        resolution=args.resolution,
        engine=engine_name,
        calibration_batches=args.calibration_batches,
        seed=args.seed,
    )
    info = net.save(str(args.save_artifact), input_shape=input_shape)
    print(info.summary())
    print(f"wrote {args.save_artifact}")
    return 0


def _run_fleet(args, engine_name: str, timeout_s: float | None) -> int:
    import time

    from .autoscale import AutoscaleController
    from .fleet import Fleet, FleetConfig

    slo = args.slo
    replicas = args.replicas if args.replicas > 0 else (slo.min_replicas if slo else 1)
    if args.fidelity is not None:
        from .fidelity import parse_fidelity

        # normalize the spec so bare-engine rungs pick up --model, not the
        # builder's default (builder_kwargs stay plain strings for spawn)
        rungs = parse_fidelity(args.fidelity, default_model=args.model)
        normalized = ",".join(
            f"artifact:{r.artifact}" if r.artifact else r.name for r in rungs
        )
        builder = "repro.serve.fidelity:ladder_backend"
        builder_kwargs = {
            "rungs": normalized,
            "resolution": args.resolution,
            "seed": args.seed,
            "calibration_batches": args.calibration_batches,
        }
        what = f"fidelity ladder '{normalized}'"
    elif args.artifact is not None:
        builder = "repro.serve.fleet:model_backend"
        builder_kwargs = {"artifact": str(args.artifact)}
        what = f"artifact {args.artifact}"
    else:
        builder = "repro.serve.fleet:model_backend"
        builder_kwargs = {
            "model_name": args.model,
            "resolution": args.resolution,
            "engine": engine_name,
            "seed": args.seed,
            "calibration_batches": args.calibration_batches,
        }
        what = f"{args.model} [{engine_name}] at {args.resolution}x{args.resolution}"
    config = FleetConfig(
        replicas=replicas,
        max_replicas=slo.max_replicas if slo is not None else None,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        builder=builder,
        builder_kwargs=builder_kwargs,
        chaos=args.chaos,
        **({"default_deadline_ms": args.deadline_ms} if args.deadline_ms is not None else {}),
    )
    print(
        f"starting fleet: {replicas} replicas of {what}"
        + (f", autoscale [{slo.min_replicas}..{slo.max_replicas}] "
           f"p99 SLO {slo.p99_target_ms:.0f} ms" if slo is not None else "")
        + (f", chaos '{args.chaos}'" if args.chaos else "")
        + " ..."
    )
    controller = None
    with Fleet(config) as fleet:
        fleet.wait_ready(timeout=config.start_timeout, replicas=replicas)
        if slo is not None:
            controller = AutoscaleController(fleet, slo).start()
        with fleet.client(deadline_ms=args.deadline_ms) as client:
            load_kwargs = dict(seed=args.seed, timeout=timeout_s)
            if args.rate is not None:
                load_kwargs.update(
                    mode="open", rate=args.rate, duration_s=args.duration_s, traffic=args.traffic
                )
            report = run_load(
                client,
                n_requests=args.requests,
                concurrency=args.concurrency,
                **load_kwargs,
            )
        if controller is not None:
            # idle reconvergence: let the controller walk the fleet back to
            # the floor before the final snapshot (bounded wait)
            deadline = time.monotonic() + slo.down_cooldown * (slo.max_replicas + 1) + 10.0
            while time.monotonic() < deadline:
                if controller.target <= slo.min_replicas and controller.level == 0:
                    break
                time.sleep(0.1)
            controller.stop()
        fleet.close()  # drain before reading the final stats
        stats = fleet.stats()
    print(report.summary())
    print(stats.summary())
    if controller is not None:
        print(controller.describe())
    lost = stats.lost
    if lost:
        print(f"ERROR: {lost} requests lost (admitted but never answered)")
    if args.json is not None:
        payload = {
            "mode": "fleet",
            "model": args.model,
            "backend": engine_name,
            "artifact": str(args.artifact) if args.artifact is not None else None,
            "fidelity": builder_kwargs.get("rungs"),
            "resolution": args.resolution,
            "replicas": replicas,
            "max_batch": args.max_batch,
            "chaos": args.chaos,
            "load": report.__dict__,
            "fleet": stats.to_dict(),
            **({"autoscale": controller.state()} if controller is not None else {}),
        }
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 1 if lost else 0


if __name__ == "__main__":
    raise SystemExit(main())
