"""Elastic multi-fidelity serving: a ladder of engines for one task.

The paper's expand/contract machinery produces a *family* of models for the
same task — giant and tiny, float and int8.  A :class:`FidelityLadder` turns
that family into a serving feature: every replica pre-compiles (or pre-loads
from compiled artifacts, see :mod:`repro.runtime.artifact`) the whole ladder
once, and then switches its **active rung** instantly on a ``CFG | i``
record over its work pipe — no restart, no model load, no dropped work.

Rung 0 is the highest-fidelity engine; higher indices trade accuracy for
latency.  Under load the :class:`~repro.serve.autoscale.AutoscaleController`
walks the ladder *before* shedding: when the fleet is pinned at
``max_replicas`` and pressure stays high, it first drops fidelity rung by
rung, and only once the ladder floor is reached does it start tightening
deadlines and shedding (the PR-8 degradation ladder).  When pressure
subsides it climbs back to rung 0 before undoing anything else, so an idle
fleet always serves full fidelity.

Every rung must share the front door's IO contract (same input shape, same
class count) — clients never see the switch except as a latency/accuracy
change.  Shared-memory slots are sized by the **max** ``plan_io`` over the
rungs, so any rung can serve out of the same slot block.

The ladder measures, at build time, each rung's top-1 *agreement* with rung 0
on a seeded probe batch — a label-free accuracy proxy surfaced in
``FleetStats`` next to the per-rung latency percentiles (the ``fidelity``
experiment reports true accuracy against labeled synthetic data).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .fleet import ServingBackend, resolve_net

__all__ = [
    "RungSpec",
    "FidelityLadder",
    "LadderBackend",
    "ladder_backend",
    "parse_fidelity",
    "default_ladder",
]


@dataclass(frozen=True)
class RungSpec:
    """One rung of a fidelity ladder.

    Either a registry model compiled on the spot (``engine`` + ``model``) or
    a pre-compiled artifact file (``artifact``), in which case engine/model
    come from the artifact header.
    """

    name: str
    engine: str = "float"
    model: str = "mobilenetv2-tiny"
    artifact: str | None = None


def parse_fidelity(spec: str, default_model: str = "mobilenetv2-tiny") -> list[RungSpec]:
    """Parse a ``--fidelity`` ladder spec into rungs (highest fidelity first).

    Grammar: comma-separated rungs, each ``engine:model``, a bare ``engine``
    (the default model), or ``artifact:<path>`` for a pre-compiled artifact.

    >>> [r.name for r in parse_fidelity("float:mobilenetv2-50,float,int8")]
    ['float:mobilenetv2-50', 'float:mobilenetv2-tiny', 'int8:mobilenetv2-tiny']
    """
    rungs = []
    for part in str(spec).split(","):
        part = part.strip()
        if not part:
            continue
        kind, _, rest = part.partition(":")
        if kind == "artifact":
            if not rest:
                raise ValueError(f"fidelity rung {part!r}: artifact rung needs a path")
            rungs.append(RungSpec(name=f"artifact:{os.path.basename(rest)}", engine="artifact",
                                  model="", artifact=rest))
        else:
            model = rest or default_model
            rungs.append(RungSpec(name=f"{kind}:{model}", engine=kind, model=model))
    if not rungs:
        raise ValueError(f"fidelity spec {spec!r} has no rungs")
    return rungs


def default_ladder(model: str = "mobilenetv2-tiny") -> list[RungSpec]:
    """The stock two-rung ladder for one model: float (full) above int8 (fast)."""
    return [
        RungSpec(name=f"float:{model}", engine="float", model=model),
        RungSpec(name=f"int8:{model}", engine="int8", model=model),
    ]


class LadderBackend(ServingBackend):
    """A servable backend holding every rung of a ladder, one active at a time.

    ``forward`` dispatches to the active rung on every call, so the replica
    loop's one-time binding of ``backend.forward`` stays valid across
    switches.  ``set_rung`` is what the replica's ``CFG | i`` record
    handler calls; it is cheap (an index assignment) and takes effect on the
    next micro-batch.
    """

    def __init__(self, rungs: list[RungSpec], forwards: list, nets: list,
                 input_shape: tuple[int, ...], io, agreement: list, name: str):
        super().__init__(self._dispatch, input_shape, net=None, name=name)
        self.rungs = list(rungs)
        self._forwards = list(forwards)
        self.nets = list(nets)
        self._io = io
        self.agreement = list(agreement)
        self._active = 0

    def _dispatch(self, batch):
        return self._forwards[self._active](batch)

    @property
    def active_rung(self) -> int:
        return self._active

    @property
    def rung_names(self) -> list[str]:
        return [r.name for r in self.rungs]

    def set_rung(self, rung: int) -> int:
        """Switch the active rung (clamped to the ladder)."""
        self._active = max(0, min(int(rung), len(self.rungs) - 1))
        return self._active

    def io_plan(self):
        return self._io


class FidelityLadder:
    """Builds and owns the rung engines of one ladder (see module docstring).

    Parameters
    ----------
    rungs:
        Rung specs, highest fidelity first (a ``--fidelity`` string, a list
        of :class:`RungSpec`, or dicts with the same fields).
    resolution, num_classes, seed, calibration_batches,
    calibration_method:
        Forwarded to :func:`~repro.serve.fleet.resolve_net` for compiled
        rungs; artifact rungs take their configuration from their header.
    probe_batch:
        Seeded probe size for the rung-0 agreement measurement (0 disables).
    """

    def __init__(self, rungs, *, resolution: int = 16, num_classes: int = 16,
                 seed: int = 0, calibration_batches: int = 2,
                 calibration_method: str = "minmax", probe_batch: int = 64):
        if isinstance(rungs, str):
            rungs = parse_fidelity(rungs)
        self.rungs = [r if isinstance(r, RungSpec) else RungSpec(**dict(r)) for r in rungs]
        if not self.rungs:
            raise ValueError("a fidelity ladder needs at least one rung")
        self.resolution = int(resolution)
        self.num_classes = int(num_classes)
        self.seed = int(seed)
        self.calibration_batches = int(calibration_batches)
        self.calibration_method = calibration_method
        self.probe_batch = int(probe_batch)

    def _build_rung(self, spec: RungSpec):
        if spec.artifact is not None:
            from ..runtime import load_artifact

            net = load_artifact(spec.artifact)
            info = net.artifact
            shape = tuple(info.input_shape) if info.input_shape else (3, self.resolution, self.resolution)
            return net, shape
        return resolve_net(
            model_name=spec.model,
            resolution=self.resolution,
            num_classes=self.num_classes,
            engine=spec.engine,
            calibration_batches=self.calibration_batches,
            calibration_method=self.calibration_method,
            seed=self.seed,
        )

    def build(self) -> LadderBackend:
        """Compile/load every rung, merge the IO contract, probe agreement."""
        from ..runtime import plan_io

        nets, forwards, shapes = [], [], []
        for spec in self.rungs:
            net, shape = self._build_rung(spec)
            nets.append(net)
            forwards.append(net.numpy_forward)
            shapes.append(tuple(shape))
        if len(set(shapes)) != 1:
            raise ValueError(
                f"fidelity rungs disagree on the input contract: "
                f"{dict(zip([r.name for r in self.rungs], shapes))}"
            )
        input_shape = shapes[0]
        # Slot sizing is the max plan over the rungs: any rung must be able
        # to serve out of the same shared-memory slot block.
        plans = [plan_io(net, input_shape) for net in nets]
        out_shapes = {plan.output_shape for plan in plans}
        if len(out_shapes) != 1:
            raise ValueError(
                f"fidelity rungs disagree on the output contract: "
                f"{dict(zip([r.name for r in self.rungs], [p.output_shape for p in plans]))}"
            )
        peaks = [plan.peak_value_int8_bytes for plan in plans if plan.peak_value_int8_bytes]
        io = max(plans, key=lambda plan: plan.slot_elements)
        if peaks:
            from dataclasses import replace

            io = replace(io, peak_value_int8_bytes=max(peaks))
        agreement = self._probe_agreement(forwards, input_shape)
        name = "ladder[" + ">".join(r.name for r in self.rungs) + "]"
        return LadderBackend(self.rungs, forwards, nets, input_shape, io, agreement, name)

    def _probe_agreement(self, forwards, input_shape) -> list:
        """Top-1 agreement of every rung with rung 0 on a seeded probe batch."""
        if self.probe_batch <= 0 or len(forwards) < 2:
            return [1.0] * len(forwards)
        rng = np.random.default_rng(self.seed + 1)
        probe = rng.normal(0.2, 0.8, size=(self.probe_batch,) + tuple(input_shape)).astype(np.float32)
        reference = np.argmax(np.asarray(forwards[0](probe)), axis=1)
        agreement = [1.0]
        for forward in forwards[1:]:
            top1 = np.argmax(np.asarray(forward(probe)), axis=1)
            agreement.append(float(np.mean(top1 == reference)))
        return agreement


def ladder_backend(
    rungs="float:mobilenetv2-tiny,int8:mobilenetv2-tiny",
    resolution: int = 16,
    num_classes: int = 16,
    seed: int = 0,
    calibration_batches: int = 2,
    calibration_method: str = "minmax",
    probe_batch: int = 64,
) -> LadderBackend:
    """Fleet builder (``repro.serve.fidelity:ladder_backend``) for a ladder."""
    ladder = FidelityLadder(
        rungs,
        resolution=resolution,
        num_classes=num_classes,
        seed=seed,
        calibration_batches=calibration_batches,
        calibration_method=calibration_method,
        probe_batch=probe_batch,
    )
    return ladder.build()
