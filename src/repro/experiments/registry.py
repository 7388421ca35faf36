"""Experiment registry: each paper table/figure as a declarative job.

Every entry of :data:`EXPERIMENTS` is an :class:`Experiment` — a function
reproducing one table/figure of the paper at a given
:class:`ExperimentScale`, plus the list of **shared steps** it depends on.
Shared steps are the expensive artifacts several tables reuse (the
vanilla-trained baseline, the pretrained deep giant, the full NetBooster
pipeline, the KD teacher); declaring them as dependencies lets the orchestrator
(:mod:`repro.experiments.orchestrator`) train each one exactly once, cache it
on disk, and run the independent experiments in parallel.

Each function builds the synthetic workload, trains every method of its
table under the same budget and returns paper-vs-measured rows.  The
benchmark suite (``benchmarks/bench_table*.py``, ``bench_fig*.py``) runs these
same functions and applies its noise-floor assertions to the rows, so each
table has exactly one implementation.  :meth:`ExperimentScale.tiny` runs
every experiment in seconds, which is what the unit tests use.

Examples
--------
Run a single experiment in-process (no cache, no worker pool):

>>> rows = run_experiment("cost", ExperimentScale.tiny())
>>> [row.setting for row in rows if row.unit == "MFLOPs"]
['mobilenetv2-tiny', 'mcunet', 'mobilenetv2-50', 'mobilenetv2-100']
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Callable

from ..baselines import (
    KDLoss,
    insert_dropblock,
    make_teacher,
    train_vanilla,
    train_with_netaug,
    train_with_rco_kd,
    train_with_rocket_launching,
    train_with_tf_kd,
)
from ..core import (
    ExpansionConfig,
    NetBooster,
    NetBoosterConfig,
    PLTSchedule,
    contract_network,
    expand_network,
)
from ..data import SyntheticImageNet, SyntheticVOC, downstream_dataset
from ..eval import count_complexity, same_structure
from ..models import TinyDetector, create_model
from ..train import (
    DetectionTrainer,
    DistributedTrainer,
    TrainingHistory,
    evaluate,
    evaluate_ap50,
    finetune,
)
from ..utils import ExperimentConfig, seed_everything
from .cache import CACHE_VERSION, Artifact, ResultCache, config_digest, source_fingerprint

__all__ = [
    "ExperimentScale",
    "ResultRow",
    "Experiment",
    "SharedStep",
    "StepContext",
    "EXPERIMENTS",
    "available_experiments",
    "shared_step",
    "run_experiment",
    "history_to_meta",
    "rebuild_giant",
    "rebuild_model",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Workload size shared by every registered experiment.

    The default constructor is a CPU-friendly scale (the benchmark suite's
    ``small`` profile); :meth:`tiny` is a smoke-test scale
    used by the unit tests and :meth:`full` is closer to the paper's
    under-fitting regime (and several times slower).
    """

    num_classes: int = 16
    samples_per_class: int = 120
    val_samples_per_class: int = 40
    resolution: int = 20
    intra_class_std: float = 1.0
    pretrain_epochs: int = 12
    finetune_epochs: int = 6
    batch_size: int = 64
    lr: float = 0.1
    finetune_lr: float = 0.03
    seed: int = 0

    @classmethod
    def tiny(cls) -> "ExperimentScale":
        """A seconds-scale configuration for smoke tests and demos."""
        return cls(
            num_classes=4,
            samples_per_class=12,
            val_samples_per_class=6,
            resolution=16,
            intra_class_std=0.8,
            pretrain_epochs=2,
            finetune_epochs=1,
            batch_size=16,
            lr=0.05,
            finetune_lr=0.02,
        )

    @classmethod
    def full(cls) -> "ExperimentScale":
        """The large profile (the benchmark suite's ``REPRO_BENCH_SCALE=full``)."""
        return cls(
            num_classes=20,
            samples_per_class=200,
            val_samples_per_class=50,
            resolution=24,
            pretrain_epochs=24,
            finetune_epochs=10,
        )

    @classmethod
    def named(cls, name: str) -> "ExperimentScale":
        """Look up a scale profile by name (``tiny`` | ``small`` | ``full``).

        ``small`` (and the alias ``default``) is the default constructor.
        """
        profiles = {"tiny": cls.tiny, "small": cls, "default": cls, "full": cls.full}
        if name not in profiles:
            raise KeyError(f"unknown scale {name!r}; available: {sorted(profiles)}")
        return profiles[name]()

    def corpus(self) -> SyntheticImageNet:
        """The shared large-scale pretraining corpus (stand-in for ImageNet)."""
        seed_everything(self.seed)
        return SyntheticImageNet(
            num_classes=self.num_classes,
            samples_per_class=self.samples_per_class,
            val_samples_per_class=self.val_samples_per_class,
            resolution=self.resolution,
            intra_class_std=self.intra_class_std,
        )

    def pretrain_config(self, extra_epochs: int = 0) -> ExperimentConfig:
        """Training hyper-parameters for the large-corpus phase."""
        return ExperimentConfig(
            epochs=self.pretrain_epochs + extra_epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            seed=self.seed,
        )

    def finetune_config(self) -> ExperimentConfig:
        """Training hyper-parameters for the finetuning / PLT phase (batch 32
        at every scale)."""
        return ExperimentConfig(
            epochs=self.finetune_epochs,
            batch_size=32,
            lr=self.finetune_lr,
            seed=self.seed,
        )

    def booster(self, expansion: ExpansionConfig | None = None) -> NetBooster:
        """A :class:`~repro.core.NetBooster` configured with this recipe."""
        return NetBooster(
            NetBoosterConfig(
                expansion=expansion or ExpansionConfig(),
                pretrain=self.pretrain_config(),
                finetune=self.finetune_config(),
                plt_decay_fraction=0.3,
            )
        )


@dataclass
class ResultRow:
    """One row of a paper-vs-measured comparison.

    Attributes
    ----------
    experiment:
        Registry name of the experiment that produced the row.
    setting:
        Method / ablation label within the experiment.
    paper_value:
        The value reported in the paper, or ``None`` when the paper has no
        matching number.
    measured_value:
        The value measured on the synthetic substrate.
    unit:
        Unit of both values (``"top-1 %"``, ``"AP50"``, ``"MFLOPs"``).
    """

    experiment: str
    setting: str
    paper_value: float | None
    measured_value: float
    unit: str = "top-1 %"

    def __str__(self) -> str:
        paper = f"{self.paper_value:.1f}" if self.paper_value is not None else "   -"
        return (
            f"{self.experiment:<10s} {self.setting:<28s} "
            f"paper={paper:>6s}  measured={self.measured_value:6.2f}  [{self.unit}]"
        )

    def to_dict(self) -> dict:
        """JSON-serialisable form (used by the orchestrator reports)."""
        return asdict(self)


# --------------------------------------------------------------------------- #
# history (de)serialisation for cached artifacts
# --------------------------------------------------------------------------- #
def history_to_meta(history: TrainingHistory) -> dict:
    return {
        "train_loss": [float(v) for v in history.train_loss],
        "train_accuracy": [float(v) for v in history.train_accuracy],
        "val_accuracy": [float(v) for v in history.val_accuracy],
        "learning_rate": [float(v) for v in history.learning_rate],
    }


# --------------------------------------------------------------------------- #
# shared steps: expensive artifacts reused across experiments
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SharedStep:
    """A cacheable unit of work shared by several experiments.

    Attributes
    ----------
    name:
        Step identifier, e.g. ``"giant/mobilenetv2-tiny"``.
    fn:
        ``fn(scale, ctx) -> Artifact``; ``ctx`` resolves this step's own
        dependencies.
    deps:
        Names of shared steps that must be available before ``fn`` runs.
    source:
        Callables hashed into the step's cache key (code-relevant config).
    """

    name: str
    fn: Callable[["ExperimentScale", "StepContext"], Artifact]
    deps: tuple[str, ...] = ()
    source: tuple[Callable, ...] = ()


def _step_vanilla(model_name: str, scale: ExperimentScale, ctx: "StepContext") -> Artifact:
    """The vanilla baseline: full epoch budget (pretrain + finetune) with val."""
    corpus = scale.corpus()
    seed_everything(scale.seed + 1)
    model = create_model(model_name, num_classes=scale.num_classes)
    history = train_vanilla(
        model, corpus.train, corpus.val, scale.pretrain_config(scale.finetune_epochs)
    )
    return Artifact(meta={"history": history_to_meta(history)}, states={"model": dict(model.state_dict())})


def _step_giant(model_name: str, scale: ExperimentScale, ctx: "StepContext") -> Artifact:
    """Network Expansion + pretraining of the deep giant (default expansion)."""
    corpus = scale.corpus()
    seed_everything(scale.seed + 2)
    booster = scale.booster()
    giant, _records = booster.build_giant(create_model(model_name, num_classes=scale.num_classes))
    history = booster.pretrain_giant(giant, corpus.train, corpus.val)
    return Artifact(meta={"history": history_to_meta(history)}, states={"giant": dict(giant.state_dict())})


def _step_netbooster(model_name: str, scale: ExperimentScale, ctx: "StepContext") -> Artifact:
    """PLT finetune + contraction of the shared pretrained giant on the corpus."""
    giant_artifact = ctx.dep(f"giant/{model_name}")
    corpus = scale.corpus()
    giant, records, booster = rebuild_giant(model_name, scale, giant_artifact)
    seed_everything(scale.seed + 3)
    history, _schedule = booster.plt_finetune(giant, corpus.train, corpus.val)
    giant_accuracy = float(evaluate(giant, corpus.val))
    contracted = booster.contract(giant, records)
    final_accuracy = float(evaluate(contracted, corpus.val))
    return Artifact(
        meta={
            "final_accuracy": final_accuracy,
            "giant_accuracy": giant_accuracy,
            "history": history_to_meta(history),
        },
        states={"model": dict(contracted.state_dict())},
    )


def _teacher_model(model_name: str, scale: ExperimentScale):
    """The KD teacher: ``model_name``'s MobileNetV2 family at 2.5x its width."""
    seed_everything(scale.seed + 1)
    student = create_model(model_name, num_classes=scale.num_classes)
    return make_teacher(student, scale.num_classes, width_factor=2.5)


def _step_teacher(model_name: str, scale: ExperimentScale, ctx: "StepContext") -> Artifact:
    """The KD baselines' teacher, pretrained on the corpus."""
    corpus = scale.corpus()
    teacher = _teacher_model(model_name, scale)
    train_vanilla(teacher, corpus.train, None, scale.pretrain_config())
    return Artifact(states={"model": dict(teacher.state_dict())})


_STEP_KINDS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "vanilla": (_step_vanilla, ()),
    "giant": (_step_giant, ()),
    "netbooster": (_step_netbooster, ("giant/{model}",)),
    "teacher": (_step_teacher, ()),
}


def shared_step(name: str) -> SharedStep:
    """Resolve a shared-step name like ``"vanilla/mobilenetv2-tiny"``.

    Parameters
    ----------
    name:
        ``"<kind>/<model>"`` where ``kind`` is one of ``vanilla``,
        ``giant``, ``netbooster``, ``teacher``.

    Returns
    -------
    SharedStep

    Raises
    ------
    KeyError
        If ``kind`` is not a known step kind.
    """
    kind, _, model = name.partition("/")
    if kind not in _STEP_KINDS or not model:
        raise KeyError(f"unknown shared step {name!r}; kinds: {sorted(_STEP_KINDS)}")
    fn, dep_templates = _STEP_KINDS[kind]

    def run(scale: ExperimentScale, ctx: "StepContext") -> Artifact:
        return fn(model, scale, ctx)

    deps = tuple(template.format(model=model) for template in dep_templates)
    return SharedStep(name=name, fn=run, deps=deps, source=(fn,))


# --------------------------------------------------------------------------- #
# artifact → model reconstruction
# --------------------------------------------------------------------------- #
def rebuild_model(model_name: str, scale: ExperimentScale, artifact: Artifact):
    """Instantiate ``model_name`` and load the model state from ``artifact``."""
    seed_everything(scale.seed + 1)
    model = create_model(model_name, num_classes=scale.num_classes)
    model.load_state_dict(artifact.states["model"], strict=True)
    return model


def _rebuild_teacher(model_name: str, scale: ExperimentScale, ctx: "StepContext"):
    """The pretrained KD teacher of ``model_name`` (shared ``teacher/`` step)."""
    teacher = _teacher_model(model_name, scale)
    teacher.load_state_dict(ctx.dep(f"teacher/{model_name}").states["model"], strict=True)
    return teacher


def rebuild_giant(
    model_name: str,
    scale: ExperimentScale,
    artifact: Artifact,
    expansion: ExpansionConfig | None = None,
):
    """Re-expand ``model_name`` deterministically and load the giant's weights.

    Expansion is structural (it depends only on the architecture and the
    :class:`~repro.core.ExpansionConfig`), so rebuilding with the same seed
    yields the same giant topology and expansion records as the producing
    step; the trained weights are then restored from the artifact.

    Returns
    -------
    (giant, records, booster)
    """
    seed_everything(scale.seed + 2)
    booster = scale.booster(expansion)
    giant, records = booster.build_giant(create_model(model_name, num_classes=scale.num_classes))
    giant.load_state_dict(artifact.states["giant"], strict=True)
    return giant, records, booster


# --------------------------------------------------------------------------- #
# dependency resolution
# --------------------------------------------------------------------------- #
def _pipeline_fingerprint() -> str:
    """Source fingerprint of the training pipeline under every cache key.

    A step/experiment's own source is hashed per job, but the bulk of the
    behaviour lives in the layers it calls into.  Hashing these modules (and
    the registry itself, so shared helpers count too) keeps cached artifacts
    honest: editing the trainer, a baseline, the expansion/contraction core,
    the data generators or a model definition invalidates every entry instead
    of silently replaying pre-edit results.  The invalidation is deliberately
    coarse — any edit to a fingerprinted module flushes all keys; deeper
    changes (e.g. the autograd substrate) still warrant a ``CACHE_VERSION``
    bump.
    """
    import sys

    from .. import baselines, data, eval as eval_pkg, models, nn, optim
    from ..core import contraction, expansion, netbooster, plt
    from ..optim import allreduce
    from ..runtime import training as runtime_training
    from ..train import detection, distributed, trainer, transfer

    modules = (
        sys.modules[__name__],  # the registry itself: experiments, steps, helpers
        netbooster, expansion, contraction, plt, trainer, transfer, detection,
        distributed, allreduce,  # data-parallel trainer + collectives
        baselines.vanilla, baselines.netaug, baselines.kd, baselines.regularization,
        data.datasets, data.generator, data.detection,
        data.dataloader, data.transforms,  # batching + RNG scheme
        models.mobilenetv2, models.mcunet, models.blocks, models.detector,
        eval_pkg.complexity, nn.layers, nn.functional,
        optim.sgd, optim.schedulers, optim.flat,
        runtime_training,  # the Trainer's train step
    )
    return source_fingerprint(*modules)


_PIPELINE_FINGERPRINT: str | None = None


def pipeline_fingerprint() -> str:
    """Cached-per-process :func:`_pipeline_fingerprint` (it hashes ~15 files)."""
    global _PIPELINE_FINGERPRINT
    if _PIPELINE_FINGERPRINT is None:
        _PIPELINE_FINGERPRINT = _pipeline_fingerprint()
    return _PIPELINE_FINGERPRINT


class StepContext:
    """Resolves shared-step dependencies, transparently using the cache.

    Experiments receive a context instead of recomputing shared work: calling
    :meth:`dep` returns the step's :class:`~repro.experiments.cache.Artifact`
    from (in order) an in-process memo, the on-disk cache, or a fresh
    computation (which is stored back when a cache is attached).

    Parameters
    ----------
    scale:
        Workload profile; part of every cache key.
    cache:
        Optional :class:`~repro.experiments.cache.ResultCache`.  Without one
        the context still works — it just recomputes on every new process.
    """

    def __init__(self, scale: ExperimentScale, cache: ResultCache | None = None):
        self.scale = scale
        self.cache = cache
        self._memo: dict[str, Artifact] = {}

    # -- keys ----------------------------------------------------------- #
    def step_key(self, name: str) -> str:
        """Content-addressed cache key of a shared step (deps included)."""
        step = shared_step(name)
        dep_keys = {dep: self.step_key(dep) for dep in step.deps}
        return config_digest(
            {
                "kind": "step",
                "name": name,
                "scale": asdict(self.scale),
                "code": source_fingerprint(*step.source),
                "pipeline": pipeline_fingerprint(),
                "deps": dep_keys,
                "version": CACHE_VERSION,
            }
        )

    def experiment_key(self, name: str) -> str:
        """Content-addressed cache key of a full experiment's result rows."""
        experiment = EXPERIMENTS[name]
        dep_keys = {dep: self.step_key(dep) for dep in experiment.deps}
        return config_digest(
            {
                "kind": "experiment",
                "name": name,
                "scale": asdict(self.scale),
                "code": source_fingerprint(experiment.fn),
                "pipeline": pipeline_fingerprint(),
                "deps": dep_keys,
                "version": CACHE_VERSION,
            }
        )

    # -- resolution ----------------------------------------------------- #
    def dep(self, name: str) -> Artifact:
        """Return the artifact of shared step ``name``, computing if needed."""
        if name in self._memo:
            return self._memo[name]
        step = shared_step(name)
        if self.cache is not None:
            artifact, _hit = self.cache.memoize(self.step_key(name), lambda: step.fn(self.scale, self))
        else:
            artifact = step.fn(self.scale, self)
        self._memo[name] = artifact
        return artifact

    def cached_call(
        self, name: str, compute: Callable[[], Artifact], extra: dict | None = None
    ) -> Artifact:
        """Memoise an ad-hoc computation under the same keying discipline.

        Used for per-setting work that no other experiment shares (the
        ablation tables' non-default expansions, the fidelity sweep).

        Parameters
        ----------
        name:
            Stable identifier for the computation.
        compute:
            Zero-argument callable returning an :class:`Artifact`.
        extra:
            Additional JSON-serialisable key material (e.g. a config repr).
        """
        key = config_digest(
            {
                "kind": "adhoc",
                "name": name,
                "scale": asdict(self.scale),
                "code": source_fingerprint(compute),
                "pipeline": pipeline_fingerprint(),
                "extra": extra or {},
                "version": CACHE_VERSION,
            }
        )
        memo_key = f"adhoc/{key}"
        if memo_key in self._memo:
            return self._memo[memo_key]
        if self.cache is not None:
            artifact, _hit = self.cache.memoize(key, compute)
        else:
            artifact = compute()
        self._memo[memo_key] = artifact
        return artifact


# --------------------------------------------------------------------------- #
# experiment implementations
# --------------------------------------------------------------------------- #
_TINY = "mobilenetv2-tiny"
_MNV2_35 = "mobilenetv2-35"

# Paper Table I accuracies.  MobileNetV2-Tiny runs every method; the other
# networks run Vanilla / NetAug / NetBooster, and only when
# REPRO_BENCH_FULL_NETWORKS=1 because MobileNetV2-50/100 are expensive on CPU.
_TABLE1_PAPER = {
    _TINY: {
        "Vanilla": 51.2, "RocketLaunch": 51.8, "tf-KD": 51.9,
        "RCO-KD": 52.6, "NetAug": 53.0, "NetBooster": 53.7,
    },
    "mcunet": {"Vanilla": 61.4, "NetAug": 62.5, "NetBooster": 62.8},
    "mobilenetv2-50": {"Vanilla": 61.4, "NetAug": 62.5, "NetBooster": 62.7},
    "mobilenetv2-100": {"Vanilla": 69.6, "NetAug": 70.5, "NetBooster": 70.9},
}
_TABLE1_NETWORKS = tuple(_TABLE1_PAPER) if os.environ.get("REPRO_BENCH_FULL_NETWORKS") == "1" else (_TINY,)


def _vanilla_accuracy(ctx: StepContext, network: str) -> float:
    return ctx.dep(f"vanilla/{network}").meta["history"]["val_accuracy"][-1]


def _table1(scale: ExperimentScale, ctx: StepContext) -> list[ResultRow]:
    """Table I: TNN training methods on the large corpus, one row per
    ``network / method``; every method gets NetBooster's total epoch budget."""
    corpus = scale.corpus()
    config = scale.pretrain_config(scale.finetune_epochs)
    rows: list[ResultRow] = []
    for network in _TABLE1_NETWORKS:
        for method, paper_value in _TABLE1_PAPER[network].items():
            if method == "Vanilla":
                measured = _vanilla_accuracy(ctx, network)
            elif method == "NetBooster":
                measured = ctx.dep(f"netbooster/{network}").meta["final_accuracy"]
            else:
                seed_everything(scale.seed + 1)
                model = create_model(network, num_classes=scale.num_classes)
                if method == "NetAug":
                    exported, _ = train_with_netaug(model, corpus.train, None, config)
                    measured = evaluate(exported, corpus.val)
                elif method == "tf-KD":
                    measured = train_with_tf_kd(model, corpus.train, corpus.val, config).final_val_accuracy
                elif method == "RCO-KD":
                    measured = train_with_rco_kd(
                        model, corpus.train, corpus.val, config, num_anchors=2,
                        teacher=_rebuild_teacher(network, scale, ctx),
                        teacher_config=scale.pretrain_config().replace(epochs=1),
                    ).final_val_accuracy
                else:  # RocketLaunch
                    measured = train_with_rocket_launching(
                        model, corpus.train, corpus.val, config
                    ).final_val_accuracy
            rows.append(ResultRow("table1", f"{network} / {method}", paper_value, measured))
    return rows


def _transfer_vanilla(network, scale, ctx, train_set, val_set, config, loss=None) -> float:
    """Finetune the vanilla-trained ``network`` on a downstream dataset."""
    model = rebuild_model(network, scale, ctx.dep(f"vanilla/{network}"))
    seed_everything(scale.seed + 1)
    history = finetune(
        model, train_set, val_set, config, new_num_classes=train_set.num_classes, loss_computer=loss
    )
    return history.final_val_accuracy


def _transfer_netbooster(network, scale, ctx, train_set, val_set, loss=None) -> float:
    """PLT-finetune the pretrained giant of ``network``, contract, evaluate."""
    giant, records, booster = rebuild_giant(network, scale, ctx.dep(f"giant/{network}"))
    seed_everything(scale.seed + 1)
    booster.plt_finetune(
        giant, train_set, val_set, new_num_classes=train_set.num_classes, loss_computer=loss
    )
    return evaluate(booster.contract(giant, records), val_set)


_TABLE2_PAPER = {
    "cifar100": (74.07, 75.46), "cars": (76.18, 80.93), "flowers102": (90.01, 90.53),
    "food101": (75.43, 75.96), "pets": (78.30, 78.90),
}


def _table2(scale: ExperimentScale, ctx: StepContext) -> list[ResultRow]:
    """Table II: downstream transfer of MobileNetV2-Tiny, Vanilla vs NetBooster.

    KD composition (the paper's MobileNetV2-35 rows, no paper value here) is
    checked on cifar100 only to bound runtime: the teacher is finetuned on
    the dataset once and distils into both students.
    """
    rows: list[ResultRow] = []
    for dataset_name, (paper_vanilla, paper_booster) in _TABLE2_PAPER.items():
        train_set, val_set = downstream_dataset(dataset_name, resolution=scale.resolution)
        variants = [("", None, paper_vanilla, paper_booster)]
        if dataset_name == "cifar100":
            teacher = _rebuild_teacher(_TINY, scale, ctx)
            seed_everything(scale.seed + 1)
            finetune(teacher, train_set, None, scale.finetune_config(), new_num_classes=train_set.num_classes)
            variants.append(("+KD", KDLoss(teacher, temperature=4.0, alpha=0.5), None, None))
        for suffix, loss, paper_v, paper_b in variants:
            vanilla = _transfer_vanilla(_TINY, scale, ctx, train_set, val_set, scale.finetune_config(), loss)
            booster = _transfer_netbooster(_TINY, scale, ctx, train_set, val_set, loss)
            rows.append(ResultRow("table2", f"{dataset_name} / Vanilla{suffix}", paper_v, vanilla))
            rows.append(ResultRow("table2", f"{dataset_name} / NetBooster{suffix}", paper_b, booster))
    return rows


def _table3(scale: ExperimentScale, ctx: StepContext) -> list[ResultRow]:
    """Table III: synthetic-VOC detection AP50 with a MobileNetV2-35 backbone.

    Vanilla and NetAug backbones are corpus-trained, then detection-trained
    for 8 epochs.  The NetBooster backbone is the pretrained giant: PLT runs
    over the first third of detection training, and the contracted backbone
    is evaluated.
    """
    seed_everything(scale.seed)
    voc = SyntheticVOC(num_classes=5, num_train=72, num_val=32, resolution=32, object_size=12)
    corpus = scale.corpus()
    config = scale.finetune_config().replace(epochs=8, batch_size=16, lr=0.05)

    def detector_ap50(backbone, records=None) -> float:
        """Detection-train ``backbone`` and return its val AP50.  A giant
        (``records`` given) runs PLT over the first third of training and is
        evaluated contracted."""
        callbacks = []
        if records is not None:
            steps_per_epoch = max(len(voc.train) // config.batch_size, 1)
            schedule = PLTSchedule(backbone, total_steps=steps_per_epoch * max(config.epochs // 3, 1))
            callbacks.append(lambda _step: schedule.step())
        seed_everything(scale.seed + 2)
        detector = TinyDetector(backbone, num_classes=voc.num_classes, image_size=voc.resolution)
        DetectionTrainer(detector, config, iteration_callbacks=callbacks).fit(voc.train)
        if records is not None:
            schedule.finalize()
            detector.backbone = contract_network(backbone, records)
        return evaluate_ap50(detector, voc.val)

    vanilla = rebuild_model(_MNV2_35, scale, ctx.dep(f"vanilla/{_MNV2_35}"))
    rows = [ResultRow("table3", "Vanilla", 60.8, detector_ap50(vanilla), unit="AP50")]

    seed_everything(scale.seed + 1)
    netaug, _ = train_with_netaug(
        create_model(_MNV2_35, num_classes=scale.num_classes), corpus.train, None, scale.pretrain_config()
    )
    rows.append(ResultRow("table3", "NetAug", 62.4, detector_ap50(netaug), unit="AP50"))

    giant, records, _booster = rebuild_giant(_MNV2_35, scale, ctx.dep(f"giant/{_MNV2_35}"))
    rows.append(ResultRow("table3", "NetBooster", 62.6, detector_ap50(giant, records), unit="AP50"))
    return rows


def _ablation_setting(scale: ExperimentScale, ctx: StepContext, expansion: ExpansionConfig | None) -> dict:
    """Final / expanded accuracy and contracted FLOPs of one expansion config.

    ``None`` (the paper default) reuses the shared ``giant/`` and
    ``netbooster/`` artifacts; any other config runs the full pipeline,
    memoised per config so a mid-table interruption never re-trains
    completed settings.  The shared artifacts' RNG stream differs from the
    inline runs (the split pipeline reseeds per phase), so the default row is
    not seed-identical to its siblings.
    """
    input_shape = (3, scale.resolution, scale.resolution)
    if expansion is None:
        booster = ctx.dep(f"netbooster/{_TINY}")
        contracted = rebuild_model(_TINY, scale, booster)
        return {
            "final": booster.meta["final_accuracy"],
            "expanded": max(ctx.dep(f"giant/{_TINY}").meta["history"]["val_accuracy"]),
            "contracted_flops": count_complexity(contracted, input_shape).flops,
        }

    def compute(expansion=expansion) -> Artifact:
        corpus = scale.corpus()
        seed_everything(scale.seed + 1)
        result = scale.booster(expansion).run(
            create_model(_TINY, num_classes=scale.num_classes), corpus.train, corpus.val
        )
        return Artifact(meta={
            "final": float(result.final_accuracy),
            "expanded": max(result.pretrain_history.val_accuracy),
            "contracted_flops": count_complexity(result.model, input_shape).flops,
        })

    return ctx.cached_call(f"ablation/{_TINY}", compute, extra={"expansion": repr(expansion)}).meta


def _ablation(
    scale: ExperimentScale,
    ctx: StepContext,
    experiment: str,
    settings: dict[str, tuple[float, float | None, ExpansionConfig | None]],
    extras: tuple[str, ...],
) -> list[ResultRow]:
    """Shared driver for the expansion ablations (Tables IV-VI).

    ``settings`` maps each setting to ``(paper final, paper expanded,
    expansion config)``.  Every setting gets a final-accuracy row, plus a
    ``"<setting> / <extra>"`` row for each of ``extras``: ``"expanded"`` (the
    giant's best pretraining val accuracy), ``"giant MFLOPs"`` and
    ``"contracted FLOPs"``.  With the last one the Vanilla model's FLOPs are
    reported too, since Eq. 4 says contraction restores exactly those.
    """
    input_shape = (3, scale.resolution, scale.resolution)
    rows = [ResultRow(experiment, "Vanilla", 51.20, _vanilla_accuracy(ctx, _TINY))]
    if "contracted FLOPs" in extras:
        seed_everything(scale.seed + 1)
        flops = count_complexity(create_model(_TINY, num_classes=scale.num_classes), input_shape).flops
        rows.append(ResultRow(experiment, "Vanilla / FLOPs", None, flops, unit="FLOPs"))
    for setting, (paper_final, paper_expanded, expansion) in settings.items():
        measured = _ablation_setting(scale, ctx, expansion)
        rows.append(ResultRow(experiment, setting, paper_final, measured["final"]))
        if "expanded" in extras:
            rows.append(ResultRow(experiment, f"{setting} / expanded", paper_expanded, measured["expanded"]))
        if "giant MFLOPs" in extras:
            seed_everything(scale.seed + 1)
            giant, _records = expand_network(
                create_model(_TINY, num_classes=scale.num_classes), expansion or ExpansionConfig()
            )
            mflops = count_complexity(giant, input_shape).mflops
            rows.append(ResultRow(experiment, f"{setting} / giant MFLOPs", None, mflops, unit="MFLOPs"))
        if "contracted FLOPs" in extras:
            rows.append(ResultRow(
                experiment, f"{setting} / contracted FLOPs", None, measured["contracted_flops"], unit="FLOPs"
            ))
    return rows


def _table4(scale: ExperimentScale, ctx: StepContext) -> list[ResultRow]:
    """Table IV: inserted-block-type ablation (final and expanded accuracy)."""
    return _ablation(scale, ctx, "table4", {
        "inverted_residual": (53.70, 54.90, None),  # the paper default == shared artifact
        "basic": (53.41, 54.52, ExpansionConfig(block_type="basic")),
        "bottleneck": (53.62, 55.23, ExpansionConfig(block_type="bottleneck")),
    }, ("expanded",))


def _table5(scale: ExperimentScale, ctx: StepContext) -> list[ResultRow]:
    """Table V: expansion-placement ablation (giant FLOPs, expanded, final)."""
    return _ablation(scale, ctx, "table5", {
        "first": (51.50, 51.46, ExpansionConfig(placement="first")),
        "middle": (52.62, 52.98, ExpansionConfig(placement="middle")),
        "last": (52.47, 53.90, ExpansionConfig(placement="last")),
        "uniform": (53.70, 54.90, None),
    }, ("giant MFLOPs", "expanded"))


def _table6(scale: ExperimentScale, ctx: StepContext) -> list[ResultRow]:
    """Table VI: expansion-ratio ablation (final accuracy, contracted FLOPs)."""
    return _ablation(scale, ctx, "table6", {
        "ratio=2": (52.94, None, ExpansionConfig(expansion_ratio=2)),
        "ratio=4": (53.52, None, ExpansionConfig(expansion_ratio=4)),
        "ratio=6": (53.70, None, None),
        "ratio=8": (52.56, None, ExpansionConfig(expansion_ratio=8)),
    }, ("contracted FLOPs",))


def _fig1a(scale: ExperimentScale, ctx: StepContext) -> list[ResultRow]:
    """Fig. 1(a): vanilla vs DropBlock-regularised vs NetBooster training."""
    corpus = scale.corpus()
    rows = [ResultRow("fig1a", "Vanilla", 51.2, _vanilla_accuracy(ctx, _TINY))]

    seed_everything(scale.seed + 1)
    regularised = insert_dropblock(create_model(_TINY, num_classes=scale.num_classes), drop_prob=0.15)
    history = train_vanilla(
        regularised, corpus.train, corpus.val, scale.pretrain_config(scale.finetune_epochs)
    )
    rows.append(ResultRow("fig1a", "DropBlock", 50.9, history.final_val_accuracy))

    booster = ctx.dep(f"netbooster/{_TINY}")
    rows.append(ResultRow("fig1a", "NetBooster", 53.7, booster.meta["final_accuracy"]))
    return rows


def _fig1b(scale: ExperimentScale, ctx: StepContext) -> list[ResultRow]:
    """Fig. 1(b): a 4x longer finetune cannot rescue a vanilla-pretrained TNN.

    The vanilla-trained MobileNetV2-35 is finetuned on cifar100 for 1x and 4x
    the finetuning epochs, against NetBooster's transfer of the same network.
    """
    train_set, val_set = downstream_dataset("cifar100", resolution=scale.resolution)
    config = scale.finetune_config()
    rows = [
        ResultRow("fig1b", f"vanilla {multiplier}x", paper_value, _transfer_vanilla(
            _MNV2_35, scale, ctx, train_set, val_set, config.replace(epochs=config.epochs * multiplier)
        ))
        for multiplier, paper_value in ((1, 76.08), (4, 76.3))
    ]
    booster = _transfer_netbooster(_MNV2_35, scale, ctx, train_set, val_set)
    rows.append(ResultRow("fig1b", "NetBooster", 76.66, booster))
    return rows


def _dp(scale: ExperimentScale, ctx: StepContext) -> list[ResultRow]:
    """Data-parallel sweep: topology x workers as an accuracy axis.

    Trains MobileNetV2-Tiny on the corpus under a short budget three ways —
    single worker (the :class:`~repro.train.Trainer`-equivalent reference),
    2-worker synchronous allreduce, and 2-worker DACFL-style gossip — and
    reports final validation accuracy for each.  The paper column is empty
    (the source paper reports no data-parallel numbers); the interesting
    comparison is measured-vs-measured: allreduce matches the single-worker
    trajectory up to update granularity, gossip trades a little consensus
    lag for decentralisation.
    """
    corpus = scale.corpus()
    config = ExperimentConfig(
        epochs=max(scale.pretrain_epochs // 4, 1),
        batch_size=scale.batch_size,
        lr=scale.lr,
        seed=scale.seed,
    )

    def model_fn():
        return create_model(_TINY, num_classes=scale.num_classes)

    rows = []
    for setting, workers, topology in (
        ("workers=1 (reference)", 1, "allreduce"),
        ("allreduce x 2 workers", 2, "allreduce"),
        ("gossip x 2 workers", 2, "gossip"),
    ):
        trainer = DistributedTrainer(model_fn, config, workers=workers, topology=topology)
        trainer.fit(corpus.train)
        rows.append(ResultRow("dp", setting, None, evaluate(trainer.model, corpus.val, config.batch_size)))
    return rows


_COST_PAPER = {  # Table I complexity columns at the paper's resolutions
    _TINY: (23.5, 0.75),
    "mcunet": (81.8, 0.74),
    "mobilenetv2-50": (50.2, 1.95),
    "mobilenetv2-100": (154.1, 3.47),
}


def _cost(scale: ExperimentScale, ctx: StepContext) -> list[ResultRow]:
    """Table I cost columns: MFLOPs and parameters of the model zoo (analytic).

    A third row per network is 1 when contracting a giant expanded at ratio 2
    and at ratio 6 gives back the original's structure (the remark below
    Eq. 4), else 0.
    """
    input_shape = (3, scale.resolution, scale.resolution)
    rows = []
    for network, (paper_mflops, paper_params) in _COST_PAPER.items():
        seed_everything(scale.seed)
        original = create_model(network, num_classes=scale.num_classes)
        report = count_complexity(original, input_shape)
        matches = True
        for ratio in (2, 6):
            giant, records = expand_network(
                create_model(network, num_classes=scale.num_classes), ExpansionConfig(expansion_ratio=ratio)
            )
            PLTSchedule(giant, total_steps=1).finalize()
            matches &= same_structure(original, contract_network(giant, records), input_shape)
        rows += [
            ResultRow("cost", network, paper_mflops, report.mflops, unit="MFLOPs"),
            ResultRow("cost", f"{network} / params", paper_params, report.params / 1e6, unit="M params"),
            ResultRow("cost", f"{network} / contracted == original", None, float(matches), unit="1 = yes"),
        ]
    return rows


def _fidelity(scale: ExperimentScale, ctx: StepContext) -> list[ResultRow]:
    """Fidelity ladder sweep: accuracy vs p99 latency for each serving rung.

    Serves the shared vanilla-trained tiny model through both rungs of the
    default serving ladder — the compiled float engine and the int8
    quantized engine calibrated on the training corpus — and reports two
    rows per rung: top-1 accuracy on the corpus validation set and the p99
    single-image latency.  Each rung is first materialised as a saved
    artifact (the exact bytes :mod:`repro.serve.fidelity` would serve from)
    and measured through :func:`~repro.runtime.load_artifact`, so the sweep
    exercises the serialized path, not an in-memory shortcut.  The artifact
    fingerprints are folded into the cache key via ``cached_call(extra=...)``:
    anything that changes the compiled bits — weights, quantization grids,
    the artifact format — invalidates the cached sweep.

    The paper column is empty (the source paper reports no serving ladder);
    the interesting comparison is measured-vs-measured across rungs.
    """
    import os
    import shutil
    import tempfile
    import time

    import numpy as np

    from ..compress import calibrate, quantize_model
    from ..runtime import compile_model, load_artifact

    corpus = scale.corpus()
    trained = ctx.dep(f"vanilla/{_TINY}")
    input_shape = (3, scale.resolution, scale.resolution)
    tmpdir = tempfile.mkdtemp(prefix="repro-fidelity-")
    try:
        rungs: list[tuple[str, str, str]] = []  # (name, path, fingerprint)
        for rung_name in ("float", "int8"):
            model = rebuild_model(_TINY, scale, trained)
            model.eval()
            if rung_name == "int8":
                quantize_model(model)
                images = corpus.train.images
                calibrate(
                    model,
                    [images[start : start + 16] for start in range(0, min(64, len(images)), 16)],
                )
            net = compile_model(model, mode="int8" if rung_name == "int8" else "infer")
            path = os.path.join(tmpdir, f"{rung_name}.rpa")
            info = net.save(path, input_shape=input_shape)
            rungs.append((rung_name, path, info.fingerprint))

        def sweep() -> Artifact:
            val = corpus.val
            results = []
            for rung_name, path, _fingerprint in rungs:
                net = load_artifact(path)
                correct = 0
                for start in range(0, len(val.images), 64):
                    batch = np.ascontiguousarray(val.images[start : start + 64])
                    predicted = net.numpy_forward(batch).argmax(axis=1)
                    correct += int((predicted == val.labels[start : start + 64]).sum())
                single = np.ascontiguousarray(val.images[:1])
                net.numpy_forward(single)  # warm the buffers before timing
                samples = []
                for _ in range(30):
                    start_time = time.perf_counter()
                    net.numpy_forward(single)
                    samples.append((time.perf_counter() - start_time) * 1e3)
                results.append(
                    {
                        "rung": rung_name,
                        "accuracy": 100.0 * correct / len(val.images),
                        "p99_ms": float(np.percentile(samples, 99)),
                    }
                )
            return Artifact(meta={"rungs": results})

        artifact = ctx.cached_call(
            f"fidelity/{_TINY}",
            sweep,
            extra={"artifacts": {name: fingerprint for name, _path, fingerprint in rungs}},
        )
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    rows: list[ResultRow] = []
    for entry in artifact.meta["rungs"]:
        rows.append(ResultRow("fidelity", f"{entry['rung']} / top-1", None, entry["accuracy"]))
        rows.append(
            ResultRow("fidelity", f"{entry['rung']} / latency", None, entry["p99_ms"], unit="ms p99")
        )
    return rows


# --------------------------------------------------------------------------- #
# the registry
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Experiment:
    """A registered experiment: implementation plus declared dependencies.

    Attributes
    ----------
    name:
        Registry key (also the CLI name).
    fn:
        ``fn(scale, ctx) -> list[ResultRow]``.
    deps:
        Shared-step names this experiment reads through ``ctx.dep``.
    title:
        Human-readable description used in reports.
    """

    name: str
    fn: Callable[[ExperimentScale, StepContext], list[ResultRow]]
    deps: tuple[str, ...] = ()
    title: str = ""


_ABLATION_DEPS = (f"vanilla/{_TINY}", f"giant/{_TINY}", f"netbooster/{_TINY}")

EXPERIMENTS: dict[str, Experiment] = {
    exp.name: exp
    for exp in (
        Experiment("table1", _table1,
                   (*(f"{kind}/{net}" for net in _TABLE1_NETWORKS for kind in ("vanilla", "netbooster")),
                    f"teacher/{_TINY}"),
                   "Table I — accuracy of TNN training methods on the large corpus"),
        Experiment("table2", _table2, (f"vanilla/{_TINY}", f"giant/{_TINY}", f"teacher/{_TINY}"),
                   "Table II — downstream classification transfer"),
        Experiment("table3", _table3, (f"vanilla/{_MNV2_35}", f"giant/{_MNV2_35}"),
                   "Table III — detection transfer (synthetic VOC, AP50)"),
        Experiment("table4", _table4, _ABLATION_DEPS,
                   "Table IV — inserted block type ablation"),
        Experiment("table5", _table5, _ABLATION_DEPS,
                   "Table V — expansion placement ablation"),
        Experiment("table6", _table6, _ABLATION_DEPS,
                   "Table VI — expansion ratio ablation"),
        Experiment("fig1a", _fig1a, (f"vanilla/{_TINY}", f"netbooster/{_TINY}"),
                   "Fig. 1(a) — under-fitting: regularisation vs NetBooster"),
        Experiment("fig1b", _fig1b, (f"vanilla/{_MNV2_35}", f"giant/{_MNV2_35}"),
                   "Fig. 1(b) — finetuning length vs NetBooster transfer"),
        Experiment("cost", _cost, (),
                   "Table I cost columns — model zoo complexity and contraction invariance"),
        Experiment("dp", _dp, (),
                   "Data-parallel training — topology x workers accuracy sweep"),
        Experiment("fidelity", _fidelity, (f"vanilla/{_TINY}",),
                   "Serving fidelity ladder — accuracy vs p99 latency per rung"),
    )
}


def available_experiments() -> list[str]:
    """Names accepted by :func:`run_experiment` (sorted).

    Examples
    --------
    >>> available_experiments()
    ['cost', 'dp', 'fidelity', 'fig1a', 'fig1b', 'table1', 'table2', 'table3', 'table4', 'table5', 'table6']
    """
    return sorted(EXPERIMENTS)


def run_experiment(
    name: str,
    scale: ExperimentScale | None = None,
    ctx: StepContext | None = None,
) -> list[ResultRow]:
    """Run one registered experiment and return its paper-vs-measured rows.

    Parameters
    ----------
    name:
        One of :func:`available_experiments`.
    scale:
        Workload profile; defaults to :class:`ExperimentScale` ().
    ctx:
        Optional :class:`StepContext`.  Pass a cache-backed context to reuse
        shared artifacts across runs; omitted, dependencies are computed
        in-process (the pre-orchestrator behaviour).

    Raises
    ------
    KeyError
        If ``name`` is not registered.
    """
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; available: {available_experiments()}")
    if scale is None:
        scale = ctx.scale if ctx is not None else ExperimentScale()
    if ctx is None:
        ctx = StepContext(scale)
    elif ctx.scale != scale:
        raise ValueError("run_experiment: scale does not match ctx.scale")
    return EXPERIMENTS[name].fn(scale, ctx)
