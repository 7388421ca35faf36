"""Experiment registry: each paper table/figure as a declarative job.

Every entry of :data:`EXPERIMENTS` is an :class:`Experiment` — a function
reproducing one table/figure of the paper at a given
:class:`ExperimentScale`, plus the list of **shared steps** it depends on.
Shared steps are the expensive artifacts several tables reuse (the
vanilla-trained baseline, the pretrained deep giant, the full NetBooster
pipeline); declaring them as dependencies lets the orchestrator
(:mod:`repro.experiments.orchestrator`) train each one exactly once, cache it
on disk, and run the independent experiments in parallel.

The functions here are *scale-parameterised* versions of the comparisons in
``benchmarks/``: they build the synthetic workload, train every method under
the same budget, and return paper-vs-measured rows.  They are intentionally
lighter than the benchmark suite (fewer baselines per experiment) so that a
single experiment finishes in minutes at the default scale and in seconds at
:meth:`ExperimentScale.tiny`, which is what the unit tests use.

For the full paper comparison (all baselines, all networks, noise-floor
assertions) run the benchmark suite instead::

    pytest benchmarks/ --benchmark-only

Examples
--------
Run a single experiment in-process (no cache, no worker pool):

>>> rows = run_experiment("cost", ExperimentScale.tiny())
>>> [row.setting for row in rows]
['mobilenetv2-tiny', 'mcunet', 'mobilenetv2-50', 'mobilenetv2-100']
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

from ..baselines import train_vanilla, train_with_netaug
from ..core import ExpansionConfig, NetBooster, NetBoosterConfig
from ..data import SyntheticImageNet, SyntheticVOC, downstream_dataset
from ..eval import count_complexity
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
    "history_from_meta",
    "history_to_meta",
    "rebuild_giant",
    "rebuild_model",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Workload size shared by every registered experiment.

    The default constructor is a CPU-friendly scale comparable to the
    benchmark suite's ``small`` profile; :meth:`tiny` is a smoke-test scale
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
        """Training hyper-parameters for the finetuning / PLT phase."""
        return ExperimentConfig(
            epochs=self.finetune_epochs,
            batch_size=min(self.batch_size, 32),
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


def history_from_meta(meta: dict) -> TrainingHistory:
    """Rebuild a :class:`~repro.train.TrainingHistory` from cached metadata."""
    return TrainingHistory(**{k: list(v) for k, v in meta.items()})


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


def _step_pretrain(model_name: str, scale: ExperimentScale, ctx: "StepContext") -> Artifact:
    """Plain pretraining on the corpus (no finetuning budget, no val curve)."""
    corpus = scale.corpus()
    seed_everything(scale.seed + 1)
    model = create_model(model_name, num_classes=scale.num_classes)
    history = train_vanilla(model, corpus.train, None, scale.pretrain_config())
    return Artifact(meta={"history": history_to_meta(history)}, states={"model": dict(model.state_dict())})


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


_STEP_KINDS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "pretrain": (_step_pretrain, ()),
    "vanilla": (_step_vanilla, ()),
    "giant": (_step_giant, ()),
    "netbooster": (_step_netbooster, ("giant/{model}",)),
}


def shared_step(name: str) -> SharedStep:
    """Resolve a shared-step name like ``"vanilla/mobilenetv2-tiny"``.

    Parameters
    ----------
    name:
        ``"<kind>/<model>"`` where ``kind`` is one of ``pretrain``,
        ``vanilla``, ``giant``, ``netbooster``.

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
def rebuild_model(model_name: str, scale: ExperimentScale, artifact: Artifact, state: str = "model"):
    """Instantiate ``model_name`` and load the named state dict from ``artifact``."""
    seed_everything(scale.seed + 1)
    model = create_model(model_name, num_classes=scale.num_classes)
    model.load_state_dict(artifact.states[state], strict=True)
    return model


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

        Used by callers outside the registry (the benchmark suite's teacher
        model, non-default expansion giants) to share the orchestrator cache.

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
def _table1(scale: ExperimentScale, ctx: StepContext) -> list[ResultRow]:
    """Table I (condensed): Vanilla vs NetAug vs NetBooster on the large corpus."""
    corpus = scale.corpus()
    network = "mobilenetv2-tiny"
    rows: list[ResultRow] = []

    vanilla = ctx.dep(f"vanilla/{network}")
    rows.append(ResultRow("table1", "Vanilla", 51.2, vanilla.meta["history"]["val_accuracy"][-1]))

    seed_everything(scale.seed + 1)
    exported, _ = train_with_netaug(
        create_model(network, num_classes=scale.num_classes),
        corpus.train,
        None,
        scale.pretrain_config(scale.finetune_epochs),
    )
    rows.append(ResultRow("table1", "NetAug", 53.0, evaluate(exported, corpus.val)))

    booster = ctx.dep(f"netbooster/{network}")
    rows.append(ResultRow("table1", "NetBooster", 53.7, booster.meta["final_accuracy"]))
    return rows


def _table2(scale: ExperimentScale, ctx: StepContext, dataset_name: str = "cifar100") -> list[ResultRow]:
    """Table II (one dataset): downstream transfer, Vanilla vs NetBooster."""
    train_set, val_set = downstream_dataset(dataset_name, resolution=scale.resolution)
    network = "mobilenetv2-tiny"
    paper = {"cifar100": (74.07, 75.46), "cars": (76.18, 80.93), "flowers102": (90.01, 90.53),
             "food101": (75.43, 75.96), "pets": (78.30, 78.90)}[dataset_name]

    vanilla = rebuild_model(network, scale, ctx.dep(f"pretrain/{network}"))
    seed_everything(scale.seed + 1)
    history = finetune(
        vanilla, train_set, val_set, scale.finetune_config(), new_num_classes=train_set.num_classes
    )
    rows = [ResultRow("table2", f"{dataset_name} / Vanilla", paper[0], history.final_val_accuracy)]

    giant, records, booster = rebuild_giant(network, scale, ctx.dep(f"giant/{network}"))
    seed_everything(scale.seed + 1)
    booster.plt_finetune(giant, train_set, val_set, new_num_classes=train_set.num_classes)
    contracted = booster.contract(giant, records)
    rows.append(ResultRow("table2", f"{dataset_name} / NetBooster", paper[1], evaluate(contracted, val_set)))
    return rows


def _table3(scale: ExperimentScale, ctx: StepContext) -> list[ResultRow]:
    """Table III: synthetic-VOC detection AP50, Vanilla vs NetBooster backbone."""
    seed_everything(scale.seed)
    voc = SyntheticVOC(
        num_classes=4,
        num_train=max(8 * scale.samples_per_class // 10, 16),
        num_val=max(4 * scale.val_samples_per_class // 10, 8),
        resolution=max(scale.resolution, 32),
        object_size=12,
    )
    corpus = scale.corpus()
    network = "mobilenetv2-tiny"
    rows: list[ResultRow] = []
    for label, paper_value, boosted in (("Vanilla", 60.8, False), ("NetBooster", 62.6, True)):
        if boosted:
            giant, records, booster = rebuild_giant(network, scale, ctx.dep(f"giant/{network}"))
            seed_everything(scale.seed + 2)
            booster.plt_finetune(giant, corpus.train, None)
            backbone = booster.contract(giant, records)
        else:
            backbone = rebuild_model(network, scale, ctx.dep(f"vanilla/{network}"))
        seed_everything(scale.seed + 2)
        detector = TinyDetector(backbone, num_classes=voc.num_classes, image_size=voc.resolution)
        trainer = DetectionTrainer(detector, scale.finetune_config().replace(batch_size=16, lr=0.05))
        trainer.fit(voc.train)
        rows.append(ResultRow("table3", label, paper_value, evaluate_ap50(detector, voc.val), unit="AP50"))
    return rows


def _ablation(
    scale: ExperimentScale,
    ctx: StepContext,
    experiment: str,
    settings: dict[str, tuple[float, ExpansionConfig | None]],
) -> list[ResultRow]:
    """Shared driver for the expansion ablations (Tables IV-VI).

    Settings whose :class:`~repro.core.ExpansionConfig` is ``None`` reuse the
    shared default-expansion NetBooster artifact; the rest run the full
    pipeline with their modified config, each memoised individually so a
    mid-table interruption never re-trains completed settings.

    Note that the shared artifact's RNG stream differs from the inline runs
    (the split pipeline reseeds per phase), so the default-config row is not
    seed-identical to its siblings; at the CPU scale the difference sits well
    inside the single-seed noise floor the benchmark assertions use.
    """
    rows = []
    for setting, (paper_value, expansion) in settings.items():
        if expansion is None:
            measured = ctx.dep("netbooster/mobilenetv2-tiny").meta["final_accuracy"]
        else:
            def compute(expansion=expansion) -> Artifact:
                corpus = scale.corpus()
                seed_everything(scale.seed + 1)
                booster = scale.booster(expansion)
                result = booster.run(
                    create_model("mobilenetv2-tiny", num_classes=scale.num_classes),
                    corpus.train,
                    corpus.val,
                )
                return Artifact(meta={"final_accuracy": float(result.final_accuracy)})

            artifact = ctx.cached_call(
                "ablation/mobilenetv2-tiny", compute, extra={"expansion": repr(expansion)}
            )
            measured = artifact.meta["final_accuracy"]
        rows.append(ResultRow(experiment, setting, paper_value, measured))
    return rows


def _table4(scale: ExperimentScale, ctx: StepContext) -> list[ResultRow]:
    """Table IV: inserted-block-type ablation (final accuracy after contraction)."""
    return _ablation(scale, ctx, "table4", {
        "inverted_residual": (53.70, None),  # the paper default == shared artifact
        "basic": (53.41, ExpansionConfig(block_type="basic")),
        "bottleneck": (53.62, ExpansionConfig(block_type="bottleneck")),
    })


def _table5(scale: ExperimentScale, ctx: StepContext) -> list[ResultRow]:
    """Table V: expansion-placement ablation."""
    return _ablation(scale, ctx, "table5", {
        "first": (51.50, ExpansionConfig(placement="first")),
        "middle": (52.62, ExpansionConfig(placement="middle")),
        "last": (52.47, ExpansionConfig(placement="last")),
        "uniform": (53.70, None),
    })


def _table6(scale: ExperimentScale, ctx: StepContext) -> list[ResultRow]:
    """Table VI: expansion-ratio ablation."""
    return _ablation(scale, ctx, "table6", {
        "ratio=2": (52.94, ExpansionConfig(expansion_ratio=2)),
        "ratio=4": (53.52, ExpansionConfig(expansion_ratio=4)),
        "ratio=6": (53.70, None),
        "ratio=8": (52.56, ExpansionConfig(expansion_ratio=8)),
    })


def _fig1a(scale: ExperimentScale, ctx: StepContext) -> list[ResultRow]:
    """Fig. 1(a): vanilla vs DropBlock-regularised vs NetBooster training."""
    from ..baselines import insert_dropblock

    corpus = scale.corpus()
    rows = []

    vanilla = ctx.dep("vanilla/mobilenetv2-tiny")
    rows.append(ResultRow("fig1a", "Vanilla", 51.2, vanilla.meta["history"]["val_accuracy"][-1]))

    seed_everything(scale.seed + 1)
    regularised = insert_dropblock(
        create_model("mobilenetv2-tiny", num_classes=scale.num_classes), drop_prob=0.15
    )
    history = train_vanilla(
        regularised, corpus.train, corpus.val, scale.pretrain_config(scale.finetune_epochs)
    )
    rows.append(ResultRow("fig1a", "DropBlock", 50.9, history.final_val_accuracy))

    booster = ctx.dep("netbooster/mobilenetv2-tiny")
    rows.append(ResultRow("fig1a", "NetBooster", 53.7, booster.meta["final_accuracy"]))
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


def _cost(scale: ExperimentScale, ctx: StepContext) -> list[ResultRow]:
    """Table I cost columns: MFLOPs of the model zoo (analytic, no training)."""
    paper = {"mobilenetv2-tiny": 23.5, "mcunet": 81.8, "mobilenetv2-50": 50.2, "mobilenetv2-100": 154.1}
    input_shape = (3, scale.resolution, scale.resolution)
    rows = []
    for network, paper_value in paper.items():
        seed_everything(scale.seed)
        report = count_complexity(create_model(network, num_classes=scale.num_classes), input_shape)
        rows.append(ResultRow("cost", network, paper_value, report.mflops, unit="MFLOPs"))
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


_TINY = "mobilenetv2-tiny"

EXPERIMENTS: dict[str, Experiment] = {
    exp.name: exp
    for exp in (
        Experiment("table1", _table1, (f"vanilla/{_TINY}", f"netbooster/{_TINY}"),
                   "Table I — accuracy of TNN training methods on the large corpus"),
        Experiment("table2", _table2, (f"pretrain/{_TINY}", f"giant/{_TINY}"),
                   "Table II — downstream classification transfer"),
        Experiment("table3", _table3, (f"vanilla/{_TINY}", f"giant/{_TINY}"),
                   "Table III — detection transfer (synthetic VOC, AP50)"),
        Experiment("table4", _table4, (f"netbooster/{_TINY}",),
                   "Table IV — inserted block type ablation"),
        Experiment("table5", _table5, (f"netbooster/{_TINY}",),
                   "Table V — expansion placement ablation"),
        Experiment("table6", _table6, (f"netbooster/{_TINY}",),
                   "Table VI — expansion ratio ablation"),
        Experiment("fig1a", _fig1a, (f"vanilla/{_TINY}", f"netbooster/{_TINY}"),
                   "Fig. 1(a) — under-fitting: regularisation vs NetBooster"),
        Experiment("cost", _cost, (),
                   "Table I cost columns — model zoo complexity (analytic)"),
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
    ['cost', 'dp', 'fidelity', 'fig1a', 'table1', 'table2', 'table3', 'table4', 'table5', 'table6']
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
