"""Parallel experiment orchestrator: run the registry as a DAG of cached jobs.

The orchestrator turns a list of experiment names into a job graph — the
experiments themselves plus the transitive closure of their shared steps
(:func:`~repro.experiments.registry.shared_step`) — then executes it with a
multiprocessing worker pool.  Every job is keyed content-addressed in the
on-disk :class:`~repro.experiments.cache.ResultCache`, so

* shared sub-artifacts (e.g. the pretrained deep giant reused by four
  tables) are trained exactly once per cache lifetime;
* a re-run of ``run-all`` is a pure cache replay and completes in seconds;
* an interrupted run resumes from its manifest file, skipping finished jobs.

Command line::

    python -m repro.experiments run-all --workers 4 --scale tiny --out results/

Programmatic::

    from repro.experiments.orchestrator import Orchestrator
    report = Orchestrator(scale, cache_dir=".repro_cache", workers=4,
                          out_dir="results").run(["table1", "table4"])

Examples
--------
The plan for one experiment includes its transitive shared steps:

>>> sorted(build_plan(["table4"]))  # doctest: +NORMALIZE_WHITESPACE
['experiment/table4', 'step/giant/mobilenetv2-tiny', 'step/netbooster/mobilenetv2-tiny',
 'step/vanilla/mobilenetv2-tiny']
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from .cache import Artifact, ResultCache
from .registry import (
    EXPERIMENTS,
    ExperimentScale,
    ResultRow,
    StepContext,
    available_experiments,
    shared_step,
)

__all__ = ["JobSpec", "JobOutcome", "RunReport", "Orchestrator", "build_plan"]

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class JobSpec:
    """One node of the execution DAG.

    Attributes
    ----------
    job_id:
        ``"step/<name>"`` or ``"experiment/<name>"``.
    kind:
        ``"step"`` | ``"experiment"``.
    name:
        Shared-step or experiment name.
    deps:
        ``job_id`` values that must complete first.
    """

    job_id: str
    kind: str
    name: str
    deps: tuple[str, ...] = ()


@dataclass
class JobOutcome:
    """Result of executing (or skipping) one job."""

    job_id: str
    key: str
    status: str = "done"  # "done" | "failed"
    cached: bool = False
    seconds: float = 0.0
    rows: list[dict] = field(default_factory=list)
    error: str = ""
    evicted: int = 0  # damaged cache entries the job deleted on load


@dataclass
class RunReport:
    """Everything :meth:`Orchestrator.run` produces."""

    scale: str
    workers: int
    outcomes: dict[str, JobOutcome]
    seconds: float
    evicted: int = 0  # damaged cache entries deleted (and recomputed) this run

    @property
    def cached_jobs(self) -> int:
        return sum(1 for outcome in self.outcomes.values() if outcome.cached)

    @property
    def failed_jobs(self) -> list[str]:
        return sorted(j for j, o in self.outcomes.items() if o.status == "failed")

    def rows_for(self, experiment: str) -> list[ResultRow]:
        """The result rows of one experiment as :class:`ResultRow` objects."""
        outcome = self.outcomes[f"experiment/{experiment}"]
        return [ResultRow(**row) for row in outcome.rows]


def build_plan(experiments: Iterable[str]) -> dict[str, JobSpec]:
    """Expand experiment names into the full DAG (steps + experiments).

    Parameters
    ----------
    experiments:
        Registry names; unknown names raise ``KeyError``.

    Returns
    -------
    dict[str, JobSpec]
        Keyed by ``job_id``; dependencies refer to other ``job_id`` values.
    """
    plan: dict[str, JobSpec] = {}

    def add_step(name: str) -> str:
        job_id = f"step/{name}"
        if job_id not in plan:
            step = shared_step(name)
            dep_ids = tuple(add_step(dep) for dep in step.deps)
            plan[job_id] = JobSpec(job_id=job_id, kind="step", name=name, deps=dep_ids)
        return job_id

    for name in experiments:
        if name not in EXPERIMENTS:
            raise KeyError(f"unknown experiment {name!r}; available: {available_experiments()}")
        dep_ids = tuple(add_step(dep) for dep in EXPERIMENTS[name].deps)
        job_id = f"experiment/{name}"
        plan[job_id] = JobSpec(job_id=job_id, kind="experiment", name=name, deps=dep_ids)
    return plan


def _execute_job(payload: dict) -> dict:
    """Worker entry point: run one job against the shared on-disk cache.

    ``payload`` is a plain dict so it pickles under any start method:
    ``{"kind", "name", "scale": {...}, "cache_root": str}``.  Dependencies
    are guaranteed to be in the cache already (the parent only submits a job
    once its deps completed), so :meth:`StepContext.dep` hits disk, not CPU.
    """
    scale = ExperimentScale(**payload["scale"])
    cache = ResultCache(payload["cache_root"])
    ctx = StepContext(scale, cache)
    started = time.perf_counter()
    if payload["kind"] == "step":
        step = shared_step(payload["name"])
        key = ctx.step_key(payload["name"])
        _artifact, hit = cache.memoize(key, lambda: step.fn(scale, ctx))
        rows: list[dict] = []
    else:
        key = ctx.experiment_key(payload["name"])

        def compute() -> Artifact:
            result = EXPERIMENTS[payload["name"]].fn(scale, ctx)
            return Artifact(meta={"rows": [row.to_dict() for row in result]})

        artifact, hit = cache.memoize(key, compute)
        rows = artifact.meta["rows"]
    return {
        "key": key,
        "rows": rows,
        "cached": hit,
        "seconds": time.perf_counter() - started,
        "evicted": cache.evicted,
    }


class Orchestrator:
    """Schedule and execute experiment DAGs over a process pool.

    Parameters
    ----------
    scale:
        Workload profile shared by every job, or a profile name
        (``"tiny"`` | ``"small"`` | ``"full"``).
    cache_dir:
        Root of the content-addressed result cache.  Defaults to
        ``$REPRO_CACHE_DIR`` or ``.repro_cache``.
    workers:
        Worker processes.  ``1`` executes inline (no pool), which is also
        the fallback when a pool cannot be created.
    out_dir:
        Where the manifest and per-experiment reports are written.  ``None``
        disables report/manifest emission (and manifest-based resume).
    progress:
        Callable receiving one human-readable line per job event.
    """

    def __init__(
        self,
        scale: ExperimentScale | str = "small",
        cache_dir: str | os.PathLike | None = None,
        workers: int = 1,
        out_dir: str | os.PathLike | None = None,
        progress: Callable[[str], None] | None = None,
    ):
        self.scale = ExperimentScale.named(scale) if isinstance(scale, str) else scale
        self.cache = ResultCache(cache_dir)
        self.workers = max(int(workers), 1)
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.progress = progress or (lambda line: None)

    # ------------------------------------------------------------------ #
    # manifest
    # ------------------------------------------------------------------ #
    def _manifest_path(self) -> Path | None:
        return self.out_dir / MANIFEST_NAME if self.out_dir is not None else None

    def _load_manifest(self) -> dict:
        path = self._manifest_path()
        if path is None or not path.is_file():
            return {}
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return {}

    def _write_manifest(self, outcomes: dict[str, JobOutcome], started: float) -> None:
        path = self._manifest_path()
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        manifest = {
            "version": 1,
            "scale": asdict(self.scale),
            "workers": self.workers,
            "elapsed_seconds": round(time.perf_counter() - started, 3),
            "jobs": {
                job_id: {
                    "key": outcome.key,
                    "status": outcome.status,
                    "cached": outcome.cached,
                    "seconds": round(outcome.seconds, 3),
                }
                for job_id, outcome in outcomes.items()
            },
        }
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1)
        os.replace(tmp, path)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, experiments: Iterable[str] | None = None, resume: bool = True) -> RunReport:
        """Execute the DAG for ``experiments`` (default: the whole registry).

        Parameters
        ----------
        experiments:
            Experiment names; ``None`` runs every registered experiment.
        resume:
            Reuse the manifest in ``out_dir`` (and the result cache) to skip
            jobs that already completed with identical keys.  ``False``
            re-dispatches every job, but workers still read the
            content-addressed cache — use a fresh cache directory for a
            truly cold run.

        Returns
        -------
        RunReport
        """
        names = list(experiments) if experiments is not None else available_experiments()
        plan = build_plan(names)
        ctx = StepContext(self.scale, self.cache)
        keys = {
            job_id: (ctx.step_key(spec.name) if spec.kind == "step" else ctx.experiment_key(spec.name))
            for job_id, spec in plan.items()
        }
        manifest_jobs = self._load_manifest().get("jobs", {}) if resume else {}

        started = time.perf_counter()
        outcomes: dict[str, JobOutcome] = {}
        pending = dict(plan)

        # Resolve completed jobs up front — they finish instantly.  A job is
        # complete when its content-addressed entry loads from the cache (a
        # damaged entry is evicted by the load, counted, and its job runs
        # again); the manifest from an interrupted run tells us which of
        # those hits are a *resume* (the keys must still match — a code or
        # scale change since the previous run produces different keys and
        # forces a re-run).
        evicted_before = self.cache.evicted
        resumed = 0
        for job_id, spec in list(pending.items()):
            key = keys[job_id]
            artifact = self.cache.load(key) if resume else None
            if artifact is None:
                continue
            previous = manifest_jobs.get(job_id, {})
            if previous.get("status") == "done" and previous.get("key") == key:
                resumed += 1
            rows = artifact.meta["rows"] if spec.kind == "experiment" else []
            outcomes[job_id] = JobOutcome(job_id=job_id, key=key, cached=True, rows=rows)
            del pending[job_id]
            self.progress(f"[cached] {job_id}")
        if resumed:
            self.progress(f"[resume] {resumed} job(s) already complete per {MANIFEST_NAME}")

        self._run_pending(pending, keys, outcomes, started)

        report = RunReport(
            scale=str(self.scale),
            workers=self.workers,
            outcomes=outcomes,
            seconds=time.perf_counter() - started,
            evicted=self.cache.evicted - evicted_before + sum(o.evicted for o in outcomes.values()),
        )
        self._write_manifest(outcomes, started)
        self._write_reports(report, names)
        return report

    def _run_pending(
        self,
        pending: dict[str, JobSpec],
        keys: dict[str, str],
        outcomes: dict[str, JobOutcome],
        started: float,
    ) -> None:
        """Dependency-ordered execution of the not-yet-cached jobs."""

        def ready_jobs() -> list[JobSpec]:
            return [
                spec
                for spec in pending.values()
                if all(dep not in pending for dep in spec.deps)
                and all(outcomes.get(dep, JobOutcome("", "")).status == "done" for dep in spec.deps)
            ]

        def failed_by_dep(spec: JobSpec) -> str | None:
            for dep in spec.deps:
                if dep in outcomes and outcomes[dep].status == "failed":
                    return dep
            return None

        def payload(spec: JobSpec) -> dict:
            return {
                "kind": spec.kind,
                "name": spec.name,
                "scale": asdict(self.scale),
                "cache_root": str(self.cache.root),
            }

        def record(spec: JobSpec, result: dict | None, error: str = "") -> None:
            if result is None:
                outcomes[spec.job_id] = JobOutcome(
                    job_id=spec.job_id, key=keys[spec.job_id], status="failed", error=error
                )
                self.progress(f"[failed] {spec.job_id}: {error}")
            else:
                outcomes[spec.job_id] = JobOutcome(
                    job_id=spec.job_id,
                    key=result["key"],
                    cached=result.get("cached", False),
                    seconds=result["seconds"],
                    rows=result["rows"],
                    evicted=result["evicted"],
                )
                self.progress(f"[done]   {spec.job_id} ({result['seconds']:.1f}s)")
            del pending[spec.job_id]
            try:
                self._write_manifest(outcomes, started)
            except OSError as exc:
                # Losing an incremental manifest update (disk full, perms) must
                # not abort the run — the final write after run() retries.
                self.progress(f"[warn]   manifest update failed: {exc}")

        def drop_blocked() -> None:
            # Jobs whose dependency failed can never run; fail them too.
            changed = True
            while changed:
                changed = False
                for spec in list(pending.values()):
                    dep = failed_by_dep(spec)
                    if dep is not None:
                        record(spec, None, error=f"dependency failed: {dep}")
                        changed = True

        if self.workers == 1:
            while pending:
                batch = ready_jobs()
                if not batch:
                    drop_blocked()
                    if pending and not ready_jobs():
                        raise RuntimeError(f"orchestrator deadlock; stuck jobs: {sorted(pending)}")
                    continue
                for spec in batch:
                    self.progress(f"[run]    {spec.job_id}")
                    try:
                        record(spec, _execute_job(payload(spec)))
                    except Exception as exc:  # keep independent branches running
                        record(spec, None, error=f"{type(exc).__name__}: {exc}")
                drop_blocked()
            return

        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            in_flight: dict = {}
            while pending or in_flight:
                for spec in ready_jobs():
                    if spec.job_id not in in_flight:
                        self.progress(f"[run]    {spec.job_id}")
                        in_flight[spec.job_id] = (pool.submit(_execute_job, payload(spec)), spec)
                if not in_flight:
                    drop_blocked()
                    if pending and not ready_jobs():
                        raise RuntimeError(f"orchestrator deadlock; stuck jobs: {sorted(pending)}")
                    continue
                done, _ = wait([future for future, _ in in_flight.values()], return_when=FIRST_COMPLETED)
                for job_id, (future, spec) in list(in_flight.items()):
                    if future in done:
                        del in_flight[job_id]
                        try:
                            record(spec, future.result())
                        except Exception as exc:
                            record(spec, None, error=f"{type(exc).__name__}: {exc}")
                drop_blocked()

    # ------------------------------------------------------------------ #
    # reports
    # ------------------------------------------------------------------ #
    def _write_reports(self, report: RunReport, names: list[str]) -> None:
        """Emit per-experiment JSON + Markdown and a run-level summary."""
        if self.out_dir is None:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        summary_lines = [
            "# Experiment run report",
            "",
            f"- scale: `{self.scale}`",
            f"- workers: {report.workers}",
            f"- wall-clock: {report.seconds:.1f}s",
            f"- jobs: {len(report.outcomes)} total, {report.cached_jobs} cache hits, "
            f"{len(report.failed_jobs)} failed",
            f"- cache evictions: {report.evicted}",
            "",
            "| experiment | status | seconds | cached | report |",
            "|---|---|---|---|---|",
        ]
        for name in names:
            outcome = report.outcomes.get(f"experiment/{name}")
            if outcome is None:
                continue
            if outcome.status == "done":
                self._write_experiment_report(name, outcome)
            summary_lines.append(
                f"| {name} | {outcome.status} | {outcome.seconds:.1f} | "
                f"{'yes' if outcome.cached else 'no'} | [{name}.md]({name}.md) |"
            )
        summary_lines += [
            "",
            "## Shared steps",
            "",
            "| step | status | seconds | cached |",
            "|---|---|---|---|",
        ]
        for job_id, outcome in sorted(report.outcomes.items()):
            if job_id.startswith("step/"):
                summary_lines.append(
                    f"| {job_id[len('step/'):]} | {outcome.status} | {outcome.seconds:.1f} | "
                    f"{'yes' if outcome.cached else 'no'} |"
                )
        (self.out_dir / "REPORT.md").write_text("\n".join(summary_lines) + "\n", encoding="utf-8")

    def _write_experiment_report(self, name: str, outcome: JobOutcome) -> None:
        title = EXPERIMENTS[name].title or name
        with open(self.out_dir / f"{name}.json", "w", encoding="utf-8") as handle:
            json.dump(
                {"experiment": name, "title": title, "key": outcome.key,
                 "cached": outcome.cached, "seconds": round(outcome.seconds, 3),
                 "rows": outcome.rows},
                handle,
                indent=1,
            )
        lines = [
            f"# {title}",
            "",
            "| setting | paper | measured | unit |",
            "|---|---|---|---|",
        ]
        for row in outcome.rows:
            paper = "-" if row["paper_value"] is None else f"{row['paper_value']:.2f}"
            lines.append(f"| {row['setting']} | {paper} | {row['measured_value']:.2f} | {row['unit']} |")
        (self.out_dir / f"{name}.md").write_text("\n".join(lines) + "\n", encoding="utf-8")
