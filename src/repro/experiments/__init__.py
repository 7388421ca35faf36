"""Programmatic access to the paper's experiments.

Each table and figure of the paper is one registered experiment; the
``benchmarks/`` directory runs them under ``pytest-benchmark`` with its
noise-floor assertions, and this subpackage exposes them as a library API, a
CLI (``python -m repro.experiments``) and — through
:mod:`repro.experiments.orchestrator` — a parallel job runner with an on-disk
result cache (:mod:`repro.experiments.cache`), so the whole suite reproduces
with one command::

    python -m repro.experiments run-all --workers 4 --scale tiny --out results/

Every experiment returns a list of :class:`ResultRow` (method / setting name,
paper value, measured value), which is what the CLI prints and the
orchestrator writes into its JSON/Markdown reports.

Examples
--------
Run a single experiment in-process (the analytic ``cost`` experiment needs no
training):

>>> from repro.experiments import run_experiment, ExperimentScale
>>> rows = run_experiment("cost", ExperimentScale.tiny())
>>> [row.setting for row in rows if row.unit == "MFLOPs"]
['mobilenetv2-tiny', 'mcunet', 'mobilenetv2-50', 'mobilenetv2-100']

Experiments declare the shared artifacts they depend on, which is what lets
the orchestrator train each one exactly once:

>>> from repro.experiments import EXPERIMENTS
>>> EXPERIMENTS["fig1a"].deps
('vanilla/mobilenetv2-tiny', 'netbooster/mobilenetv2-tiny')
"""

from .cache import Artifact, ResultCache
from .registry import (
    EXPERIMENTS,
    Experiment,
    ExperimentScale,
    ResultRow,
    SharedStep,
    StepContext,
    available_experiments,
    run_experiment,
    shared_step,
)

__all__ = [
    "Artifact",
    "EXPERIMENTS",
    "Experiment",
    "ExperimentScale",
    "ResultCache",
    "ResultRow",
    "SharedStep",
    "StepContext",
    "available_experiments",
    "run_experiment",
    "shared_step",
]
