"""Command-line entry point: ``python -m repro.experiments``.

Examples
--------
Print usage and the available experiments (also the no-argument behaviour)::

    python -m repro.experiments
    python -m repro.experiments list

Reproduce every paper table/figure through the parallel orchestrator, with
per-table reports and a resumable manifest under ``results/``::

    python -m repro.experiments run-all --workers 4 --scale tiny --out results/

Run a subset through the orchestrator (same cache, same reports)::

    python -m repro.experiments run table1 table4 --workers 2 --scale tiny
"""

from __future__ import annotations

import argparse
import sys

from .registry import available_experiments

COMMANDS = ("list", "run", "run-all")


def _print_usage(stream=None) -> None:
    stream = stream or sys.stdout
    print(f"usage: python -m repro.experiments {{{','.join(COMMANDS)}}} ...\n", file=stream)
    print(__doc__.strip(), file=stream)
    print("\nAvailable experiments:", file=stream)
    for name in available_experiments():
        print(f"  {name}", file=stream)


def build_run_parser(command: str) -> argparse.ArgumentParser:
    """Parser for the orchestrator commands (``run`` and ``run-all``)."""
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.experiments {command}",
        description="Run experiments as a cached, parallel DAG of jobs.",
    )
    if command == "run":
        parser.add_argument("experiments", nargs="+", help="experiment names (see `list`)")
    parser.add_argument("--workers", type=int, default=1, help="worker processes (default: 1)")
    parser.add_argument(
        "--scale", choices=("tiny", "small", "full"), default="small",
        help="workload profile (default: small)",
    )
    parser.add_argument("--out", default="results", help="report/manifest directory (default: results/)")
    parser.add_argument(
        "--cache-dir", default=None,
        help="result cache root (default: $REPRO_CACHE_DIR or .repro_cache)",
    )
    parser.add_argument(
        "--no-resume", action="store_true",
        help="re-dispatch every job instead of skipping completed ones "
        "(artifacts still come from the content-addressed cache; "
        "point --cache-dir at a fresh directory for a truly cold run)",
    )
    return parser


def _reject_unknown(names: list[str]) -> bool:
    """Print a message for unregistered experiment names; True if any."""
    unknown = sorted(set(names) - set(available_experiments()))
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(available_experiments())}", file=sys.stderr)
    return bool(unknown)


def _cmd_run(command: str, argv: list[str]) -> int:
    from .orchestrator import Orchestrator

    args = build_run_parser(command).parse_args(argv)
    names = available_experiments() if command == "run-all" else args.experiments
    if _reject_unknown(names):
        return 2

    orchestrator = Orchestrator(
        scale=args.scale,
        cache_dir=args.cache_dir,
        workers=args.workers,
        out_dir=args.out,
        progress=print,
    )
    report = orchestrator.run(names, resume=not args.no_resume)
    print(
        f"\n{len(report.outcomes)} jobs in {report.seconds:.1f}s "
        f"({report.cached_jobs} cache hits, {report.evicted} cache evictions) -> {args.out}/REPORT.md"
    )
    for name in names:
        outcome = report.outcomes.get(f"experiment/{name}")
        if outcome is None or outcome.status != "done":
            continue
        print(f"\n--- {name} ---")
        for row in report.rows_for(name):
            print(row)
    if report.failed_jobs:
        print(f"\nfailed jobs: {', '.join(report.failed_jobs)}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Dispatch the CLI; returns a process exit code (never raises)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if not argv:
            _print_usage()
            return 0
        if argv[0] == "list":
            for name in available_experiments():
                print(name)
            return 0
        if argv[0] in ("run-all", "run"):
            return _cmd_run(argv[0], argv[1:])
        print(f"unknown experiment or command {argv[0]!r}", file=sys.stderr)
        _print_usage(sys.stderr)
        return 2
    except SystemExit as exc:  # argparse exits on bad flags after printing usage
        return int(exc.code or 0)


if __name__ == "__main__":
    raise SystemExit(main())
