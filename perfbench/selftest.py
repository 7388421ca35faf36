"""Smoke-sized self-test of the benchmark's output contract.

Runs every workload of ``BENCHMARK.json`` once untraced and once traced with
``--smoke`` and checks that the last line is the result object, that every
correctness check passed, and that exactly the metrics ``BENCHMARK.json``
names are printed, each with its unit and a finite value.

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys


def check_run(command: list[str], expected: dict[str, str]) -> list[str]:
    proc = subprocess.run(command, capture_output=True, text=True, timeout=600)
    label = " ".join(command[2:])
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{label}: a correctness check failed")
    if not any(line.startswith("context: ") for line in lines):
        problems.append(f"{label}: no run context printed")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{label}: missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{label}: {name} unit {entry.get('unit')!r}, expected {unit!r}")
        if not isinstance(entry.get("value"), (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{label}: {name} value {entry.get('value')!r}")
    return problems


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            command = spec["command"] + ["--workload", workload["name"], "--seed", "0",
                                         "--seconds", "1", "--trace", str(trace), "--smoke"]
            found = check_run(command, expected)
            print(f"{workload['name']} trace={trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
