"""Tiny-size smoke run of the job-budget benchmark harness.

Run from the repository root (about two minutes on a 2-core box)::

    python3 jobbench/smoke.py

Runs every workload for one second, untraced and traced, and checks that:

- each run exits 0 and ends with exactly one JSON result line carrying
  ``correct``, ``attempted``, ``failed`` and ``metrics``;
- the metrics are exactly the set ``BENCHMARK.json`` declares for that
  mode, each with its declared unit, and every metric printed by name in
  the human-readable lines is declared with a unit and a direction;
- the end-to-end bounds respect the 0.25 ceiling and ``setup_s`` is
  declared;
- in a directory holding only ``BENCHMARK.json`` and ``jobbench/`` the
  benchmark exits non-zero without printing a result.

Exits 1 and lists the problems if any check fails.  Nothing under ``src/``
or ``tests/`` is touched; scratch files stay under ``.jobbench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "jobbench/run.py"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_declaration(declaration: dict, problems: list[str]) -> None:
    names = set()
    for group in ("end_to_end", "per_layer"):
        for metric in declaration[group]:
            if not metric.get("unit") or metric.get("better") not in ("higher", "lower"):
                problems.append(f"{metric['name']}: needs a unit and a direction")
            if metric["name"] in names:
                problems.append(f"{metric['name']}: declared twice")
            names.add(metric["name"])
    for metric in declaration["end_to_end"]:
        if not 0 < metric.get("bound", 0) <= 0.25:
            problems.append(f"{metric['name']}: bound must be in (0, 0.25]")
    if not any(m["name"] == "setup_s" for m in declaration["end_to_end"]):
        problems.append("setup_s is not declared")


def check_run(workload: str, trace: int, declaration: dict, problems: list[str]) -> None:
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", "0", "--seconds", "1",
               "--trace", str(trace), "--setup-samples", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    tag = f"{workload} trace={trace}"
    if done.returncode != 0:
        problems.append(f"{tag}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
        return
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or not result["correct"]:
        problems.append(f"{tag}: bad result line {lines[-1][:200]}")
        return
    declared = {
        m["name"]: m for m in declaration["per_layer" if trace else "end_to_end"]
    }
    if set(result["metrics"]) != set(declared):
        problems.append(f"{tag}: metrics {sorted(result['metrics'])} != declared")
    for name, metric in result["metrics"].items():
        if name in declared and metric["unit"] != declared[name]["unit"]:
            problems.append(f"{tag}: {name} unit {metric['unit']!r} != declared")
    every = {m["name"] for group in ("end_to_end", "per_layer") for m in declaration[group]}
    printed = set()
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 3 and line.startswith("  ") and _is_number(fields[1]):
            printed.add(fields[0])
            if fields[0] not in every:
                problems.append(f"{tag}: printed metric {fields[0]} is not declared")
    if not set(declared) <= printed:
        problems.append(f"{tag}: not printed by name: {sorted(set(declared) - printed)}")
    print(f"ok  {tag}: {result['attempted']} attempted, {len(printed)} metrics printed")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def check_bare_directory(problems: list[str]) -> None:
    bare = ROOT / ".jobbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(
            ROOT / "jobbench", bare / "jobbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        done = subprocess.run(
            RUN + ["--workload", "small-mix", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        problems.append("a directory without the source tree still produced a result")
    else:
        print(f"ok  bare directory: exit {done.returncode}, no result")


def main() -> int:
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    check_declaration(declaration, problems)
    for workload in (w["name"] for w in declaration["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace, declaration, problems)
    check_bare_directory(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
