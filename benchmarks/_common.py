"""Shared helpers for the benchmark harness.

Every benchmark module reproduces one table or figure from the paper
(see DESIGN.md's per-experiment index).  Benchmarks print the rows/series
they regenerate -- run with ``pytest benchmarks/ --benchmark-only -s`` to
see them -- and assert the paper's *qualitative* claim (who wins, direction
of trends), not absolute numbers, since the substrate is a simulator rather
than the authors' hardware.

Workload sizes default smaller than the paper's (laptop vs. Perlmutter
A100 nodes); each module states its settings in the printed header.
"""

from __future__ import annotations

import json
from pathlib import Path

import networkx as nx
import numpy as np

__all__ = ["BENCH_DIR", "connected_er", "header", "row", "run_once", "write_bench"]

#: Gitignored home of fresh ``BENCH_pr*.json`` (the PR 3-6 ones are frozen
#: in ``benchmarks/history/``), so a test run leaves tracked files alone.
BENCH_DIR = Path(__file__).resolve().parent.parent / ".benchmarks"


def connected_er(num_nodes: int, probability: float, seed: int) -> nx.Graph:
    """Deterministic connected Erdős–Rényi sample."""
    offset = 0
    while True:
        graph = nx.erdos_renyi_graph(num_nodes, probability, seed=seed + offset)
        if graph.number_of_edges() and nx.is_connected(graph):
            return graph
        offset += 1000


def header(title: str, **settings) -> None:
    """Print a benchmark header with its settings."""
    print()
    print("=" * 72)
    print(title)
    if settings:
        line = ", ".join(f"{k}={v}" for k, v in settings.items())
        print(f"  settings: {line}")
    print("=" * 72)


def row(label: str, **values) -> None:
    """Print one result row."""
    parts = []
    for key, value in values.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.4f}")
        else:
            parts.append(f"{key}={value}")
    print(f"  {label:<28} " + "  ".join(parts))


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The experiments are deterministic given their seeds and too expensive
    for multi-round timing; pedantic mode records a single-round wall time.
    """
    return benchmark.pedantic(fn, iterations=1, rounds=1)


def write_bench(path: Path, results: dict) -> None:
    """Write one ``BENCH_*.json`` record, creating its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=2) + "\n")
