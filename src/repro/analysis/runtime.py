"""Preprocessing-runtime analysis (paper Sec. 6.4.2, Fig. 18).

Red-QAOA's overhead is the SA reduction with its binary search over sizes,
which the paper reports scaling as ``n log n`` and amounting to ~0.1% of a
single circuit execution on ibm_sherbrooke.  This module measures the
reducer on random graphs, fits the ``a * n log n + b`` curve, and models
per-circuit device execution time for the comparison line.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.reduction import GraphReducer
from repro.datasets.random_graphs import random_connected_gnp
from repro.qaoa.expectation import EXACT_LIMIT
from repro.utils.rng import as_generator

__all__ = [
    "RuntimeModel",
    "benchmark_graph",
    "estimate_pipeline_cost",
    "fit_nlogn",
    "measure_preprocessing_times",
    "per_circuit_execution_time",
]

# Kept-node fraction the cost model assumes for a distilled instance.
KEEP_FRACTION = 0.7


def benchmark_graph(n: int, seed: int | np.random.Generator | None = 0):
    """The connected ER instance the runtime benchmarks use for size ``n``.

    Edge probability is the larger of ``4/n`` (bounded average degree,
    matching sparse large instances) and ``1.3 ln(n)/n`` (the Erdős–Rényi
    connectivity threshold, so samples stay connected).
    """
    p = min(0.5, max(4.0 / n, 1.3 * math.log(max(n, 2)) / n))
    return random_connected_gnp(int(n), p, seed=seed)


def measure_preprocessing_times(
    sizes,
    edge_probability: float | None = None,
    seed: int | np.random.Generator | None = 0,
    repeats: int = 1,
) -> list[tuple[int, float]]:
    """Wall-clock GraphReducer times on connected ER graphs of ``sizes``.

    ``edge_probability`` defaults per size as in :func:`benchmark_graph`.
    Returns ``[(n, seconds), ...]`` with the minimum over ``repeats`` runs.
    """
    rng = as_generator(seed)
    results: list[tuple[int, float]] = []
    for n in sizes:
        if edge_probability is not None:
            p = edge_probability
            graph = random_connected_gnp(int(n), p, seed=rng)
        else:
            graph = benchmark_graph(int(n), seed=rng)
        best = math.inf
        for _ in range(max(1, repeats)):
            reducer = GraphReducer(seed=rng)
            start = time.perf_counter()
            reducer.reduce(graph)
            best = min(best, time.perf_counter() - start)
        results.append((int(n), best))
    return results


def estimate_pipeline_cost(
    num_qubits: int,
    p: int = 1,
    restarts: int = 3,
    maxiter: int = 40,
    finetune_maxiter: int = 0,
) -> float:
    """Modeled relative cost of one reduce -> optimize -> transfer job.

    The batch scheduler's ordering key (cheap jobs stream results first):
    a statevector point costs ``~ p * n * 2**n`` work up to ``EXACT_LIMIT``
    qubits, beyond which lightcone classes bound the per-point cost at
    ``~ p * n * 2**EXACT_LIMIT``; the optimizer spends
    ``restarts * maxiter`` points on the distilled instance (modeled at
    ``KEEP_FRACTION * n`` qubits, the reducer's typical output) and
    ``finetune_maxiter + 2`` on the full one (transfer evaluation plus
    readout), and the SA reduction adds an ``n log n`` term scaled to be
    negligible next to any simulation.  Units are arbitrary but
    monotone in wall-clock on one engine.
    """
    if num_qubits < 1 or p < 1:
        raise ValueError("num_qubits and p must be >= 1")

    def point_cost(n: int) -> float:
        return p * n * 2.0 ** min(n, EXACT_LIMIT)

    reduced = max(3, math.ceil(KEEP_FRACTION * num_qubits))
    reduced = min(reduced, num_qubits)
    optimize = restarts * maxiter * point_cost(reduced)
    transfer = (finetune_maxiter + 2) * point_cost(num_qubits)
    anneal = num_qubits * math.log(max(num_qubits, 2))
    return optimize + transfer + anneal


@dataclass(frozen=True)
class RuntimeModel:
    """Fitted ``t(n) = a * n log n + b`` with goodness of fit."""

    a: float
    b: float
    r_squared: float

    def predict(self, n: int) -> float:
        return self.a * n * math.log(max(n, 2)) + self.b


def fit_nlogn(measurements: list[tuple[int, float]]) -> RuntimeModel:
    """Least-squares fit of ``a * n log n + b`` to timing measurements."""
    if len(measurements) < 2:
        raise ValueError("need at least two measurements to fit")
    n = np.array([m[0] for m in measurements], dtype=float)
    t = np.array([m[1] for m in measurements], dtype=float)
    x = n * np.log(np.maximum(n, 2.0))
    design = np.stack([x, np.ones_like(x)], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, t, rcond=None)
    predicted = design @ coeffs
    ss_res = float(((t - predicted) ** 2).sum())
    ss_tot = float(((t - t.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RuntimeModel(a=float(coeffs[0]), b=float(coeffs[1]), r_squared=r2)


def per_circuit_execution_time(
    num_qubits: int,
    p: int = 1,
    average_degree: float = 3.0,
    shots: int = 8192,
    time_2q: float = 533e-9,
    time_1q: float = 35e-9,
    time_readout: float = 700e-9,
    overhead_per_shot: float = 400e-6,
) -> float:
    """Modeled wall-clock seconds for one QAOA circuit execution.

    Anchored so that a 10-node 1-layer circuit on ibm_sherbrooke costs
    ~4.2 s (the paper's reference number): per-shot time is circuit depth
    times gate times plus readout, plus a fixed per-shot control-system
    overhead (reset, delays) that dominates in practice.
    """
    if num_qubits < 1 or p < 1:
        raise ValueError("num_qubits and p must be >= 1")
    edges_per_layer = average_degree * num_qubits / 2.0
    depth_2q = 2.0 * edges_per_layer / max(1.0, num_qubits / 2.0)  # parallel CX layers
    per_shot = p * (depth_2q * time_2q + 2 * time_1q) + time_readout + overhead_per_shot
    return shots * per_shot
