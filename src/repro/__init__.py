"""Red-QAOA: efficient variational optimization through circuit reduction.

A full reproduction of the ASPLOS 2024 paper by Wang, Fang, Li, and Nair.
The headline API:

>>> import networkx as nx
>>> from repro import RedQAOA
>>> graph = nx.erdos_renyi_graph(12, 0.4, seed=7)
>>> red = RedQAOA(seed=7)
>>> result = red.reduce(graph)
>>> result.reduced_graph.number_of_nodes() < graph.number_of_nodes()
True

Subpackages
-----------
``repro.core``
    The paper's contribution: simulated-annealing graph reduction and the
    end-to-end Red-QAOA optimization pipeline.
``repro.quantum``
    Circuits and devices: the circuit IR, fake device backends with
    calibration data, and the SABRE transpiler.  It describes and routes
    circuits; all simulation is in ``repro.qaoa``.
``repro.qaoa``
    MaxCut QAOA: Hamiltonians, the simulation engines (statevector,
    lightcone, analytic) and their noise model, energy landscapes,
    classical optimizers.
``repro.problems``
    The general Ising/QUBO workload layer: :class:`DiagonalProblem`
    (couplings + fields + constant, QUBO round-trip converters) and
    encodings for MaxCut, Max-Independent-Set, vertex cover, number
    partitioning, SK spin glasses, and arbitrary QUBOs -- all runnable
    through the same reduce -> optimize -> transfer pipeline.
``repro.pooling``
    GNN graph-pooling baselines (Top-K, SAG, ASA).
``repro.datasets``
    Synthetic AIDS/LINUX/IMDb-like datasets and random-graph generators.
``repro.transfer``
    The parameter-transfer baseline from the prior-work comparison.
``repro.analysis``
    Metrics, runtime, and throughput models used by the evaluation.
``repro.service``
    Batch serving: :class:`JobSpec` fingerprints, the persistent
    :class:`ResultStore`, YAML/JSON job manifests, and the deduplicating
    :class:`BatchScheduler` that runs them (``red-qaoa batch``).
``repro.serve``
    The long-running job daemon: a fingerprint-sharded queue with
    backpressure and dead letters, a deterministic worker pool (N workers
    bit-identical to 1), and a unix-socket submit/poll/stream protocol
    (``red-qaoa serve`` / ``red-qaoa submit``).
``repro.obs``
    Observability: span tracing (``--trace`` / ``red-qaoa trace
    summarize``), the mergeable metrics registry with Prometheus
    exposition (``red-qaoa status``), and structured daemon logs -- a
    pure side channel, bit-identical results on or off.
"""

from repro.core import GraphReducer, RedQAOA, ReductionResult, simulated_annealing
from repro.problems import (
    DiagonalProblem,
    max_independent_set_problem,
    maxcut_problem,
    min_vertex_cover_problem,
    number_partitioning_problem,
    problem_expectation,
    qubo_problem,
    sk_problem,
)
from repro.qaoa import (
    approximation_ratio,
    brute_force_maxcut,
    compute_landscape,
    landscape_mse,
    maxcut_expectation,
    noisy_maxcut_expectation,
)
from repro.quantum import FakeBackend, QuantumCircuit, get_backend
from repro.service import BatchScheduler, JobSpec, ResultStore

__all__ = [
    "BatchScheduler",
    "DiagonalProblem",
    "JobSpec",
    "ResultStore",
    "FakeBackend",
    "GraphReducer",
    "QuantumCircuit",
    "RedQAOA",
    "ReductionResult",
    "approximation_ratio",
    "brute_force_maxcut",
    "compute_landscape",
    "get_backend",
    "landscape_mse",
    "max_independent_set_problem",
    "maxcut_expectation",
    "maxcut_problem",
    "min_vertex_cover_problem",
    "noisy_maxcut_expectation",
    "number_partitioning_problem",
    "problem_expectation",
    "qubo_problem",
    "simulated_annealing",
    "sk_problem",
    "__version__",
]

__version__ = "1.5.0"
