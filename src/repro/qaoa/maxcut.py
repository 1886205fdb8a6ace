"""Classical MaxCut reference solvers and the approximation ratio.

The approximation ratio (paper Eq. 13) compares the QAOA expectation with
the classically computed ground truth.  Brute force covers the paper's
graph sizes (<= 20 nodes); beyond that,
:func:`repro.problems.local_search_value` on
:func:`~repro.problems.encodings.maxcut_problem` gives a strong lower
bound.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.qaoa.hamiltonian import MaxCutHamiltonian
from repro.utils.graphs import ensure_graph, sorted_labels

__all__ = [
    "approximation_ratio",
    "brute_force_maxcut",
    "cut_size",
]

_BRUTE_FORCE_LIMIT = 24


def cut_size(graph: nx.Graph, assignment: dict) -> float:
    """Total weight of edges cut by a node -> {0, 1} partition ``assignment``.

    Unit weights give the plain edge count (as an integer-valued float).
    """
    ensure_graph(graph)
    missing = set(graph.nodes()) - set(assignment)
    if missing:
        raise ValueError(f"assignment missing nodes: {sorted(missing)}")
    return float(
        sum(
            data.get("weight", 1.0)
            for u, v, data in graph.edges(data=True)
            if assignment[u] != assignment[v]
        )
    )


def brute_force_maxcut(graph: nx.Graph) -> tuple[float, dict]:
    """Exact MaxCut via the dense cut-value vector.

    Returns ``(max_cut_value, assignment)`` where ``assignment`` maps the
    graph's *original* node labels to partitions.  Limited to
    ``n <= 24`` nodes.
    """
    ensure_graph(graph)
    n = graph.number_of_nodes()
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force is limited to {_BRUTE_FORCE_LIMIT} nodes, got {n}; "
            "use repro.problems.local_search_value on maxcut_problem(graph) "
            "for larger graphs"
        )
    ordered = sorted_labels(graph.nodes())
    hamiltonian = MaxCutHamiltonian(graph)
    best = int(np.argmax(hamiltonian.diagonal))
    assignment = {node: (best >> index) & 1 for index, node in enumerate(ordered)}
    return float(hamiltonian.diagonal[best]), assignment


def approximation_ratio(expectation: float, ground_truth: float) -> float:
    """QAOA expectation over the classical optimum (paper Eq. 13)."""
    if ground_truth <= 0:
        raise ValueError(f"ground truth must be positive, got {ground_truth}")
    return float(expectation) / float(ground_truth)
