"""Equivalent-instance analysis: AND ratios vs. landscape MSE.

Tools behind Sec. 4.2-4.3 of the paper: the correlation study between the
Average-Node-Degree ratio of a subgraph and the MSE of its energy landscape
against the original graph (Fig. 5), and the polynomial fit that backs the
0.7 AND-ratio / 0.02 MSE operating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.qaoa.landscape import compute_landscape, landscape_mse
from repro.utils.graphs import (
    average_node_degree,
    ensure_graph,
    nonisomorphic_connected_subgraphs,
    relabel_to_range,
)

__all__ = ["AndMseSample", "fit_polynomial", "subgraph_and_mse_study"]


@dataclass(frozen=True)
class AndMseSample:
    """One (subgraph, original) comparison point."""

    num_nodes: int
    num_edges: int
    and_ratio: float
    mse: float


def subgraph_and_mse_study(
    graph: nx.Graph,
    min_size: int = 3,
    max_subgraphs_per_size: int | None = 40,
    width: int = 30,
) -> list[AndMseSample]:
    """Fig. 5 protocol for one graph: enumerate non-isomorphic connected
    subgraphs, compute each one's p=1 landscape on a ``width``-wide grid,
    and record (AND ratio, MSE vs. the original landscape).

    The AND ratio here is the plain, unclipped ``AND(subgraph) / AND(graph)``
    on unweighted degrees -- Fig. 5's x-axis -- not the reducer's symmetric
    :func:`repro.core.reduction.and_ratio`.
    """
    ensure_graph(graph)
    original_and = average_node_degree(graph)
    if original_and == 0.0:
        raise ValueError("original graph has no edges")
    graph = relabel_to_range(graph)
    reference = compute_landscape(graph, width=width).values
    samples: list[AndMseSample] = []
    for size in range(min_size, graph.number_of_nodes()):
        subgraphs = nonisomorphic_connected_subgraphs(
            graph, size, max_count=max_subgraphs_per_size
        )
        for sub in subgraphs:
            if sub.number_of_edges() == 0:
                continue
            candidate = relabel_to_range(sub)
            values = compute_landscape(candidate, width=width).values
            samples.append(
                AndMseSample(
                    num_nodes=candidate.number_of_nodes(),
                    num_edges=candidate.number_of_edges(),
                    and_ratio=average_node_degree(candidate) / original_and,
                    mse=landscape_mse(reference, values),
                )
            )
    return samples


def fit_polynomial(samples: list[AndMseSample], degree: int = 6) -> np.ndarray:
    """Least-squares polynomial MSE(and_ratio), Fig. 5's best-fit curve.

    Returns the coefficient vector (highest power first, as
    ``numpy.polyval`` expects).
    """
    if len(samples) <= degree:
        raise ValueError(
            f"need more than {degree} samples to fit a degree-{degree} polynomial, "
            f"got {len(samples)}"
        )
    x = np.array([s.and_ratio for s in samples])
    y = np.array([s.mse for s in samples])
    return np.polyfit(x, y, degree)
