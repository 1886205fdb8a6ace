"""Shared utilities: graph helpers, RNG handling, and input validation."""

from repro.utils.graphs import (
    average_node_degree,
    connected_random_subgraph,
    edge_list,
    ensure_graph,
    relabel_to_range,
)
from repro.utils.rng import as_generator

__all__ = [
    "as_generator",
    "average_node_degree",
    "connected_random_subgraph",
    "edge_list",
    "ensure_graph",
    "relabel_to_range",
]
