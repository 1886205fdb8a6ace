"""Heavy-edge matching coarsening (multilevel-partitioning style baseline).

An *extension baseline* beyond the paper's three GNN poolers: instead of
selecting nodes, coarsening repeatedly **contracts** a maximal matching of
heavy edges, merging endpoint pairs into super-nodes and accumulating edge
weights -- the coarsening phase of METIS-style multilevel partitioners.

Contraction produces *weighted* graphs even from unweighted inputs, which
the QAOA stack supports end to end (weighted Hamiltonians, the weighted
p=1 closed form, weighted brute force).  The interesting property for the
Red-QAOA comparison: contraction preserves total cut weight structure
better than node deletion, but distorts degree structure -- so its AND
ratio (and hence landscape match) is typically worse, illustrating *why*
the AND objective matters.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.pooling.base import GraphPooler
from repro.utils.graphs import ensure_graph, relabel_to_range
from repro.utils.rng import as_generator

__all__ = ["HeavyEdgeCoarsening"]


class HeavyEdgeCoarsening(GraphPooler):
    """Coarsen by contracting maximal heavy-edge matchings.

    ``pool(graph, num_nodes)`` contracts matchings until the graph has at
    most ``num_nodes`` super-nodes (one extra partial matching round may be
    needed to land exactly).  Edge weights accumulate: parallel edges
    created by a contraction merge by weight addition.
    """

    name = "coarsen"

    def __init__(self, seed: int | np.random.Generator | None = 0):
        self._rng = as_generator(seed)

    def scores(self, graph: nx.Graph) -> np.ndarray:  # pragma: no cover - unused
        raise NotImplementedError("coarsening does not score nodes")

    def pool(self, graph: nx.Graph, num_nodes: int) -> nx.Graph:
        ensure_graph(graph)
        n = graph.number_of_nodes()
        if not 1 <= num_nodes <= n:
            raise ValueError(f"num_nodes must be in [1, {n}], got {num_nodes}")
        current = nx.Graph()
        current.add_nodes_from(graph.nodes())
        for u, v, data in graph.edges(data=True):
            current.add_edge(u, v, weight=float(data.get("weight", 1.0)))
        guard = 0
        while current.number_of_nodes() > num_nodes:
            guard += 1
            if guard > n:  # pragma: no cover - safety net
                break
            budget = current.number_of_nodes() - num_nodes
            matching = self._heavy_matching(current, budget)
            if not matching:
                break  # no contractible edges left (isolated nodes only)
            for u, v in matching:
                current = _contract(current, u, v)
        return relabel_to_range(current)

    def _heavy_matching(self, graph: nx.Graph, budget: int) -> list[tuple]:
        """Greedy maximal matching by descending weight, capped at ``budget``."""
        edges = list(graph.edges(data="weight"))
        order = np.argsort([-w for *_, w in edges], kind="stable")
        matched: set = set()
        matching: list[tuple] = []
        for index in order:
            if len(matching) >= budget:
                break
            u, v, _ = edges[int(index)]
            if u in matched or v in matched:
                continue
            matched.update((u, v))
            matching.append((u, v))
        return matching


def _contract(graph: nx.Graph, u, v) -> nx.Graph:
    """Merge ``v`` into ``u``, summing parallel edge weights."""
    result = nx.Graph()
    result.add_nodes_from(n for n in graph.nodes() if n != v)
    for a, b, data in graph.edges(data=True):
        a = u if a == v else a
        b = u if b == v else b
        if a == b:
            continue  # the contracted edge itself disappears
        w = float(data.get("weight", 1.0))
        if result.has_edge(a, b):
            result[a][b]["weight"] += w
        else:
            result.add_edge(a, b, weight=w)
    return result
