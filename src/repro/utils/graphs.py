"""Graph helpers shared by the reduction core, datasets, and analyses.

All public functions operate on :class:`networkx.Graph` instances with
hashable node labels.  Functions that hand graphs to the quantum layer first
relabel nodes to ``0..n-1`` (see :func:`relabel_to_range`) because qubits are
indexed by position.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections.abc import Sequence

import networkx as nx
import numpy as np

from repro.utils.rng import as_generator

__all__ = [
    "average_node_degree",
    "average_node_strength",
    "connected_random_subgraph",
    "edge_list",
    "ensure_graph",
    "induced_subgraph",
    "is_weighted",
    "relabel_to_range",
    "nonisomorphic_connected_subgraphs",
    "sorted_labels",
]


def ensure_graph(graph: nx.Graph) -> nx.Graph:
    """Validate that ``graph`` is a simple undirected graph with >= 1 node.

    Raises ``TypeError`` for directed/multi graphs and ``ValueError`` for
    empty graphs; returns the graph unchanged otherwise.
    """
    if not isinstance(graph, nx.Graph) or isinstance(graph, (nx.DiGraph, nx.MultiGraph)):
        raise TypeError(f"expected an undirected simple networkx.Graph, got {type(graph).__name__}")
    if graph.number_of_nodes() == 0:
        raise ValueError("graph must contain at least one node")
    return graph


def induced_subgraph(graph: nx.Graph, nodes) -> nx.Graph:
    """``nx.Graph(graph.subgraph(nodes))`` without the subgraph view.

    Same nodes, edges, iteration orders and attribute copies, but several
    times faster: one pass over the kept nodes' rows instead of the view's
    filtered lookups.  The node order follows the view's: the kept-node
    set built as the view builds it when that set is under half the graph,
    the graph's order otherwise.
    """
    shown = set(graph.nbunch_iter(nodes))
    kept = list(shown) if 2 * len(shown) < len(graph) else [n for n in graph if n in shown]
    sub = nx.Graph()
    sub.add_nodes_from((node, graph.nodes[node]) for node in kept)
    # Each edge once, first seen from its earlier kept endpoint: the order
    # in which the view's adjacency listing would first add it.
    sub.add_edges_from(
        (u, v, data) for u, v, data in graph.edges(kept, data=True) if v in shown
    )
    sub.graph.update(graph.graph)
    return sub


def average_node_degree(graph: nx.Graph) -> float:
    """Average Node Degree (AND) of ``graph``: ``2|E| / |V|``.

    This is the key similarity metric of Red-QAOA (paper Sec. 4.2): graphs
    with close ANDs tend to share QAOA subgraph structure and therefore have
    near-identical energy landscapes.
    """
    ensure_graph(graph)
    n = graph.number_of_nodes()
    return 2.0 * graph.number_of_edges() / n


def average_node_strength(graph: nx.Graph) -> float:
    """Weighted AND (average node *strength*): ``2 * sum_e |w_e| / |V|``.

    The weighted generalization of :func:`average_node_degree` used by the
    SA reducer on weighted instances: node strength (sum of incident edge
    weight magnitudes) replaces degree, so the reducer preserves weighted
    rather than combinatorial connectivity.  Magnitudes, not signed weights:
    the QAOA cost layer enters through ``cos(gamma * w)``, which is even in
    ``w``, and signed sums cancel to zero on +/-1 spin-glass instances,
    which would leave the annealer with no signal.  On unit-weight graphs
    the magnitude sum is exactly the edge count, so this is bit-identical
    to the unweighted AND.

    The sum uses ``math.fsum`` so the result is correctly rounded and
    independent of edge iteration order -- the canonical value the
    incremental annealer reproduces with exact integer arithmetic.
    """
    ensure_graph(graph)
    total = math.fsum(abs(data.get("weight", 1.0)) for _, _, data in graph.edges(data=True))
    return 2.0 * total / graph.number_of_nodes()


def edge_list(graph: nx.Graph) -> list[tuple[int, int]]:
    """Edges of ``graph`` as ``(min, max)`` tuples, lexicographically sorted."""
    return sorted((min(u, v), max(u, v)) for u, v in graph.edges())


def sorted_labels(nodes) -> list:
    """``nodes`` in sorted order when the labels are sortable, in iteration
    order otherwise -- deterministic for a given graph either way."""
    try:
        return sorted(nodes)
    except TypeError:
        return list(nodes)


def relabel_to_range(graph: nx.Graph) -> nx.Graph:
    """Return a copy of ``graph`` with nodes relabeled to ``0..n-1``
    in :func:`sorted_labels` order."""
    ensure_graph(graph)
    mapping = {node: index for index, node in enumerate(sorted_labels(graph.nodes()))}
    return nx.relabel_nodes(graph, mapping)


def is_weighted(graph: nx.Graph) -> bool:
    """Whether any edge carries a non-unit ``weight`` attribute.

    The single weightedness predicate shared by engine dispatch, dataset
    stats, and the reduction cache, so they can never drift apart.
    """
    return any(
        data.get("weight", 1.0) != 1.0 for _, _, data in graph.edges(data=True)
    )


def connected_random_subgraph(
    graph: nx.Graph,
    size: int,
    seed: int | np.random.Generator | None = None,
) -> set:
    """Sample a connected induced subgraph of ``graph`` with ``size`` nodes.

    Uses a randomized BFS-style expansion: start from a random node and
    repeatedly absorb a random frontier node until ``size`` nodes are chosen.
    Matches ``RandomSubgraph`` from Algorithm 1 in the paper.

    Returns the node set; use ``graph.subgraph(result)`` for the graph view.
    Raises ``ValueError`` when ``size`` is out of range or when the graph has
    no connected component of at least ``size`` nodes.
    """
    ensure_graph(graph)
    if not 1 <= size <= graph.number_of_nodes():
        raise ValueError(
            f"size must be within [1, {graph.number_of_nodes()}], got {size}"
        )
    rng = as_generator(seed)
    components = [c for c in nx.connected_components(graph) if len(c) >= size]
    if not components:
        raise ValueError(f"graph has no connected component with >= {size} nodes")
    component = components[int(rng.integers(len(components)))]
    start = _choice(rng, sorted(component))
    chosen = {start}
    # The frontier minus the chosen set is kept as a sorted list maintained
    # by insertion, so each absorb costs O(deg log + insert) instead of
    # re-sorting the whole frontier; the candidate order (and hence the RNG
    # draw sequence) is identical to sorting from scratch each round.
    candidate_set = (set(graph.neighbors(start)) & component) - chosen
    candidates = sorted(candidate_set)
    while len(chosen) < size:
        index = int(rng.integers(len(candidates)))
        nxt = candidates[index]
        chosen.add(nxt)
        candidate_set.discard(nxt)
        del candidates[index]
        for neighbor in graph.neighbors(nxt):
            if neighbor not in chosen and neighbor not in candidate_set:
                candidate_set.add(neighbor)
                insort(candidates, neighbor)
    return chosen


def nonisomorphic_connected_subgraphs(
    graph: nx.Graph,
    size: int,
    max_count: int | None = None,
) -> list[nx.Graph]:
    """All non-isomorphic connected induced subgraphs of ``graph`` of ``size``.

    Used by the Fig. 5 / Fig. 9 experiments, which enumerate every unique
    subgraph shape of a small graph.  Enumeration is exponential; guard large
    inputs with ``max_count`` (enumeration stops once reached).
    """
    ensure_graph(graph)
    if not 1 <= size <= graph.number_of_nodes():
        raise ValueError(f"size out of range: {size}")
    found: list[nx.Graph] = []
    seen_sets: set[frozenset] = set()
    # Enumerate connected node subsets via DFS expansion from each node.
    nodes = sorted(graph.nodes())
    for root in nodes:
        stack = [(frozenset([root]), frozenset(graph.neighbors(root)))]
        while stack:
            chosen, frontier = stack.pop()
            if len(chosen) == size:
                if chosen in seen_sets:
                    continue
                seen_sets.add(chosen)
                candidate = graph.subgraph(chosen)
                if not any(nx.is_isomorphic(candidate, g) for g in found):
                    found.append(nx.Graph(candidate))
                    if max_count is not None and len(found) >= max_count:
                        return found
                continue
            for v in sorted(frontier):
                if v <= root and v not in chosen:
                    # Keep subsets rooted at their minimum node to avoid
                    # re-enumerating the same set from multiple roots.
                    continue
                new_chosen = chosen | {v}
                if len(new_chosen) > size:
                    continue
                new_frontier = (frontier | frozenset(graph.neighbors(v))) - new_chosen
                stack.append((new_chosen, new_frontier))
    return found


def _choice(rng: np.random.Generator, items: Sequence):
    """Uniform choice from a non-empty sequence using ``rng``."""
    if not items:
        raise ValueError("cannot choose from an empty sequence")
    return items[int(rng.integers(len(items)))]
