"""Graph reduction: binary search over subgraph sizes with AND checking.

Red-QAOA wraps the annealer in a size search (paper Secs. 4.4, 6.4.2): it
looks for the *smallest* subgraph whose AND ratio (subgraph AND over
original AND) still clears the acceptance threshold (0.7 by default, the
value Sec. 4.3 derives from the 0.02-MSE criterion).  Binary search over
``k`` gives the ``n log n`` preprocessing cost reported in Fig. 18.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.core.annealer import AnnealResult, simulated_annealing
from repro.utils.graphs import (
    average_node_strength,
    ensure_graph,
    induced_subgraph,
    relabel_to_range,
    sorted_labels,
)
from repro.utils.rng import as_generator

__all__ = [
    "GraphReducer",
    "ReductionResult",
    "and_ratio",
    "check_and_ratio_threshold",
]

DEFAULT_AND_RATIO_THRESHOLD = 0.7
# Never reduce below this many nodes: QAOA needs at least one edge, and 3
# keeps subgraphs non-trivial.
MIN_NODES = 3
# Annealing runs per candidate size before the size counts as infeasible.
RETRIES = 2


def and_ratio(original_and: float, reduced_and: float) -> float:
    """Symmetric AND ratio in [0, 1]: ``reduced/original``, inverted when
    above 1, and 0 when either side is 0."""
    if original_and == 0.0 or reduced_and == 0.0:
        return 0.0
    ratio = reduced_and / original_and
    return ratio if ratio <= 1.0 else 1.0 / ratio


def check_and_ratio_threshold(value) -> None:
    """Raise a one-line ``ValueError`` unless ``value`` is a real number in (0, 1]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 < value <= 1.0:
        raise ValueError(f"and_ratio_threshold must be a real number in (0, 1], got {value!r}")


@dataclass
class ReductionResult:
    """Output of :meth:`GraphReducer.reduce` and :meth:`GraphReducer.reduce_problem`.

    ``nodes`` are original-graph labels; ``reduced_graph`` is the induced
    subgraph relabeled to ``0..k-1`` in sorted-label order (ready for the
    quantum layer), and ``node_mapping`` maps original labels to the new
    ones.  A problem reduction reduces the problem's field-aware coupling
    graph (``original_graph``) and also carries ``subproblem``, the
    problem restricted to ``nodes`` under the same relabeling.
    ``banked`` marks a reduction taken from another instance's banked
    distilled graph (the approximate cross-instance transfer).
    """

    original_graph: nx.Graph
    nodes: set
    reduced_graph: nx.Graph
    node_mapping: dict
    and_ratio: float
    anneal_result: AnnealResult
    subproblem: object | None = None  # a repro.problems.DiagonalProblem
    banked: bool = False

    @property
    def node_reduction(self) -> float:
        """Fraction of nodes removed, e.g. 0.28 for the paper's average."""
        return 1.0 - len(self.nodes) / self.original_graph.number_of_nodes()

    @property
    def edge_reduction(self) -> float:
        """Fraction of edges removed."""
        m = self.original_graph.number_of_edges()
        if m == 0:
            return 0.0
        return 1.0 - self.reduced_graph.number_of_edges() / m


class GraphReducer:
    """Searches for the smallest acceptable distilled graph.

    Parameters
    ----------
    and_ratio_threshold:
        Minimum acceptable ``AND(G') / AND(G)``; 0.7 by default (Sec. 4.3).
        On weighted graphs both ANDs are strength-based (weighted degrees).
        The ratio is clipped at 1 from above symmetrically, i.e. a subgraph
        with *larger* AND than the original is scored by ``AND(G)/AND(G')``.
    min_keep_fraction:
        Lower bound on the kept-node fraction (default 0.6, i.e. at most
        40% node reduction).  The AND ratio of tree-like graphs stays above
        threshold for arbitrarily small subtrees, so the AND check alone
        would over-reduce sparse graphs; this cap keeps reductions in the
        regime where the 0.02-MSE relationship of Sec. 4.3 was derived.

    Each candidate size gets up to ``RETRIES`` adaptive-cooling annealing
    runs, and no size goes below ``MIN_NODES``.
    """

    def __init__(
        self,
        and_ratio_threshold: float = DEFAULT_AND_RATIO_THRESHOLD,
        min_keep_fraction: float = 0.6,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        check_and_ratio_threshold(and_ratio_threshold)
        if not 0.0 < min_keep_fraction <= 1.0:
            raise ValueError(
                f"min_keep_fraction must be in (0, 1], got {min_keep_fraction}"
            )
        self.and_ratio_threshold = and_ratio_threshold
        self.min_keep_fraction = min_keep_fraction
        self._rng = as_generator(seed)

    # -- public API ---------------------------------------------------------

    def reduce(self, graph: nx.Graph, target_size: int | None = None) -> ReductionResult:
        """Distill ``graph``; binary-search the size unless ``target_size`` given.

        With ``target_size`` the reducer runs the annealer at that exact
        size (used by the fixed-ratio comparisons of Figs. 8-9); otherwise
        it binary-searches for the smallest size meeting the AND threshold.
        """
        ensure_graph(graph)
        n = graph.number_of_nodes()
        if graph.number_of_edges() == 0:
            raise ValueError("cannot reduce a graph with no edges")
        if target_size is not None:
            if not MIN_NODES <= target_size <= n:
                raise ValueError(
                    f"target_size must be in [{MIN_NODES}, {n}], got {target_size}"
                )
            best = self._anneal_at_size(graph, target_size)
            if best is None:
                raise ValueError(
                    f"target_size {target_size}: the graph has no connected "
                    f"subgraph of that size"
                )
            return self._build_result(graph, best)

        lo = max(MIN_NODES, int(np.ceil(self.min_keep_fraction * n)))
        lo = min(lo, n)
        hi = n
        feasible: AnnealResult | None = None
        while lo <= hi:
            mid = (lo + hi) // 2
            candidate = self._anneal_at_size(graph, mid)
            if candidate is not None and self._acceptable(graph, candidate):
                feasible = candidate
                hi = mid - 1  # try smaller
            else:
                lo = mid + 1  # need a bigger subgraph
        if feasible is None:
            # The graph itself always satisfies the ratio; fall back to it.
            whole = AnnealResult(
                nodes=set(graph.nodes()),
                subgraph=nx.Graph(graph),
                objective=0.0,
                steps=0,
                history=[0.0],
            )
            feasible = whole
        return self._build_result(graph, feasible)

    def reduce_problem(self, problem) -> ReductionResult:
        """Distill a :class:`~repro.problems.DiagonalProblem`.

        The annealer runs on the problem's coupling graph with fields
        included as self-loops (``weight = 2 h_u``), so the node-strength
        objective sees linear terms: a strongly-biased qubit counts as
        strongly connected and is preferentially retained.  The annealer
        handles self-loops (the strength sum counts each loop's
        ``|weight|`` once; connectivity ignores loops).  The kept nodes
        become :meth:`DiagonalProblem.subproblem`, relabeled like
        ``reduced_graph``.

        For a MaxCut-encoded problem the coupling graph is the original
        weighted graph (no fields), so this reduces exactly as
        :meth:`reduce` does on that graph.
        """
        graph = problem.coupling_graph(include_fields=True)
        reduction = self.reduce(graph)
        reduction.subproblem = problem.subproblem(sorted(reduction.nodes))
        return reduction

    # -- internals ----------------------------------------------------------

    def _anneal_at_size(self, graph: nx.Graph, k: int) -> AnnealResult | None:
        """Best annealing outcome over ``RETRIES`` runs, or None if impossible."""
        best: AnnealResult | None = None
        for _ in range(RETRIES):
            try:
                result = simulated_annealing(graph, k, seed=self._rng)
            except ValueError:
                return None  # no connected component of that size
            if best is None or result.objective < best.objective:
                best = result
            if best.objective == 0.0:
                break
        return best

    def _acceptable(self, graph: nx.Graph, result: AnnealResult) -> bool:
        return self._and_ratio(graph, result) >= self.and_ratio_threshold

    @staticmethod
    def _and_ratio(graph: nx.Graph, result: AnnealResult) -> float:
        """Weighted (strength-based) AND ratio; equals the paper's unweighted
        ratio exactly when all weights are 1."""
        sub = average_node_strength(result.subgraph) if result.subgraph.number_of_nodes() else 0.0
        return and_ratio(average_node_strength(graph), sub)

    def _build_result(self, graph: nx.Graph, result: AnnealResult) -> ReductionResult:
        mapping = {node: index for index, node in enumerate(sorted_labels(result.nodes))}
        reduced = relabel_to_range(induced_subgraph(graph, result.nodes))
        return ReductionResult(
            original_graph=graph,
            nodes=set(result.nodes),
            reduced_graph=reduced,
            node_mapping=mapping,
            and_ratio=self._and_ratio(graph, result),
            anneal_result=result,
        )
