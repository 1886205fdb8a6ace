"""Cross-instance reduction reuse (the paper's Sec. 6.1 opportunity).

The paper observes that the ideal landscapes of its 10-node and 11-node
test graphs nearly coincide -- so the distilled graph found for one could
have served the other, but Red-QAOA's per-instance subgraph search rejected
it.  :class:`ReductionCache` is the bank behind that reuse: distilled
graphs are banked with their Average Node Degree, and a new instance first
looks up a distilled graph whose AND clears the reducer's acceptance ratio.
On a stream of similar instances (the common case in applications: many
MaxCut problems from one domain) this skips the annealing search entirely
for most graphs.  The bank never reduces: the caller (the batch scheduler's
cross-instance mode) reduces a miss through its own seeded pipeline and
banks the result.

A cache *hit* returns a graph that is NOT a subgraph of the new instance --
that is fine for the parameter-optimization phase (only the landscape must
match, Sec. 3.2) and exactly mirrors how the paper argues cross-instance
transfer; solution finding still runs on the original graph.

The bank holds at most ``MAX_ENTRIES`` distilled graphs and gets one
lookup per batch instance, so a lookup scans it.  Hits refresh an entry's
recency and eviction is least-recently-used, so a hot banked reduction
serving a stream of queries is never pushed out by one-off misses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx

from repro.core.reduction import DEFAULT_AND_RATIO_THRESHOLD, ReductionResult, and_ratio
from repro.obs.metrics import REGISTRY
from repro.utils.graphs import average_node_strength, ensure_graph, is_weighted

__all__ = ["CachedReduction", "ReductionCache"]

MAX_ENTRIES = 64  # bank capacity; the least-recently-used entry goes first

_BANK_HITS = REGISTRY.counter(
    "redqaoa_reduction_cache_hits_total",
    "reduction-bank lookups served by a banked distilled graph",
)
_BANK_MISSES = REGISTRY.counter(
    "redqaoa_reduction_cache_misses_total",
    "reduction-bank lookups that found no acceptable entry",
)


@dataclass(frozen=True)
class CachedReduction:
    """One banked distilled graph.

    ``and_value`` is the strength-based (weighted) AND of the banked graph;
    ``weighted`` records whether it carries non-unit edge weights, so
    weighted queries never reuse weight-blind reductions and vice versa.
    """

    graph: nx.Graph
    and_value: float
    weighted: bool = False


class ReductionCache:
    """Bank of distilled graphs, looked up by AND.

    A banked graph is a hit when its AND over the query graph's AND,
    symmetrized, clears ``DEFAULT_AND_RATIO_THRESHOLD`` (0.7, the reducer's
    acceptance ratio).  ``hits`` and ``misses`` count :meth:`lookup`
    outcomes.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        # Insertion-id -> entry, kept in least-recently-used order (first =
        # coldest); a plain dict preserves insertion order and re-inserting
        # a popped id moves it to the hot end.
        self._by_id: dict[int, CachedReduction] = {}
        self._next_id = 0

    def lookup(self, graph: nx.Graph) -> CachedReduction | None:
        """Best banked distilled graph acceptable for ``graph``, or None.

        Acceptable means the strength-based AND ratio clears the
        threshold, the banked graph is strictly smaller than ``graph``, and
        both sides agree on weightedness (a weighted instance's landscape
        depends on its couplings, which a unit-weight banked graph cannot
        represent).  Among acceptable entries the one with the closest AND
        wins (oldest first on exact ties); the winner is touched, i.e.
        moved to the most-recently-used end of the eviction order.  Every
        call counts as one hit or one miss.
        """
        ensure_graph(graph)
        target = average_node_strength(graph)
        weighted = is_weighted(graph)
        size = graph.number_of_nodes()
        best: CachedReduction | None = None
        best_id = -1
        best_gap = math.inf
        for entry_id in sorted(self._by_id):
            entry = self._by_id[entry_id]
            if entry.weighted != weighted or entry.graph.number_of_nodes() >= size:
                continue
            if and_ratio(target, entry.and_value) < DEFAULT_AND_RATIO_THRESHOLD:
                continue
            gap = abs(entry.and_value - target)
            if gap < best_gap:
                best, best_id, best_gap = entry, entry_id, gap
        if best is not None:
            self._by_id[best_id] = self._by_id.pop(best_id)  # LRU touch
            self.hits += 1
            _BANK_HITS.inc()
        else:
            self.misses += 1
            _BANK_MISSES.inc()
        return best

    @property
    def size(self) -> int:
        return len(self._by_id)

    def bank(self, result: ReductionResult) -> None:
        """Insert a finished reduction into the bank (most recently used)."""
        and_value = average_node_strength(result.reduced_graph)
        if and_value <= 0.0:
            return  # an edgeless distilled graph can never serve a query
        self._by_id[self._next_id] = CachedReduction(
            graph=nx.Graph(result.reduced_graph),
            and_value=and_value,
            weighted=is_weighted(result.reduced_graph),
        )
        self._next_id += 1
        while len(self._by_id) > MAX_ENTRIES:
            del self._by_id[next(iter(self._by_id))]  # evict the coldest
