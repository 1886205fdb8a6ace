"""Cross-instance reduction reuse (the paper's Sec. 6.1 opportunity).

The paper observes that the ideal landscapes of its 10-node and 11-node
test graphs nearly coincide -- so the distilled graph found for one could
have served the other, but Red-QAOA's per-instance subgraph search rejected
it.  :class:`ReductionCache` implements exactly that reuse: distilled
graphs are banked by their Average Node Degree, and a new instance first
checks the bank for a distilled graph whose AND clears the acceptance
ratio.  On a stream of similar instances (the common case in applications:
many MaxCut problems from one domain) this skips the annealing search
entirely for most graphs.

A cache *hit* returns a graph that is NOT a subgraph of the new instance --
that is fine for the parameter-optimization phase (only the landscape must
match, Sec. 3.2) and exactly mirrors how the paper argues cross-instance
transfer; solution finding still runs on the original graph.

Lookups are indexed, not scanned: entries live in ``(weighted, AND
bucket)`` buckets of width ``-ln(threshold)`` in log-AND space, so the
acceptance band ``AND_entry / AND_query in [t, 1/t]`` maps onto the query's
bucket plus its two neighbors and a lookup touches only candidate entries.
Hits refresh an entry's recency and eviction is least-recently-used, so a
hot banked reduction serving a stream of queries is never pushed out by
one-off misses the way FIFO eviction pushed it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx

from repro.core.reduction import GraphReducer, ReductionResult, and_ratio
from repro.obs.metrics import REGISTRY
from repro.utils.graphs import average_node_strength, ensure_graph, is_weighted

__all__ = ["CachedReduction", "ReductionCache"]

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
    source_nodes: int
    weighted: bool = False


class ReductionCache:
    """AND-indexed bank of distilled graphs with a reducer fallback.

    Parameters
    ----------
    reducer:
        Used on cache misses; its ``and_ratio_threshold`` also defines what
        counts as a hit (the banked graph's AND over the query graph's AND,
        symmetrized, must clear the threshold).
    max_entries:
        Bank capacity; the least-recently-*used* entry is evicted first
        (a lookup hit counts as use).
    """

    def __init__(
        self,
        reducer: GraphReducer | None = None,
        max_entries: int = 64,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.reducer = reducer if reducer is not None else GraphReducer()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        # Insertion-id -> entry, kept in least-recently-used order (first =
        # coldest); a plain dict preserves insertion order and re-inserting
        # a popped id moves it to the hot end.
        self._by_id: dict[int, CachedReduction] = {}
        # (weighted, log-AND bucket) -> ids, the lookup index.
        self._buckets: dict[tuple[bool, float], list[int]] = {}
        self._next_id = 0
        # Acceptance band in log-AND space; 0 means only exact-AND matches
        # qualify (threshold 1.0), handled by bucketing on the AND itself.
        self._indexed_threshold = self.reducer.and_ratio_threshold
        self._band = -math.log(self._indexed_threshold)

    def _ensure_index(self) -> None:
        """Re-bucket the bank if the reducer's threshold changed.

        ``reducer`` is a public attribute; swapping or retuning it must not
        desynchronize the index (bucket width == acceptance band) from the
        live acceptance test, so the index is rebuilt lazily on mismatch.
        """
        threshold = self.reducer.and_ratio_threshold
        if threshold == self._indexed_threshold:
            return
        self._indexed_threshold = threshold
        self._band = -math.log(threshold)
        self._buckets = {}
        for entry_id, entry in self._by_id.items():
            self._buckets.setdefault(
                (entry.weighted, self._bucket(entry.and_value)), []
            ).append(entry_id)

    def _bucket(self, and_value: float) -> float:
        if self._band > 0.0:
            return math.floor(math.log(and_value) / self._band)
        return and_value

    def _candidate_ids(self, weighted: bool, target: float) -> list[int]:
        """Ids whose AND could clear the band for ``target``, sorted by age.

        The band ``|ln(AND) - ln(target)| <= band`` spans at most the
        target's bucket and its two neighbors (bucket width == band).
        """
        center = self._bucket(target)
        offsets = (-1, 0, 1) if self._band > 0.0 else (0,)
        ids: list[int] = []
        for offset in offsets:
            ids.extend(self._buckets.get((weighted, center + offset), ()))
        return sorted(ids)

    def lookup(self, graph: nx.Graph) -> CachedReduction | None:
        """Best banked distilled graph acceptable for ``graph``, or None.

        Acceptable means the strength-based AND ratio clears the reducer's
        threshold, the banked graph is strictly smaller than ``graph``, and
        both sides agree on weightedness (a weighted instance's landscape
        depends on its couplings, which a unit-weight banked graph cannot
        represent).  Among acceptable entries the one with the closest AND
        wins (oldest first on exact ties); the winner is touched, i.e.
        moved to the most-recently-used end of the eviction order.
        """
        ensure_graph(graph)
        self._ensure_index()
        target = average_node_strength(graph)
        if target == 0.0:
            return None
        query_weighted = is_weighted(graph)
        best: CachedReduction | None = None
        best_id = -1
        best_gap = math.inf
        for entry_id in self._candidate_ids(query_weighted, target):
            entry = self._by_id[entry_id]
            if entry.graph.number_of_nodes() >= graph.number_of_nodes():
                continue
            if and_ratio(target, entry.and_value) < self.reducer.and_ratio_threshold:
                continue
            gap = abs(entry.and_value - target)
            if gap < best_gap:
                best, best_id, best_gap = entry, entry_id, gap
        if best is not None:
            self._by_id[best_id] = self._by_id.pop(best_id)  # LRU touch
            _BANK_HITS.inc()
        else:
            _BANK_MISSES.inc()
        return best

    def reduce(self, graph: nx.Graph) -> tuple[nx.Graph, bool]:
        """Distilled graph for ``graph`` plus whether it came from the bank.

        Misses run the full :class:`GraphReducer` and bank the result.
        """
        ensure_graph(graph)
        cached = self.lookup(graph)
        if cached is not None:
            self.hits += 1
            return nx.Graph(cached.graph), True
        self.misses += 1
        result = self.reducer.reduce(graph)
        self.bank(result)
        return result.reduced_graph, False

    @property
    def size(self) -> int:
        return len(self._by_id)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def _entries(self) -> list[CachedReduction]:
        """Banked entries in eviction order (least recently used first)."""
        return list(self._by_id.values())

    def bank(self, result: ReductionResult) -> None:
        """Insert a finished reduction into the bank (most recently used).

        Public so batch schedulers can populate the bank with reductions
        they computed through their own seeded reducers (the cache's
        fallback reducer has a single RNG stream, which per-job seeding
        must bypass).
        """
        self._ensure_index()
        and_value = average_node_strength(result.reduced_graph)
        if and_value <= 0.0:
            return  # an edgeless distilled graph can never serve a query
        entry = CachedReduction(
            graph=nx.Graph(result.reduced_graph),
            and_value=and_value,
            source_nodes=result.original_graph.number_of_nodes(),
            weighted=is_weighted(result.reduced_graph),
        )
        entry_id = self._next_id
        self._next_id += 1
        self._by_id[entry_id] = entry
        self._buckets.setdefault(
            (entry.weighted, self._bucket(entry.and_value)), []
        ).append(entry_id)
        while len(self._by_id) > self.max_entries:
            self._evict()

    def _evict(self) -> None:
        """Drop the least-recently-used entry and unindex it."""
        cold_id = next(iter(self._by_id))
        entry = self._by_id.pop(cold_id)
        key = (entry.weighted, self._bucket(entry.and_value))
        ids = self._buckets[key]
        ids.remove(cold_id)
        if not ids:
            del self._buckets[key]
