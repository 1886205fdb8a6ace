"""Tests for repro.core.cache (cross-instance reduction reuse).

The bank never reduces; :func:`_bank_round` plays the batch scheduler's
cross-instance round (look up, else reduce and bank) with one seeded
reducer per test.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.cache as cache_module
from repro.core.cache import ReductionCache
from repro.core.reduction import DEFAULT_AND_RATIO_THRESHOLD, GraphReducer, and_ratio
from repro.qaoa.landscape import compute_landscape, landscape_mse
from repro.utils.graphs import average_node_strength, is_weighted


def _connected_er(n, p, seed):
    offset = 0
    while True:
        g = nx.erdos_renyi_graph(n, p, seed=seed + offset)
        if g.number_of_edges() and nx.is_connected(g):
            return g
        offset += 100


def _bank_round(cache, reducer, graph):
    """Distilled graph for ``graph`` plus whether it came from the bank."""
    found = cache.lookup(graph)
    if found is not None:
        return found.graph, True
    result = reducer.reduce(graph)
    cache.bank(result)
    return result.reduced_graph, False


def _entries(cache):
    """Banked entries in eviction order (least recently used first)."""
    return list(cache._by_id.values())


class TestBasics:
    def test_first_call_misses_and_banks(self):
        cache, reducer = ReductionCache(), GraphReducer(seed=0)
        graph = _connected_er(10, 0.45, 0)
        reduced, hit = _bank_round(cache, reducer, graph)
        assert not hit
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache.size == 1
        assert reduced.number_of_nodes() < 10

    def test_similar_instance_hits(self):
        cache, reducer = ReductionCache(), GraphReducer(seed=0)
        base = _connected_er(10, 0.45, 0)
        _bank_round(cache, reducer, base)
        # The paper's 10-vs-11-node scenario: one extra node with a typical
        # number of edges barely moves the AND, so the banked graph applies.
        similar = nx.Graph(base)
        similar.add_edges_from([(10, 0), (10, 1), (10, 2)])
        reduced, hit = _bank_round(cache, reducer, similar)
        assert hit
        assert cache.hits == 1
        assert reduced.number_of_nodes() < similar.number_of_nodes()

    def test_dissimilar_instance_misses(self):
        cache, reducer = ReductionCache(), GraphReducer(seed=0)
        sparse = nx.cycle_graph(10)  # AND = 2
        _bank_round(cache, reducer, sparse)
        dense = nx.complete_graph(10)  # AND = 9
        _, hit = _bank_round(cache, reducer, dense)
        assert not hit

    def test_lookup_never_returns_equal_or_larger_graph(self):
        cache = ReductionCache()
        graph = _connected_er(10, 0.45, 2)
        _bank_round(cache, GraphReducer(seed=0), graph)
        small = _connected_er(5, 0.6, 3)
        entry = cache.lookup(small)
        if entry is not None:
            assert entry.graph.number_of_nodes() < 5

    def test_eviction(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_ENTRIES", 2)
        cache, reducer = ReductionCache(), GraphReducer(seed=0)
        for seed in range(4):
            # Alternate densities to force misses.
            p = 0.3 if seed % 2 == 0 else 0.8
            _bank_round(cache, reducer, _connected_er(9 + seed, p, seed))
        assert cache.size <= 2

    def test_hit_rate_accounting(self):
        """Every lookup counts once, banked or not, edgeless or not."""
        cache, reducer = ReductionCache(), GraphReducer(seed=0)
        assert (cache.hits, cache.misses) == (0, 0)
        _bank_round(cache, reducer, _connected_er(10, 0.45, 4))
        _bank_round(cache, reducer, _connected_er(10, 0.45, 5))
        misses = cache.misses
        assert cache.lookup(nx.empty_graph(4)) is None
        assert cache.misses == misses + 1
        assert cache.hits + cache.misses == 3

    def test_returned_graph_is_a_copy(self):
        """Neither the banked reduction nor the scheduler's wrap of a hit
        aliases the bank, so mutating either cannot corrupt it."""
        from repro.service.scheduler import _reduction_from_bank

        cache = ReductionCache()
        base = _connected_er(10, 0.45, 0)
        result = GraphReducer(seed=0).reduce(base)
        cache.bank(result)
        edges = _entries(cache)[0].graph.number_of_edges()
        result.reduced_graph.add_edge(0, 99)
        query = nx.Graph(base)
        query.add_edges_from([(10, 0), (10, 1), (10, 2)])
        found = cache.lookup(query)
        assert found is not None
        _reduction_from_bank(query, found).reduced_graph.add_edge(0, 98)
        assert _entries(cache)[0].graph.number_of_edges() == edges


class TestLandscapeQualityOfHits:
    def test_cache_hit_landscape_close_to_query(self):
        """The Sec. 6.1 claim: a banked reduced graph with matching AND has
        a landscape close to the *new* instance's."""
        cache, reducer = ReductionCache(), GraphReducer(seed=0)
        base = _connected_er(10, 0.45, 10)
        _bank_round(cache, reducer, base)
        mses = []
        for seed in (11, 12, 13):
            query = _connected_er(11, 0.45, seed)
            reduced, hit = _bank_round(cache, reducer, query)
            if not hit:
                continue
            reference = compute_landscape(query, width=12).values
            candidate = compute_landscape(reduced, width=12).values
            mses.append(landscape_mse(reference, candidate))
        if mses:
            assert np.mean(mses) < 0.08

    def test_stream_of_similar_instances_mostly_hits(self):
        cache, reducer = ReductionCache(), GraphReducer(seed=0)
        for seed in range(8):
            _bank_round(cache, reducer, _connected_er(10 + seed % 3, 0.45, 20 + seed))
        assert cache.hits >= 0.5 * (cache.hits + cache.misses)


def _synthetic_reduction(banked: nx.Graph, original_nodes: int):
    """A ReductionResult wrapping ``banked`` for direct bank() injection."""
    from repro.core.annealer import AnnealResult
    from repro.core.reduction import ReductionResult

    original = nx.path_graph(original_nodes)
    return ReductionResult(
        original_graph=original,
        nodes=set(banked.nodes()),
        reduced_graph=banked,
        node_mapping={node: node for node in banked.nodes()},
        and_ratio=1.0,
        anneal_result=AnnealResult(
            nodes=set(banked.nodes()), subgraph=nx.Graph(banked),
            objective=0.0, steps=0, history=[0.0],
        ),
    )


class TestIndexAndLRU:
    def test_lookup_matches_linear_scan(self):
        """Lookup selects the closest-AND acceptable entry."""
        cache, reducer = ReductionCache(), GraphReducer(seed=0)
        for seed in range(10):
            p = (0.25, 0.5, 0.75)[seed % 3]
            _bank_round(cache, reducer, _connected_er(8 + seed % 4, p, 40 + seed))

        for seed in range(6):
            query = _connected_er(12, (0.3, 0.55, 0.8)[seed % 3], 60 + seed)
            target = average_node_strength(query)
            weighted = is_weighted(query)
            threshold = DEFAULT_AND_RATIO_THRESHOLD
            best, best_gap = None, np.inf
            for entry in _entries(cache):
                if entry.graph.number_of_nodes() >= query.number_of_nodes():
                    continue
                if entry.weighted != weighted:
                    continue
                ratio = entry.and_value / target
                ratio = ratio if ratio <= 1.0 else 1.0 / ratio
                if ratio < threshold:
                    continue
                gap = abs(entry.and_value - target)
                if gap < best_gap:
                    best, best_gap = entry, gap
            found = cache.lookup(query)
            if best is None:
                assert found is None
            else:
                assert found is not None
                assert abs(found.and_value - target) == best_gap

    def test_hit_touches_entry_so_lru_eviction_spares_it(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_ENTRIES", 2)
        cache = ReductionCache()
        hot = nx.cycle_graph(5)  # AND = 2
        cold = nx.complete_graph(5)  # AND = 4
        cache.bank(_synthetic_reduction(hot, 10))
        cache.bank(_synthetic_reduction(cold, 10))
        # Touch the older (hot) entry via a cycle-like query...
        assert cache.lookup(nx.cycle_graph(8)) is not None
        # ...then overflow: the *untouched* complete graph must go.
        cache.bank(_synthetic_reduction(nx.cycle_graph(6), 12))
        assert cache.size == 2
        assert all(entry.and_value < 4.0 for entry in _entries(cache))

    def test_fifo_eviction_without_touches(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_ENTRIES", 2)
        cache = ReductionCache()
        for size in (4, 5, 6):
            cache.bank(_synthetic_reduction(nx.cycle_graph(size), 12))
        assert [entry.graph.number_of_nodes() for entry in _entries(cache)] == [5, 6]


_WEIGHTS = st.sampled_from([1.5, 2.0])


@st.composite
def _small_graph(draw, min_nodes, max_nodes, weighted):
    n = draw(st.integers(min_nodes, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    graph = nx.empty_graph(n)
    count = draw(st.integers(0, len(pairs)))
    for u, v in draw(st.permutations(pairs))[:count]:
        graph.add_edge(u, v, weight=draw(_WEIGHTS) if weighted else 1.0)
    return graph


@st.composite
def _bank_operations(draw):
    """Banks and lookups; a lookup may grow an earlier banked graph by a
    disjoint extra part, which keeps its AND near (or at) the banked one."""
    operations, banked = [], []
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(["bank", "lookup"]))
        weighted = draw(st.booleans())
        if kind == "bank":
            graph = draw(_small_graph(2, 5, weighted))
            banked.append(graph)
        elif banked and draw(st.booleans()):
            base = draw(st.sampled_from(banked))
            extra = base if draw(st.booleans()) else draw(_small_graph(1, 4, weighted))
            graph = nx.disjoint_union(base, extra)
        else:
            graph = draw(_small_graph(4, 8, weighted))
        operations.append((kind, graph))
    return operations


@settings(max_examples=80, deadline=None)
@given(operations=_bank_operations(), capacity=st.integers(1, 5))
def test_property_lookup_is_the_brute_force_rule(operations, capacity):
    """Over random banks (AND values, weightedness, sizes, evictions),
    ``lookup`` returns exactly the entry the bank rule picks by brute
    force -- same weightedness, strictly smaller, AND ratio at least the
    threshold, closest AND, oldest on ties -- and counts one hit or miss."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cache_module, "MAX_ENTRIES", capacity)
        cache = ReductionCache()
        model = []  # (insertion tag, graph, AND, weighted), least recent first
        for tag, (kind, graph) in enumerate(operations):
            graph.graph["tag"] = tag
            if kind == "bank":
                cache.bank(_synthetic_reduction(graph, 12))
                and_value = average_node_strength(graph)
                if and_value > 0.0:
                    model.append((tag, graph, and_value, is_weighted(graph)))
                    del model[:-capacity]
                continue
            target = average_node_strength(graph)
            expected, best_gap = None, np.inf
            for entry in sorted(model, key=lambda item: item[0]):
                _, banked, and_value, weighted = entry
                if weighted != is_weighted(graph):
                    continue
                if banked.number_of_nodes() >= graph.number_of_nodes():
                    continue
                if and_ratio(target, and_value) < DEFAULT_AND_RATIO_THRESHOLD:
                    continue
                if abs(and_value - target) < best_gap:
                    expected, best_gap = entry, abs(and_value - target)
            hits, misses = cache.hits, cache.misses
            found = cache.lookup(graph)
            if expected is None:
                assert found is None
                assert (cache.hits, cache.misses) == (hits, misses + 1)
            else:
                assert found is not None
                assert found.graph.graph["tag"] == expected[0]
                assert (cache.hits, cache.misses) == (hits + 1, misses)
                model.remove(expected)
                model.append(expected)  # a hit is a use
        assert [entry.graph.graph["tag"] for entry in _entries(cache)] == [
            item[0] for item in model
        ]


class TestWeightedIsolation:
    def test_weighted_query_never_hits_unweighted_bank(self):
        """A spin-glass instance must not reuse a weight-blind reduction."""
        from repro.datasets import attach_weights

        cache, reducer = ReductionCache(), GraphReducer(seed=0)
        base = _connected_er(10, 0.45, 0)
        _bank_round(cache, reducer, base)
        weighted = attach_weights(
            _connected_er(11, 0.45, 1), "spin", seed=1
        )
        assert cache.lookup(weighted) is None
        _, hit = _bank_round(cache, reducer, weighted)
        assert not hit

    def test_weighted_bank_serves_weighted_queries(self):
        from repro.datasets import attach_weights

        cache = ReductionCache()
        _bank_round(
            cache, GraphReducer(seed=0),
            attach_weights(_connected_er(10, 0.45, 2), "uniform", seed=2),
        )
        entry = _entries(cache)[0]
        assert entry.weighted
        similar = attach_weights(_connected_er(11, 0.45, 3), "uniform", seed=3)
        found = cache.lookup(similar)
        if found is not None:
            assert found.weighted
