"""Tests for repro.core.reduction (GraphReducer)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reduction import GraphReducer, and_ratio
from repro.utils.graphs import average_node_degree


def _connected_er(n, p, seed):
    offset = 0
    while True:
        g = nx.erdos_renyi_graph(n, p, seed=seed + offset)
        if g.number_of_edges() and nx.is_connected(g):
            return g
        offset += 100


class TestReduce:
    def test_result_structure(self):
        g = _connected_er(12, 0.4, 0)
        result = GraphReducer(seed=0).reduce(g)
        assert result.nodes <= set(g.nodes())
        assert result.reduced_graph.number_of_nodes() == len(result.nodes)
        assert set(result.reduced_graph.nodes()) == set(range(len(result.nodes)))

    def test_reduction_happens(self):
        g = _connected_er(14, 0.4, 1)
        result = GraphReducer(seed=1).reduce(g)
        assert result.node_reduction > 0

    def test_and_ratio_threshold_met(self):
        for seed in range(4):
            g = _connected_er(12, 0.45, seed)
            reducer = GraphReducer(and_ratio_threshold=0.7, seed=seed)
            result = reducer.reduce(g)
            assert result.and_ratio >= 0.7 - 1e-9

    def test_min_keep_fraction_respected(self):
        g = _connected_er(15, 0.4, 2)
        result = GraphReducer(min_keep_fraction=0.8, seed=2).reduce(g)
        assert len(result.nodes) >= int(np.ceil(0.8 * 15))

    def test_stricter_threshold_keeps_more_nodes(self):
        g = _connected_er(14, 0.45, 3)
        loose = GraphReducer(and_ratio_threshold=0.6, min_keep_fraction=0.3, seed=3).reduce(g)
        strict = GraphReducer(and_ratio_threshold=0.95, min_keep_fraction=0.3, seed=3).reduce(g)
        assert len(strict.nodes) >= len(loose.nodes)

    def test_target_size_bypasses_search(self):
        g = _connected_er(12, 0.4, 4)
        result = GraphReducer(seed=4).reduce(g, target_size=8)
        assert len(result.nodes) == 8

    def test_node_mapping_consistent(self):
        g = _connected_er(10, 0.5, 5)
        result = GraphReducer(seed=5).reduce(g)
        for original, new in result.node_mapping.items():
            assert original in result.nodes
            assert 0 <= new < len(result.nodes)
        # Mapping must be a bijection.
        assert len(set(result.node_mapping.values())) == len(result.nodes)

    def test_edge_reduction_property(self):
        g = _connected_er(12, 0.45, 6)
        result = GraphReducer(seed=6).reduce(g)
        expected = 1 - result.reduced_graph.number_of_edges() / g.number_of_edges()
        assert result.edge_reduction == pytest.approx(expected)

    def test_edge_reduction_at_least_node_reduction_dense(self):
        """Removing nodes from a dense graph removes at least as many edges
        proportionally (each removed node had >= average degree chance)."""
        g = nx.complete_graph(10)
        result = GraphReducer(seed=7).reduce(g)
        assert result.edge_reduction >= result.node_reduction - 1e-9


class TestValidation:
    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            GraphReducer(and_ratio_threshold=0.0)
        with pytest.raises(ValueError):
            GraphReducer(and_ratio_threshold=1.5)

    def test_min_nodes_bound(self):
        with pytest.raises(ValueError):
            GraphReducer(min_nodes=1)

    def test_min_keep_fraction_bounds(self):
        with pytest.raises(ValueError):
            GraphReducer(min_keep_fraction=0.0)

    def test_retries_bound(self):
        with pytest.raises(ValueError):
            GraphReducer(retries=0)

    def test_edgeless_graph_rejected(self):
        g = nx.Graph()
        g.add_nodes_from(range(3))
        with pytest.raises(ValueError):
            GraphReducer(seed=0).reduce(g)

    def test_target_size_out_of_range(self):
        g = _connected_er(8, 0.5, 8)
        with pytest.raises(ValueError):
            GraphReducer(seed=0).reduce(g, target_size=2)
        with pytest.raises(ValueError):
            GraphReducer(seed=0).reduce(g, target_size=9)

    def test_tiny_graph_falls_back_to_whole(self):
        g = nx.path_graph(3)
        result = GraphReducer(seed=0).reduce(g)
        assert len(result.nodes) == 3
        assert result.node_reduction == 0.0


def test_and_ratio_is_symmetric_and_zero_on_an_empty_side():
    assert and_ratio(4.0, 3.0) == 0.75
    assert and_ratio(3.0, 4.0) == 0.75
    assert and_ratio(2.5, 2.5) == 1.0
    assert and_ratio(0.0, 3.0) == 0.0
    assert and_ratio(3.0, 0.0) == 0.0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**5))
def test_property_reducer_invariants(seed):
    """Reduced graph is connected, smaller or equal, within AND threshold."""
    g = _connected_er(8 + seed % 6, 0.45, seed)
    reducer = GraphReducer(seed=seed)
    result = reducer.reduce(g)
    assert nx.is_connected(result.reduced_graph)
    assert result.reduced_graph.number_of_nodes() <= g.number_of_nodes()
    assert result.and_ratio >= reducer.and_ratio_threshold - 1e-9
    # AND ratio definition check.
    ratio = average_node_degree(result.reduced_graph) / average_node_degree(g)
    ratio = ratio if ratio <= 1 else 1 / ratio
    assert result.and_ratio == pytest.approx(ratio)


class TestWeightedReduction:
    def _weighted_er(self, n, p, seed):
        from repro.datasets import attach_weights

        offset = 0
        while True:
            g = nx.erdos_renyi_graph(n, p, seed=seed + offset)
            if g.number_of_edges() and nx.is_connected(g):
                return attach_weights(g, "uniform", low=0.2, high=3.0, seed=seed)
            offset += 100

    def test_weighted_reduction_preserves_strength_ratio(self):
        from repro.utils.graphs import average_node_strength

        g = self._weighted_er(14, 0.4, 0)
        result = GraphReducer(seed=0).reduce(g)
        expected = average_node_strength(result.reduced_graph) / average_node_strength(g)
        expected = expected if expected <= 1.0 else 1.0 / expected
        assert result.and_ratio == pytest.approx(expected)
        assert result.and_ratio >= 0.7
        # Edge data survives the reduction and relabeling.
        assert all("weight" in d for _, _, d in result.reduced_graph.edges(data=True))

    def test_unit_weights_reduce_identically(self):
        """Explicit 1.0 weights must not change the reducer's decisions."""
        g = nx.erdos_renyi_graph(12, 0.45, seed=3)
        if not nx.is_connected(g):
            g = nx.erdos_renyi_graph(12, 0.45, seed=103)
        h = nx.Graph(g)
        for u, v in h.edges():
            h[u][v]["weight"] = 1.0
        a = GraphReducer(seed=5).reduce(g)
        b = GraphReducer(seed=5).reduce(h)
        assert a.nodes == b.nodes
        assert a.and_ratio == b.and_ratio
