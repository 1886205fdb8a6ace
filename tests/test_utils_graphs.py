"""Tests for repro.utils.graphs, plus the annealer oracle's swap helpers.

``is_connected_subset`` and ``neighbor_swap`` live in ``_kernel_oracles``
(only the per-call annealing oracle uses them); they are tested here next
to the library's ``connected_random_subgraph`` they build on.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _kernel_oracles import is_connected_subset, neighbor_swap
from repro.utils.graphs import (
    average_node_degree,
    connected_random_subgraph,
    edge_list,
    ensure_graph,
    induced_subgraph,
    nonisomorphic_connected_subgraphs,
    relabel_to_range,
)


class TestEnsureGraph:
    def test_accepts_simple_graph(self):
        g = nx.path_graph(3)
        assert ensure_graph(g) is g

    def test_rejects_directed(self):
        with pytest.raises(TypeError):
            ensure_graph(nx.DiGraph([(0, 1)]))

    def test_rejects_multigraph(self):
        with pytest.raises(TypeError):
            ensure_graph(nx.MultiGraph([(0, 1)]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ensure_graph(nx.Graph())

    def test_rejects_non_graph(self):
        with pytest.raises(TypeError):
            ensure_graph([(0, 1)])


class TestAverageNodeDegree:
    def test_cycle_graph_is_two(self):
        assert average_node_degree(nx.cycle_graph(7)) == 2.0

    def test_complete_graph(self):
        assert average_node_degree(nx.complete_graph(5)) == 4.0

    def test_star_graph(self):
        # K_{1,4}: degrees 4,1,1,1,1 -> AND = 8/5.
        assert average_node_degree(nx.star_graph(4)) == pytest.approx(1.6)

    def test_single_node(self):
        g = nx.Graph()
        g.add_node(0)
        assert average_node_degree(g) == 0.0

    def test_matches_sum_of_degrees(self):
        g = nx.erdos_renyi_graph(10, 0.4, seed=2)
        expected = sum(d for _, d in g.degree()) / g.number_of_nodes()
        assert average_node_degree(g) == pytest.approx(expected)


class TestEdgeList:
    def test_sorted_tuples(self):
        g = nx.Graph([(3, 1), (2, 0)])
        assert sorted(edge_list(g)) == [(0, 2), (1, 3)]

    def test_count_matches(self):
        g = nx.erdos_renyi_graph(9, 0.5, seed=1)
        assert len(edge_list(g)) == g.number_of_edges()


class TestRelabelToRange:
    def test_string_labels(self):
        g = nx.Graph([("b", "a"), ("a", "c")])
        r = relabel_to_range(g)
        assert set(r.nodes()) == {0, 1, 2}
        assert r.number_of_edges() == 2

    def test_preserves_structure(self):
        g = nx.Graph([(10, 20), (20, 30), (30, 10)])
        r = relabel_to_range(g)
        assert nx.is_isomorphic(g, r)

    def test_deterministic(self):
        g = nx.Graph([(5, 2), (2, 9)])
        assert edge_list(relabel_to_range(g)) == edge_list(relabel_to_range(g))

    def test_already_ranged_is_identity_mapping(self):
        g = nx.path_graph(4)
        assert edge_list(relabel_to_range(g)) == edge_list(g)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=10**6),
    fraction=st.floats(min_value=0.0, max_value=1.0),
    labels=st.sampled_from(["int", "str"]),
)
def test_induced_subgraph_is_the_networkx_copy(n, seed, fraction, labels):
    """Same nodes, edges, data and every iteration order as
    ``nx.Graph(graph.subgraph(nodes))``, below and above half the graph."""
    graph = nx.gnp_random_graph(n, 0.3, seed=seed)
    if labels == "str":
        graph = nx.relabel_nodes(graph, {v: f"q{(7 * v) % n}" for v in graph})
    rng = np.random.default_rng(seed)
    for u, v in graph.edges():
        graph[u][v]["weight"] = float(rng.normal())
    first = next(iter(graph))
    graph.add_edge(first, first, weight=2.0)
    graph.nodes[first]["field"] = 1.5
    graph.graph["name"] = "g"
    order = list(graph)
    rng.shuffle(order)
    nodes = set(order[: round(fraction * n)]) | {"absent"}
    expected = nx.Graph(graph.subgraph(nodes))
    got = induced_subgraph(graph, nodes)
    assert list(got.nodes(data=True)) == list(expected.nodes(data=True))
    assert list(got.edges(data=True)) == list(expected.edges(data=True))
    assert [list(got.adj[v]) for v in got] == [list(expected.adj[v]) for v in expected]
    assert got.graph == expected.graph
    assert all(got.nodes[v] is not graph.nodes[v] for v in got)
    assert all(got[u][v] is not graph[u][v] for u, v in got.edges())


class TestIsConnectedSubset:
    def test_connected(self):
        g = nx.path_graph(5)
        assert is_connected_subset(g, {1, 2, 3})

    def test_disconnected(self):
        g = nx.path_graph(5)
        assert not is_connected_subset(g, {0, 4})

    def test_empty_is_false(self):
        assert not is_connected_subset(nx.path_graph(3), set())

    def test_unknown_node_raises(self):
        with pytest.raises(ValueError):
            is_connected_subset(nx.path_graph(3), {0, 99})


class TestConnectedRandomSubgraph:
    @pytest.mark.parametrize("size", [1, 3, 5, 8])
    def test_size_and_connectivity(self, size):
        g = nx.erdos_renyi_graph(8, 0.5, seed=3)
        assert nx.is_connected(g)
        nodes = connected_random_subgraph(g, size, seed=0)
        assert len(nodes) == size
        assert nx.is_connected(g.subgraph(nodes))

    def test_full_size_returns_everything(self):
        g = nx.cycle_graph(6)
        assert connected_random_subgraph(g, 6, seed=0) == set(range(6))

    def test_size_out_of_range(self):
        g = nx.path_graph(4)
        with pytest.raises(ValueError):
            connected_random_subgraph(g, 0)
        with pytest.raises(ValueError):
            connected_random_subgraph(g, 5)

    def test_too_small_component_raises(self):
        g = nx.Graph([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            connected_random_subgraph(g, 3, seed=0)

    def test_seed_reproducibility(self):
        g = nx.erdos_renyi_graph(10, 0.4, seed=7)
        a = connected_random_subgraph(g, 5, seed=42)
        b = connected_random_subgraph(g, 5, seed=42)
        assert a == b


class TestNeighborSwap:
    def test_preserves_size(self):
        g = nx.erdos_renyi_graph(10, 0.5, seed=1)
        nodes = connected_random_subgraph(g, 5, seed=0)
        swapped = neighbor_swap(g, nodes, seed=0)
        assert len(swapped) == 5

    def test_preserves_connectivity(self):
        g = nx.erdos_renyi_graph(10, 0.5, seed=1)
        nodes = connected_random_subgraph(g, 5, seed=0)
        for seed in range(10):
            nodes = neighbor_swap(g, nodes, seed=seed)
            assert nx.is_connected(g.subgraph(nodes))

    def test_changes_at_most_one_node(self):
        g = nx.erdos_renyi_graph(10, 0.5, seed=1)
        nodes = connected_random_subgraph(g, 5, seed=0)
        swapped = neighbor_swap(g, nodes, seed=3)
        assert len(nodes - swapped) <= 1
        assert len(swapped - nodes) <= 1

    def test_whole_graph_is_fixed_point(self):
        g = nx.cycle_graph(5)
        nodes = set(range(5))
        assert neighbor_swap(g, nodes, seed=0) == nodes

    def test_does_not_mutate_input(self):
        g = nx.erdos_renyi_graph(8, 0.5, seed=2)
        nodes = connected_random_subgraph(g, 4, seed=0)
        snapshot = set(nodes)
        neighbor_swap(g, nodes, seed=1)
        assert nodes == snapshot


class TestNonisomorphicSubgraphs:
    def test_path_graph_subpaths(self):
        # All connected 3-node subgraphs of P5 are paths: one iso class.
        result = nonisomorphic_connected_subgraphs(nx.path_graph(5), 3)
        assert len(result) == 1

    def test_cycle_plus_chord(self):
        g = nx.cycle_graph(4)
        g.add_edge(0, 2)
        result = nonisomorphic_connected_subgraphs(g, 3)
        # Triangles and paths of length 2 both occur.
        assert len(result) == 2

    def test_max_count_caps_enumeration(self):
        g = nx.erdos_renyi_graph(9, 0.6, seed=4)
        result = nonisomorphic_connected_subgraphs(g, 5, max_count=3)
        assert len(result) <= 3

    def test_all_results_connected_and_right_size(self):
        g = nx.erdos_renyi_graph(8, 0.4, seed=9)
        for sub in nonisomorphic_connected_subgraphs(g, 4):
            assert sub.number_of_nodes() == 4
            assert nx.is_connected(sub)

    def test_pairwise_nonisomorphic(self):
        g = nx.erdos_renyi_graph(8, 0.5, seed=8)
        subs = nonisomorphic_connected_subgraphs(g, 4)
        for i in range(len(subs)):
            for j in range(i + 1, len(subs)):
                assert not nx.is_isomorphic(subs[i], subs[j])


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=12),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_property_subgraph_sampling_always_connected(n, seed):
    """Any connected graph, any feasible size: sample stays connected."""
    rng = np.random.default_rng(seed)
    graph = nx.erdos_renyi_graph(n, 0.5, seed=int(rng.integers(10**6)))
    if not (graph.number_of_edges() and nx.is_connected(graph)):
        graph = nx.cycle_graph(n)
    size = int(rng.integers(1, n + 1))
    nodes = connected_random_subgraph(graph, size, seed=rng)
    assert len(nodes) == size
    assert nx.is_connected(graph.subgraph(nodes))


class TestAverageNodeStrength:
    def test_unit_weights_equal_degree(self):
        from repro.utils.graphs import average_node_strength

        g = nx.erdos_renyi_graph(9, 0.4, seed=1)
        assert average_node_strength(g) == average_node_degree(g)

    def test_weighted_value(self):
        from repro.utils.graphs import average_node_strength

        g = nx.Graph()
        g.add_edge(0, 1, weight=2.0)
        g.add_edge(1, 2, weight=0.5)
        assert average_node_strength(g) == pytest.approx(2 * 2.5 / 3)

    def test_negative_weights_use_magnitude(self):
        """Spin-glass couplings count by |w|: signed sums would cancel."""
        from repro.utils.graphs import average_node_strength

        g = nx.Graph()
        g.add_edge(0, 1, weight=-1.0)
        g.add_edge(1, 2, weight=1.0)
        assert average_node_strength(g) == pytest.approx(2 * 2.0 / 3)
