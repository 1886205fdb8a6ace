"""Tests for repro.core.annealer (Algorithm 1)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.annealer import simulated_annealing
from repro.core.cooling import AdaptiveCooling, ConstantCooling
from repro.utils.graphs import average_node_degree


def _connected_er(n, p, seed):
    offset = 0
    while True:
        g = nx.erdos_renyi_graph(n, p, seed=seed + offset)
        if g.number_of_edges() and nx.is_connected(g):
            return g
        offset += 100


class TestBasicBehaviour:
    def test_returns_requested_size(self):
        g = _connected_er(12, 0.4, 0)
        result = simulated_annealing(g, 7, seed=0)
        assert len(result.nodes) == 7
        assert result.subgraph.number_of_nodes() == 7

    def test_subgraph_connected(self):
        g = _connected_er(14, 0.3, 1)
        result = simulated_annealing(g, 8, seed=1)
        assert nx.is_connected(result.subgraph)

    def test_subgraph_is_induced(self):
        g = _connected_er(10, 0.5, 2)
        result = simulated_annealing(g, 6, seed=2)
        expected = g.subgraph(result.nodes)
        assert set(result.subgraph.edges()) == set(expected.edges())

    def test_objective_matches_reported_subgraph(self):
        g = _connected_er(12, 0.4, 3)
        result = simulated_annealing(g, 7, seed=3)
        expected = abs(average_node_degree(result.subgraph) - average_node_degree(g))
        assert result.objective == pytest.approx(expected)

    def test_history_is_monotone_nonincreasing(self):
        g = _connected_er(14, 0.4, 4)
        result = simulated_annealing(g, 8, seed=4)
        history = result.history
        assert all(a >= b for a, b in zip(history, history[1:]))

    def test_full_size_objective_zero(self):
        g = _connected_er(9, 0.4, 5)
        result = simulated_annealing(g, 9, seed=5)
        assert result.objective == 0.0


class TestQuality:
    def test_beats_random_subgraph_on_average(self):
        """SA should find lower objectives than uniform random sampling."""
        from _kernel_oracles import and_difference_objective

        from repro.utils.graphs import connected_random_subgraph

        g = _connected_er(15, 0.35, 6)
        rng = np.random.default_rng(0)
        random_objs = [
            and_difference_objective(g, connected_random_subgraph(g, 9, rng))
            for _ in range(30)
        ]
        sa_objs = [simulated_annealing(g, 9, seed=s).objective for s in range(5)]
        assert np.mean(sa_objs) <= np.mean(random_objs)

    def test_regular_graph_perfect_match_exists(self):
        """On a cycle every connected subgraph is a path: best |AND diff| is
        2/k, and SA must find exactly that."""
        g = nx.cycle_graph(12)
        result = simulated_annealing(g, 6, seed=0)
        assert result.objective == pytest.approx(2 / 6)

    def test_cooling_schedules_both_work(self):
        g = _connected_er(12, 0.4, 7)
        for cooling in ("adaptive", "constant", AdaptiveCooling(), ConstantCooling()):
            result = simulated_annealing(g, 7, cooling=cooling, seed=0)
            assert len(result.nodes) == 7

    def test_early_exit_on_perfect_match(self):
        """K6 -> any K4 subgraph can't match AND, but the full K6 does; a
        k = n run exits immediately with objective 0."""
        g = nx.complete_graph(6)
        result = simulated_annealing(g, 6, seed=0)
        assert result.objective == 0.0
        assert result.steps <= 1


class TestValidation:
    def test_k_out_of_range(self):
        g = nx.path_graph(5)
        with pytest.raises(ValueError):
            simulated_annealing(g, 0)
        with pytest.raises(ValueError):
            simulated_annealing(g, 6)

    def test_unknown_cooling(self):
        g = nx.path_graph(5)
        with pytest.raises(ValueError):
            simulated_annealing(g, 3, cooling="linear")

    def test_max_steps_respected(self):
        g = _connected_er(12, 0.4, 8)
        result = simulated_annealing(g, 6, max_steps=10, seed=0)
        assert result.steps <= 10

    def test_seed_reproducibility(self):
        g = _connected_er(12, 0.4, 9)
        a = simulated_annealing(g, 7, seed=42)
        b = simulated_annealing(g, 7, seed=42)
        assert a.nodes == b.nodes


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=6, max_value=14),
)
def test_property_annealer_invariants(seed, n):
    """Size, connectivity, and objective consistency hold for any input."""
    g = _connected_er(n, 0.45, seed)
    k = max(3, n // 2)
    result = simulated_annealing(g, k, seed=seed)
    assert len(result.nodes) == k
    assert nx.is_connected(result.subgraph)
    assert result.objective >= 0
    assert result.nodes <= set(g.nodes())
