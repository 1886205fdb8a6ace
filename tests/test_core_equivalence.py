"""Tests for repro.core.equivalence."""

import networkx as nx
import numpy as np
import pytest

from repro.core.equivalence import (
    fit_polynomial,
    subgraph_and_mse_study,
    AndMseSample,
)


class TestAndRatio:
    """Fig. 5's x-axis, as the study records it: the unclipped
    ``AND(subgraph) / AND(graph)`` on unweighted degrees."""

    def test_identity(self):
        # Every node of a triangle-plus-square has degree 2, so the
        # triangle and the square keep the whole graph's AND.
        g = nx.disjoint_union(nx.cycle_graph(3), nx.cycle_graph(4))
        samples = subgraph_and_mse_study(g, max_subgraphs_per_size=None, width=4)
        cycles = [s for s in samples if s.num_edges == s.num_nodes]
        assert sorted(s.num_nodes for s in cycles) == [3, 4]
        assert all(s.and_ratio == 1.0 for s in cycles)

    def test_subgraph_lower(self):
        samples = subgraph_and_mse_study(nx.complete_graph(6), width=4)
        assert [(s.num_nodes, s.and_ratio) for s in samples] == [
            (3, pytest.approx(2 / 5)), (4, pytest.approx(3 / 5)), (5, pytest.approx(4 / 5)),
        ]
        # Unclipped: a K4 head on a 3-node tail has the larger AND alone.
        lollipop = nx.lollipop_graph(4, 3)
        samples = subgraph_and_mse_study(lollipop, max_subgraphs_per_size=None, width=4)
        head = [s for s in samples if (s.num_nodes, s.num_edges) == (4, 6)]
        assert [s.and_ratio for s in head] == [pytest.approx(3.0 / (18 / 7))]

    def test_edgeless_original_rejected(self):
        g = nx.Graph()
        g.add_nodes_from(range(3))
        with pytest.raises(ValueError, match="no edges"):
            subgraph_and_mse_study(g)


class TestStudy:
    def test_samples_have_valid_fields(self):
        g = nx.erdos_renyi_graph(7, 0.5, seed=1)
        while not (g.number_of_edges() and nx.is_connected(g)):
            g = nx.erdos_renyi_graph(7, 0.5, seed=2)
        samples = subgraph_and_mse_study(g, min_size=3, max_subgraphs_per_size=5, width=8)
        assert samples
        for s in samples:
            assert 0 < s.and_ratio <= 1.5
            assert 0 <= s.mse <= 1.0
            assert 3 <= s.num_nodes < 7

    def test_correlation_direction(self):
        """Fig. 5's claim: AND ratios near 1 give lower MSE on average."""
        g = nx.erdos_renyi_graph(8, 0.5, seed=3)
        while not (g.number_of_edges() and nx.is_connected(g)):
            g = nx.erdos_renyi_graph(8, 0.5, seed=4)
        samples = subgraph_and_mse_study(g, min_size=3, max_subgraphs_per_size=10, width=8)
        close = [s.mse for s in samples if s.and_ratio >= 0.8]
        far = [s.mse for s in samples if s.and_ratio < 0.6]
        if close and far:
            assert np.mean(close) <= np.mean(far)


class TestFit:
    def test_polynomial_fit_degree(self):
        rng = np.random.default_rng(0)
        samples = [
            AndMseSample(5, 6, x, 0.1 * (1 - x) ** 2 + 0.001 * rng.random())
            for x in rng.uniform(0.2, 1.0, size=40)
        ]
        coeffs = fit_polynomial(samples, degree=6)
        assert len(coeffs) == 7
        # The fit should reproduce the underlying trend decently.
        predicted = np.polyval(coeffs, 0.5)
        assert predicted == pytest.approx(0.1 * 0.25, abs=0.02)

    def test_insufficient_samples(self):
        samples = [AndMseSample(3, 3, 0.5, 0.1)] * 3
        with pytest.raises(ValueError):
            fit_polynomial(samples, degree=6)
