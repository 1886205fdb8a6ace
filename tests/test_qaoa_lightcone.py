"""Tests for repro.qaoa.lightcone."""

import networkx as nx
import numpy as np
import pytest

from repro.qaoa.fast_sim import qaoa_expectation_fast
from repro.qaoa.hamiltonian import MaxCutHamiltonian
from repro.qaoa.lightcone import LightconePlan, LightconeTooLargeError, edge_lightcone


def _cone(g, gammas, betas):
    return LightconePlan.build(g, len(gammas)).evaluate(gammas, betas)


def _connected_er(n, p, seed):
    offset = 0
    while True:
        g = nx.erdos_renyi_graph(n, p, seed=seed + offset)
        if g.number_of_edges() and nx.is_connected(g):
            return g
        offset += 100


class TestEdgeLightcone:
    def test_p1_is_closed_neighborhood(self):
        g = nx.path_graph(7)
        nodes = edge_lightcone(g, (2, 3), 1)
        assert nodes == {1, 2, 3, 4}

    def test_grows_with_p(self):
        g = nx.path_graph(9)
        assert edge_lightcone(g, (4, 5), 1) < edge_lightcone(g, (4, 5), 2)

    def test_saturates_at_graph(self):
        g = nx.cycle_graph(5)
        assert edge_lightcone(g, (0, 1), 10) == set(range(5))


class TestLightconeExpectation:
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_exact_on_sparse_graph(self, p):
        g = _connected_er(9, 0.25, 3)
        ham = MaxCutHamiltonian(g)
        rng = np.random.default_rng(p)
        gammas = list(rng.uniform(0, 2 * np.pi, size=p))
        betas = list(rng.uniform(0, np.pi, size=p))
        exact = qaoa_expectation_fast(ham, gammas, betas)
        cone = _cone(g, gammas, betas)
        assert cone == pytest.approx(exact, abs=1e-9)

    def test_matches_exact_on_tree(self):
        g = nx.random_labeled_tree(12, seed=4) if hasattr(nx, "random_labeled_tree") else nx.random_tree(12, seed=4)
        ham = MaxCutHamiltonian(g)
        exact = qaoa_expectation_fast(ham, [0.8, 1.2], [0.3, 0.7])
        cone = _cone(g, [0.8, 1.2], [0.3, 0.7])
        assert cone == pytest.approx(exact, abs=1e-9)

    def test_regular_graph_cache_reuse(self):
        """On a cycle all lightcones are isomorphic: one evaluation reused."""
        g = nx.cycle_graph(30)
        value = _cone(g, [0.5], [0.3])
        # Compare against a smaller cycle scaled by edge count: each edge of
        # any long-enough cycle contributes identically at p=1.
        small = nx.cycle_graph(10)
        small_value = _cone(small, [0.5], [0.3])
        assert value / 30 == pytest.approx(small_value / 10, abs=1e-9)

    def test_too_dense_raises(self):
        g = nx.complete_graph(25)
        with pytest.raises(LightconeTooLargeError):
            LightconePlan.build(g, 2, max_qubits=10)

    def test_parameter_validation(self):
        g = nx.path_graph(4)
        with pytest.raises(ValueError):
            LightconePlan.build(g, 1).evaluate([0.1], [0.1, 0.2])

    def test_large_sparse_graph_feasible(self):
        """60-node 3-regular graph at p=2: full statevector impossible,
        lightcones small."""
        g = nx.random_regular_graph(3, 60, seed=0)
        value = _cone(g, [0.4, 0.9], [0.2, 0.6])
        assert 0 <= value <= g.number_of_edges()


class TestSignatureCache:
    def test_cycle_single_evaluation(self):
        """Every lightcone of a long cycle is isomorphic: one simulation."""
        stats = LightconePlan.build(nx.cycle_graph(30), 1).stats
        assert stats == {"edges": 30, "evaluations": 1, "hits": 29}

    def test_regular_graph_hit_rate(self):
        """On a 3-regular graph most p=2 lightcones repeat; the canonical
        signature must merge them (>50% hit rate)."""
        stats = LightconePlan.build(nx.random_regular_graph(3, 60, seed=0), 2).stats
        assert stats["edges"] == 90
        assert stats["hits"] / stats["edges"] > 0.5

    def test_signature_is_label_independent(self):
        """Relabeling the graph must not change value or evaluation count."""
        g = nx.random_regular_graph(3, 40, seed=3)
        perm = list(range(40))
        np.random.default_rng(9).shuffle(perm)
        h = nx.relabel_nodes(g, dict(zip(g.nodes(), perm)))
        plan_g, plan_h = LightconePlan.build(g, 2), LightconePlan.build(h, 2)
        v_g = plan_g.evaluate([0.4, 0.9], [0.2, 0.6])
        v_h = plan_h.evaluate([0.4, 0.9], [0.2, 0.6])
        assert v_g == pytest.approx(v_h, abs=1e-12)
        assert plan_g.stats["evaluations"] == plan_h.stats["evaluations"]

    def test_weighted_lightcones_not_merged(self):
        """Identical topology with different weights must evaluate separately."""
        g = nx.cycle_graph(12)
        rng = np.random.default_rng(4)
        for u, v in g.edges():
            g[u][v]["weight"] = float(rng.uniform(0.5, 1.5))
        stats = LightconePlan.build(g, 1).stats
        # All 12 lightcones share a topology but carry distinct weights.
        assert stats["evaluations"] == 12
