"""Tests for weighted MaxCut support across the QAOA stack."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gate_oracles import StatevectorSimulator
from repro.qaoa.analytic import maxcut_p1_expectation, maxcut_p1_weighted_edge_zz
from repro.qaoa.circuit_builder import build_qaoa_circuit
from repro.qaoa.fast_sim import qaoa_expectation_fast
from repro.qaoa.hamiltonian import MaxCutHamiltonian, cut_values
from repro.problems import local_search_value
from repro.problems.encodings import maxcut_problem
from repro.qaoa.maxcut import brute_force_maxcut, cut_size


def _weighted_er(n, p, seed, low=0.2, high=2.0):
    rng = np.random.default_rng(seed)
    offset = 0
    while True:
        g = nx.erdos_renyi_graph(n, p, seed=seed + offset)
        if g.number_of_edges() and nx.is_connected(g):
            break
        offset += 100
    for u, v in g.edges():
        g[u][v]["weight"] = float(rng.uniform(low, high))
    return g


class TestWeightedHamiltonian:
    def test_cut_values_scale_with_weight(self):
        g = nx.Graph()
        g.add_edge(0, 1, weight=2.5)
        assert np.allclose(cut_values(g), [0, 2.5, 2.5, 0])

    def test_is_weighted_flag(self):
        assert not MaxCutHamiltonian(nx.path_graph(3)).is_weighted
        assert MaxCutHamiltonian(_weighted_er(5, 0.6, 0)).is_weighted

    def test_weights_follow_sorted_edges(self):
        g = nx.Graph()
        g.add_edge(1, 2, weight=3.0)
        g.add_edge(0, 1, weight=5.0)
        ham = MaxCutHamiltonian(g)
        assert ham.edges == [(0, 1), (1, 2)]
        assert ham.weights == (5.0, 3.0)

    def test_max_value_weighted(self):
        g = nx.Graph()
        g.add_edge(0, 1, weight=1.0)
        g.add_edge(1, 2, weight=4.0)
        g.add_edge(0, 2, weight=1.0)
        # Best: separate node 1 (cuts 1+4 = 5) or node 2 (4+1 = 5).
        assert MaxCutHamiltonian(g).max_value() == 5.0


class TestWeightedSolvers:
    def test_cut_size_weighted(self):
        g = nx.Graph()
        g.add_edge(0, 1, weight=2.0)
        g.add_edge(1, 2, weight=3.0)
        assert cut_size(g, {0: 0, 1: 1, 2: 0}) == 5.0
        assert cut_size(g, {0: 0, 1: 0, 2: 1}) == 3.0

    def test_brute_force_weighted(self):
        g = _weighted_er(8, 0.5, 1)
        value, assignment = brute_force_maxcut(g)
        assert value == pytest.approx(cut_size(g, assignment))

    def test_local_search_matches_brute_force(self):
        for seed in range(3):
            g = _weighted_er(9, 0.45, seed)
            exact, _ = brute_force_maxcut(g)
            heuristic, bits = local_search_value(maxcut_problem(g), restarts=25, seed=seed)
            assert heuristic == pytest.approx(exact)
            assert cut_size(g, dict(enumerate(bits))) == pytest.approx(heuristic)


class TestWeightedCircuitsAndEngines:
    def test_circuit_matches_fast_engine(self):
        g = _weighted_er(6, 0.5, 2)
        ham = MaxCutHamiltonian(g)
        gamma, beta = 0.9, 0.4
        circuit = build_qaoa_circuit(g, [gamma], [beta])
        gate_level = StatevectorSimulator().expectation_diagonal(circuit, ham.diagonal)
        fast = qaoa_expectation_fast(ham, [gamma], [beta])
        assert gate_level == pytest.approx(fast, abs=1e-10)

    def test_weighted_edge_zz_bounds(self):
        zz = maxcut_p1_weighted_edge_zz(0.7, 0.3, 1.5, {2: 0.5}, {3: 1.1})
        assert -1.0 - 1e-9 <= zz <= 1.0 + 1e-9

    def test_analytic_matches_exact_weighted(self):
        for seed in range(4):
            g = _weighted_er(7, 0.5, seed)
            ham = MaxCutHamiltonian(g)
            rng = np.random.default_rng(seed)
            gamma = float(rng.uniform(0, 2 * np.pi))
            beta = float(rng.uniform(0, np.pi))
            exact = qaoa_expectation_fast(ham, [gamma], [beta])
            analytic = maxcut_p1_expectation(g, gamma, beta)
            assert analytic == pytest.approx(exact, abs=1e-9)

    def test_unit_weights_reduce_to_unweighted_formula(self):
        g = nx.erdos_renyi_graph(7, 0.5, seed=5)
        for u, v in g.edges():
            g[u][v]["weight"] = 1.0
        a = maxcut_p1_expectation(g, 0.8, 0.5)
        h = nx.erdos_renyi_graph(7, 0.5, seed=5)
        b = maxcut_p1_expectation(h, 0.8, 0.5)
        assert a == pytest.approx(b, abs=1e-12)

    def test_no_gamma_periodicity_with_irrational_weights(self):
        """Weighted cost layers are not 2*pi-periodic in gamma in general."""
        g = _weighted_er(6, 0.5, 7)
        ham = MaxCutHamiltonian(g)
        a = qaoa_expectation_fast(ham, [0.7], [0.4])
        b = qaoa_expectation_fast(ham, [0.7 + 2 * np.pi], [0.4])
        assert a != pytest.approx(b, abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    gamma=st.floats(min_value=0.0, max_value=2 * np.pi),
    beta=st.floats(min_value=0.0, max_value=np.pi),
)
def test_property_weighted_analytic_equals_statevector(seed, gamma, beta):
    """Weighted closed form agrees with exact simulation on random graphs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    g = _weighted_er(n, 0.5, seed)
    exact = qaoa_expectation_fast(MaxCutHamiltonian(g), [gamma], [beta])
    analytic = maxcut_p1_expectation(g, gamma, beta)
    assert analytic == pytest.approx(exact, abs=1e-8)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_property_weighted_expectation_bounded(seed):
    """0 <= <H_c> <= total weight for any weighted instance."""
    rng = np.random.default_rng(seed)
    g = _weighted_er(6, 0.5, seed)
    ham = MaxCutHamiltonian(g)
    total = sum(ham.weights)
    value = qaoa_expectation_fast(
        ham, [float(rng.uniform(0, 2 * np.pi))], [float(rng.uniform(0, np.pi))]
    )
    assert -1e-9 <= value <= total + 1e-9
