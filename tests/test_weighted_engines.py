"""Cross-engine agreement on weighted MaxCut instances.

Regression suite for the lightcone weight bug: the seed's per-call
lightcone engine evolved states under the weighted Hamiltonian but
read out the *unweighted* cut indicator and memoized by a weight-blind
signature, so any weighted graph dispatched to the lightcone path got a
silently wrong answer.  These tests pin the corrected behavior and assert
all three exact engines agree on random weighted instances.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import attach_weights
from repro.qaoa.analytic import maxcut_p1_expectation
from repro.qaoa.expectation import maxcut_expectation
from repro.qaoa.fast_sim import qaoa_expectation_fast
from repro.qaoa.hamiltonian import MaxCutHamiltonian
from repro.qaoa.lightcone import LightconePlan


def _cone(g, gammas, betas):
    return LightconePlan.build(g, len(gammas)).evaluate(gammas, betas)


def _weighted_sparse(n, p_edge, seed, distribution="uniform"):
    offset = 0
    while True:
        g = nx.erdos_renyi_graph(n, p_edge, seed=seed + offset)
        if g.number_of_edges() and nx.is_connected(g):
            break
        offset += 100
    return attach_weights(g, distribution, seed=seed)


def _weighted_six_cycle():
    g = nx.cycle_graph(6)
    for (u, v), w in zip(g.edges(), [0.5, 1.5, 0.9, 1.2, 2.0, 0.7]):
        g[u][v]["weight"] = w
    return g


class TestWeightedLightconeRegression:
    def test_pinned_weighted_cycle_value(self):
        """The exact value the seed's lightcone engine got wrong."""
        g = _weighted_six_cycle()
        value = _cone(g, [0.6], [0.35])
        assert value == pytest.approx(5.2609333244663095, abs=1e-9)
        # The seed returned the unweighted readout of one shared cache
        # entry times the edge count -- make sure that never comes back.
        assert value != pytest.approx(3.646211448855615, abs=1e-6)

    def test_weighted_cycle_matches_statevector(self):
        g = _weighted_six_cycle()
        exact = qaoa_expectation_fast(MaxCutHamiltonian(g), [0.6], [0.35])
        assert _cone(g, [0.6], [0.35]) == pytest.approx(exact, abs=1e-9)

    def test_signature_distinguishes_weights(self):
        """Same topology, different weights: no cache cross-talk."""
        g = _weighted_six_cycle()
        h = nx.cycle_graph(6)
        for u, v in h.edges():
            h[u][v]["weight"] = 1.0
        weighted = _cone(g, [0.6], [0.35])
        unit = _cone(h, [0.6], [0.35])
        assert weighted != pytest.approx(unit, abs=1e-6)
        assert unit == pytest.approx(
            _cone(nx.cycle_graph(6), [0.6], [0.35]), abs=1e-12
        )

    def test_acceptance_24_node_weighted_p2(self):
        """Acceptance criterion: weighted 24-node p=2 graph on the auto
        (lightcone) path matches a direct statevector computation to 1e-9."""
        g = attach_weights(nx.random_regular_graph(3, 24, seed=5), "uniform", seed=5)
        gammas, betas = [0.7, 0.3], [0.25, 0.5]
        auto = maxcut_expectation(g, gammas, betas)
        direct = qaoa_expectation_fast(MaxCutHamiltonian(g), gammas, betas)
        assert auto == pytest.approx(direct, abs=1e-9)

    def test_spin_glass_couplings(self):
        """+/-1 couplings (negative weights) agree across engines."""
        g = _weighted_sparse(10, 0.25, 3, distribution="spin")
        exact = qaoa_expectation_fast(MaxCutHamiltonian(g), [0.8, 0.4], [0.3, 0.6])
        cone = _cone(g, [0.8, 0.4], [0.3, 0.6])
        assert cone == pytest.approx(exact, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    gamma=st.floats(min_value=0.0, max_value=2 * np.pi),
    beta=st.floats(min_value=0.0, max_value=np.pi),
)
def test_property_p1_three_engines_agree_weighted(seed, gamma, beta):
    """p=1: statevector, analytic (weighted product form) and lightcone all
    compute the same expectation on random weighted graphs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 10))
    g = _weighted_sparse(n, 0.3, seed)
    exact = qaoa_expectation_fast(MaxCutHamiltonian(g), [gamma], [beta])
    analytic = maxcut_p1_expectation(g, gamma, beta)
    cone = _cone(g, [gamma], [beta])
    assert analytic == pytest.approx(exact, abs=1e-8)
    assert cone == pytest.approx(exact, abs=1e-8)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    gamma1=st.floats(min_value=0.0, max_value=2 * np.pi),
    gamma2=st.floats(min_value=0.0, max_value=2 * np.pi),
    beta1=st.floats(min_value=0.0, max_value=np.pi),
    beta2=st.floats(min_value=0.0, max_value=np.pi),
)
def test_property_p2_lightcone_matches_statevector_weighted(
    seed, gamma1, gamma2, beta1, beta2
):
    """p=2: lightcone agrees with the exact statevector engine on random
    weighted sparse graphs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 11))
    g = _weighted_sparse(n, 0.25, seed)
    gammas, betas = [gamma1, gamma2], [beta1, beta2]
    exact = qaoa_expectation_fast(MaxCutHamiltonian(g), gammas, betas)
    cone = _cone(g, gammas, betas)
    assert cone == pytest.approx(exact, abs=1e-8)


class TestAutoDispatchWeighted:
    def test_large_weighted_p1_routes_analytic(self):
        """Above EXACT_LIMIT at p=1 the analytic weighted form is used and
        agrees with the lightcone engine."""
        g = attach_weights(nx.random_regular_graph(3, 30, seed=2), "gaussian", seed=2)
        auto = maxcut_expectation(g, [0.5], [0.3])
        assert auto == maxcut_p1_expectation(g, 0.5, 0.3)
        assert auto == pytest.approx(_cone(g, [0.5], [0.3]), abs=1e-9)

    def test_small_weighted_routes_statevector(self):
        g = _weighted_sparse(8, 0.4, 11)
        auto = maxcut_expectation(g, [0.5, 0.2], [0.3, 0.1])
        exact = qaoa_expectation_fast(MaxCutHamiltonian(g), [0.5, 0.2], [0.3, 0.1])
        assert auto == exact
