"""Tests for repro.transfer.lookup (warm-start parameter library)."""

import networkx as nx
import numpy as np
import pytest

import repro.transfer.lookup as lookup_module
from repro.qaoa.expectation import maxcut_expectation
from repro.qaoa.landscape import sample_parameter_sets
from repro.transfer import ParameterLookup
from repro.utils.graphs import relabel_to_range


def _connected_er(n, p, seed):
    offset = 0
    while True:
        g = nx.erdos_renyi_graph(n, p, seed=seed + offset)
        if g.number_of_edges() and nx.is_connected(g):
            return g
        offset += 100


@pytest.fixture(scope="module")
def lookup():
    # A 25-step polish keeps the module fast; entries are built lazily, so
    # the budget stays patched while the module's tests use them.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lookup_module, "POLISH_MAXITER", 25)
        yield ParameterLookup(donor_nodes=14, grid_width=12, seed=0)


class TestEntries:
    def test_entry_cached(self, lookup):
        a = lookup.entry(3)
        b = lookup.entry(3)
        assert a == b

    def test_entry_near_optimal_on_donor_class(self, lookup):
        """The degree-3 entry performs near-optimally on a fresh 3-regular graph."""
        gamma, beta = lookup.entry(3)
        graph = nx.random_regular_graph(3, 12, seed=99)
        value = maxcut_expectation(graph, [gamma], [beta])
        gammas, betas = sample_parameter_sets(1, 200, seed=1)
        sampled = [
            maxcut_expectation(graph, g, b) for g, b in zip(gammas, betas)
        ]
        assert value >= np.percentile(sampled, 95)

    def test_degree_bounds(self, lookup):
        with pytest.raises(ValueError):
            lookup.entry(0)
        with pytest.raises(ValueError):
            lookup.entry(50)

    def test_degree_one_supported(self, lookup):
        gamma, beta = lookup.entry(1)
        assert np.isfinite(gamma) and np.isfinite(beta)


class TestWarmStart:
    def test_warm_start_beats_random_on_average(self, lookup):
        wins = 0
        trials = 6
        for seed in range(trials):
            graph = relabel_to_range(_connected_er(10, 0.4, seed))
            gamma, beta = lookup.warm_start(graph)
            warm = maxcut_expectation(graph, [gamma], [beta])
            rng = np.random.default_rng(seed)
            random_value = maxcut_expectation(
                graph,
                [rng.uniform(0, 2 * np.pi)],
                [rng.uniform(0, np.pi)],
            )
            wins += warm >= random_value
        assert wins >= trials - 1

    def test_edgeless_rejected(self, lookup):
        g = nx.Graph()
        g.add_nodes_from(range(3))
        with pytest.raises(ValueError):
            lookup.warm_start(g)

    def test_vector_shape(self, lookup):
        graph = _connected_er(8, 0.5, 0)
        vec = lookup.warm_start_vector(graph, p=3)
        assert vec.shape == (6,)

    def test_vector_p1_matches_entry(self, lookup):
        graph = nx.random_regular_graph(4, 10, seed=0)
        gamma, beta = lookup.warm_start(graph)
        vec = lookup.warm_start_vector(graph, p=1)
        assert vec[0] == pytest.approx(gamma)
        assert vec[1] == pytest.approx(beta)

    def test_p_validated(self, lookup):
        with pytest.raises(ValueError):
            lookup.warm_start_vector(nx.path_graph(3), p=0)

    def test_warm_start_accelerates_cobyla(self, lookup):
        """Warm starts begin near a basin: the first evaluation is already
        strong and the run matches the typical cold restart with the same
        budget."""
        from repro.qaoa.optimizer import cobyla_optimize

        graph = relabel_to_range(_connected_er(10, 0.4, 11))
        fn = lambda g, b: maxcut_expectation(graph, g, b)
        warm = cobyla_optimize(
            fn, p=1, initial=lookup.warm_start_vector(graph, 1), maxiter=15, seed=0
        )
        cold = [
            cobyla_optimize(fn, p=1, maxiter=15, seed=s) for s in range(3)
        ]
        cold_first_values = [t.values[0] for t in cold]
        # The warm starting point alone beats every random starting point.
        assert warm.values[0] >= max(cold_first_values)
        # And the full warm run is at least as good as the median cold run.
        assert warm.best_value >= np.median([t.best_value for t in cold]) - 1e-6
