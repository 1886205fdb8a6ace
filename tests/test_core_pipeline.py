"""Tests for repro.core.pipeline (RedQAOA end-to-end)."""

import networkx as nx
import numpy as np
import pytest

from repro.core.pipeline import RedQAOA
from repro.core.reduction import GraphReducer
from repro.qaoa.fast_sim import FastNoiseSpec
from repro.qaoa.maxcut import brute_force_maxcut, cut_size


def _connected_er(n, p, seed):
    offset = 0
    while True:
        g = nx.erdos_renyi_graph(n, p, seed=seed + offset)
        if g.number_of_edges() and nx.is_connected(g):
            return g
        offset += 100


@pytest.fixture(scope="module")
def ideal_result():
    g = _connected_er(10, 0.4, 0)
    red = RedQAOA(seed=0, restarts=3, maxiter=40, finetune_maxiter=10)
    return g, red.run(g)


class TestIdealRun:
    def test_reduction_occurred(self, ideal_result):
        g, result = ideal_result
        assert result.reduction.reduced_graph.number_of_nodes() < g.number_of_nodes()

    def test_assignment_is_valid_cut(self, ideal_result):
        g, result = ideal_result
        assert set(result.assignment) == set(g.nodes())
        assert cut_size(g, result.assignment) <= g.number_of_edges()

    def test_cut_value_consistent(self, ideal_result):
        g, result = ideal_result
        assert result.cut_value == cut_size(g, result.assignment)

    def test_near_optimal_solution(self, ideal_result):
        g, result = ideal_result
        optimum, _ = brute_force_maxcut(g)
        assert result.cut_value >= 0.85 * optimum

    def test_expectation_reasonable(self, ideal_result):
        g, result = ideal_result
        # QAOA expectation beats random guessing (half the edges).
        assert result.expectation > g.number_of_edges() / 2

    def test_evaluation_accounting(self, ideal_result):
        _, result = ideal_result
        assert result.num_reduced_evaluations > 0
        assert result.num_original_evaluations > 0
        # Most evaluations happen on the cheap reduced graph.
        assert result.num_reduced_evaluations > result.num_original_evaluations


class TestConfigurations:
    def test_pure_transfer_mode(self):
        g = _connected_er(9, 0.45, 1)
        red = RedQAOA(seed=1, restarts=2, maxiter=25, finetune_maxiter=0)
        result = red.run(g)
        assert result.finetune_trace is None
        assert result.num_original_evaluations == 0

    def test_noisy_mode_runs(self):
        g = _connected_er(8, 0.45, 2)
        noise = FastNoiseSpec(edge_error=0.05, node_error=0.01, readout_error=0.02)
        red = RedQAOA(
            seed=2, noise=noise, restarts=2, maxiter=20,
            finetune_maxiter=5, trajectories=3,
        )
        result = red.run(g)
        assert result.expectation > 0

    def test_custom_reducer_honored(self):
        g = _connected_er(10, 0.45, 3)
        reducer = GraphReducer(min_keep_fraction=0.9, seed=3)
        red = RedQAOA(seed=3, reducer=reducer, restarts=2, maxiter=15, finetune_maxiter=0)
        result = red.run(g)
        assert len(result.reduction.nodes) >= 9

    def test_p2_pipeline(self):
        g = _connected_er(8, 0.45, 4)
        red = RedQAOA(p=2, seed=4, restarts=2, maxiter=30, finetune_maxiter=5)
        result = red.run(g)
        assert result.gammas.shape == (2,)
        assert result.betas.shape == (2,)

    def test_seed_reproducibility(self):
        g = _connected_er(8, 0.45, 5)
        a = RedQAOA(seed=7, restarts=2, maxiter=15, finetune_maxiter=0).run(g)
        b = RedQAOA(seed=7, restarts=2, maxiter=15, finetune_maxiter=0).run(g)
        assert a.expectation == b.expectation
        assert np.array_equal(a.gammas, b.gammas)


class TestValidation:
    def test_p_validated(self):
        with pytest.raises(ValueError):
            RedQAOA(p=0)

    def test_restarts_validated(self):
        with pytest.raises(ValueError):
            RedQAOA(restarts=0)

    def test_finetune_validated(self):
        with pytest.raises(ValueError):
            RedQAOA(finetune_maxiter=-1)


class TestTransferQuality:
    def test_transferred_params_beat_random(self):
        """Parameters optimized on the distilled graph should evaluate well
        on the original graph -- the paper's central claim."""
        from repro.qaoa.expectation import maxcut_expectation
        from repro.qaoa.landscape import sample_parameter_sets
        from repro.utils.graphs import relabel_to_range

        g = _connected_er(11, 0.4, 6)
        red = RedQAOA(seed=6, restarts=3, maxiter=40, finetune_maxiter=0)
        result = red.run(g)
        relabeled = relabel_to_range(g)
        transferred = maxcut_expectation(relabeled, result.gammas, result.betas)
        gammas, betas = sample_parameter_sets(1, 64, seed=0)
        random_values = [
            maxcut_expectation(relabeled, gs, bs) for gs, bs in zip(gammas, betas)
        ]
        assert transferred > np.percentile(random_values, 85)


class TestWarmStartIntegration:
    def test_warm_start_produces_same_restart_count(self):
        g = _connected_er(9, 0.45, 8)
        red = RedQAOA(seed=0, restarts=3, maxiter=15, finetune_maxiter=0, warm_start=True)
        result = red.run(g)
        assert len(result.reduced_traces) == 3

    def test_warm_start_first_trace_starts_strong(self):
        """The warm-started restart's first evaluation beats the random
        restarts' first evaluations."""
        g = _connected_er(10, 0.4, 9)
        red = RedQAOA(seed=1, restarts=3, maxiter=12, finetune_maxiter=0, warm_start=True)
        result = red.run(g)
        warm_first = result.reduced_traces[0].values[0]
        random_firsts = [t.values[0] for t in result.reduced_traces[1:]]
        assert warm_first >= min(random_firsts)

    def test_warm_start_single_restart(self):
        g = _connected_er(8, 0.45, 10)
        red = RedQAOA(seed=2, restarts=1, maxiter=12, finetune_maxiter=0, warm_start=True)
        result = red.run(g)
        assert len(result.reduced_traces) == 1

    def test_warm_start_quality_not_worse(self):
        g = _connected_er(9, 0.45, 11)
        cold = RedQAOA(seed=3, restarts=3, maxiter=20, finetune_maxiter=0).run(g)
        warm = RedQAOA(seed=3, restarts=3, maxiter=20, finetune_maxiter=0,
                       warm_start=True).run(g)
        assert warm.expectation >= cold.expectation - 0.5


class TestWeightedPipeline:
    def _weighted_er(self, n, p, seed):
        from repro.datasets import attach_weights

        return attach_weights(_connected_er(n, p, seed), "uniform",
                              low=0.3, high=2.0, seed=seed)

    def test_weighted_run_end_to_end(self):
        g = self._weighted_er(10, 0.4, 8)
        red = RedQAOA(seed=8, restarts=2, maxiter=30, finetune_maxiter=5)
        result = red.run(g)
        # Cut value is the weighted cut of the returned assignment.
        assert result.cut_value == pytest.approx(cut_size(g, result.assignment))
        optimum, _ = brute_force_maxcut(g)
        assert result.cut_value <= optimum + 1e-9
        assert result.cut_value >= 0.8 * optimum
        # The ideal expectation is computed on the weighted instance.
        total_weight = sum(d["weight"] for _, _, d in g.edges(data=True))
        assert 0 < result.expectation <= total_weight

    def test_weighted_reduction_keeps_weights(self):
        g = self._weighted_er(12, 0.4, 9)
        red = RedQAOA(seed=9, restarts=2, maxiter=20, finetune_maxiter=0)
        reduction = red.reduce(g)
        assert all(
            "weight" in d for _, _, d in reduction.reduced_graph.edges(data=True)
        )


class TestDenseFallback:
    def test_dense_graph_beyond_lightcones_runs_on_the_statevector(self):
        """n=22 G(n, 0.5) at p=2: every lightcone is too large, so the job
        is priced on the dense fallback and reads out on its 2**22 state."""
        from repro.datasets import random_connected_gnp
        from repro.qaoa.fast_sim import qaoa_expectation_fast
        from repro.qaoa.hamiltonian import MaxCutHamiltonian
        from repro.service import JobSpec, run_job

        spec = JobSpec(
            graph=random_connected_gnp(22, 0.5, seed=0), p=2, seed=0,
            restarts=1, maxiter=10,
        )
        result = run_job(spec)
        exact = qaoa_expectation_fast(
            MaxCutHamiltonian(spec.canonical().instance), result.gammas, result.betas
        )
        assert result.expectation == exact
        assert len(result.bits) == 22 and np.isfinite(result.best_value)
