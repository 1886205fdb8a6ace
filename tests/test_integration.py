"""Cross-module integration tests.

These exercise the same paths the paper's experiments use: reduction feeding
QAOA optimization, landscapes under device noise models, transpiled circuits
through the noisy simulators, and the public package namespace.
"""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import repro
from _gate_oracles import (
    DensityMatrixSimulator,
    StatevectorSimulator,
    device_noise_model,
    routed_cut_diagonal,
)
from repro.core import GraphReducer, RedQAOA
from repro.datasets import load_dataset
from repro.pooling import get_pooler
from repro.qaoa import (
    build_qaoa_circuit,
    compute_landscape,
    landscape_mse,
    maxcut_expectation,
)
from repro.qaoa.fast_sim import FastNoiseSpec
from repro.qaoa.landscape import compute_noisy_landscape
from repro.quantum import get_backend, transpile
from repro.utils.graphs import relabel_to_range


def _connected_er(n, p, seed):
    offset = 0
    while True:
        g = nx.erdos_renyi_graph(n, p, seed=seed + offset)
        if g.number_of_edges() and nx.is_connected(g):
            return g
        offset += 100


class TestPublicNamespace:
    def test_version(self):
        assert repro.__version__ == "1.5.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_import_loads_no_gate_level_simulator(self):
        """The gate-level stack lives in tests/_gate_oracles.py, not src/."""
        code = "import sys, repro; print(' '.join(sorted(sys.modules)))"
        src = str(Path(repro.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout.split()
        gone = ("statevector", "density_matrix", "trajectories", "_kernels",
                "executor", "visualization", "noise", "gates")
        assert "repro.quantum" in out
        assert not [m for m in out if m in {f"repro.quantum.{g}" for g in gone}]

    def test_quantum_exports_no_simulator(self):
        import repro.quantum

        assert not [n for n in repro.quantum.__all__ if "Simulator" in n or "Noise" in n]
        assert "NoiseModel" not in repro.__all__


class TestReductionPreservesLandscape:
    """The paper's core claim, end to end: the distilled graph's landscape
    is close (MSE < ~0.05) to the original's."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reduced_landscape_mse_small(self, seed):
        g = _connected_er(10, 0.45, seed)
        reducer = GraphReducer(seed=seed)
        result = reducer.reduce(g)
        original = compute_landscape(g, width=16)
        reduced = compute_landscape(result.reduced_graph, width=16)
        mse = landscape_mse(original.values, reduced.values)
        # The paper targets 0.02 on average with outliers near 0.05 (Fig. 14);
        # allow headroom for individual graphs.
        assert mse < 0.08

    def test_median_reduced_landscape_mse_meets_paper_target(self):
        mses = []
        for seed in range(5):
            g = _connected_er(10, 0.45, seed + 40)
            result = GraphReducer(seed=seed).reduce(g)
            original = compute_landscape(g, width=12).values
            reduced = compute_landscape(result.reduced_graph, width=12).values
            mses.append(landscape_mse(original, reduced))
        assert np.median(mses) < 0.05

    def test_reduction_beats_random_subgraph_landscape(self):
        from repro.utils.graphs import connected_random_subgraph

        g = _connected_er(11, 0.4, 3)
        reducer = GraphReducer(seed=3)
        result = reducer.reduce(g)
        k = len(result.nodes)
        original = compute_landscape(g, width=12).values
        red_mse = landscape_mse(
            original, compute_landscape(result.reduced_graph, width=12).values
        )
        rng = np.random.default_rng(0)
        random_mses = []
        for _ in range(8):
            nodes = connected_random_subgraph(g, k, rng)
            sub = relabel_to_range(nx.Graph(g.subgraph(nodes)))
            random_mses.append(
                landscape_mse(original, compute_landscape(sub, width=12).values)
            )
        assert red_mse <= np.median(random_mses) + 1e-9


class TestNoisyLandscapeRecovery:
    """Fig. 10's mechanism: reduced circuits suffer less noise distortion."""

    def test_reduced_noisy_landscape_closer_to_ideal(self):
        backend = get_backend("toronto")
        base_means, red_means = [], []
        for graph_seed in (5, 7, 8, 9):
            g = _connected_er(10, 0.4, graph_seed)
            reduction = GraphReducer(seed=graph_seed).reduce(g)
            ideal = compute_landscape(g, width=10).values
            noise_full = FastNoiseSpec.for_graph(backend, g)
            noise_reduced = FastNoiseSpec.for_graph(backend, reduction.reduced_graph)
            assert noise_reduced.edge_error < noise_full.edge_error
            mse_baseline, mse_red = [], []
            for seed in range(2):
                noisy_full = compute_noisy_landscape(
                    g, noise_full, width=10, trajectories=4, shots=1024, seed=seed
                ).values
                noisy_reduced = compute_noisy_landscape(
                    reduction.reduced_graph, noise_reduced, width=10,
                    trajectories=4, shots=1024, seed=seed,
                ).values
                mse_baseline.append(landscape_mse(ideal, noisy_full))
                mse_red.append(landscape_mse(ideal, noisy_reduced))
            base_means.append(np.mean(mse_baseline))
            red_means.append(np.mean(mse_red))
        # Red-QAOA wins on average over the graph sample (per-graph outcomes
        # vary; the paper's Fig. 10 also averages over instances).
        assert np.mean(red_means) < np.mean(base_means)
        assert np.mean([r < b for r, b in zip(red_means, base_means)]) >= 0.5


class TestTranspiledNoisySimulation:
    def test_qaoa_through_device_stack(self):
        """Build QAOA -> transpile to kolkata -> simulate the routed circuit:
        after undoing the routing permutation it reproduces the ideal
        expectation."""
        g = _connected_er(5, 0.5, 9)
        gammas, betas = [0.7], [0.4]
        logical = relabel_to_range(g)
        result = transpile(build_qaoa_circuit(logical, gammas, betas), get_backend("kolkata"),
                           trials=4, seed=0)
        assert result.circuit.num_qubits >= 5
        routed = StatevectorSimulator().expectation_diagonal(
            result.circuit, routed_cut_diagonal(result, logical)
        )
        assert routed == pytest.approx(maxcut_expectation(g, gammas, betas), abs=1e-8)

    def test_device_noise_damps_transpiled_expectation(self):
        g = nx.cycle_graph(4)
        gammas, betas = [1.1], [0.39]  # near-optimal for C4
        ideal = maxcut_expectation(g, gammas, betas)
        backend = get_backend("melbourne")
        result = transpile(build_qaoa_circuit(g, gammas, betas), backend, trials=4, seed=1)
        dm = DensityMatrixSimulator(max_qubits=result.circuit.num_qubits)
        noisy = dm.expectation_diagonal(
            result.circuit, routed_cut_diagonal(result, g), device_noise_model(backend)
        )
        assert noisy < ideal


class TestPoolingComparison:
    def test_sa_beats_poolers_on_landscape_mse(self):
        """Fig. 8's headline: SA reduction attains lower MSE than pooling."""
        wins = 0
        trials = 4
        for seed in range(trials):
            g = _connected_er(10, 0.45, seed + 20)
            reducer = GraphReducer(seed=seed)
            result = reducer.reduce(g, target_size=7)
            original = compute_landscape(g, width=12).values
            sa_mse = landscape_mse(
                original, compute_landscape(result.reduced_graph, width=12).values
            )
            pool_mses = []
            for name in ("topk", "sag", "asa"):
                pooled = get_pooler(name, seed=seed).pool(g, 7)
                if pooled.number_of_edges() == 0:
                    pool_mses.append(1.0)
                    continue
                pool_mses.append(
                    landscape_mse(original, compute_landscape(pooled, width=12).values)
                )
            if sa_mse <= min(pool_mses) + 1e-12:
                wins += 1
        assert wins >= trials / 2


class TestDatasetPipeline:
    def test_reduce_dataset_graphs(self):
        graphs = load_dataset("aids", count=5, min_nodes=5, max_nodes=10, seed=0)
        reducer = GraphReducer(seed=0)
        for g in graphs:
            result = reducer.reduce(g)
            assert result.reduced_graph.number_of_nodes() >= 3

    def test_full_pipeline_on_linux_graph(self):
        g = load_dataset("linux", count=1, min_nodes=8, max_nodes=10, seed=1)[0]
        red = RedQAOA(seed=1, restarts=2, maxiter=25, finetune_maxiter=5)
        result = red.run(g)
        assert result.cut_value > 0
