"""Cross-module property-based tests (hypothesis).

These pin down invariants that hold across the stack rather than within
one module: landscape metrics, reduction/QAOA interplay, noise-model
consistency between the two noisy simulators, and dataset guarantees.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gate_oracles import DensityMatrixSimulator, TrajectorySimulator, device_noise_model
from repro.core.reduction import GraphReducer
from repro.datasets import aids_like_graph, imdb_like_graph, linux_like_graph
from repro.qaoa.fast_sim import FastNoiseSpec, noisy_qaoa_probabilities
from repro.qaoa.hamiltonian import MaxCutHamiltonian
from repro.qaoa.landscape import landscape_mse, normalize_landscape
from repro.quantum.backends import get_backend
from repro.quantum.circuit import QuantumCircuit


def _connected_er(n, p, seed):
    offset = 0
    while True:
        g = nx.erdos_renyi_graph(n, p, seed=seed + offset)
        if g.number_of_edges() and nx.is_connected(g):
            return g
        offset += 100


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_property_normalize_idempotent(seed):
    values = np.random.default_rng(seed).normal(size=(6, 6))
    once = normalize_landscape(values)
    twice = normalize_landscape(once)
    assert np.allclose(once, twice)
    assert 0.0 <= once.min() and once.max() <= 1.0


@settings(max_examples=30, deadline=None)
@given(
    seed_a=st.integers(min_value=0, max_value=10**6),
    seed_b=st.integers(min_value=0, max_value=10**6),
)
def test_property_mse_symmetric_and_bounded(seed_a, seed_b):
    a = np.random.default_rng(seed_a).random((5, 5))
    b = np.random.default_rng(seed_b).random((5, 5))
    forward = landscape_mse(a, b)
    backward = landscape_mse(b, a)
    assert forward == pytest.approx(backward)
    assert 0.0 <= forward <= 1.0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**5))
def test_property_reduction_preserves_qaoa_bounds(seed):
    """The distilled graph's QAOA values stay within its own cut bounds and
    its AND stays within the original's range."""
    graph = _connected_er(8 + seed % 4, 0.45, seed)
    reduction = GraphReducer(seed=seed).reduce(graph)
    reduced = reduction.reduced_graph
    ham = MaxCutHamiltonian(reduced)
    rng = np.random.default_rng(seed)
    from repro.qaoa.fast_sim import qaoa_expectation_fast

    value = qaoa_expectation_fast(
        ham, [float(rng.uniform(0, 2 * np.pi))], [float(rng.uniform(0, np.pi))]
    )
    assert -1e-9 <= value <= reduced.number_of_edges() + 1e-9
    assert reduction.and_ratio <= 1.0 + 1e-9


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**5))
def test_property_noisy_probs_form_distribution(seed):
    graph = _connected_er(6, 0.5, seed)
    ham = MaxCutHamiltonian(graph)
    backend = get_backend("toronto")
    noise = FastNoiseSpec.for_graph(backend, graph)
    rng = np.random.default_rng(seed)
    probs = noisy_qaoa_probabilities(
        ham,
        [float(rng.uniform(0, 2 * np.pi))],
        [float(rng.uniform(0, np.pi))],
        noise,
        trajectories=3,
        seed=seed,
    )
    assert probs.sum() == pytest.approx(1.0)
    assert (probs >= -1e-12).all()


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**5))
def test_property_dataset_generators_connected(seed):
    rng = np.random.default_rng(seed)
    n_sparse = int(rng.integers(3, 11))
    n_dense = int(rng.integers(3, 15))
    for graph in (
        aids_like_graph(n_sparse, seed=seed),
        linux_like_graph(n_sparse, seed=seed),
        imdb_like_graph(n_dense, seed=seed),
    ):
        assert nx.is_connected(graph)
        assert nx.number_of_selfloops(graph) == 0


class TestSimulatorConsistencyOnBackendModels:
    """The DM and trajectory simulators agree on a backend noise model
    (which is a pure Pauli + readout model, so the twirl is exact)."""

    @pytest.mark.parametrize("device", ["kolkata", "melbourne"])
    def test_dm_vs_trajectories(self, device):
        backend = get_backend(device)
        model = device_noise_model(backend)
        qc = QuantumCircuit(3)
        qc.h(0)
        qc.cx(0, 1)
        qc.cx(1, 2)
        qc.rx(0.7, 2)
        exact = DensityMatrixSimulator().probabilities(qc, model)
        approx = TrajectorySimulator(trajectories=4000).probabilities(qc, model, seed=0)
        assert np.abs(exact - approx).max() < 0.02
