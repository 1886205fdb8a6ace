"""Tests for repro.qaoa.fast_sim: the specialized QAOA engine."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gate_oracles import StatevectorSimulator
import repro.qaoa.fast_sim as fast_sim
from repro.qaoa.circuit_builder import build_qaoa_circuit
from repro.qaoa.fast_sim import (
    FastNoiseSpec,
    noisy_qaoa_expectation_fast,
    noisy_qaoa_probabilities,
    qaoa_expectation_batch,
    qaoa_expectation_fast,
    qaoa_probabilities,
    qaoa_statevector,
)
from repro.qaoa.hamiltonian import MaxCutHamiltonian


def _connected_er(n, p, seed):
    offset = 0
    while True:
        g = nx.erdos_renyi_graph(n, p, seed=seed + offset)
        if g.number_of_edges() and nx.is_connected(g):
            return g
        offset += 100


class TestIdealEngine:
    def test_matches_gate_level_simulator(self):
        g = _connected_er(6, 0.5, 0)
        ham = MaxCutHamiltonian(g)
        gammas, betas = [0.8, 1.7], [0.3, 0.9]
        fast = qaoa_expectation_fast(ham, gammas, betas)
        circuit = build_qaoa_circuit(g, gammas, betas)
        gate = StatevectorSimulator().expectation_diagonal(circuit, ham.diagonal)
        assert fast == pytest.approx(gate, abs=1e-10)

    def test_statevector_normalized(self):
        ham = MaxCutHamiltonian(nx.cycle_graph(5))
        state = qaoa_statevector(ham, [0.5], [0.4])
        assert np.linalg.norm(state) == pytest.approx(1.0)

    def test_zero_parameters_give_uniform_state(self):
        ham = MaxCutHamiltonian(nx.cycle_graph(4))
        probs = qaoa_probabilities(ham, [0.0], [0.0])
        assert np.allclose(probs, 1 / 16)

    def test_zero_parameters_expectation_is_half_edges(self):
        g = _connected_er(7, 0.4, 3)
        ham = MaxCutHamiltonian(g)
        value = qaoa_expectation_fast(ham, [0.0], [0.0])
        assert value == pytest.approx(g.number_of_edges() / 2)

    def test_expectation_bounded(self):
        g = _connected_er(6, 0.6, 5)
        ham = MaxCutHamiltonian(g)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            value = qaoa_expectation_fast(
                ham, [rng.uniform(0, 2 * np.pi)], [rng.uniform(0, np.pi)]
            )
            assert 0 <= value <= g.number_of_edges()

    def test_parameter_validation(self):
        ham = MaxCutHamiltonian(nx.path_graph(3))
        with pytest.raises(ValueError):
            qaoa_statevector(ham, [0.1, 0.2], [0.3])
        with pytest.raises(ValueError):
            qaoa_statevector(ham, [], [])

    def test_gamma_periodicity_unweighted(self):
        """Integer cut values make the cost layer 2*pi-periodic in gamma."""
        ham = MaxCutHamiltonian(_connected_er(6, 0.5, 9))
        a = qaoa_expectation_fast(ham, [0.7], [0.4])
        b = qaoa_expectation_fast(ham, [0.7 + 2 * np.pi], [0.4])
        assert a == pytest.approx(b)


class TestBatchEngine:
    def test_matches_scalar(self, monkeypatch):
        monkeypatch.setattr(fast_sim, "BATCH_CHUNK", 5)
        ham = MaxCutHamiltonian(_connected_er(6, 0.5, 1))
        rng = np.random.default_rng(0)
        gammas = rng.uniform(0, 2 * np.pi, size=(17, 2))
        betas = rng.uniform(0, np.pi, size=(17, 2))
        batch = qaoa_expectation_batch(ham, gammas, betas)
        scalar = np.array(
            [qaoa_expectation_fast(ham, g, b) for g, b in zip(gammas, betas)]
        )
        assert np.allclose(batch, scalar, atol=1e-10)

    def test_chunking_boundary(self, monkeypatch):
        ham = MaxCutHamiltonian(nx.cycle_graph(4))
        gammas = np.full((8, 1), 0.3)
        betas = np.full((8, 1), 0.2)
        monkeypatch.setattr(fast_sim, "BATCH_CHUNK", 3)
        out_small = qaoa_expectation_batch(ham, gammas, betas)
        monkeypatch.setattr(fast_sim, "BATCH_CHUNK", 100)
        out_large = qaoa_expectation_batch(ham, gammas, betas)
        assert np.allclose(out_small, out_large)

    def test_shape_mismatch(self):
        ham = MaxCutHamiltonian(nx.path_graph(3))
        with pytest.raises(ValueError):
            qaoa_expectation_batch(ham, np.zeros((3, 1)), np.zeros((4, 1)))

    def test_custom_observable(self):
        """Measuring one edge's cut indicator matches summing probabilities."""
        from repro.qaoa.fast_sim import qaoa_probabilities

        g = _connected_er(6, 0.5, 2)
        ham = MaxCutHamiltonian(g)
        z = np.arange(2**ham.num_qubits, dtype=np.uint64)
        u, v = ham.edges[0]
        cut = (((z >> np.uint64(u)) ^ (z >> np.uint64(v))) & np.uint64(1)).astype(float)
        rng = np.random.default_rng(3)
        gammas = rng.uniform(0, 2 * np.pi, size=(9, 2))
        betas = rng.uniform(0, np.pi, size=(9, 2))
        batch = qaoa_expectation_batch(ham, gammas, betas, observable=cut)
        for i in (0, 4, 8):
            probs = qaoa_probabilities(ham, list(gammas[i]), list(betas[i]))
            assert batch[i] == pytest.approx(float(probs @ cut), abs=1e-12)

    def test_observable_shape_rejected(self):
        ham = MaxCutHamiltonian(nx.path_graph(3))
        with pytest.raises(ValueError):
            qaoa_expectation_batch(
                ham, np.zeros((2, 1)), np.zeros((2, 1)), observable=np.zeros(3)
            )

    def test_weighted_diagonal_phase_table_fallback(self):
        """Weighted graphs with many distinct cut values skip the phase
        table; results must not change."""
        g = _connected_er(7, 0.5, 4)
        rng = np.random.default_rng(5)
        for a, b in g.edges():
            g[a][b]["weight"] = float(rng.uniform(0.5, 1.5))
        ham = MaxCutHamiltonian(g)
        gammas = rng.uniform(0, 2 * np.pi, size=(5, 2))
        betas = rng.uniform(0, np.pi, size=(5, 2))
        batch = qaoa_expectation_batch(ham, gammas, betas)
        scalar = np.array(
            [qaoa_expectation_fast(ham, gg, bb) for gg, bb in zip(gammas, betas)]
        )
        assert np.allclose(batch, scalar, atol=1e-10)


class TestFastNoiseSpec:
    def test_trivial(self):
        assert FastNoiseSpec().is_trivial
        assert not FastNoiseSpec(edge_error=0.01).is_trivial

    def test_bounds(self):
        with pytest.raises(ValueError):
            FastNoiseSpec(edge_error=1.5)
        with pytest.raises(ValueError):
            FastNoiseSpec(node_error=-0.1)

    def test_non_finite_biases_rejected(self):
        with pytest.raises(ValueError, match="edge_phase_bias"):
            FastNoiseSpec(edge_phase_bias=(0.01, float("nan")))
        with pytest.raises(ValueError, match="node_mixer_bias"):
            FastNoiseSpec(node_mixer_bias=(float("inf"),))
        with pytest.raises(ValueError, match=r"\[0\]"):
            FastNoiseSpec(edge_phase_bias=(float("-inf"), 0.02))

    def test_finite_biases_accepted(self):
        spec = FastNoiseSpec(edge_phase_bias=(0.01, -0.02), node_mixer_bias=(0.0,))
        assert spec.edge_phase_bias == (0.01, -0.02)

    def test_from_backend(self):
        from repro.quantum.backends import get_backend

        spec = FastNoiseSpec.from_backend(get_backend("kolkata"))
        assert 0 < spec.edge_error < 0.1
        assert spec.readout_error == get_backend("kolkata").error_readout

    def test_for_graph_refuses_a_graph_wider_than_the_device(self):
        from repro.quantum.backends import get_backend

        melbourne = get_backend("melbourne")  # 14 qubits
        FastNoiseSpec.for_graph(melbourne, nx.cycle_graph(14))
        with pytest.raises(ValueError, match="16 qubits but device 'melbourne' has 14"):
            FastNoiseSpec.for_graph(melbourne, nx.cycle_graph(16))


class TestNoisyEngine:
    def test_trivial_noise_matches_ideal(self):
        ham = MaxCutHamiltonian(_connected_er(5, 0.6, 2))
        probs = noisy_qaoa_probabilities(ham, [0.5], [0.3], FastNoiseSpec(), seed=0)
        ideal = qaoa_probabilities(ham, [0.5], [0.3])
        assert np.allclose(probs, ideal)

    def test_noise_damps_expectation_at_optimum(self):
        g = _connected_er(8, 0.4, 7)
        ham = MaxCutHamiltonian(g)
        # Find a good parameter point first.
        best = None
        for gamma in np.linspace(0.1, 2, 8):
            for beta in np.linspace(0.1, 1.4, 8):
                val = qaoa_expectation_fast(ham, [gamma], [beta])
                if best is None or val > best[0]:
                    best = (val, gamma, beta)
        ideal, gamma, beta = best
        noise = FastNoiseSpec(edge_error=0.05, node_error=0.005, readout_error=0.02)
        noisy = noisy_qaoa_expectation_fast(
            ham, [gamma], [beta], noise, trajectories=40, seed=1
        )
        assert noisy < ideal

    def test_heavy_noise_approaches_random_guessing(self):
        g = _connected_er(6, 0.5, 4)
        ham = MaxCutHamiltonian(g)
        noise = FastNoiseSpec(edge_error=0.9, node_error=0.5, readout_error=0.4)
        noisy = noisy_qaoa_expectation_fast(
            ham, [0.9], [0.6], noise, trajectories=60, seed=2
        )
        assert noisy == pytest.approx(g.number_of_edges() / 2, rel=0.15)

    def test_probabilities_normalized(self):
        ham = MaxCutHamiltonian(_connected_er(6, 0.5, 8))
        noise = FastNoiseSpec(edge_error=0.1, node_error=0.02, readout_error=0.05)
        probs = noisy_qaoa_probabilities(ham, [1.0], [0.5], noise, trajectories=5, seed=3)
        assert probs.sum() == pytest.approx(1.0)
        assert (probs >= 0).all()

    def test_seeded_reproducibility(self):
        ham = MaxCutHamiltonian(_connected_er(6, 0.5, 8))
        noise = FastNoiseSpec(edge_error=0.1, node_error=0.02)
        a = noisy_qaoa_expectation_fast(ham, [1.0], [0.5], noise, trajectories=6, seed=11)
        b = noisy_qaoa_expectation_fast(ham, [1.0], [0.5], noise, trajectories=6, seed=11)
        assert a == b

    def test_shot_noise_varies(self):
        ham = MaxCutHamiltonian(_connected_er(6, 0.5, 8))
        values = {
            noisy_qaoa_expectation_fast(
                ham, [1.0], [0.5], FastNoiseSpec(), shots=64, seed=s
            )
            for s in range(5)
        }
        assert len(values) > 1

    def test_invalid_trajectories(self):
        ham = MaxCutHamiltonian(nx.path_graph(3))
        with pytest.raises(ValueError):
            noisy_qaoa_probabilities(ham, [0.1], [0.1], FastNoiseSpec(), trajectories=0)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    gamma=st.floats(min_value=0.0, max_value=2 * np.pi),
    beta=st.floats(min_value=0.0, max_value=np.pi),
)
def test_property_expectation_within_cut_bounds(seed, gamma, beta):
    """For any graph and parameters, 0 <= <H_c> <= |E|."""
    g = _connected_er(5 + seed % 3, 0.5, seed)
    ham = MaxCutHamiltonian(g)
    value = qaoa_expectation_fast(ham, [gamma], [beta])
    assert -1e-9 <= value <= g.number_of_edges() + 1e-9
