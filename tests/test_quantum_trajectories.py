"""Tests for the Pauli-trajectory reference simulator."""

import numpy as np
import pytest

from _gate_oracles import (
    DensityMatrixSimulator,
    NoiseModel,
    StatevectorSimulator,
    TrajectorySimulator,
    depolarizing_error,
    pauli_error,
)
from repro.mitigation import ReadoutError
from repro.quantum.circuit import QuantumCircuit


class TestNoiselessPath:
    def test_matches_statevector_without_noise(self):
        qc = QuantumCircuit(3)
        qc.h(0)
        qc.cx(0, 1)
        qc.rzz(0.9, 1, 2)
        traj = TrajectorySimulator(trajectories=4)
        probs = traj.probabilities(qc, noise_model=None, seed=0)
        expected = StatevectorSimulator().probabilities(qc)
        assert np.allclose(probs, expected)

    def test_trivial_noise_model_single_trajectory(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        traj = TrajectorySimulator(trajectories=100)
        probs = traj.probabilities(qc, NoiseModel(), seed=0)
        expected = StatevectorSimulator().probabilities(qc)
        assert np.allclose(probs, expected)


class TestStochasticNoise:
    def test_deterministic_pauli_error(self):
        # X with probability 1 after the identity gate: |0> -> |1> always.
        model = NoiseModel()
        model.add_all_qubit_quantum_error(pauli_error({"X": 1.0}), "i")
        qc = QuantumCircuit(1)
        qc.append("i", (0,))
        traj = TrajectorySimulator(trajectories=3)
        probs = traj.probabilities(qc, model, seed=1)
        assert probs[1] == pytest.approx(1.0)

    def test_converges_to_density_matrix(self):
        """Trajectory average approaches the exact DM result for a Pauli channel."""
        model = NoiseModel()
        model.add_all_qubit_quantum_error(
            pauli_error({"I": 0.7, "X": 0.1, "Y": 0.1, "Z": 0.1}), "h"
        )
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.h(1)
        qc.cx(0, 1)
        exact = DensityMatrixSimulator().probabilities(qc, model)
        traj = TrajectorySimulator(trajectories=3000)
        approx = traj.probabilities(qc, model, seed=7)
        assert np.abs(exact - approx).max() < 0.03

    def test_seed_reproducibility(self):
        model = NoiseModel()
        model.add_all_qubit_quantum_error(depolarizing_error(0.3, 1), "h")
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.h(1)
        traj = TrajectorySimulator(trajectories=10)
        a = traj.probabilities(qc, model, seed=5)
        b = traj.probabilities(qc, model, seed=5)
        assert np.array_equal(a, b)

    def test_readout_error_applied(self):
        model = NoiseModel()
        model.add_readout_error(ReadoutError(1.0, 1.0), 0)
        qc = QuantumCircuit(1)
        qc.append("i", (0,))
        traj = TrajectorySimulator(trajectories=2)
        probs = traj.probabilities(qc, model, seed=0)
        assert probs[1] == pytest.approx(1.0)

    def test_expectation_diagonal(self):
        model = NoiseModel()
        model.add_all_qubit_quantum_error(pauli_error({"X": 1.0}), "i")
        qc = QuantumCircuit(1)
        qc.append("i", (0,))
        traj = TrajectorySimulator(trajectories=2)
        value = traj.expectation_diagonal(qc, np.array([0.0, 5.0]), model, seed=0)
        assert value == pytest.approx(5.0)


class TestValidation:
    def test_trajectories_must_be_positive(self):
        with pytest.raises(ValueError):
            TrajectorySimulator(trajectories=0)

    def test_max_qubits_guard(self):
        traj = TrajectorySimulator(trajectories=1, max_qubits=2)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            traj.run_single(QuantumCircuit(3), None, rng)

    def test_diagonal_shape_checked(self):
        traj = TrajectorySimulator(trajectories=1)
        with pytest.raises(ValueError):
            traj.expectation_diagonal(QuantumCircuit(2), np.array([1.0]), None)
