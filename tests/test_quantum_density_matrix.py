"""Tests for the density-matrix reference simulator."""

import numpy as np
import pytest

from _gate_oracles import (
    DensityMatrixSimulator,
    NoiseModel,
    StatevectorSimulator,
    amplitude_damping_error,
    depolarizing_error,
    pauli_error,
)
from repro.mitigation import ReadoutError
from repro.quantum.circuit import QuantumCircuit


@pytest.fixture
def dm():
    return DensityMatrixSimulator()


class TestIdealEvolution:
    def test_matches_statevector_on_bell_state(self, dm):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        rho = dm.run(qc)
        state = StatevectorSimulator().run(qc)
        assert np.allclose(rho, np.outer(state, state.conj()))

    def test_matches_statevector_random_circuit(self, dm, rng):
        qc = QuantumCircuit(3)
        for _ in range(10):
            if rng.random() < 0.5:
                qc.rx(float(rng.uniform(0, 6)), int(rng.integers(3)))
            else:
                a, b = rng.choice(3, size=2, replace=False)
                qc.cx(int(a), int(b))
        rho = dm.run(qc)
        state = StatevectorSimulator().run(qc)
        assert np.allclose(rho, np.outer(state, state.conj()), atol=1e-10)

    def test_trace_preserved(self, dm):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.rzz(0.7, 0, 1)
        rho = dm.run(qc)
        assert np.trace(rho).real == pytest.approx(1.0)

    def test_max_qubits_guard(self):
        sim = DensityMatrixSimulator(max_qubits=2)
        with pytest.raises(ValueError):
            sim.run(QuantumCircuit(3))


class TestNoisyEvolution:
    def test_full_depolarizing_gives_mixed_state(self, dm):
        model = NoiseModel()
        model.add_all_qubit_quantum_error(depolarizing_error(1.0, 1), "h")
        qc = QuantumCircuit(1)
        qc.h(0)
        rho = dm.run(qc, model)
        assert np.allclose(rho, np.eye(2) / 2)

    def test_bit_flip_channel(self, dm):
        model = NoiseModel()
        model.add_all_qubit_quantum_error(pauli_error({"I": 0.8, "X": 0.2}), "i")
        qc = QuantumCircuit(1)
        qc.append("i", (0,))
        probs = dm.probabilities(qc, model)
        assert probs[1] == pytest.approx(0.2)

    def test_amplitude_damping_after_x(self, dm):
        gamma = 0.4
        model = NoiseModel()
        model.add_all_qubit_quantum_error(amplitude_damping_error(gamma), "x")
        qc = QuantumCircuit(1)
        qc.x(0)
        probs = dm.probabilities(qc, model)
        assert probs[0] == pytest.approx(gamma)
        assert probs[1] == pytest.approx(1 - gamma)

    def test_one_qubit_channel_on_two_qubit_gate(self, dm):
        # A 1q channel attached to CX applies to both gate qubits.
        model = NoiseModel()
        model.add_all_qubit_quantum_error(pauli_error({"I": 0.0, "X": 1.0}), "cx")
        qc = QuantumCircuit(2)
        qc.cx(0, 1)  # state stays |00>, then X on both qubits -> |11>
        probs = dm.probabilities(qc, model)
        assert probs[3] == pytest.approx(1.0)

    def test_noise_reduces_purity(self, dm):
        model = NoiseModel()
        model.add_all_qubit_quantum_error(depolarizing_error(0.2, 1), "h")
        qc = QuantumCircuit(1)
        qc.h(0)
        rho = dm.run(qc, model)
        purity = np.trace(rho @ rho).real
        assert purity < 1.0 - 1e-6

    def test_trace_preserved_under_noise(self, dm):
        model = NoiseModel()
        model.add_all_qubit_quantum_error(depolarizing_error(0.15, 2), "cx")
        model.add_all_qubit_quantum_error(amplitude_damping_error(0.05), "h")
        qc = QuantumCircuit(3)
        qc.h(0)
        qc.cx(0, 1)
        qc.cx(1, 2)
        rho = dm.run(qc, model)
        assert np.trace(rho).real == pytest.approx(1.0)


class TestMeasurement:
    def test_readout_error_applied(self, dm):
        model = NoiseModel()
        model.add_readout_error(ReadoutError(1.0, 1.0), 0)
        qc = QuantumCircuit(1)
        qc.append("i", (0,))
        probs = dm.probabilities(qc, model)
        assert probs[1] == pytest.approx(1.0)

    def test_expectation_diagonal(self, dm):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        diag = np.array([0.0, 1.0, 1.0, 2.0])
        assert dm.expectation_diagonal(qc, diag) == pytest.approx(1.0)

    def test_expectation_shape_mismatch(self, dm):
        with pytest.raises(ValueError):
            dm.expectation_diagonal(QuantumCircuit(2), np.array([1.0]))
