"""Tests for the statevector reference simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gate_oracles import StatevectorSimulator, apply_matrix, gate_matrix
from repro.quantum.circuit import QuantumCircuit


@pytest.fixture
def sim():
    return StatevectorSimulator()


class TestBasics:
    def test_empty_circuit_is_zero_state(self, sim):
        state = sim.run(QuantumCircuit(2))
        assert np.allclose(state, [1, 0, 0, 0])

    def test_x_gate(self, sim):
        qc = QuantumCircuit(1)
        qc.x(0)
        assert np.allclose(sim.run(qc), [0, 1])

    def test_h_gate(self, sim):
        qc = QuantumCircuit(1)
        qc.h(0)
        assert np.allclose(sim.run(qc), np.array([1, 1]) / np.sqrt(2))

    def test_little_endian_ordering(self, sim):
        # X on qubit 1 of 2 -> basis index 2 (bit 1 set).
        qc = QuantumCircuit(2)
        qc.x(1)
        state = sim.run(qc)
        assert np.allclose(state, [0, 0, 1, 0])

    def test_bell_state(self, sim):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        state = sim.run(qc)
        expected = np.zeros(4)
        expected[0] = expected[3] = 1 / np.sqrt(2)
        assert np.allclose(state, expected)

    def test_ghz_state(self, sim):
        qc = QuantumCircuit(3)
        qc.h(0)
        qc.cx(0, 1)
        qc.cx(1, 2)
        probs = np.abs(sim.run(qc)) ** 2
        assert probs[0] == pytest.approx(0.5)
        assert probs[7] == pytest.approx(0.5)

    def test_swap_gate(self, sim):
        qc = QuantumCircuit(2)
        qc.x(0)
        qc.swap(0, 1)
        assert np.allclose(sim.run(qc), [0, 0, 1, 0])

    def test_cx_direction_matters(self, sim):
        qc = QuantumCircuit(2)
        qc.x(1)
        qc.cx(1, 0)  # control qubit 1 (set) -> target flips
        assert np.allclose(sim.run(qc), [0, 0, 0, 1])

    def test_normalization_preserved(self, sim):
        qc = QuantumCircuit(3)
        for q in range(3):
            qc.h(q)
            qc.rx(0.7, q)
        qc.cx(0, 2)
        qc.rzz(1.1, 1, 2)
        state = sim.run(qc)
        assert np.linalg.norm(state) == pytest.approx(1.0)

    def test_initial_state_used(self, sim):
        qc = QuantumCircuit(1)
        qc.x(0)
        state = sim.run(qc, initial_state=np.array([0, 1], dtype=complex))
        assert np.allclose(state, [1, 0])

    def test_initial_state_shape_checked(self, sim):
        with pytest.raises(ValueError):
            sim.run(QuantumCircuit(2), initial_state=np.array([1, 0], dtype=complex))

    def test_max_qubits_guard(self):
        sim = StatevectorSimulator(max_qubits=3)
        with pytest.raises(ValueError):
            sim.run(QuantumCircuit(4))


class TestMeasurement:
    def test_probabilities_sum_to_one(self, sim):
        qc = QuantumCircuit(3)
        for q in range(3):
            qc.h(q)
        assert sim.probabilities(qc).sum() == pytest.approx(1.0)

    def test_expectation_diagonal(self, sim):
        qc = QuantumCircuit(1)
        qc.h(0)
        diag = np.array([0.0, 1.0])
        assert sim.expectation_diagonal(qc, diag) == pytest.approx(0.5)

    def test_expectation_shape_mismatch(self, sim):
        with pytest.raises(ValueError):
            sim.expectation_diagonal(QuantumCircuit(2), np.array([1.0, 2.0]))

    def test_sample_counts_total(self, sim):
        qc = QuantumCircuit(2)
        qc.h(0)
        counts = sim.sample_counts(qc, shots=100, seed=0)
        assert sum(counts.values()) == 100

    def test_sample_counts_support(self, sim):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        counts = sim.sample_counts(qc, shots=200, seed=1)
        assert set(counts).issubset({0, 3})

    def test_sample_counts_deterministic_state(self, sim):
        qc = QuantumCircuit(2)
        qc.x(0)
        counts = sim.sample_counts(qc, shots=50, seed=2)
        assert counts == {1: 50}

    def test_invalid_shots(self, sim):
        with pytest.raises(ValueError):
            sim.sample_counts(QuantumCircuit(1), shots=0)


class TestAgainstDenseMatrices:
    """Cross-check gate application against explicit kron products."""

    def _dense_unitary(self, circuit: QuantumCircuit) -> np.ndarray:
        n = circuit.num_qubits
        total = np.eye(2**n, dtype=complex)
        for inst in circuit:
            matrix = gate_matrix(inst.name, inst.params)
            full = self._embed(matrix, inst.qubits, n)
            total = full @ total
        return total

    @staticmethod
    def _embed(matrix: np.ndarray, qubits: tuple, n: int) -> np.ndarray:
        dim = 2**n
        full = np.zeros((dim, dim), dtype=complex)
        for col in range(dim):
            basis = np.zeros(dim, dtype=complex)
            basis[col] = 1.0
            full[:, col] = apply_matrix(basis, matrix, qubits, n)
        return full

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_random_circuits_match_dense(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        qc = QuantumCircuit(n)
        gates_1q = ["h", "x", "rx", "ry", "rz"]
        for _ in range(8):
            if rng.random() < 0.6:
                name = gates_1q[rng.integers(len(gates_1q))]
                q = int(rng.integers(n))
                params = [float(rng.uniform(0, 2 * np.pi))] if name.startswith("r") else []
                qc.append(name, (q,), params)
            else:
                a, b = rng.choice(n, size=2, replace=False)
                qc.append("cx", (int(a), int(b)))
        sim = StatevectorSimulator()
        state = sim.run(qc)
        dense = self._dense_unitary(qc)
        expected = dense @ np.eye(2**n, dtype=complex)[:, 0]
        assert np.allclose(state, expected, atol=1e-10)
