"""Tests for repro.quantum.transpiler."""

import numpy as np
import pytest

from _gate_oracles import StatevectorSimulator
from repro.quantum.backends import get_backend
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.coupling import line_map, ring_map
from repro.quantum.transpiler import decompose_to_basis, route_sabre, transpile

IBM_BASIS = ("rz", "sx", "x", "cx")
RIGETTI_BASIS = ("rz", "rx", "cz")


def _probs(circuit: QuantumCircuit) -> np.ndarray:
    return StatevectorSimulator().probabilities(circuit)


def _random_circuit(n: int, depth: int, seed: int) -> QuantumCircuit:
    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(n)
    for q in range(n):
        qc.h(q)
    for _ in range(depth):
        if rng.random() < 0.5:
            qc.rx(float(rng.uniform(0, 6)), int(rng.integers(n)))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            qc.rzz(float(rng.uniform(0, 6)), int(a), int(b))
    return qc


class TestDecomposition:
    @pytest.mark.parametrize("basis", [IBM_BASIS, RIGETTI_BASIS])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_probabilities_preserved(self, basis, seed):
        qc = _random_circuit(3, 8, seed)
        decomposed = decompose_to_basis(qc, basis)
        assert np.allclose(_probs(qc), _probs(decomposed), atol=1e-10)

    @pytest.mark.parametrize("basis", [IBM_BASIS, RIGETTI_BASIS])
    def test_only_basis_gates_remain(self, basis):
        qc = _random_circuit(3, 10, 7)
        qc.swap(0, 2)
        qc.u3(0.1, 0.2, 0.3, 1)
        qc.y(0)
        qc.cz(0, 1)
        for inst in decompose_to_basis(qc, basis):
            assert inst.name in basis

    def test_h_decomposition_state(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        decomposed = decompose_to_basis(qc, IBM_BASIS)
        assert np.allclose(_probs(qc), _probs(decomposed))

    def test_rz_merging(self):
        qc = QuantumCircuit(1)
        qc.rz(0.3, 0)
        qc.rz(0.4, 0)
        qc.rz(-0.7, 0)
        merged = decompose_to_basis(qc, IBM_BASIS)
        assert len(merged) == 0  # angles cancel entirely

    def test_rz_merge_blocked_by_other_gate(self):
        qc = QuantumCircuit(1)
        qc.rz(0.3, 0)
        qc.x(0)
        qc.rz(0.4, 0)
        merged = decompose_to_basis(qc, IBM_BASIS)
        assert merged.count_ops().get("rz", 0) == 2


class TestRouting:
    def test_adjacent_gates_untouched(self):
        qc = QuantumCircuit(3)
        qc.cx(0, 1)
        qc.cx(1, 2)
        routed, _, swaps = route_sabre(qc, line_map(3), {0: 0, 1: 1, 2: 2})
        assert swaps == 0
        assert len(routed) == 2

    def test_distant_gate_needs_swaps(self):
        qc = QuantumCircuit(4)
        qc.cx(0, 3)
        routed, _, swaps = route_sabre(qc, line_map(4), {i: i for i in range(4)})
        assert swaps >= 1

    def test_all_two_qubit_gates_executable(self):
        qc = _random_circuit(5, 15, 3)
        cm = ring_map(5)
        routed, _, _ = route_sabre(qc, cm, {i: i for i in range(5)})
        for inst in routed:
            if len(inst.qubits) == 2 and inst.name != "swap":
                assert cm.are_adjacent(*inst.qubits)
            elif inst.name == "swap":
                assert cm.are_adjacent(*inst.qubits)

    def test_routing_preserves_semantics_on_line(self):
        """Simulate routed circuit and undo the final permutation."""
        qc = _random_circuit(4, 10, 11)
        cm = line_map(4)
        layout = {i: i for i in range(4)}
        routed, final_layout, _ = route_sabre(qc, cm, layout)
        probs_orig = _probs(qc)
        probs_routed = _probs(routed)
        # Map logical basis index -> physical basis index via final layout.
        n = 4
        remapped = np.zeros_like(probs_routed)
        for z in range(2**n):
            phys = 0
            for logical in range(n):
                bit = (z >> logical) & 1
                phys |= bit << final_layout[logical]
            remapped[z] = probs_routed[phys]
        assert np.allclose(probs_orig, remapped, atol=1e-10)


class TestTranspile:
    def test_full_flow_on_backend(self):
        backend = get_backend("guadalupe")
        qc = _random_circuit(6, 12, 5)
        result = transpile(qc, backend, trials=4, seed=0)
        for inst in result.circuit:
            assert inst.name in backend.basis_gates
        assert result.depth == result.circuit.depth()

    def test_compacted_width_reasonable(self):
        backend = get_backend("kolkata")
        qc = _random_circuit(5, 8, 2)
        result = transpile(qc, backend, trials=2, seed=1, compact=True)
        assert result.circuit.num_qubits <= backend.num_qubits
        assert result.circuit.num_qubits >= 5

    def test_semantics_preserved_through_full_transpile(self):
        backend = get_backend("guadalupe")
        qc = _random_circuit(4, 8, 9)
        result = transpile(qc, backend, trials=3, seed=3, compact=True)
        probs_orig = _probs(qc)
        probs_t = _probs(result.circuit)
        n_t = result.circuit.num_qubits
        remapped = np.zeros(2**4)
        for z in range(2**4):
            phys = 0
            for logical in range(4):
                bit = (z >> logical) & 1
                phys |= bit << result.final_layout[logical]
            remapped[z] = probs_t[phys] if phys < 2**n_t else 0.0
        # Unused compacted qubits stay |0>, so marginalizing is a lookup.
        assert np.allclose(probs_orig, remapped, atol=1e-9)

    def test_more_trials_never_worse(self):
        backend = get_backend("kolkata")
        qc = _random_circuit(7, 20, 4)
        depth_1 = transpile(qc, backend, trials=1, seed=0).depth
        depth_10 = transpile(qc, backend, trials=10, seed=0).depth
        assert depth_10 <= depth_1

    def test_too_wide_circuit_rejected(self):
        backend = get_backend("melbourne")
        with pytest.raises(ValueError):
            transpile(QuantumCircuit(20), backend)

    def test_requires_target(self):
        with pytest.raises(ValueError):
            transpile(QuantumCircuit(2))

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            transpile(QuantumCircuit(2), get_backend("kolkata"), trials=0)

    def test_coupling_map_only(self):
        qc = _random_circuit(3, 5, 8)
        result = transpile(qc, coupling_map=line_map(5), trials=2, seed=0)
        assert result.circuit.num_qubits >= 3
