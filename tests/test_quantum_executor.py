"""Tests for the gate-level device pipeline: route a circuit onto a backend
with :func:`repro.quantum.transpile`, then simulate the routed circuit with
the reference simulators, ideal or under the backend's noise model."""

import networkx as nx
import pytest

from _gate_oracles import (
    DensityMatrixSimulator,
    StatevectorSimulator,
    device_noise_model,
    routed_cut_diagonal,
)
from repro.qaoa.circuit_builder import build_qaoa_circuit
from repro.qaoa.expectation import maxcut_expectation
from repro.quantum.backends import get_backend
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.transpiler import transpile


def _connected_er(n, p, seed):
    offset = 0
    while True:
        g = nx.erdos_renyi_graph(n, p, seed=seed + offset)
        if g.number_of_edges() and nx.is_connected(g):
            return g
        offset += 100


def _routed_expectation(device, graph, gammas, betas, noisy):
    """Expected cut of ``graph``'s QAOA circuit routed onto ``device``."""
    backend = get_backend(device)
    result = transpile(build_qaoa_circuit(graph, gammas, betas), backend, trials=8, seed=0)
    diagonal = routed_cut_diagonal(result, graph)
    if not noisy:
        return StatevectorSimulator().expectation_diagonal(result.circuit, diagonal)
    dm = DensityMatrixSimulator(max_qubits=result.circuit.num_qubits)
    return dm.expectation_diagonal(result.circuit, diagonal, device_noise_model(backend))


class TestRun:
    def test_probabilities_normalized(self):
        backend = get_backend("guadalupe")
        qc = QuantumCircuit(3)
        qc.h(0)
        qc.cx(0, 1)
        qc.cx(1, 2)
        result = transpile(qc, backend, trials=8, seed=0)
        dm = DensityMatrixSimulator(max_qubits=result.circuit.num_qubits)
        probs = dm.probabilities(result.circuit, device_noise_model(backend))
        assert probs.sum() == pytest.approx(1.0)
        assert result.depth > 0


class TestMaxCutExpectation:
    def test_ideal_executor_matches_reference(self):
        graph = _connected_er(5, 0.6, 0)
        value = _routed_expectation("kolkata", graph, [0.8], [0.4], noisy=False)
        reference = maxcut_expectation(graph, [0.8], [0.4])
        assert value == pytest.approx(reference, abs=1e-8)

    def test_noisy_executor_damps_at_optimum(self):
        graph = nx.cycle_graph(4)
        gammas, betas = [1.1], [0.39]  # near-optimal for C4
        ideal = maxcut_expectation(graph, gammas, betas)
        noisy = _routed_expectation("toronto", graph, gammas, betas, noisy=True)
        assert noisy < ideal

    def test_better_device_less_damping(self):
        graph = _connected_er(5, 0.6, 2)
        gammas, betas = [0.9], [0.5]
        ideal = maxcut_expectation(graph, gammas, betas)
        values = {
            device: _routed_expectation(device, graph, gammas, betas, noisy=True)
            for device in ("kolkata", "melbourne")
        }
        # Only meaningful when the point is above random guessing.
        if ideal > graph.number_of_edges() / 2:
            assert abs(values["kolkata"] - ideal) <= abs(values["melbourne"] - ideal) + 0.05

    def test_weighted_graph_supported(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=2.0)
        graph.add_edge(1, 2, weight=0.5)
        value = _routed_expectation("kolkata", graph, [0.6], [0.3], noisy=False)
        reference = maxcut_expectation(graph, [0.6], [0.3])
        assert value == pytest.approx(reference, abs=1e-8)
