"""Integration: device noise models produce physically ordered results.

Runs identical circuits under every backend's gate-level noise model and
checks that output quality tracks the published calibration ordering --
the property the Fig. 24 sweep depends on.
"""

import networkx as nx
import pytest

from _gate_oracles import DensityMatrixSimulator, device_noise_model, routed_cut_diagonal
from repro.qaoa.circuit_builder import build_qaoa_circuit
from repro.quantum import QuantumCircuit, get_backend, list_backends, transpile


def _ghz(n: int) -> QuantumCircuit:
    qc = QuantumCircuit(n)
    qc.h(0)
    for q in range(n - 1):
        qc.cx(q, q + 1)
    return qc


def _ghz_fidelity(device: str, n: int = 4) -> float:
    """Probability mass on the two GHZ outcomes under device noise."""
    model = device_noise_model(get_backend(device))
    probs = DensityMatrixSimulator().probabilities(_ghz(n), model)
    return float(probs[0] + probs[-1])


class TestGhzFidelityOrdering:
    def test_all_backends_degrade_ghz(self):
        ideal = 1.0
        for device in list_backends():
            fidelity = _ghz_fidelity(device)
            assert 0.3 < fidelity < ideal, device

    def test_kolkata_beats_retired_devices(self):
        kolkata = _ghz_fidelity("kolkata")
        assert kolkata > _ghz_fidelity("toronto")
        assert kolkata > _ghz_fidelity("melbourne")

    def test_ibm_beats_rigetti(self):
        # Rigetti Aspen error rates are substantially higher.
        assert _ghz_fidelity("kolkata") > _ghz_fidelity("aspen_m3")

    def test_fidelity_decreases_with_circuit_size(self):
        model = device_noise_model(get_backend("toronto"))
        fidelities = []
        for n in (2, 4, 6):
            probs = DensityMatrixSimulator().probabilities(_ghz(n), model)
            fidelities.append(float(probs[0] + probs[-1]))
        assert fidelities[0] > fidelities[1] > fidelities[2]


def _routed_noisy_probs(device: str, graph: nx.Graph, gammas, betas):
    """Route ``graph``'s QAOA circuit onto ``device`` and simulate it under
    the device's noise: (probabilities, cut diagonal) on the routed register."""
    backend = get_backend(device)
    result = transpile(build_qaoa_circuit(graph, gammas, betas), backend, trials=8, seed=0)
    dm = DensityMatrixSimulator(max_qubits=result.circuit.num_qubits)
    probs = dm.probabilities(result.circuit, device_noise_model(backend))
    return probs, routed_cut_diagonal(result, graph)


class TestExecutorAcrossDevices:
    @pytest.mark.parametrize("device", ["kolkata", "guadalupe", "aspen_m3"])
    def test_qaoa_execution_on_every_topology(self, device):
        """The full flow (route + decompose + noisy simulation) runs on IBM
        heavy-hex and Rigetti octagonal topologies alike."""
        probs, diagonal = _routed_noisy_probs(device, nx.cycle_graph(4), [1.1], [0.39])
        assert probs.sum() == pytest.approx(1.0)
        assert 0 < probs @ diagonal < 4

    def test_noise_ordering_visible_through_executor(self):
        values = {}
        for device in ("kolkata", "melbourne"):
            probs, diagonal = _routed_noisy_probs(device, nx.cycle_graph(4), [1.1], [0.39])
            values[device] = probs @ diagonal
        # Near the optimum (~3.7 for C4), the better device retains more.
        assert values["kolkata"] > values["melbourne"]
