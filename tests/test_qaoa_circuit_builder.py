"""Tests for repro.qaoa.circuit_builder."""

import networkx as nx
import numpy as np
import pytest

from _gate_oracles import StatevectorSimulator
from repro.qaoa.circuit_builder import build_qaoa_circuit
from repro.qaoa.fast_sim import qaoa_statevector
from repro.qaoa.hamiltonian import MaxCutHamiltonian


class TestStructure:
    def test_gate_counts_p1(self):
        g = nx.cycle_graph(5)
        qc = build_qaoa_circuit(g, [0.3], [0.2])
        ops = qc.count_ops()
        assert ops["h"] == 5
        assert ops["rzz"] == 5
        assert ops["rx"] == 5

    def test_gate_counts_p3(self):
        g = nx.path_graph(4)
        qc = build_qaoa_circuit(g, [0.1, 0.2, 0.3], [0.4, 0.5, 0.6])
        ops = qc.count_ops()
        assert ops["h"] == 4
        assert ops["rzz"] == 3 * 3
        assert ops["rx"] == 3 * 4

    def test_rzz_angle_convention(self):
        g = nx.Graph([(0, 1)])
        qc = build_qaoa_circuit(g, [0.7], [0.2])
        rzz = [i for i in qc if i.name == "rzz"][0]
        assert rzz.params[0] == pytest.approx(-0.7)

    def test_rx_angle_is_two_beta(self):
        g = nx.Graph([(0, 1)])
        qc = build_qaoa_circuit(g, [0.7], [0.2])
        rx = [i for i in qc if i.name == "rx"][0]
        assert rx.params[0] == pytest.approx(0.4)

    def test_weighted_edges_scale_rzz(self):
        g = nx.Graph()
        g.add_edge(0, 1, weight=2.5)
        qc = build_qaoa_circuit(g, [0.4], [0.2])
        rzz = [i for i in qc if i.name == "rzz"][0]
        assert rzz.params[0] == pytest.approx(-1.0)

    def test_requires_range_labels(self):
        g = nx.Graph([("a", "b")])
        with pytest.raises(ValueError):
            build_qaoa_circuit(g, [0.1], [0.1])

    def test_parameter_length_checked(self):
        g = nx.path_graph(3)
        with pytest.raises(ValueError):
            build_qaoa_circuit(g, [0.1, 0.2], [0.1])
        with pytest.raises(ValueError):
            build_qaoa_circuit(g, [], [])

    def test_edge_order_deterministic(self):
        g = nx.Graph([(2, 1), (0, 2), (1, 0)])
        a = build_qaoa_circuit(g, [0.3], [0.2])
        b = build_qaoa_circuit(g, [0.3], [0.2])
        assert a.instructions == b.instructions


class TestSemantics:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_state_matches_fast_engine_up_to_phase(self, p):
        g = nx.erdos_renyi_graph(5, 0.6, seed=p)
        while not g.number_of_edges():
            g = nx.erdos_renyi_graph(5, 0.6, seed=p + 50)
        rng = np.random.default_rng(p)
        gammas = list(rng.uniform(0, 2 * np.pi, p))
        betas = list(rng.uniform(0, np.pi, p))
        circuit_state = StatevectorSimulator().run(build_qaoa_circuit(g, gammas, betas))
        fast_state = qaoa_statevector(MaxCutHamiltonian(g), gammas, betas)
        # Equal up to a global phase: |<a|b>| = 1.
        overlap = abs(np.vdot(circuit_state, fast_state))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_circuit_depth_scales_with_p(self):
        g = nx.cycle_graph(4)
        d1 = build_qaoa_circuit(g, [0.1], [0.1]).depth()
        d3 = build_qaoa_circuit(g, [0.1] * 3, [0.1] * 3).depth()
        assert d3 > d1
