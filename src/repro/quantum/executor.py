"""Gate-level device execution pipeline.

:class:`DeviceExecutor` is the offline analogue of Qiskit's
``execute(circuit, backend)``: it transpiles a circuit onto a fake device
(SABRE routing, basis decomposition, best-of-N depth selection), attaches
the device's noise model, simulates with the density-matrix engine when the
routed circuit is narrow enough and the Pauli-trajectory engine otherwise,
and evaluates observables through the routing permutation.

This is the slow-but-faithful path; the benchmark harness uses the fast
QAOA-layer noise path (:mod:`repro.qaoa.fast_sim`) for landscape-sized
workloads.  The test suite cross-checks the two.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.quantum.backends import FakeBackend
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density_matrix import DensityMatrixSimulator
from repro.quantum.trajectories import TrajectorySimulator
from repro.quantum.transpiler import TranspileResult, transpile
from repro.utils.graphs import ensure_graph, relabel_to_range
from repro.utils.rng import as_generator

__all__ = ["DeviceExecutor", "ExecutionResult"]

_DM_LIMIT = 9


@dataclass
class ExecutionResult:
    """Outcome of one device execution."""

    probabilities: np.ndarray
    transpiled: TranspileResult
    simulator: str

    @property
    def depth(self) -> int:
        return self.transpiled.depth

    @property
    def swap_count(self) -> int:
        return self.transpiled.swap_count


class DeviceExecutor:
    """Execute circuits on a fake backend with its calibrated noise.

    Parameters
    ----------
    backend:
        The target device.
    noisy:
        Attach the backend noise model (True) or run ideally (False).
    transpile_trials:
        SABRE repetitions; the minimum-depth circuit is kept (paper
        Sec. 5.3 uses 100; the default here is laptop-friendly).
    trajectories:
        Trajectory count when the routed circuit exceeds the exact
        density-matrix width (:data:`_DM_LIMIT` qubits).
    """

    def __init__(
        self,
        backend: FakeBackend,
        noisy: bool = True,
        transpile_trials: int = 8,
        trajectories: int = 16,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if transpile_trials < 1:
            raise ValueError(f"transpile_trials must be >= 1, got {transpile_trials}")
        self.backend = backend
        self.noisy = noisy
        self.transpile_trials = transpile_trials
        self.trajectories = trajectories
        self._rng = as_generator(seed)

    def run(self, circuit: QuantumCircuit) -> ExecutionResult:
        """Transpile and simulate ``circuit``; returns probabilities over the
        compacted physical register."""
        transpiled = transpile(
            circuit,
            self.backend,
            trials=self.transpile_trials,
            seed=self._rng,
            compact=True,
        )
        noise_model = self.backend.build_noise_model() if self.noisy else None
        width = transpiled.circuit.num_qubits
        if width <= _DM_LIMIT:
            simulator = DensityMatrixSimulator(max_qubits=width)
            probs = simulator.probabilities(transpiled.circuit, noise_model)
            name = "density_matrix"
        else:
            simulator = TrajectorySimulator(trajectories=self.trajectories)
            probs = simulator.probabilities(
                transpiled.circuit, noise_model, seed=self._rng
            )
            name = "trajectories"
        return ExecutionResult(probabilities=probs, transpiled=transpiled, simulator=name)

    def maxcut_expectation(
        self,
        graph: nx.Graph,
        gammas: Sequence[float],
        betas: Sequence[float],
    ) -> float:
        """QAOA MaxCut expectation for ``graph`` executed on the device.

        Builds the QAOA circuit, routes it, simulates under the device
        noise, and evaluates the cut observable through the final layout.
        """
        # Imported here: repro.qaoa depends on repro.quantum, so a module-
        # level import would be circular.
        from repro.qaoa.circuit_builder import build_qaoa_circuit
        from repro.qaoa.hamiltonian import cut_diagonal

        ensure_graph(graph)
        relabeled = relabel_to_range(graph)
        circuit = build_qaoa_circuit(
            relabeled, [float(g) for g in gammas], [float(b) for b in betas]
        )
        result = self.run(circuit)
        layout = result.transpiled.final_layout
        width = result.transpiled.circuit.num_qubits
        edges = list(relabeled.edges(data=True))
        diagonal = cut_diagonal(
            width,
            [(layout[u], layout[v]) for u, v, _ in edges],
            [float(data.get("weight", 1.0)) for _, _, data in edges],
        )
        return float(result.probabilities @ diagonal)

    def sample_cuts(
        self,
        graph: nx.Graph,
        gammas: Sequence[float],
        betas: Sequence[float],
        shots: int = 1024,
    ) -> dict[int, int]:
        """Sample measurement outcomes mapped back to *logical* bitstrings.

        Returns ``{logical basis index: count}`` so downstream code can read
        cuts off the original node order.
        """
        from repro.qaoa.circuit_builder import build_qaoa_circuit

        if shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")
        ensure_graph(graph)
        relabeled = relabel_to_range(graph)
        circuit = build_qaoa_circuit(
            relabeled, [float(g) for g in gammas], [float(b) for b in betas]
        )
        result = self.run(circuit)
        probs = result.probabilities / result.probabilities.sum()
        outcomes = self._rng.choice(probs.size, size=shots, p=probs)
        layout = result.transpiled.final_layout
        counts: dict[int, int] = {}
        for outcome in outcomes:
            logical = 0
            for q in range(relabeled.number_of_nodes()):
                bit = (int(outcome) >> layout[q]) & 1
                logical |= bit << q
            counts[logical] = counts.get(logical, 0) + 1
        return counts
