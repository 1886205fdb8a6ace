#!/usr/bin/env python3
"""Gate-level view of the paper's noise argument: distilled circuits route cheaper.

Builds the p-layer QAOA circuit for a random graph and for its SA-distilled
graph, transpiles both onto a fake device with SABRE (paper Sec. 5.3), and
prints the routed depth, SWAP count and two-qubit gate count next to the
QAOA-layer error rates :meth:`FastNoiseSpec.for_graph` assigns each graph.
The smaller, shallower routed circuit is why Red-QAOA's noisy landscapes
sit closer to the ideal one (Figs. 10, 22-24).  Nothing is simulated.

Usage::

    python examples/gate_level_execution.py [--nodes 10] [--device toronto]
"""

import argparse

import numpy as np

from repro.core.reduction import GraphReducer
from repro.datasets import random_connected_gnp
from repro.qaoa.circuit_builder import build_qaoa_circuit
from repro.qaoa.fast_sim import FastNoiseSpec
from repro.quantum import get_backend, list_backends, transpile
from repro.utils.graphs import relabel_to_range


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=10)
    parser.add_argument("--device", choices=list_backends(), default="toronto")
    parser.add_argument("--p", type=int, default=1, help="QAOA layers")
    parser.add_argument("--trials", type=int, default=8, help="SABRE trials")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    backend = get_backend(args.device)
    graph = relabel_to_range(random_connected_gnp(args.nodes, 0.4, seed=args.seed))
    reduction = GraphReducer(seed=args.seed).reduce(graph)
    reduced = relabel_to_range(reduction.reduced_graph)
    print(f"Device {backend.name}: {backend.num_qubits} qubits, basis {backend.basis_gates}")
    print(f"Graph: {args.nodes} nodes, {graph.number_of_edges()} edges; distilled to "
          f"{reduced.number_of_nodes()} nodes ({reduction.node_reduction:.0%} reduction)\n")

    params = [0.5] * args.p
    print(f"{'circuit':>9} {'nodes':>5} {'edges':>5} {'depth':>5} {'swaps':>5} "
          f"{'2q gates':>8} {'edge err':>8} {'node err':>8} {'bias rms':>8}")
    for label, target in (("original", graph), ("distilled", reduced)):
        circuit = build_qaoa_circuit(target, params, params)
        routed = transpile(circuit, backend, trials=args.trials, seed=args.seed)
        noise = FastNoiseSpec.for_graph(backend, target)
        bias = float(np.sqrt(np.mean(np.square(noise.edge_phase_bias))))
        print(f"{label:>9} {target.number_of_nodes():>5} {target.number_of_edges():>5} "
              f"{routed.depth:>5} {routed.swap_count:>5} "
              f"{routed.circuit.two_qubit_gate_count():>8} "
              f"{noise.edge_error:>8.4f} {noise.node_error:>8.4f} {bias:>8.4f}")


if __name__ == "__main__":
    main()
