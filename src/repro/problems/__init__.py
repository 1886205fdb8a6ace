"""General Ising/QUBO problem layer: Red-QAOA beyond MaxCut.

Every diagonal cost Hamiltonian -- quadratic couplings plus linear fields
plus a constant -- is a :class:`DiagonalProblem`, and the whole Red-QAOA
pipeline (SA reduction on the coupling graph, fast statevector / lightcone
expectations, reduce -> optimize -> transfer) operates on that abstraction.
Shipped encodings: weighted MaxCut, Max-Independent-Set and min-vertex-cover
(penalty encodings), number partitioning, SK spin glasses, and arbitrary
QUBO matrices; QUBO <-> Ising converters round-trip exactly.

>>> import networkx as nx
>>> from repro.problems import max_independent_set_problem, problem_expectation
>>> problem = max_independent_set_problem(nx.cycle_graph(5))
>>> problem.best_value()  # the independence number of C5
2.0
"""

from repro.problems.base import MAX_DENSE_QUBITS, DiagonalProblem, local_search_value
from repro.problems.encodings import (
    max_independent_set_problem,
    maxcut_problem,
    min_vertex_cover_problem,
    number_partitioning_problem,
    qubo_problem,
    sk_problem,
)
from repro.problems.expectation import (
    problem_evaluator,
    problem_expectation,
    problem_lightcone_plan,
)

__all__ = [
    "MAX_DENSE_QUBITS",
    "DiagonalProblem",
    "local_search_value",
    "max_independent_set_problem",
    "maxcut_problem",
    "min_vertex_cover_problem",
    "number_partitioning_problem",
    "problem_evaluator",
    "problem_expectation",
    "problem_lightcone_plan",
    "qubo_problem",
    "sk_problem",
]
