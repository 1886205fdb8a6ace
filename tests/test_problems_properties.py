"""Property tests (hypothesis) for the problem layer.

The contracts pinned here are the acceptance criteria of the subsystem:
every encoding's dense diagonal matches brute-force evaluation of its
textbook objective on <= 12-node instances, QUBO <-> Ising round-trips are
exact, penalty optima are feasible, and the fast-sim expectation of any
problem matches the dense-diagonal reference to 1e-10 -- with field-free
problems routed through the lightcone plan bit-compatibly with the
weighted-MaxCut engine.
"""

import networkx as nx
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _kernel_oracles import problem_expectation_reference
from repro.problems import (
    DiagonalProblem,
    max_independent_set_problem,
    maxcut_problem,
    min_vertex_cover_problem,
    number_partitioning_problem,
    problem_expectation,
    problem_lightcone_plan,
    qubo_problem,
    sk_problem,
)
from repro.qaoa.lightcone import LightconePlan


def _connected_er(n, p, seed):
    offset = 0
    while True:
        g = nx.erdos_renyi_graph(n, p, seed=seed + offset)
        if g.number_of_edges() and nx.is_connected(g):
            return g
        offset += 100


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_property_qubo_ising_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, n))
    offset = float(rng.normal())
    problem = qubo_problem(matrix, offset=offset)
    # QUBO -> Ising matches brute-force x^T Q x + offset on every assignment.
    for z in range(2**n):
        x = np.array([(z >> u) & 1 for u in range(n)], dtype=float)
        assert abs(problem.diagonal[z] - (x @ matrix @ x + offset)) < 1e-9
    # Ising -> QUBO -> Ising reproduces the diagonal.
    rebuilt = DiagonalProblem.from_qubo(*problem.to_qubo())
    assert np.allclose(problem.diagonal, rebuilt.diagonal, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=12),
    p_edge=st.floats(min_value=0.2, max_value=0.6),
    penalty=st.floats(min_value=1.25, max_value=4.0),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_property_mis_encoding_correct_and_feasible(n, p_edge, penalty, seed):
    graph = _connected_er(n, p_edge, seed)
    problem = max_independent_set_problem(graph, penalty=penalty)
    edges = list(graph.edges())
    brute = np.empty(2**n)
    for z in range(2**n):
        bits = [(z >> u) & 1 for u in range(n)]
        brute[z] = sum(bits) - penalty * sum(bits[u] * bits[v] for u, v in edges)
    assert np.allclose(problem.diagonal, brute, atol=1e-10)
    value, bits = problem.brute_force()
    assert all(not (bits[u] and bits[v]) for u, v in edges)  # feasible optimum
    alpha = max(
        bin(z).count("1")
        for z in range(2**n)
        if all(not ((z >> u) & 1 and (z >> v) & 1) for u, v in edges)
    )
    assert abs(value - alpha) < 1e-9  # the optimum value is the independence number


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=12),
    p_edge=st.floats(min_value=0.2, max_value=0.6),
    penalty=st.floats(min_value=1.25, max_value=4.0),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_property_vertex_cover_encoding_correct_and_feasible(n, p_edge, penalty, seed):
    graph = _connected_er(n, p_edge, seed)
    problem = min_vertex_cover_problem(graph, penalty=penalty)
    edges = list(graph.edges())
    brute = np.empty(2**n)
    for z in range(2**n):
        bits = [(z >> u) & 1 for u in range(n)]
        brute[z] = -sum(bits) - penalty * sum(
            (1 - bits[u]) * (1 - bits[v]) for u, v in edges
        )
    assert np.allclose(problem.diagonal, brute, atol=1e-10)
    value, bits = problem.brute_force()
    assert all(bits[u] or bits[v] for u, v in edges)  # feasible optimum
    cover = min(
        bin(z).count("1")
        for z in range(2**n)
        if all((z >> u) & 1 or (z >> v) & 1 for u, v in edges)
    )
    assert abs(value + cover) < 1e-9


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_property_partition_and_sk_diagonals(n, seed):
    rng = np.random.default_rng(seed)
    numbers = rng.integers(1, 30, size=max(n, 2)).astype(float)
    part = number_partitioning_problem(numbers)
    sk = sk_problem(max(n, 2), seed=seed)
    for z in range(2 ** max(n, 2)):
        spins = [1.0 - 2.0 * ((z >> u) & 1) for u in range(max(n, 2))]
        residual = sum(a * s for a, s in zip(numbers, spins))
        assert abs(part.diagonal[z] + residual**2) < 1e-8
        energy = sum(j * spins[u] * spins[v] for (u, v), j in sk.couplings.items())
        assert abs(sk.diagonal[z] - energy) < 1e-10


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=10),
    p=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=10**6),
)
@example(n=10, p=2, seed=1275)  # partition value ~ -796: 1.02e-10 absolute, 1.3e-13 relative
def test_property_fastsim_matches_dense_reference_all_encodings(n, p, seed):
    """Engine parity: every encoding's expectation matches the dense oracle.

    Field-free encodings are priced on their lightcone plan, the others on
    the dense engine the dispatch falls back to.

    The bound is relative beyond magnitude 1 (partition values reach the
    hundreds), and the absolute 1e-10 it always was below that.
    """
    rng = np.random.default_rng(seed)
    graph = _connected_er(n, 0.4, seed)
    problems = [
        maxcut_problem(graph),
        max_independent_set_problem(graph),
        min_vertex_cover_problem(graph),
        number_partitioning_problem(rng.integers(1, 9, size=n).astype(float)),
        sk_problem(n, seed=seed),
        qubo_problem(rng.normal(size=(n, n))),
    ]
    gammas = rng.uniform(-np.pi, np.pi, size=p)
    betas = rng.uniform(-np.pi, np.pi, size=p)
    for problem in problems:
        reference = problem_expectation_reference(problem, gammas, betas)
        if problem.is_field_free:
            plan, offset = problem_lightcone_plan(problem, p)
            value = plan.evaluate(list(gammas), list(betas)) + offset
        else:
            value = problem_expectation(problem, gammas, betas)
        assert abs(value - reference) < 1e-10 * max(1.0, abs(reference)), problem.name
        # The dense observable expectation is bounded by the diagonal range.
        low, high = problem.diagonal.min(), problem.diagonal.max()
        assert low - 1e-9 <= reference <= high + 1e-9


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=12),
    p=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_property_field_free_lightcone_matches_maxcut_engine(n, p, seed):
    """Field-free problems price through LightconePlan, bit-compatible with
    the weighted-MaxCut engine on the coupling graph."""
    rng = np.random.default_rng(seed)
    graph = _connected_er(n, 0.35, seed)
    for u, v in graph.edges():
        graph[u][v]["weight"] = float(rng.normal() or 1.0)
    problem = maxcut_problem(graph)
    gammas = rng.uniform(-np.pi, np.pi, size=p)
    betas = rng.uniform(-np.pi, np.pi, size=p)
    plan, offset = problem_lightcone_plan(problem, p)
    via_plan = plan.evaluate(list(gammas), list(betas)) + offset
    via_graph = LightconePlan.build(graph, p).evaluate(list(gammas), list(betas))
    assert abs(via_plan - via_graph) < 1e-10
    assert abs(via_plan - problem_expectation_reference(problem, gammas, betas)) < 1e-10
