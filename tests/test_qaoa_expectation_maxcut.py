"""Tests for repro.qaoa.expectation and repro.qaoa.maxcut."""

import networkx as nx
import numpy as np
import pytest

from repro.qaoa.analytic import maxcut_p1_expectation
from repro.qaoa.expectation import (
    EXACT_LIMIT,
    EngineLimitError,
    dispatch_evaluator,
    maxcut_evaluator,
    maxcut_expectation,
    noisy_maxcut_expectation,
)
from repro.qaoa.fast_sim import FastNoiseSpec, qaoa_expectation_fast
from repro.qaoa.hamiltonian import MAX_DENSE_QUBITS, MaxCutHamiltonian
from repro.qaoa.lightcone import LightconePlan, LightconeTooLargeError
from repro.qaoa.maxcut import (
    approximation_ratio,
    brute_force_maxcut,
    cut_size,
)
from repro.problems import local_search_value
from repro.problems.encodings import maxcut_problem


def _connected_er(n, p, seed):
    offset = 0
    while True:
        g = nx.erdos_renyi_graph(n, p, seed=seed + offset)
        if g.number_of_edges() and nx.is_connected(g):
            return g
        offset += 100


class TestDispatcher:
    def test_small_graph_uses_statevector(self):
        g = _connected_er(8, 0.4, 0)
        a = qaoa_expectation_fast(MaxCutHamiltonian(g), [0.6], [0.4])
        b = maxcut_expectation(g, [0.6], [0.4])
        assert a == b

    def test_engines_agree(self):
        g = _connected_er(10, 0.3, 1)
        sv = maxcut_expectation(g, [0.6], [0.4])
        an = maxcut_p1_expectation(g, 0.6, 0.4)
        lc = LightconePlan.build(g, 1).evaluate([0.6], [0.4])
        assert sv == pytest.approx(an, abs=1e-9)
        assert sv == pytest.approx(lc, abs=1e-9)

    def test_large_graph_p1_analytic(self):
        g = nx.random_regular_graph(3, 100, seed=0)
        value = maxcut_expectation(g, [0.5], [0.3])
        assert 0 <= value <= g.number_of_edges()

    def test_large_graph_p2_lightcone(self):
        g = nx.random_regular_graph(3, 40, seed=1)
        value = maxcut_expectation(g, [0.5, 0.9], [0.3, 0.7])
        assert 0 <= value <= g.number_of_edges()

    def test_dense_large_graph_raises(self):
        g = nx.complete_graph(30)
        with pytest.raises(EngineLimitError):
            maxcut_expectation(g, [0.5, 0.9], [0.3, 0.7])

    def test_arbitrary_labels_accepted(self):
        g = nx.Graph([("x", "y"), ("y", "z")])
        value = maxcut_expectation(g, [0.5], [0.3])
        assert 0 <= value <= 2

    def test_dense_graph_falls_back_to_statevector(self):
        # p=2 lightcones of a 22-node G(n, 0.5) span the whole graph.
        g = _connected_er(22, 0.5, seed=0)
        auto = maxcut_expectation(g, [0.5, 0.9], [0.3, 0.7])
        assert auto == qaoa_expectation_fast(MaxCutHamiltonian(g), [0.5, 0.9], [0.3, 0.7])
        with pytest.raises(LightconeTooLargeError):
            LightconePlan.build(g, 2, max_qubits=EXACT_LIMIT)

    @pytest.mark.parametrize("kind", ["graph", "problem"])
    @pytest.mark.parametrize("method", ["statevector", "lightcone"])
    def test_evaluators_reject_wrong_depth(self, kind, method):
        """The statevector engine prices 12 qubits, the lightcone engine 24."""
        from repro.problems import max_independent_set_problem, maxcut_problem
        from repro.problems.expectation import problem_evaluator

        n = 12 if method == "statevector" else 24
        g = nx.random_regular_graph(3, n, seed=0)
        if kind == "graph":
            evaluate = maxcut_evaluator(g, 2)
        elif method == "statevector":
            evaluate = problem_evaluator(max_independent_set_problem(g), 2)
        else:
            evaluate = problem_evaluator(maxcut_problem(g), 2)
        assert np.isfinite(evaluate([0.5, 0.9], [0.3, 0.7]))
        with pytest.raises(ValueError, match="p=2"):
            evaluate([0.5], [0.3])

    def test_noisy_wrapper(self):
        g = _connected_er(7, 0.4, 5)
        noise = FastNoiseSpec(edge_error=0.05)
        value = noisy_maxcut_expectation(g, [0.5], [0.3], noise, trajectories=4, seed=0)
        assert 0 <= value <= g.number_of_edges()


class TestDispatchPolicy:
    """Every branch of the one policy, on stub engines and pretend sizes."""

    @staticmethod
    def _built(num_qubits, p, field_free=True, analytic=False, fits=True):
        built = []

        def lightcone():
            built.append("lightcone")
            if not fits:
                raise LightconeTooLargeError("stub lightcone too large")
            return lambda gammas, betas: 0.0

        dispatch_evaluator(
            num_qubits, p, dense=lambda: built.append("dense"), lightcone=lightcone,
            field_free=field_free, analytic=(lambda g, b: 0.0) if analytic else None,
        )
        return built

    @pytest.mark.parametrize(
        "num_qubits, p, options, built",
        [
            (EXACT_LIMIT, 2, dict(analytic=True), ["dense"]),
            (EXACT_LIMIT + 1, 1, dict(analytic=True), []),
            (EXACT_LIMIT + 1, 2, dict(analytic=True), ["lightcone"]),
            (MAX_DENSE_QUBITS, 2, dict(fits=False), ["lightcone", "dense"]),
            (MAX_DENSE_QUBITS, 1, dict(field_free=False), ["dense"]),
            (MAX_DENSE_QUBITS + 1, 2, dict(fits=False), None),
            (MAX_DENSE_QUBITS + 1, 2, dict(field_free=False), None),
        ],
    )
    def test_branch(self, num_qubits, p, options, built):
        if built is None:
            with pytest.raises(EngineLimitError):
                self._built(num_qubits, p, **options)
        else:
            assert self._built(num_qubits, p, **options) == built


class TestBruteForce:
    def test_path(self):
        value, assignment = brute_force_maxcut(nx.path_graph(4))
        assert value == 3.0
        assert cut_size(nx.path_graph(4), assignment) == 3

    def test_odd_cycle(self):
        value, _ = brute_force_maxcut(nx.cycle_graph(5))
        assert value == 4.0

    def test_complete_bipartite(self):
        g = nx.complete_bipartite_graph(3, 4)
        value, assignment = brute_force_maxcut(g)
        assert value == 12.0
        assert cut_size(g, assignment) == 12

    def test_petersen(self):
        # Known MaxCut of the Petersen graph is 12.
        value, _ = brute_force_maxcut(nx.petersen_graph())
        assert value == 12.0

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_force_maxcut(nx.path_graph(25))

    def test_assignment_uses_original_labels(self):
        g = nx.Graph([("a", "b")])
        _, assignment = brute_force_maxcut(g)
        assert set(assignment) == {"a", "b"}
        assert assignment["a"] != assignment["b"]


def _maxcut_local_search(graph, restarts, seed=None):
    """MaxCut 1-flip local search: the generic search on the MaxCut encoding,
    with the bits mapped back onto the graph's ``0..n-1`` labels."""
    value, bits = local_search_value(maxcut_problem(graph), restarts=restarts, seed=seed)
    return value, {node: int(bit) for node, bit in enumerate(bits)}


class TestLocalSearch:
    def test_reaches_optimum_on_small_graphs(self):
        for seed in range(4):
            g = _connected_er(10, 0.4, seed)
            exact, _ = brute_force_maxcut(g)
            heuristic, assignment = _maxcut_local_search(g, restarts=20, seed=seed)
            assert heuristic == exact
            assert cut_size(g, assignment) == heuristic

    def test_large_graph_reasonable(self):
        g = nx.random_regular_graph(3, 60, seed=2)
        value, assignment = _maxcut_local_search(g, restarts=10, seed=0)
        assert value >= g.number_of_edges() * 0.6
        assert cut_size(g, assignment) == value

    def test_restart_validation(self):
        with pytest.raises(ValueError):
            _maxcut_local_search(nx.path_graph(3), restarts=0)


class TestMetrics:
    def test_cut_size_requires_full_assignment(self):
        with pytest.raises(ValueError):
            cut_size(nx.path_graph(3), {0: 0, 1: 1})

    def test_approximation_ratio(self):
        assert approximation_ratio(9.0, 10.0) == pytest.approx(0.9)

    def test_approximation_ratio_validates(self):
        with pytest.raises(ValueError):
            approximation_ratio(1.0, 0.0)
