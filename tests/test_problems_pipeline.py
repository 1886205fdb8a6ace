"""Problem layer threaded through reduction, the pipeline, and the CLI."""

import networkx as nx
import numpy as np
import pytest

from repro.cli import main
from _kernel_oracles import reference_simulated_annealing
from repro.core.annealer import simulated_annealing
from repro.core.pipeline import RedQAOA
from repro.core.reduction import GraphReducer
from repro.datasets import PROBLEM_KINDS, problem_instance, problem_suite
from repro.problems import (
    max_independent_set_problem,
    maxcut_problem,
    problem_expectation,
    sk_problem,
)
from repro.qaoa.expectation import EngineLimitError
from repro.qaoa.fast_sim import qaoa_expectation_batch
from repro.qaoa.hamiltonian import MaxCutHamiltonian


def _connected_er(n, p, seed):
    offset = 0
    while True:
        g = nx.erdos_renyi_graph(n, p, seed=seed + offset)
        if g.number_of_edges() and nx.is_connected(g):
            return g
        offset += 100


class TestAnnealerFieldAwareness:
    """Self-loop (field) edges keep the annealer bit-identical to its oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_engines_bit_identical_on_field_graphs(self, seed):
        problem = problem_instance("mis", 14, seed=seed, edge_probability=0.3)
        graph = problem.coupling_graph(include_fields=True)
        assert nx.number_of_selfloops(graph) > 0
        fast = simulated_annealing(graph, 9, seed=seed, max_steps=400)
        slow = reference_simulated_annealing(graph, 9, seed=seed, max_steps=400)
        assert fast.nodes == slow.nodes
        assert fast.objective == slow.objective  # bit-equal, not approx
        assert fast.history == slow.history
        assert fast.steps == slow.steps

    def test_fields_count_toward_node_strength(self):
        # Two triangles joined by one edge; node 0 carries a huge field.  The
        # field-aware objective must treat node 0 as strongly connected.
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
        problem_fields = {0: 50.0}
        from repro.problems import DiagonalProblem

        problem = DiagonalProblem(
            6, {(u, v): -0.5 for u, v in graph.edges()}, fields=problem_fields
        )
        weighted = problem.coupling_graph(include_fields=True)
        bare = problem.coupling_graph(include_fields=False)
        from repro.utils.graphs import average_node_strength

        assert average_node_strength(weighted) > average_node_strength(bare)


class TestReduceProblem:
    def test_reduce_problem_result_shape(self):
        problem = problem_instance("mis", 14, seed=3, edge_probability=0.3)
        result = GraphReducer(seed=0).reduce_problem(problem)
        assert result.subproblem.num_qubits == len(result.nodes)
        assert result.node_mapping == {
            node: index for index, node in enumerate(sorted(result.nodes))
        }
        # The per-layer benchmark probe reads these graph-side fields.
        assert result.original_graph.number_of_nodes() == problem.num_qubits
        assert result.reduced_graph.number_of_nodes() == len(result.nodes)
        assert 0.0 <= result.node_reduction < 1.0
        assert result.and_ratio > 0.0
        # Restriction keeps only interior couplings and the kept fields.
        kept = set(result.nodes)
        expected = {
            (u, v) for (u, v) in problem.couplings if u in kept and v in kept
        }
        assert len(result.subproblem.couplings) == len(expected)

    def test_maxcut_problem_reduces_like_the_graph(self):
        graph = _connected_er(14, 0.35, seed=9)
        problem = maxcut_problem(graph)
        graph_result = GraphReducer(seed=7).reduce(graph)
        problem_result = GraphReducer(seed=7).reduce_problem(problem)
        assert set(problem_result.nodes) == set(graph_result.nodes)
        assert problem_result.and_ratio == graph_result.and_ratio

    def test_pipeline_reduce_takes_a_graph_or_a_problem(self):
        """RedQAOA.reduce is the one reduce step: a graph reduces as the
        reducer's reduce, a problem as its reduce_problem."""
        graph = _connected_er(12, 0.35, seed=5)
        problem = problem_instance("mis", 12, seed=5, edge_probability=0.3)
        for instance, direct in (
            (graph, GraphReducer(seed=3).reduce(graph)),
            (problem, GraphReducer(seed=3).reduce_problem(problem)),
        ):
            reduction = RedQAOA(reducer=GraphReducer(seed=3)).reduce(instance)
            assert reduction.nodes == direct.nodes
            assert reduction.and_ratio == direct.and_ratio
            assert (reduction.subproblem is None) == (instance is graph)


class TestPipelineProblems:
    def test_run_requires_exactly_one_input(self):
        pipeline = RedQAOA(seed=0)
        with pytest.raises(ValueError, match="exactly one"):
            pipeline.run()
        with pytest.raises(ValueError, match="exactly one"):
            pipeline.run(nx.path_graph(4), problem=sk_problem(4, seed=0))

    def test_shots_validated_at_construction(self):
        with pytest.raises(ValueError, match="shots"):
            RedQAOA(shots=0)

    def test_run_problem_mis_end_to_end(self):
        graph = _connected_er(12, 0.3, seed=4)
        problem = max_independent_set_problem(graph)
        result = RedQAOA(p=1, restarts=2, maxiter=25, finetune_maxiter=4,
                         seed=1).run(problem=problem)
        assert result.reduction.subproblem.num_qubits < problem.num_qubits
        # The returned assignment is the sampled-best outcome: its value is
        # the reported cut_value and respects the optimum bound.  (Strict
        # feasibility is only guaranteed for the *true* optimum -- asserted
        # in the encoding tests -- not for every sampled state.)
        bits = [result.assignment[q] for q in range(problem.num_qubits)]
        assert problem.value(bits) == pytest.approx(result.cut_value)
        assert result.cut_value <= problem.best_value() + 1e-9
        if result.cut_value == pytest.approx(problem.best_value()):
            assert all(not (bits[u] and bits[v]) for u, v in graph.edges())
        assert result.expectation == pytest.approx(
            problem_expectation(problem, result.gammas, result.betas)
        )

    def test_run_problem_sk_pure_transfer(self):
        problem = sk_problem(12, seed=5)
        result = RedQAOA(p=2, restarts=2, maxiter=20, finetune_maxiter=0,
                         seed=2).run(problem=problem)
        assert result.finetune_trace is None
        assert result.num_original_evaluations == 0
        assert np.isfinite(result.expectation)
        assert result.cut_value <= problem.best_value() + 1e-9

    def test_noise_not_supported_for_problems(self):
        from repro.qaoa.fast_sim import FastNoiseSpec

        pipeline = RedQAOA(noise=FastNoiseSpec(edge_error=0.01), seed=0)
        with pytest.raises(NotImplementedError, match="noise"):
            pipeline.run(problem=sk_problem(6, seed=0))

    def test_engine_limit_for_large_field_problems(self):
        from repro.problems import DiagonalProblem

        big = DiagonalProblem(30, {(0, 1): 1.0}, fields={5: 1.0})
        with pytest.raises(EngineLimitError, match="linear fields"):
            problem_expectation(big, [0.1], [0.2])

    @pytest.mark.parametrize("kind", ["problem", "graph"])
    def test_run_problem_fails_fast_on_unevaluable_instances(self, kind):
        """Unsupported instances are rejected before any budget is spent."""
        from repro.problems import DiagonalProblem

        if kind == "problem":
            big = DiagonalProblem(
                30, {(u, u + 1): 1.0 for u in range(29)}, fields={0: 1.0}
            )
            inputs, match = {"problem": big}, "linear fields"
        else:
            # Dense: every p=2 lightcone spans the whole 30-node graph.
            inputs, match = {"graph": nx.complete_graph(30)}, "beyond exact"
        pipeline = RedQAOA(p=2, seed=0)
        calls = {"count": 0}
        reducer = pipeline.reducer
        for name in ("reduce", "reduce_problem"):
            original = getattr(reducer, name)

            def counting(instance, target_size=None, original=original):
                calls["count"] += 1
                return original(instance, target_size)

            setattr(reducer, name, counting)
        with pytest.raises(EngineLimitError, match=match):
            pipeline.run(**inputs)
        assert calls["count"] == 0  # raised before reduction started

    def test_problem_evaluator_reused_and_matches_expectation(self):
        from repro.problems import problem_evaluator

        problem = maxcut_problem(
            nx.random_regular_graph(3, 26, seed=0)
        )  # field-free, above the exact limit -> lightcone plan path
        evaluate = problem_evaluator(problem, 2)
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            gammas = rng.uniform(-1, 1, size=2)
            betas = rng.uniform(-1, 1, size=2)
            assert evaluate(gammas, betas) == pytest.approx(
                problem_expectation(problem, gammas, betas),
                abs=1e-12,
            )


class TestProblemDatasets:
    def test_all_kinds_generate_deterministically(self):
        for kind in PROBLEM_KINDS:
            first = problem_instance(kind, 10, seed=42)
            second = problem_instance(kind, 10, seed=42)
            assert first.couplings == second.couplings, kind
            assert first.fields == second.fields, kind
            assert first.constant == second.constant, kind

    def test_problem_suite_counts_and_unknown_kind(self):
        suite = problem_suite("sk", count=3, num_qubits=8, seed=0)
        assert len(suite) == 3
        assert len({tuple(p.couplings.values()) for p in suite}) == 3
        with pytest.raises(ValueError, match="unknown problem kind"):
            problem_instance("bogus", 8)


class TestCliSolve:
    @pytest.mark.parametrize("kind", ["mis", "sk"])
    def test_solve_runs_end_to_end(self, kind, capsys):
        code = main(["solve", "--problem", kind, "-n", "12", "--restarts", "2",
                     "--maxiter", "15", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"problem: {kind}" in out
        assert "reduced:" in out
        assert "expectation on the full problem:" in out
        assert "best sampled value" in out

    def test_solve_qubo_file(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = tmp_path / "qubo.txt"
        np.savetxt(path, rng.normal(size=(8, 8)))
        code = main(["solve", "--problem", "qubo", "--qubo-file", str(path),
                     "--restarts", "2", "--maxiter", "10", "--seed", "1"])
        assert code == 0
        assert "problem: qubo, 8 qubits" in capsys.readouterr().out

    def test_solve_qubo_file_requires_qubo_kind(self, tmp_path):
        path = tmp_path / "qubo.txt"
        np.savetxt(path, np.zeros((3, 3)))
        with pytest.raises(SystemExit):
            main(["solve", "--problem", "sk", "--qubo-file", str(path)])

    def test_solve_degenerate_qubo_exits_cleanly(self, tmp_path):
        # All-zero matrix: no couplings, no fields -- nothing to reduce.
        path = tmp_path / "zero.txt"
        np.savetxt(path, np.zeros((4, 4)))
        with pytest.raises(SystemExit, match="error"):
            main(["solve", "--problem", "qubo", "--qubo-file", str(path)])

    def test_solve_bad_shots_exits_cleanly(self):
        with pytest.raises(SystemExit, match="shots"):
            main(["solve", "--problem", "sk", "-n", "8", "--shots", "0"])


def test_observable_mismatch_error_names_the_qubit_count():
    hamiltonian = MaxCutHamiltonian(nx.cycle_graph(5))
    with pytest.raises(ValueError, match="5-qubit"):
        qaoa_expectation_batch(
            hamiltonian, np.array([[0.1]]), np.array([[0.2]]),
            observable=np.zeros(7),
        )
