"""PR 4 workload tracking: the Ising/QUBO problem layer at n=24.

Exercises the generalized pipeline on the two acceptance workloads --
Max-Independent-Set (field-carrying penalty encoding) and an SK spin glass
(field-free, all-to-all couplings) -- at 24 qubits, and emits
``BENCH_pr4.json`` into ``.benchmarks/``:

- **SA-reduction quality**: the annealed coupling-graph subproblem versus
  a random connected subgraph of the same size, compared on field-aware
  AND ratio and on the full-problem expectation reached by transferring
  parameters optimized on each subproblem (p=1);
- **end-to-end approximation ratio**: reduce -> optimize on the reduced
  problem -> transfer, at p=1 and p=2, scored as transferred expectation
  and best-of-2048-samples value against the exact optimum (dense
  diagonal).

Qualitative claims asserted: the SA subproblem's AND ratio is no worse
than the random subgraph's, transfer lands within the problem's value
range, and sampled solutions recover a large fraction of the optimum.
"""


import numpy as np

from _common import BENCH_DIR, header, row, run_once, write_bench
from repro.core.reduction import GraphReducer, and_ratio
from repro.datasets import problem_instance
from repro.problems import problem_expectation
from repro.qaoa.fast_sim import qaoa_probabilities
from repro.qaoa.optimizer import multi_restart_optimize
from repro.utils.graphs import average_node_strength, connected_random_subgraph

NUM_QUBITS = 24
DEPTHS = (1, 2)
RESTARTS = 2
MAXITER = 30
SAMPLE_SHOTS = 2048
WORKLOADS = {
    "mis": dict(edge_probability=0.15),
    "sk": dict(),
}

OUTPUT = BENCH_DIR / "BENCH_pr4.json"


def _optimize_and_transfer(problem, subproblem, p, seed):
    """Optimize on the subproblem, return (transferred expectation, params)."""
    objective = lambda gammas, betas: problem_expectation(subproblem, gammas, betas)
    traces = multi_restart_optimize(
        objective, p, restarts=RESTARTS, maxiter=MAXITER, seed=seed
    )
    best = max(traces, key=lambda t: t.best_value)
    gammas, betas = best.best_parameters
    return problem_expectation(problem, gammas, betas), (gammas, betas)


def _sample_best(problem, gammas, betas, seed):
    """Best objective value among SAMPLE_SHOTS draws from the trial state."""
    probs = qaoa_probabilities(problem, list(gammas), list(betas))
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(probs.size, size=SAMPLE_SHOTS, p=probs / probs.sum())
    return float(problem.diagonal[outcomes].max())


def _workload_section(kind, kwargs, seed):
    problem = problem_instance(kind, NUM_QUBITS, seed=seed, **kwargs)
    best = problem.best_value(method="dense")
    coupling = problem.coupling_graph(include_fields=True)

    reduction = GraphReducer(seed=seed).reduce_problem(problem)
    k = reduction.subproblem.num_qubits
    random_nodes = sorted(
        connected_random_subgraph(coupling, k, seed=seed + 1)
    )
    random_sub = problem.subproblem(random_nodes)

    sa_ratio = reduction.and_ratio
    # The reducer never sees the random baseline, so score it here with the
    # same field-aware (self-loops count) AND ratio the reducer uses.
    random_ratio = and_ratio(
        average_node_strength(coupling),
        average_node_strength(coupling.subgraph(random_nodes)),
    )

    # Reduced-vs-random transfer quality at p=1 under an identical budget.
    sa_transfer, _ = _optimize_and_transfer(problem, reduction.subproblem, 1, seed)
    random_transfer, _ = _optimize_and_transfer(problem, random_sub, 1, seed)

    depths = {}
    for p in DEPTHS:
        expectation, (gammas, betas) = _optimize_and_transfer(
            problem, reduction.subproblem, p, seed
        )
        sampled = _sample_best(problem, gammas, betas, seed)
        depths[str(p)] = {
            "transferred_expectation": expectation,
            "sampled_best": sampled,
            "expectation_ratio": expectation / best if best > 0 else None,
            "sampled_ratio": sampled / best if best > 0 else None,
        }

    section = {
        "num_qubits": NUM_QUBITS,
        "reduced_qubits": k,
        "best_value": best,
        "and_ratio_sa": sa_ratio,
        "and_ratio_random": random_ratio,
        "transfer_p1_sa": sa_transfer,
        "transfer_p1_random": random_transfer,
        "depths": depths,
    }

    header(
        f"PR4 problem layer: {kind} @ n={NUM_QUBITS}",
        reduced=k, best_value=round(best, 4),
    )
    row("AND ratio", sa=sa_ratio, random=random_ratio)
    row("transfer p=1", sa=sa_transfer, random=random_transfer)
    for p in DEPTHS:
        d = depths[str(p)]
        row(
            f"end-to-end p={p}",
            expectation=d["transferred_expectation"],
            sampled=d["sampled_best"],
        )

    # Qualitative claims: SA matches connectivity at least as well as a
    # random subgraph, expectations stay inside the value range, and
    # sampling the transferred state recovers most of the optimum.
    assert sa_ratio >= random_ratio - 1e-9
    diag_min = float(problem.diagonal.min())
    for d in depths.values():
        assert diag_min - 1e-6 <= d["transferred_expectation"] <= best + 1e-6
        assert d["sampled_best"] <= best + 1e-9
    if best > 0:
        assert depths["1"]["sampled_ratio"] >= 0.75
    return section


def test_bench_pr4_emit(benchmark):
    def experiment():
        return {
            kind: _workload_section(kind, kwargs, seed=index)
            for index, (kind, kwargs) in enumerate(WORKLOADS.items())
        }

    results = run_once(benchmark, experiment)
    write_bench(OUTPUT, results)
