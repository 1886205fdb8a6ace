"""PR 5 serving tracking: batched campaigns vs N independent pipeline runs.

The service layer's economics on one 32-job manifest that looks like real
traffic -- duplicate submissions, isomorphic relabelings of the same
instances, and config scans over shared instances:

- **sequential**: 32 independent ``RedQAOA.run`` executions (one
  :func:`~repro.service.jobs.run_job` per manifest entry, no sharing) --
  the before-state of the repo, one pipeline per CLI invocation;
- **batched**: one :class:`~repro.service.scheduler.BatchScheduler` pass
  with fingerprint dedup, shared reductions, a shared plan cache, and a
  persistent store;
- **resumed**: a second scheduler against the same store file, as a fresh
  process would see it.

Emits ``.benchmarks/BENCH_pr5.json``.  Acceptance asserted: batched wall-clock beats
sequential by >= 2x (gated by ``BENCH_STRICT``), the resumed campaign
re-runs 0 jobs (store hit counters), and per-job results are bit-identical
across all three executions -- the scheduler may only remove work, never
change an answer.
"""

import os
import tempfile
import time

import networkx as nx
import numpy as np

from _common import BENCH_DIR, header, row, run_once, write_bench
from repro.datasets import attach_weights, problem_instance, random_connected_gnp
from repro.problems import DiagonalProblem, maxcut_problem
from repro.service import BatchScheduler, JobSpec, ResultStore, run_job

OUTPUT = BENCH_DIR / "BENCH_pr5.json"

MAXCUT_NODES = 14
PROBLEM_NODES = 12
# Above MAX_DENSE_QUBITS: forces lightcone plan compilation for both the
# full problem and its reduced subproblem, and skips the dense readout
# (which would cost a 2**n statevector).
LIGHTCONE_NODES = 40
CONFIG = dict(restarts=2, maxiter=20)


def _permuted_graph(graph, seed):
    rng = np.random.default_rng(seed)
    nodes = sorted(graph.nodes())
    shuffled = list(rng.permutation(nodes))
    return nx.relabel_nodes(graph, {a: int(b) for a, b in zip(nodes, shuffled)})


def _permuted_problem(problem, seed):
    perm = list(np.random.default_rng(seed).permutation(problem.num_qubits))
    return DiagonalProblem(
        problem.num_qubits,
        {(int(perm[u]), int(perm[v])): j for (u, v), j in problem.couplings.items()},
        {int(perm[u]): h for u, h in problem.fields.items()},
        constant=problem.constant,
        name=problem.name,
    )


def build_manifest() -> list[JobSpec]:
    """32 jobs, 11 unique: the duplicate-heavy traffic the store amortizes."""
    specs: list[JobSpec] = []
    # 6 weighted MaxCut instances: each submitted as the original, an exact
    # duplicate, and an isomorphic relabeling; the first two also get a
    # second relabeling (20 jobs, 6 unique).
    for seed in range(6):
        graph = attach_weights(
            random_connected_gnp(MAXCUT_NODES, 0.35, seed=seed), "uniform", seed=seed
        )
        label = f"maxcut-s{seed}"
        specs.append(JobSpec(graph=graph, label=label, **CONFIG))
        specs.append(JobSpec(graph=nx.Graph(graph), label=f"{label}-dup", **CONFIG))
        perm_seeds = (100 + seed, 200 + seed) if seed < 2 else (100 + seed,)
        for perm_seed in perm_seeds:
            specs.append(
                JobSpec(
                    graph=_permuted_graph(graph, perm_seed),
                    label=f"{label}-iso{perm_seed}",
                    **CONFIG,
                )
            )
    # 2 MIS problem instances; the first submitted three times (5 jobs, 2 unique).
    for seed in range(2):
        problem = problem_instance("mis", PROBLEM_NODES, seed=seed, edge_probability=0.25)
        specs.append(JobSpec(problem=problem, label=f"mis-s{seed}", **CONFIG))
        specs.append(JobSpec(problem=problem, label=f"mis-s{seed}-dup", **CONFIG))
        if seed == 0:
            specs.append(JobSpec(problem=problem, label=f"mis-s{seed}-dup2", **CONFIG))
    # 1 SK instance: original plus two qubit permutations (3 jobs, 1 unique).
    sk = problem_instance("sk", PROBLEM_NODES, seed=0)
    specs.append(JobSpec(problem=sk, label="sk-s0", **CONFIG))
    specs.append(JobSpec(problem=_permuted_problem(sk, 7), label="sk-s0-iso7", **CONFIG))
    specs.append(JobSpec(problem=_permuted_problem(sk, 8), label="sk-s0-iso8", **CONFIG))
    # One sparse field-free instance above the dense dispatch limit, scanned
    # under two optimizer budgets -- distinct jobs sharing the instance's SA
    # reduction and its compiled lightcone plan -- each budget submitted
    # twice (4 jobs, 2 unique).  Exact duplicates, not relabelings: on an
    # unweighted regular graph every structural key ties, so canonical
    # forms are not permutation-stable there (the documented tie caveat).
    regular = nx.random_regular_graph(3, LIGHTCONE_NODES, seed=0)
    lightcone_problem = maxcut_problem(regular)
    for maxiter, tag in ((12, "a"), (18, "b")):
        for suffix in ("", "-dup"):
            specs.append(
                JobSpec(
                    problem=lightcone_problem, label=f"plan-{tag}{suffix}",
                    p=2, restarts=1, maxiter=maxiter,
                )
            )
    assert len(specs) == 32
    return specs


def _result_key(result):
    return (
        tuple(result.gammas),
        tuple(result.betas),
        result.expectation,
        None if result.best_value != result.best_value else result.best_value,
        tuple(result.bits),
    )


def _experiment():
    # Fresh spec objects per mode, so each timing includes its own
    # canonicalization/fingerprinting cost (specs cache their canonical
    # form; sharing objects would hand the scheduler a head start).
    start = time.perf_counter()
    sequential = [run_job(spec) for spec in build_manifest()]
    sequential_seconds = time.perf_counter() - start

    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "store.jsonl")
        start = time.perf_counter()
        batched = BatchScheduler(store=ResultStore(store_path)).run(build_manifest())
        batched_seconds = time.perf_counter() - start

        # Resume as a fresh process would: new store object, new scheduler.
        resumed_store = ResultStore(store_path)
        resumed = BatchScheduler(store=resumed_store).run(build_manifest())

    identical_batched = all(
        _result_key(a) == _result_key(b.result)
        for a, b in zip(sequential, batched.results)
    )
    identical_resumed = all(
        _result_key(a.result) == _result_key(b.result)
        for a, b in zip(batched.results, resumed.results)
    )
    speedup = sequential_seconds / batched_seconds if batched_seconds > 0 else float("inf")
    return {
        "jobs": batched.num_jobs,
        "unique_jobs": batched.num_unique,
        "instances": batched.num_instances,
        "deduped": batched.deduped,
        "reduction_reuses": batched.reduction_reuses,
        "plan_hits": batched.plan_hits,
        "sequential_seconds": sequential_seconds,
        "batched_seconds": batched_seconds,
        "speedup": speedup,
        "resumed": {
            "computed": resumed.computed,
            "store_hits": resumed.store_hits,
            "store_hit_counter": resumed_store.hits,
        },
        "bit_identical_batched_vs_sequential": identical_batched,
        "bit_identical_resumed_vs_batched": identical_resumed,
    }


def test_bench_pr5_emit(benchmark):
    results = run_once(benchmark, _experiment)
    write_bench(OUTPUT, results)

    header(
        "PR5 batch serving: 32-job manifest with duplicates",
        jobs=results["jobs"],
        unique=results["unique_jobs"],
        output=OUTPUT.name,
    )
    row(
        "wall clock",
        sequential=results["sequential_seconds"],
        batched=results["batched_seconds"],
        speedup=results["speedup"],
    )
    row(
        "reuse",
        deduped=results["deduped"],
        reductions=results["reduction_reuses"],
        plan_hits=results["plan_hits"],
    )
    row(
        "resume",
        computed=results["resumed"]["computed"],
        store_hits=results["resumed"]["store_hits"],
    )

    # Correctness claims hold unconditionally: scheduling may only remove
    # work, never change a result, and a resumed campaign re-runs nothing.
    assert results["bit_identical_batched_vs_sequential"]
    assert results["bit_identical_resumed_vs_batched"]
    assert results["resumed"]["computed"] == 0
    assert results["resumed"]["store_hits"] == results["unique_jobs"]
    assert results["deduped"] == results["jobs"] - results["unique_jobs"] > 0
    # Issue acceptance floor: only meaningful on a quiet machine; CI sets
    # BENCH_STRICT=0 so a noisy neighbor can't fail an unrelated push.
    if os.environ.get("BENCH_STRICT", "1") != "0":
        assert results["speedup"] >= 2.0, results
