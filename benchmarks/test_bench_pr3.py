"""PR 3 performance tracking: incremental annealer + lightcone plan.

Measures the two rewritten hot paths against their per-call reference
forms (the oracles in ``tests/_kernel_oracles.py``) and emits
``.benchmarks/BENCH_pr3.json``:

- SA reducer steps/sec at n in {100, 400, 1000} (connected ER instances,
  same sizing rule as the Fig. 18 runtime study), incremental state vs
  the per-call networkx state, both through the library's annealing
  loop, at k = 0.7n under constant cooling (alpha = 0.95).  That
  schedule freezes after 135 steps at every size, so the step caps bind
  only where they are lower (the reference at n=1000); each side records
  the steps that ran;
- incremental SA steps/sec under the default adaptive cooling at n in
  {400, 1000} and k in {0.6n, 0.8n}, the median over ``SA_ADAPTIVE_SEEDS``
  runs: most proposals commit there, so a per-commit cost shows in this
  section rather than in the constant-cooling one (computing the
  articulation flags on every commit instead of lazily cut these rates by
  35-47% on a 2-vCPU Xeon);
- lightcone landscape points/sec on a 64-node 3-regular graph at p=2 over
  384 random parameter sets, plan/evaluate engine vs the per-call engine
  (timed on a subset -- it re-discovers structure every point -- and
  extrapolated per point).

Acceptance floors from the issue: >= 5x reducer steps/sec at n=400 and
>= 10x lightcone points/sec, with the two engines agreeing to 1e-12.
"""

import os
import statistics
import time

import networkx as nx
import numpy as np

from _common import BENCH_DIR, header, row, run_once, write_bench
from _kernel_oracles import lightcone_expectation_reference, reference_simulated_annealing
from repro.analysis.runtime import benchmark_graph
from repro.core.annealer import simulated_annealing
from repro.qaoa.landscape import sample_parameter_sets
from repro.qaoa.lightcone import LightconePlan

SA_SIZES = (100, 400, 1000)
SA_STEPS_INCREMENTAL = 1000
SA_STEPS_REFERENCE = {100: 300, 400: 200, 1000: 120}
SA_ADAPTIVE_SIZES = (400, 1000)
SA_ADAPTIVE_FRACTIONS = (0.6, 0.8)
SA_ADAPTIVE_SEEDS = 5
LIGHTCONE_NODES = 64
LIGHTCONE_DEGREE = 3
LIGHTCONE_P = 2
LIGHTCONE_POINTS = 384
LIGHTCONE_REFERENCE_POINTS = 6

OUTPUT = BENCH_DIR / "BENCH_pr3.json"


def _timed(fn):
    """``(seconds, fn())``."""
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _steps_per_sec(anneal, graph, k, seed=0, **options):
    """``(steps/sec, steps)`` of one annealing run at subgraph size ``k``."""
    seconds, result = _timed(lambda: anneal(graph, k, seed=seed, **options))
    return result.steps / seconds, result.steps


def _sa_section():
    section = {}
    for n in SA_SIZES:
        graph = benchmark_graph(n, seed=1)
        k = max(2, int(0.7 * n))
        fast, fast_steps = _steps_per_sec(
            simulated_annealing, graph, k, cooling="constant", max_steps=SA_STEPS_INCREMENTAL
        )
        slow, slow_steps = _steps_per_sec(
            reference_simulated_annealing, graph, k,
            cooling="constant", max_steps=SA_STEPS_REFERENCE[n],
        )
        section[str(n)] = {
            "incremental_steps_per_sec": fast,
            "incremental_steps": fast_steps,
            "reference_steps_per_sec": slow,
            "reference_steps": slow_steps,
            "speedup": fast / slow,
        }
    return section


def _sa_adaptive_section():
    section = {}
    for n in SA_ADAPTIVE_SIZES:
        graph = benchmark_graph(n, seed=1)
        for fraction in SA_ADAPTIVE_FRACTIONS:
            runs = [
                _steps_per_sec(simulated_annealing, graph, int(fraction * n), seed=seed)
                for seed in range(SA_ADAPTIVE_SEEDS)
            ]
            section[f"{n}@{fraction}"] = {
                "steps_per_sec": statistics.median(rate for rate, _ in runs),
                "steps": [steps for _, steps in runs],
            }
    return section


def _lightcone_section():
    graph = nx.random_regular_graph(LIGHTCONE_DEGREE, LIGHTCONE_NODES, seed=0)
    gammas, betas = sample_parameter_sets(LIGHTCONE_P, LIGHTCONE_POINTS, seed=0)
    plan_seconds, plan_values = _timed(
        lambda: LightconePlan.build(graph, LIGHTCONE_P).evaluate_batch(gammas, betas)
    )
    subset = slice(LIGHTCONE_REFERENCE_POINTS)
    percall_seconds, percall_values = _timed(lambda: np.array([
        lightcone_expectation_reference(graph, g, b)
        for g, b in zip(gammas[subset], betas[subset])
    ]))
    plan_rate = LIGHTCONE_POINTS / plan_seconds
    percall_rate = LIGHTCONE_REFERENCE_POINTS / percall_seconds
    # The subset is the leading points, so its values must agree: the
    # speedup claim only counts if both engines price the same landscape.
    agreement = float(np.abs(plan_values[subset] - percall_values).max())
    return {
        "nodes": LIGHTCONE_NODES,
        "degree": LIGHTCONE_DEGREE,
        "p": LIGHTCONE_P,
        "points": LIGHTCONE_POINTS,
        "plan_points_per_sec": plan_rate,
        "percall_points_per_sec": percall_rate,
        "percall_points_timed": LIGHTCONE_REFERENCE_POINTS,
        "speedup": plan_rate / percall_rate,
        "max_value_disagreement": agreement,
    }


def test_bench_pr3_emit(benchmark):
    def experiment():
        return {
            "sa_reducer": _sa_section(),
            "sa_adaptive": _sa_adaptive_section(),
            "lightcone": _lightcone_section(),
        }

    results = run_once(benchmark, experiment)
    write_bench(OUTPUT, results)

    header(
        "PR 3: incremental annealer + lightcone plan speedups",
        sa_sizes=SA_SIZES,
        lightcone=f"{LIGHTCONE_NODES}-node {LIGHTCONE_DEGREE}-regular "
                  f"p={LIGHTCONE_P} x{LIGHTCONE_POINTS}",
        output=OUTPUT.name,
    )
    for n, stats in results["sa_reducer"].items():
        row(f"SA n={n}",
            incremental=stats["incremental_steps_per_sec"],
            reference=stats["reference_steps_per_sec"],
            speedup=stats["speedup"],
            steps=f"{stats['incremental_steps']}/{stats['reference_steps']}")
    for size, stats in results["sa_adaptive"].items():
        n, fraction = size.split("@")
        row(f"SA adaptive n={n} k={fraction}n",
            incremental=stats["steps_per_sec"],
            steps=stats["steps"])
    cone = results["lightcone"]
    row("lightcone",
        plan=cone["plan_points_per_sec"],
        percall=cone["percall_points_per_sec"],
        speedup=cone["speedup"])

    # Engines must price the same landscape before speed claims count.
    assert cone["max_value_disagreement"] < 1e-12
    # The fast paths should never lose at any measured size.
    assert all(s["speedup"] > 1.0 for s in results["sa_reducer"].values())
    # Issue acceptance floors: hard wall-clock ratios only mean something
    # on the calibrated 1-core box; on shared CI runners (bench-smoke job)
    # set BENCH_STRICT=0 so a noisy neighbor can't fail an unrelated push.
    if os.environ.get("BENCH_STRICT", "1") != "0":
        assert results["sa_reducer"]["400"]["speedup"] >= 5.0
        assert cone["speedup"] >= 10.0
