"""PR 3 performance tracking: incremental annealer + lightcone plan.

Measures the two rewritten hot paths against their per-call reference
forms (the oracles in ``tests/_kernel_oracles.py``) and emits
``.benchmarks/BENCH_pr3.json``:

- SA reducer steps/sec at n in {100, 400, 1000} (connected ER instances,
  same sizing rule as the Fig. 18 runtime study), incremental state vs
  the per-call networkx state, both through the library's annealing
  driver;
- lightcone landscape points/sec on a 64-node 3-regular graph at p=2 over
  384 random parameter sets, plan/evaluate engine vs the per-call engine
  (timed on a subset -- it re-discovers structure every point -- and
  extrapolated per point).

Acceptance floors from the issue: >= 5x reducer steps/sec at n=400 and
>= 10x lightcone points/sec, with the two engines agreeing to 1e-12.
"""

import os
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


def _steps_per_sec(anneal, graph, max_steps):
    """Steps/sec at ``k = 0.7 n``: a fixed budget under slow constant cooling
    keeps the run step-bound, so rates compare across implementations."""
    k = max(2, int(0.7 * graph.number_of_nodes()))
    seconds, result = _timed(
        lambda: anneal(graph, k, cooling="constant", seed=0, max_steps=max_steps)
    )
    return result.steps / seconds


def _sa_section():
    section = {}
    for n in SA_SIZES:
        graph = benchmark_graph(n, seed=1)
        fast = _steps_per_sec(simulated_annealing, graph, SA_STEPS_INCREMENTAL)
        slow = _steps_per_sec(reference_simulated_annealing, graph, SA_STEPS_REFERENCE[n])
        section[str(n)] = {
            "incremental_steps_per_sec": fast,
            "reference_steps_per_sec": slow,
            "speedup": fast / slow,
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
        return {"sa_reducer": _sa_section(), "lightcone": _lightcone_section()}

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
            speedup=stats["speedup"])
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
