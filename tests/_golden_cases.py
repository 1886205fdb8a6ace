"""Cases of the golden result corpus (``tests/golden/results.json``).

Each case is a fixed job whose result fields are pinned exactly: the
corpus turns "bit-identical" from a within-run property into one that
holds across changes to the code.  ``test_golden.py`` recomputes every
case and compares field by field.

Regenerate only for a change that is meant to alter results, and say so
in its description::

    PYTHONPATH=src python tests/_golden_cases.py
"""

from __future__ import annotations

import json
from pathlib import Path

import networkx as nx

from repro.core.pipeline import RedQAOA
from repro.core.reduction import GraphReducer
from repro.datasets import attach_weights, problem_instance, random_connected_gnp
from repro.problems.encodings import maxcut_problem
from repro.qaoa.fast_sim import FastNoiseSpec
from repro.quantum.backends import get_backend
from repro.service import JobSpec, run_job

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "results.json"
CONFIG = {"restarts": 2, "maxiter": 20}


def _maxcut(nodes: int, seed: int) -> nx.Graph:
    graph = random_connected_gnp(nodes, 0.35, seed=seed)
    return attach_weights(graph, "uniform", seed=seed)


def job_specs() -> dict[str, JobSpec]:
    """The pinned ``run_job`` cases, by name."""
    specs = {}
    for nodes in (14, 18):
        for p in (1, 2):
            specs[f"maxcut-n{nodes}-p{p}"] = JobSpec(
                graph=_maxcut(nodes, seed=nodes + p), p=p, seed=p, **CONFIG
            )
    specs["maxcut-n14-p1-finetune"] = JobSpec(
        graph=_maxcut(14, seed=7), p=1, seed=3, finetune_maxiter=6, **CONFIG
    )
    specs["mis-n14-p2"] = JobSpec(
        problem=problem_instance("mis", 14, seed=5), p=2, seed=5, **CONFIG
    )
    specs["sk-n14-p1"] = JobSpec(
        problem=problem_instance("sk", 14, seed=6), p=1, seed=6, **CONFIG
    )
    specs["mis-n14-p1-finetune"] = JobSpec(
        problem=problem_instance("mis", 14, seed=8), p=1, seed=8,
        finetune_maxiter=6, **CONFIG,
    )
    # Lightcone-sized: a sparse n=40 graph and its DiagonalProblem twin
    # (readout is skipped above the dense cap).
    sparse = nx.random_regular_graph(3, 40, seed=40)
    specs["maxcut-n40-p2-lightcone"] = JobSpec(graph=sparse, p=2, seed=40, **CONFIG)
    specs["maxcut-problem-n40-p2-lightcone"] = JobSpec(
        problem=maxcut_problem(sparse), p=2, seed=40, **CONFIG
    )
    return specs


def noisy_run() -> dict:
    """A noisy graph run with coherent biases, fine-tuning and noisy readout."""
    graph = _maxcut(10, seed=9)
    noise = FastNoiseSpec.for_graph(get_backend("toronto"), graph)
    pipeline = RedQAOA(
        p=1, reducer=GraphReducer(seed=11), noise=noise, restarts=2, maxiter=12,
        finetune_maxiter=4, trajectories=2, seed=12,
    )
    result = pipeline.run(graph)
    return {
        "gammas": [float(g) for g in result.gammas],
        "betas": [float(b) for b in result.betas],
        "expectation": float(result.expectation),
        "cut_value": float(result.cut_value),
        "assignment": [int(result.assignment[node]) for node in sorted(graph.nodes())],
        "reduced_evaluations": result.num_reduced_evaluations,
        "original_evaluations": result.num_original_evaluations,
    }


def compute() -> dict:
    """Every case's result fields (floats survive JSON exactly via repr)."""
    corpus = {}
    for name, spec in job_specs().items():
        result = run_job(spec)
        corpus[name] = {"fingerprint": result.fingerprint, **result.to_payload()}
    corpus["noisy-maxcut-n10-p1"] = noisy_run()
    return corpus


def render(corpus: dict) -> str:
    """One field per line, so a broken pin diffs readably."""
    cases = []
    for name in sorted(corpus):
        fields = ",\n".join(
            f"    {json.dumps(key)}: {json.dumps(value)}"
            for key, value in sorted(corpus[name].items())
        )
        cases.append(f"  {json.dumps(name)}: {{\n{fields}\n  }}")
    return "{\n" + ",\n".join(cases) + "\n}\n"


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(render(compute()))
    print(f"wrote {GOLDEN_PATH}")
