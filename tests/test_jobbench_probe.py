"""The benchmark's per-layer wrapper table still binds to the pipeline.

``jobbench/layers.py`` wraps the pipeline at the names its callers look up
and refuses to install when one has moved.  A few tiny jobs under its
probe catch a refactor that breaks per-layer benchmark runs here, in the
unit lane.  The benchmark's files are loaded, never changed.
"""

import importlib.util
import sys
from pathlib import Path

import networkx as nx

from repro.datasets import problem_instance, random_connected_gnp
from repro.problems.encodings import maxcut_problem
from repro.qaoa.lightcone import PlanCache
from repro.service import JobSpec, run_job

JOBBENCH = Path(__file__).resolve().parent.parent / "jobbench"


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"jobbench_{name}", JOBBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_required_binding_fires(monkeypatch):
    layers, run = _load("layers", monkeypatch), _load("run", monkeypatch)
    required = run.COMMON_HITS + run.REQUIRED_HITS["small-mix"] + run.REQUIRED_HITS["sparse-40"]
    specs = [
        JobSpec(graph=random_connected_gnp(8, 0.4, seed=0), restarts=1, maxiter=6),
        JobSpec(problem=problem_instance("mis", 8, seed=0), restarts=1, maxiter=6),
        # Field-free beyond the dense limit: the lightcone plan path.
        JobSpec(
            problem=maxcut_problem(nx.random_regular_graph(3, 40, seed=0)),
            restarts=1, maxiter=4,
        ),
    ]
    probe = layers.LayerProbe()
    probe.install()
    try:
        plan_cache = PlanCache()
        for spec in specs:
            probe.run_job(spec, plan_cache)
    finally:
        probe.uninstall()
    assert probe.check_hits(required) == []
    # The probe reads a problem reduction's graph side like a graph's.
    kept = [job.kept_nodes for job in probe.jobs]
    assert kept == [run_job(spec).reduced_qubits for spec in specs]
