"""Pinned results and the full-size work a dense job does.

- The golden corpus (``tests/golden/results.json``, cases in
  ``_golden_cases.py``) pins every result field of graph, MIS, SK,
  fine-tuned and noisy runs exactly.
- A dense job builds one full-size diagonal and one full-size statevector
  (at ``finetune_maxiter=0``), and readout samples the state at the final
  parameters when fine-tuning moves them.
- Graph jobs beyond the dense cap skip readout instead of raising.
"""

from __future__ import annotations

import json
import math

import networkx as nx
import numpy as np
import pytest

import _golden_cases as golden
import repro.qaoa.fast_sim as fast_sim
import repro.qaoa.hamiltonian as hamiltonian_mod
from _kernel_oracles import same_bits
from repro.core.pipeline import RedQAOA
from repro.datasets import problem_instance
from repro.problems import DiagonalProblem
from repro.qaoa.hamiltonian import MaxCutHamiltonian
from repro.service import JobSpec, run_job
from repro.utils.graphs import relabel_to_range


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(golden.GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(golden.job_specs()))
def test_job_results_match_golden_corpus(pinned, name):
    result = run_job(golden.job_specs()[name])
    got = {"fingerprint": result.fingerprint, **result.to_payload()}
    assert got == pinned[name]


def test_noisy_run_matches_golden_corpus(pinned):
    assert golden.noisy_run() == pinned["noisy-maxcut-n10-p1"]


def test_golden_corpus_covers_every_case(pinned):
    assert set(pinned) == set(golden.job_specs()) | {"noisy-maxcut-n10-p1"}


class FullSizeWork:
    """Counts full-size diagonal builds and statevectors via monkeypatching."""

    def __init__(self, monkeypatch, num_qubits: int) -> None:
        self.diagonals = 0
        self.statevectors = 0
        cut_values = hamiltonian_mod.cut_values
        build_diagonal = DiagonalProblem._build_diagonal
        statevector = fast_sim.qaoa_statevector

        def counted_cut_values(graph):
            self.diagonals += graph.number_of_nodes() == num_qubits
            return cut_values(graph)

        def counted_build_diagonal(problem):
            self.diagonals += problem.num_qubits == num_qubits
            return build_diagonal(problem)

        def counted_statevector(target, gammas, betas):
            self.statevectors += target.num_qubits == num_qubits
            return statevector(target, gammas, betas)

        monkeypatch.setattr(hamiltonian_mod, "cut_values", counted_cut_values)
        monkeypatch.setattr(DiagonalProblem, "_build_diagonal", counted_build_diagonal)
        monkeypatch.setattr(fast_sim, "qaoa_statevector", counted_statevector)


def test_dense_graph_job_does_full_size_work_once(monkeypatch):
    spec = JobSpec(graph=golden._maxcut(16, seed=4), p=2, seed=1, **golden.CONFIG)
    work = FullSizeWork(monkeypatch, 16)
    result = run_job(spec)
    assert (work.diagonals, work.statevectors) == (1, 1)
    assert math.isfinite(result.expectation) and len(result.bits) == 16


def test_dense_problem_job_does_full_size_work_once(monkeypatch):
    spec = JobSpec(problem=problem_instance("mis", 14, seed=2), p=2, seed=2, **golden.CONFIG)
    work = FullSizeWork(monkeypatch, 14)
    result = run_job(spec)
    assert (work.diagonals, work.statevectors) == (1, 1)
    assert len(result.bits) == 14


def _capture_readout(monkeypatch) -> list:
    sampled = []
    sample = RedQAOA._sample_readout

    def capture(self, diagonal, probs, labels):
        sampled.append(probs)
        return sample(self, diagonal, probs, labels)

    monkeypatch.setattr(RedQAOA, "_sample_readout", capture)
    return sampled


def _moved(result) -> bool:
    best = max(result.reduced_traces, key=lambda t: t.best_value)
    transferred = np.concatenate(best.best_parameters)
    return not np.array_equal(transferred, np.concatenate([result.gammas, result.betas]))


def test_finetuned_graph_readout_samples_final_parameters(monkeypatch):
    graph = golden._maxcut(12, seed=21)
    sampled = _capture_readout(monkeypatch)
    pipeline = RedQAOA(p=1, restarts=1, maxiter=6, finetune_maxiter=10, seed=4)
    result = pipeline.run(graph)
    assert _moved(result), "fine-tuning should have moved the parameters"
    final = fast_sim.qaoa_probabilities(
        MaxCutHamiltonian(relabel_to_range(graph)), result.gammas, result.betas
    )
    assert len(sampled) == 1 and same_bits(sampled[0], final)
    assert result.expectation == float(final @ MaxCutHamiltonian(graph).diagonal)


def test_finetuned_problem_readout_samples_final_parameters(monkeypatch):
    problem = problem_instance("sk", 12, seed=3)
    sampled = _capture_readout(monkeypatch)
    pipeline = RedQAOA(p=1, restarts=1, maxiter=6, finetune_maxiter=10, seed=5)
    result = pipeline.run(problem=problem)
    assert _moved(result), "fine-tuning should have moved the parameters"
    final = fast_sim.qaoa_probabilities(problem, result.gammas, result.betas)
    assert len(sampled) == 1 and same_bits(sampled[0], final)


def test_graph_readout_skipped_beyond_dense_cap():
    graph = nx.random_regular_graph(3, 30, seed=0)
    result = RedQAOA(p=1, restarts=1, maxiter=5, seed=0).run(graph)
    assert math.isfinite(result.expectation)
    assert math.isnan(result.cut_value) and result.assignment == {}


def test_graph_job_beyond_dense_cap_stores_empty_readout():
    spec = JobSpec(graph=nx.random_regular_graph(3, 30, seed=1), p=1, restarts=1, maxiter=5)
    result = run_job(spec)
    assert result.bits == [] and math.isnan(result.best_value)
    assert result.to_payload()["best_value"] is None
