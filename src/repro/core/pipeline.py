"""The end-to-end Red-QAOA pipeline (paper Fig. 4).

:class:`RedQAOA` runs one flow on a MaxCut graph (the paper's setting) or
on any :class:`~repro.problems.DiagonalProblem` via ``run(problem=...)``:

0. **dispatch** -- pick the exact engine for the full-size instance
   (:mod:`repro.qaoa.expectation`'s one policy); an instance no engine
   can evaluate fails here, before any budget is spent;
1. **reduce** -- distill the graph (or the problem's coupling graph,
   field-aware) with the SA reducer, through :meth:`RedQAOA.reduce`;
2. **optimize** -- run COBYLA restarts on the *distilled* instance, under
   whatever noise the caller specifies (a small circuit, so cheap and
   noise-tolerant);
3. **transfer** -- reuse the best parameters on the original instance;
4. **fine-tune** -- optionally continue optimization on the original
   instance from the transferred parameters (few iterations, as the start
   is already near-optimal);
5. **readout** -- sample the original instance's QAOA state at the final
   parameters and keep the best value seen.

Edge weights (the ``weight`` attribute) flow through every step: the SA
reducer matches weighted node strength, induced subgraphs and relabelings
preserve edge data, every expectation engine honors weights, and the
readout scores sampled states against the weighted diagonal.  Noise is
wired up for graphs only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np

import repro.problems.expectation as problem_expectation
from repro.core.reduction import GraphReducer, ReductionResult
from repro.obs.trace import span
from repro.qaoa.expectation import EXACT_LIMIT, maxcut_evaluator, noisy_maxcut_expectation
from repro.qaoa.fast_sim import (
    FastNoiseSpec,
    noisy_qaoa_probabilities,
    qaoa_expectation_fast,
    qaoa_probabilities,
)
from repro.qaoa.hamiltonian import MAX_DENSE_QUBITS, MaxCutHamiltonian
from repro.qaoa.optimizer import (
    OptimizationTrace,
    cobyla_optimize,
    multi_restart_optimize,
    restart_width,
)
from repro.utils.graphs import ensure_graph, relabel_to_range, sorted_labels
from repro.utils.rng import as_generator

__all__ = ["RedQAOA", "RedQAOAResult", "check_config"]


def check_config(p, restarts, maxiter, finetune_maxiter, shots, warm_start) -> None:
    """Raise a one-line ``ValueError`` naming the first invalid pipeline setting.

    ``p``, ``restarts``, ``maxiter`` and ``shots`` must be ints >= 1 and
    ``finetune_maxiter`` an int >= 0 (a bool is not a count);
    ``warm_start`` must be a bool.  :class:`RedQAOA` and
    :class:`~repro.service.jobs.JobSpec` share this check, so a job
    config is refused on submission exactly as the pipeline would refuse it.
    """
    for name, value, least in (
        ("p", p, 1), ("restarts", restarts, 1), ("maxiter", maxiter, 1),
        ("finetune_maxiter", finetune_maxiter, 0), ("shots", shots, 1),
    ):
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
    if not isinstance(warm_start, bool):
        raise ValueError(f"warm_start must be a bool, got {warm_start!r}")


@dataclass
class RedQAOAResult:
    """Everything produced by one :meth:`RedQAOA.run`.

    ``expectation`` is the ideal expectation of the final parameters on the
    original graph; ``cut_value``/``assignment`` come from sampling the
    final state (solution-finding step).  For problem runs
    (:meth:`RedQAOA.run` with ``problem=``), ``reduction`` carries the
    ``subproblem`` and ``cut_value`` is the best sampled *objective* value
    of the problem.
    """

    reduction: ReductionResult
    gammas: np.ndarray
    betas: np.ndarray
    expectation: float
    cut_value: float
    assignment: dict
    reduced_traces: list[OptimizationTrace] = field(default_factory=list)
    finetune_trace: OptimizationTrace | None = None

    @property
    def num_reduced_evaluations(self) -> int:
        """Circuit evaluations spent on the small (cheap) graph."""
        return sum(t.num_evaluations for t in self.reduced_traces)

    @property
    def num_original_evaluations(self) -> int:
        """Circuit evaluations spent on the large (expensive) graph."""
        return self.finetune_trace.num_evaluations if self.finetune_trace else 0


class RedQAOA:
    """Red-QAOA driver: reduce, optimize small, transfer, fine-tune.

    Parameters
    ----------
    p:
        QAOA depth used throughout.
    reducer:
        A configured :class:`~repro.core.reduction.GraphReducer`; a default
        one (0.7 AND threshold, adaptive cooling) is built when omitted.
    noise:
        :class:`~repro.qaoa.fast_sim.FastNoiseSpec` applied during
        optimization, or ``None`` for ideal execution.  The *same* noise is
        applied to both the reduced and (scaled by size) the original
        circuit, mirroring execution on one device.
    restarts / maxiter:
        COBYLA restarts and per-run iteration budget on the reduced graph.
    finetune_maxiter:
        Iteration budget for the final optimization on the original graph
        (0 disables fine-tuning, i.e. pure parameter transfer).
    warm_start:
        When true, the first restart on the distilled graph initializes
        from the degree-indexed :class:`~repro.transfer.ParameterLookup`
        library instead of a random point (Sec. 7.2's complementary
        technique); remaining restarts stay random for exploration.
    plan_cache:
        Optional shared :class:`~repro.qaoa.lightcone.PlanCache`: compiled
        lightcone plans for the graphs/problems this pipeline evaluates are
        banked there and reused across runs (and across pipelines, when the
        batch scheduler hands several jobs one cache).  Reuse is
        result-neutral -- a plan is a pure function of the weighted graph.
    """

    def __init__(
        self,
        p: int = 1,
        reducer: GraphReducer | None = None,
        noise: FastNoiseSpec | None = None,
        restarts: int = 5,
        maxiter: int = 60,
        finetune_maxiter: int = 20,
        trajectories: int = 8,
        shots: int | None = None,
        warm_start: bool = False,
        seed: int | np.random.Generator | None = None,
        plan_cache=None,
    ) -> None:
        # shots=None reads out 1024 shots (exact expectations when noisy).
        check_config(
            p, restarts, maxiter, finetune_maxiter, 1024 if shots is None else shots, warm_start
        )
        self.p = p
        self._rng = as_generator(seed)
        self.reducer = reducer if reducer is not None else GraphReducer(seed=self._rng)
        self.noise = noise
        self.restarts = restarts
        self.maxiter = maxiter
        self.finetune_maxiter = finetune_maxiter
        self.trajectories = trajectories
        self.shots = shots
        self.warm_start = warm_start
        self.plan_cache = plan_cache
        self._lookup = None

    # -- steps ---------------------------------------------------------------

    def reduce(self, instance) -> ReductionResult:
        """Step 1: distill a graph, or a problem's field-aware coupling graph.

        The one reduce step above :class:`~repro.core.reduction.GraphReducer`:
        :meth:`run` and the batch scheduler both reduce through it.  It
        draws only from the reducer's RNG stream.
        """
        with span("reduce"):
            if isinstance(instance, nx.Graph):
                return self.reducer.reduce(instance)
            return self.reducer.reduce_problem(instance)

    def optimize_reduced(self, reduction: ReductionResult) -> list[OptimizationTrace]:
        """Step 2: COBYLA restarts on the distilled graph or subproblem.

        One restart warm-starts from the degree-indexed lookup when
        enabled; a subproblem without couplings has no graph to look up,
        so its restarts stay random.  Ideal runs spread the random
        restarts over :func:`~repro.qaoa.optimizer.restart_width`
        processes, bit-identically; noisy objectives draw from
        ``self._rng`` on every evaluation, so they stay sequential.
        """
        if reduction.subproblem is not None:
            reduced = reduction.subproblem
            warm_start_graph = reduced.coupling_graph() if reduced.num_couplings else None
        else:
            reduced = warm_start_graph = reduction.reduced_graph
        traces: list[OptimizationTrace] = []
        warm = self.warm_start and warm_start_graph is not None
        random_restarts = self.restarts - 1 if warm else self.restarts
        width = restart_width(random_restarts) if self.noise is None else 1
        with span("optimize", restarts=self.restarts, width=width):
            objective = self._objective(reduced)
            if warm:
                initial = self._warm_start_vector(warm_start_graph)
                traces.append(
                    cobyla_optimize(
                        objective, self.p, initial=initial,
                        maxiter=self.maxiter, seed=self._rng,
                    )
                )
            if random_restarts > 0:
                traces.extend(
                    multi_restart_optimize(
                        objective, self.p, restarts=random_restarts,
                        maxiter=self.maxiter, seed=self._rng, width=width,
                    )
                )
        return traces

    def _warm_start_vector(self, graph: nx.Graph) -> np.ndarray:
        from repro.transfer.lookup import ParameterLookup

        if self._lookup is None:
            self._lookup = ParameterLookup(seed=self._rng)
        return self._lookup.warm_start_vector(graph, self.p)

    def run(
        self,
        graph: nx.Graph | None = None,
        *,
        problem=None,
        reduction: ReductionResult | None = None,
    ) -> RedQAOAResult:
        """The full pipeline of Fig. 4 on ``graph`` or on any diagonal ``problem``.

        Exactly one of ``graph`` (MaxCut, the paper's workload) and
        ``problem`` (a :class:`~repro.problems.DiagonalProblem`: MIS,
        vertex cover, partitioning, SK, QUBO, ...) must be given.  Both run
        the same flow: dispatch the full-size engine, reduce, optimize on
        the distilled instance, transfer (and fine-tune), read out.  The
        engine dispatch comes first and draws nothing from the RNG, so an
        instance no exact engine can evaluate fails fast -- with
        :class:`~repro.qaoa.expectation.EngineLimitError`, before any
        reduction or optimization budget is spent -- and on the lightcone
        path the plan is compiled once for every later evaluation.

        ``reduction`` optionally supplies a precomputed (possibly shared)
        reduction of the *same* instance, skipping step 1.  Passing the
        result a same-seeded reducer would have produced leaves the run
        bit-identical, because reduction and optimization draw from
        separate RNG streams when the reducer is constructed with its own
        seed; this is how the batch scheduler shares one reduction across
        jobs that differ only in optimizer configuration.
        """
        if (graph is None) == (problem is None):
            raise ValueError("pass exactly one of graph= or problem=")
        if problem is None:
            ensure_graph(graph)
            instance = relabel_to_range(graph)
            target = MaxCutHamiltonian(instance)
            labels = sorted_labels(graph.nodes())
        else:
            if self.noise is not None:
                raise NotImplementedError(
                    "noisy optimization is only wired up for MaxCut graphs; "
                    "run problems with noise=None"
                )
            instance = target = problem
            labels = range(problem.num_qubits)
        evaluate, objective = self._full_size_engines(instance, target)

        if reduction is None:
            reduction = self.reduce(graph if problem is None else problem)
        traces = self.optimize_reduced(reduction)
        best_trace = max(traces, key=lambda t: t.best_value)
        gammas, betas = best_trace.best_parameters

        gammas, betas, expectation, probs, finetune_trace = self._transfer(
            evaluate, objective, gammas, betas
        )
        with span("readout"):
            cut_value, assignment = self._readout(target, labels, gammas, betas, probs)
        return RedQAOAResult(
            reduction=reduction,
            gammas=np.asarray(gammas, dtype=float),
            betas=np.asarray(betas, dtype=float),
            expectation=expectation,
            cut_value=cut_value,
            assignment=assignment,
            reduced_traces=traces,
            finetune_trace=finetune_trace,
        )

    def _full_size_engines(self, instance, target):
        """Transfer evaluator and fine-tuning objective on the full-size instance.

        The evaluator returns ``(expectation, probs)``.  Ideal dense jobs
        (``n <= EXACT_LIMIT``) price ``target`` -- built once per job, so
        its diagonal is too -- as ``probs @ diagonal``, the exact
        expression of :func:`qaoa_expectation_fast`, and the readout
        samples the same ``probs`` instead of recomputing the state.
        Otherwise the evaluator is the dispatched engine (``probs`` is
        ``None``), and fine-tuning maximizes it, or the noisy objective
        when noise is configured.
        """
        if self.noise is None and target.num_qubits <= EXACT_LIMIT:

            def evaluate(gammas, betas):
                probs = qaoa_probabilities(target, list(gammas), list(betas))
                return float(probs @ target.diagonal), probs

            def objective(gammas, betas):
                return qaoa_expectation_fast(target, gammas, betas)

            return evaluate, objective
        ideal = self.evaluator(instance)
        objective = ideal if self.noise is None else self._objective(instance)
        return (lambda gammas, betas: (ideal(gammas, betas), None)), objective

    def _transfer(self, evaluate, objective, gammas, betas):
        """Steps 3-4: price the transferred parameters, then fine-tune.

        ``evaluate`` returns ``(expectation, probs)`` with ``probs`` the
        ideal final distribution when the engine produced one (else
        ``None``); ``objective`` is what fine-tuning maximizes.  Returns
        the final ``(gammas, betas, expectation, probs, finetune_trace)``,
        so ``probs`` always belongs to the returned parameters.
        """
        expectation, probs = evaluate(gammas, betas)
        if self.finetune_maxiter == 0:
            return gammas, betas, expectation, probs, None
        with span("finetune"):
            finetune_trace = cobyla_optimize(
                objective,
                self.p,
                initial=np.concatenate([gammas, betas]),
                maxiter=self.finetune_maxiter,
                rhobeg=0.1,  # small steps: the transferred start is near-optimal
                seed=self._rng,
            )
        if finetune_trace.num_evaluations:
            # Keep the transferred parameters if fine-tuning failed to help
            # under its (possibly noisy) objective.
            ft_gammas, ft_betas = finetune_trace.best_parameters
            ft_expectation, ft_probs = evaluate(ft_gammas, ft_betas)
            if ft_expectation >= expectation:
                return ft_gammas, ft_betas, ft_expectation, ft_probs, finetune_trace
        return gammas, betas, expectation, probs, finetune_trace

    def _readout(self, target, labels, gammas, betas, probs=None) -> tuple[float, dict]:
        """Step 5: sample the final state; best observed value and its assignment.

        ``probs`` is the final state's distribution when the transfer
        evaluation already made it; otherwise the ideal or noisy state of
        ``target`` is built here.  The state is dense, so readout is
        skipped (NaN value, empty assignment) beyond the dense-qubit cap --
        the expectation and transferred parameters remain valid there.
        """
        if target.num_qubits > MAX_DENSE_QUBITS:
            return float("nan"), {}
        if probs is None:
            if self.noise is None:
                probs = qaoa_probabilities(target, list(gammas), list(betas))
            else:
                probs = noisy_qaoa_probabilities(
                    target, list(gammas), list(betas), self.noise,
                    trajectories=self.trajectories, seed=self._rng,
                )
        return self._sample_readout(target.diagonal, probs, labels)

    def _sample_readout(self, diagonal, probs, labels) -> tuple[float, dict]:
        """Draw shots from ``probs`` and return the best value seen plus the
        ``label -> bit`` assignment of that outcome (label order = bit order)."""
        shots = self.shots if self.shots is not None else 1024
        outcomes = self._rng.choice(probs.size, size=shots, p=probs / probs.sum())
        values = diagonal[outcomes]
        best_index = int(outcomes[int(np.argmax(values))])
        assignment = {
            label: (best_index >> position) & 1
            for position, label in enumerate(labels)
        }
        return float(values.max()), assignment

    # -- internals -------------------------------------------------------------

    def evaluator(self, instance):
        """The ideal engine for a (relabeled) graph or a problem, dispatched once.

        Raises :class:`~repro.qaoa.expectation.EngineLimitError` when no
        exact engine can price ``instance`` at this depth.
        """
        if isinstance(instance, nx.Graph):
            return maxcut_evaluator(instance, self.p, plan_cache=self.plan_cache)
        return problem_expectation.problem_evaluator(
            instance, self.p, plan_cache=self.plan_cache
        )

    def _objective(self, instance):
        """Energy function (to maximize) on ``instance`` under configured noise.

        Ideal objectives dispatch the engine (and compile any lightcone
        plan) once via :meth:`evaluator` instead of per evaluation --
        bit-identical values, one engine setup per optimization loop.
        Noise is only wired up for graphs.
        """
        if self.noise is None:
            return self.evaluator(instance)
        return lambda gammas, betas: noisy_maxcut_expectation(
            instance,
            gammas,
            betas,
            self.noise,
            trajectories=self.trajectories,
            shots=self.shots,
            seed=self._rng,
        )
