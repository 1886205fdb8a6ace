"""Deterministic batch execution with cross-job reuse.

:class:`BatchScheduler` turns a manifest of N job specs into the minimum
amount of actual work:

1. **dedup** -- specs are grouped by fingerprint, so exact and isomorphic
   duplicates execute once (isomorphic jobs share a fingerprint because
   execution is canonical, see :mod:`repro.service.jobs`);
2. **store** -- fingerprints already in the persistent
   :class:`~repro.service.store.ResultStore` are served from disk, so a
   resumed campaign re-runs nothing;
3. **shared reductions** -- pending jobs are grouped by instance
   fingerprint and each instance is distilled once (jobs that scan
   optimizer configs over one instance share its SA reduction), in sorted
   instance-fingerprint order so any bank state is independent of manifest
   order.  As in :meth:`~repro.core.pipeline.RedQAOA.run`, the engine is
   dispatched first: an instance no exact engine can price is not
   reduced, and its jobs fail at dispatch;
4. **shared plans** -- one :class:`~repro.qaoa.lightcone.PlanCache` serves
   every pipeline, so structurally identical graphs compile one lightcone
   plan across the whole batch;
5. **cost-ordered pooled execution** -- remaining jobs run through the
   :mod:`repro.serve` worker pool (the same path the ``red-qaoa serve``
   daemon uses): fingerprint-sharded claims, cheapest-shard-first by the
   :func:`~repro.analysis.runtime.estimate_pipeline_cost` model,
   optionally on N worker processes -- streaming early results without
   affecting any of them.

Every form of sharing above is *result-neutral*: per-job results are a
pure function of the job fingerprint, so batched execution, N sequential
:func:`~repro.service.jobs.run_job` calls, and a store-resumed pass are
bit-identical per job -- regardless of grouping or execution order.  The
one exception is opt-in: ``reduction_reuse="cross-instance"`` additionally
serves *similar* (not identical) instances from an AND-bucketed
:class:`~repro.core.cache.ReductionCache` bank, the paper's Sec. 6.1
cross-instance transfer.  That trades bit-identity (the surrogate landscape
is close, not equal) for skipping the annealing search; it stays
deterministic for a fixed manifest *set* because reductions are processed
in sorted instance-fingerprint order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import networkx as nx

from repro.core.annealer import AnnealResult
from repro.core.cache import ReductionCache
from repro.core.reduction import ReductionResult, and_ratio
from repro.obs.trace import get_tracer, span, trace_job
from repro.qaoa.expectation import EngineLimitError
from repro.qaoa.lightcone import PlanCache
from repro.serve.queue import ShardedJobQueue
from repro.serve.workers import drain, make_pool
from repro.service.jobs import JobResult, JobSpec
from repro.service.store import ResultStore
from repro.utils.graphs import average_node_strength

__all__ = ["BatchReport", "BatchScheduler", "JobFailedError", "JobView"]


class JobFailedError(RuntimeError):
    """A batch job ended dead-lettered; the message names the job and its error."""


@dataclass
class JobView:
    """One manifest entry's slice of a batch outcome.

    Views are emitted in manifest order; duplicates of an earlier entry
    carry ``source="dedup"`` and the shared canonical result, with the
    ``assignment`` mapped through their own instance labels.
    """

    index: int
    label: str
    kind: str
    fingerprint: str
    instance_fingerprint: str
    source: str
    result: JobResult
    assignment: dict

    def to_dict(self) -> dict:
        best = self.result.best_value
        return {
            "index": self.index,
            "label": self.label,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "source": self.source,
            "expectation": self.result.expectation,
            "best_value": None if best != best else best,  # NaN -> None
            "gammas": self.result.gammas,
            "betas": self.result.betas,
            "reduced_qubits": self.result.reduced_qubits,
            "and_ratio": self.result.and_ratio,
            "assignment": {str(k): v for k, v in self.assignment.items()},
        }


@dataclass
class BatchReport:
    """Counters plus per-job views for one :meth:`BatchScheduler.run`."""

    num_jobs: int
    num_unique: int
    num_instances: int
    store_hits: int
    computed: int
    reduction_reuses: int
    reduction_cross_hits: int
    plan_hits: int
    plan_misses: int
    seconds: float
    store_misses: int = 0
    results: list[JobView] = field(default_factory=list)

    @property
    def deduped(self) -> int:
        """Manifest entries served by another entry's execution."""
        return self.num_jobs - self.num_unique

    def to_dict(self) -> dict:
        return {
            "jobs": self.num_jobs,
            "unique_jobs": self.num_unique,
            "instances": self.num_instances,
            "deduped": self.deduped,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "computed": self.computed,
            "reduction_reuses": self.reduction_reuses,
            "reduction_cross_hits": self.reduction_cross_hits,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "seconds": self.seconds,
            "per_job": [view.to_dict() for view in self.results],
        }


class BatchScheduler:
    """Runs many :class:`~repro.service.jobs.JobSpec` with maximal reuse.

    Parameters
    ----------
    store:
        Optional :class:`~repro.service.store.ResultStore`; completed jobs
        are written through it and found jobs skip execution entirely.
    plan_cache:
        Shared compiled-plan bank; a private one is created when omitted.
    reduction_reuse:
        ``"exact"`` (default) shares reductions only between jobs whose
        instance fingerprints match -- bit-identity preserved.
        ``"cross-instance"`` additionally consults ``reduction_cache``
        (AND-bucket matching, graph jobs only) for *similar* instances --
        approximate but deterministic for a fixed manifest set.
    reduction_cache:
        The bank for cross-instance mode; created on demand.  Its
        reducer's ``and_ratio_threshold`` defines bank-hit acceptance.
    workers / pool:
        Execution runs through the :mod:`repro.serve` worker pool -- the
        same path the daemon uses.  The default (one inline worker) keeps
        everything in-process with the shared plan cache; ``workers=N``
        with the ``"process"`` pool executes shards on N processes,
        bit-identical by the purity contract (process workers keep
        per-process plan caches, so ``plan_hits`` then only counts
        parent-side compilations).
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        plan_cache: PlanCache | None = None,
        reduction_reuse: str = "exact",
        reduction_cache: ReductionCache | None = None,
        workers: int = 1,
        pool: str | None = None,
    ) -> None:
        if reduction_reuse not in ("exact", "cross-instance"):
            raise ValueError(
                f"reduction_reuse must be 'exact' or 'cross-instance', "
                f"got {reduction_reuse!r}"
            )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store = store
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.reduction_reuse = reduction_reuse
        if reduction_cache is None and reduction_reuse == "cross-instance":
            reduction_cache = ReductionCache()
        self.reduction_cache = reduction_cache
        self.workers = workers
        self.pool = pool

    def run(self, specs, on_result=None) -> BatchReport:
        """Execute ``specs``; per-job views stream in manifest order.

        ``on_result(spec, result)`` fires as each *computed* job finishes
        (cost order); the returned report lists every manifest entry.
        """
        specs = list(specs)
        start = time.perf_counter()
        plan_hits0, plan_misses0 = self.plan_cache.hits, self.plan_cache.misses

        unique: dict[str, JobSpec] = {}
        occurrences: dict[str, list[int]] = {}
        for index, spec in enumerate(specs):
            fingerprint = spec.fingerprint
            unique.setdefault(fingerprint, spec)
            occurrences.setdefault(fingerprint, []).append(index)

        results: dict[str, JobResult] = {}
        store_hits = 0
        if self.store is not None:
            for fingerprint in unique:
                found = self.store.get(fingerprint)
                if found is not None:
                    results[fingerprint] = found
                    store_hits += 1
        pending = [fp for fp in unique if fp not in results]

        # Phase 1: one reduction per pending instance, in sorted
        # instance-fingerprint order (bank state independent of manifest
        # order; irrelevant in exact mode, where reductions are per-spec
        # pure functions anyway).  An instance whose first job's engine
        # dispatch fails is not reduced: that job fails at dispatch in
        # phase 2, and any sibling job reduces inside its own pipeline.
        by_instance: dict[str, list[str]] = {}
        for fingerprint in pending:
            key = unique[fingerprint].instance_fingerprint
            by_instance.setdefault(key, []).append(fingerprint)
        reductions: dict[str, object] = {}
        reduction_reuses = 0
        cross_hits = 0
        for instance_fp in sorted(by_instance):
            spec = unique[by_instance[instance_fp][0]]
            reduction = None
            if (
                self.reduction_reuse == "cross-instance"
                and spec.graph is not None
            ):
                banked = self.reduction_cache.lookup(spec.canonical().instance)
                if banked is not None:
                    reduction = _reduction_from_bank(spec, banked)
                    cross_hits += 1
            if reduction is None:
                # Phase-1 reductions get their own mini span trees (root
                # named "job" like every tree, so one validator covers
                # both): they run before any queue exists, so there is no
                # enqueue/claim timeline to stitch them into.
                with trace_job(f"phase1:{instance_fp[:12]}", stage="reduction"):
                    if not _dispatches(spec, self.plan_cache):
                        continue
                    with span("reduce", instance=instance_fp[:12]):
                        reduction = spec.compute_reduction()
                if self.reduction_reuse == "cross-instance" and spec.graph is not None:
                    self.reduction_cache.bank(reduction)
            reductions[instance_fp] = reduction
            reduction_reuses += len(by_instance[instance_fp]) - 1

        # Phase 2: execution through the serve worker pool -- the same
        # sharded-claim path the daemon runs.  Shards are claimed
        # cheapest-first by estimate_pipeline_cost (results stream early);
        # neither sharding nor worker count can affect any result, only
        # when each one appears.  A failed job surfaces as an exception,
        # as the pre-pool sequential loop surfaced it.
        queue = ShardedJobQueue(
            high_water=max(1, len(pending)),
            max_attempts=1,
            reductions=reductions,
        )
        for fingerprint in pending:
            outcome = queue.submit(unique[fingerprint])
            assert outcome.accepted  # high_water covers the whole batch

        def landed(spec, result):
            results[result.fingerprint] = result
            if self.store is not None:
                self.store.put(result)
            if on_result is not None:
                on_result(spec, result)

        def dead(spec, error):
            raise JobFailedError(f"job {spec.label or spec.fingerprint} failed: {error}")

        tracer = get_tracer()
        pool = make_pool(
            self.pool,
            self.workers,
            plan_cache=self.plan_cache,
            trace=tracer is not None,
        )
        try:
            drain(queue, pool, on_result=landed, on_dead=dead, tracer=tracer)
        finally:
            pool.close()

        views = []
        first = {fp: positions[0] for fp, positions in occurrences.items()}
        for index, spec in enumerate(specs):
            fingerprint = spec.fingerprint
            result = results[fingerprint]
            views.append(
                JobView(
                    index=index,
                    label=spec.label,
                    kind=spec.kind,
                    fingerprint=fingerprint,
                    instance_fingerprint=spec.instance_fingerprint,
                    source=result.source if index == first[fingerprint] else "dedup",
                    result=result,
                    assignment=result.assignment_for(spec),
                )
            )
        return BatchReport(
            num_jobs=len(specs),
            num_unique=len(unique),
            num_instances=len({spec.instance_fingerprint for spec in unique.values()}),
            store_hits=store_hits,
            store_misses=len(pending) if self.store is not None else 0,
            computed=len(pending),
            reduction_reuses=reduction_reuses,
            reduction_cross_hits=cross_hits,
            plan_hits=self.plan_cache.hits - plan_hits0,
            plan_misses=self.plan_cache.misses - plan_misses0,
            seconds=time.perf_counter() - start,
            results=views,
        )


def _dispatches(spec: JobSpec, plan_cache: PlanCache) -> bool:
    """Whether the pipeline's own dispatch finds an exact engine for ``spec``
    (a plan it compiles lands in ``plan_cache`` for the inline pool's run)."""
    try:
        spec.pipeline(plan_cache=plan_cache).evaluator(spec.canonical().instance)
    except EngineLimitError:
        return False
    return True


def _reduction_from_bank(spec: JobSpec, banked) -> ReductionResult:
    """Wrap a banked distilled graph as a reduction for ``spec``'s instance.

    The banked graph is not a subgraph of the instance (the paper's
    cross-instance transfer: only the landscape needs to match); the
    synthetic :class:`~repro.core.reduction.ReductionResult` carries it
    into the optimization step while solution finding still runs on the
    instance itself.
    """
    graph = spec.canonical().instance
    distilled = nx.Graph(banked.graph)
    reduced = average_node_strength(distilled) if distilled.number_of_nodes() else 0.0
    ratio = and_ratio(average_node_strength(graph), reduced)
    return ReductionResult(
        original_graph=graph,
        nodes=set(distilled.nodes()),
        reduced_graph=distilled,
        node_mapping={node: node for node in distilled.nodes()},
        and_ratio=ratio,
        anneal_result=AnnealResult(
            nodes=set(distilled.nodes()),
            subgraph=nx.Graph(distilled),
            objective=0.0,
            steps=0,
            history=[0.0],
        ),
    )
