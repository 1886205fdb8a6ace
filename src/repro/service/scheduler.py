"""Deterministic batch execution with cross-job reuse.

:class:`BatchScheduler` turns a manifest of N job specs into the minimum
amount of actual work:

1. **admission** -- every manifest entry enters the
   :class:`~repro.serve.queue.ShardedJobQueue` through
   :meth:`~repro.serve.queue.ShardedJobQueue.admit`, the path the
   ``red-qaoa serve`` daemon uses: specs dedup by fingerprint, so exact
   and isomorphic duplicates execute once (isomorphic jobs share a
   fingerprint because execution is canonical, see
   :mod:`repro.service.jobs`), and fingerprints already in the persistent
   :class:`~repro.service.store.ResultStore` are served from disk, so a
   resumed campaign re-runs nothing;
2. **shared reductions** -- pending jobs are grouped by instance
   fingerprint and each instance is distilled once (jobs that scan
   optimizer configs over one instance share its SA reduction), in sorted
   instance-fingerprint order so any bank state is independent of manifest
   order.  Each instance runs its first job's own pipeline: as in
   :meth:`~repro.core.pipeline.RedQAOA.run`, the engine is dispatched
   first -- an instance no exact engine can price is not reduced, and its
   jobs fail at dispatch -- and then :meth:`~repro.core.pipeline.RedQAOA.reduce`
   distills it, the same reduction the job's run would make;
3. **shared plans** -- one :class:`~repro.qaoa.lightcone.PlanCache` serves
   every pipeline, so structurally identical graphs compile one lightcone
   plan across the whole batch;
4. **cost-ordered pooled execution** -- the queued jobs run through the
   :mod:`repro.serve` worker pool (the same path the daemon uses):
   fingerprint-sharded claims, cheapest-shard-first by the
   :func:`~repro.analysis.runtime.estimate_pipeline_cost` model,
   optionally on N worker processes -- streaming early results without
   affecting any of them.  The queue writes each result through the store
   as it lands; a failed job is parked there as a dead letter, as under
   ``serve``.  A failure never cuts the batch short: it drains to idle,
   so every evaluable job lands and is stored, and only then does
   :class:`JobFailedError` name the first parked entry in manifest order.

Every form of sharing above is *result-neutral*: per-job results are a
pure function of the job fingerprint, so batched execution, N sequential
:func:`~repro.service.jobs.run_job` calls, and a store-resumed pass are
bit-identical per job -- regardless of grouping or execution order.  The
one exception is opt-in: passing a :class:`~repro.core.cache.ReductionCache`
bank as ``reduction_cache`` additionally serves *similar* (not identical)
instances from it by closest AND, the paper's Sec. 6.1 cross-instance
transfer.  That trades bit-identity (the surrogate landscape
is close, not equal) for skipping the annealing search; it stays
deterministic for a fixed manifest *set* because reductions are processed
in sorted instance-fingerprint order.  The bank only banks: a miss reduces
through the job's pipeline as in exact mode, then banks the result.  Jobs
served from the bank carry ``source="bank"`` and never reach the store,
which holds exact results only.

The :class:`BatchReport` also aggregates the outcome per label (or kind)
and, when a store backed the run, summarizes its accesses -- the JSON
report ``red-qaoa batch --json`` / ``--report`` emits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import networkx as nx

from repro.core.annealer import AnnealResult
from repro.core.cache import ReductionCache
from repro.core.reduction import ReductionResult, and_ratio
from repro.obs.trace import get_tracer, trace_job
from repro.qaoa.expectation import EngineLimitError
from repro.qaoa.lightcone import PlanCache
from repro.serve.queue import QUEUED, ShardedJobQueue
from repro.serve.workers import drain, make_pool, pool_kind
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
        fields = self.result.report_fields(self.assignment)
        del fields["bits"]  # the report carries the assignment alone
        return {
            "index": self.index,
            "label": self.label,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "source": self.source,
            **fields,
        }


@dataclass
class BatchReport:
    """Counters, per-job views and per-label aggregates for one batch.

    ``store`` (when a persistent store backed the run) summarizes the
    store object's accesses over its lifetime, not only this batch's --
    fed from the same counters the metrics registry tracks
    (``redqaoa_store_hits_total`` / ``redqaoa_store_misses_total``).
    """

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
    aggregates: dict = field(default_factory=dict)
    store: dict | None = None

    @property
    def deduped(self) -> int:
        """Manifest entries served by another entry's execution."""
        return self.num_jobs - self.num_unique

    def to_dict(self) -> dict:
        report = {
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
            "aggregates": self.aggregates,
        }
        if self.store is not None:
            report["store"] = self.store
        return report


class BatchScheduler:
    """Runs many :class:`~repro.service.jobs.JobSpec` with maximal reuse.

    Parameters
    ----------
    store:
        Optional :class:`~repro.service.store.ResultStore`, handed to the
        batch's queue: found jobs skip execution entirely, completed jobs
        are written through it and a failed job is parked in it.  A job
        whose instance was served a banked cross-instance reduction is not
        written: its result is not its fingerprint's exact answer.
    reduction_cache:
        ``None`` (default) shares reductions only between jobs whose
        instance fingerprints match -- bit-identity preserved.  A
        :class:`~repro.core.cache.ReductionCache` turns on cross-instance
        reuse: it is consulted (closest acceptable AND, graph jobs only)
        for *similar* instances -- approximate but deterministic for a
        fixed manifest set.  A banked graph is a hit when its AND ratio to
        the instance clears the reducer's default 0.7.  One lookup per
        graph instance reduced in phase 1: its ``hits`` grow by the
        report's ``reduction_cross_hits``.
    workers / pool:
        Execution runs through the :mod:`repro.serve` worker pool -- the
        same path the daemon uses.  The default (one inline worker) keeps
        everything in-process with the scheduler's plan cache; ``workers=N``
        with the ``"process"`` pool executes shards on N processes,
        bit-identical by the purity contract (process workers keep
        per-process plan caches, so ``plan_hits`` then only counts
        parent-side compilations).  A combination no pool can run raises
        ``ValueError`` here, before any work.
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        reduction_cache: ReductionCache | None = None,
        workers: int = 1,
        pool: str | None = None,
    ) -> None:
        pool_kind(pool, workers)
        self.store = store
        self.plan_cache = PlanCache()
        self.reduction_cache = reduction_cache
        self.workers = workers
        self.pool = pool

    def run(self, specs, on_result=None) -> BatchReport:
        """Execute ``specs``; per-job views stream in manifest order.

        ``on_result(spec, result)`` fires as each *computed* job finishes
        (cost order); the returned report lists every manifest entry.
        A parked job raises :class:`JobFailedError`, after every other
        job has landed.
        """
        specs = list(specs)
        if not specs:
            raise ValueError("batch has no jobs")
        start = time.perf_counter()
        plan_hits0, plan_misses0 = self.plan_cache.hits, self.plan_cache.misses
        reductions: dict[str, object] = {}  # filled by phase 1, read at claim time
        queue = ShardedJobQueue(
            store=self.store,
            high_water=len(specs),
            max_attempts=1,
            reductions=reductions,
        )
        outcomes = queue.admit(specs)
        pending = [spec for spec, outcome in zip(specs, outcomes) if outcome.status == QUEUED]

        # Phase 1: one reduction per pending instance, in sorted
        # instance-fingerprint order (bank state independent of manifest
        # order; irrelevant in exact mode, where reductions are per-spec
        # pure functions anyway).  An instance whose first job's engine
        # dispatch fails is not reduced: that job fails at dispatch in
        # phase 2, and any sibling job reduces inside its own pipeline.
        by_instance: dict[str, list[JobSpec]] = {}
        for spec in pending:
            by_instance.setdefault(spec.instance_fingerprint, []).append(spec)
        reduction_reuses = cross_hits = 0
        for instance_fp in sorted(by_instance):
            spec = by_instance[instance_fp][0]
            instance = spec.canonical().instance
            cross = self.reduction_cache is not None and spec.graph is not None
            banked = self.reduction_cache.lookup(instance) if cross else None
            if banked is not None:
                reduction = _reduction_from_bank(instance, banked)
                cross_hits += 1
            else:
                # Phase-1 reductions get their own mini span trees (root
                # named "job" like every tree, so one validator covers
                # both): they run before any job is claimed, so there is
                # no claim timeline to stitch them into.  A plan the
                # dispatch compiles lands in the shared plan cache.
                pipeline = spec.pipeline(plan_cache=self.plan_cache)
                with trace_job(f"phase1:{instance_fp[:12]}", stage="reduction"):
                    try:
                        pipeline.evaluator(instance)
                    except EngineLimitError:
                        continue
                    reduction = pipeline.reduce(instance)
                if cross:
                    self.reduction_cache.bank(reduction)
            reductions[instance_fp] = reduction
            reduction_reuses += len(by_instance[instance_fp]) - 1
        queue.restart_wait_clocks()

        # Phase 2: execution through the serve worker pool -- the same
        # sharded-claim path the daemon runs.  Shards are claimed
        # cheapest-first by estimate_pipeline_cost (results stream early);
        # neither sharding nor worker count can affect any result, only
        # when each one appears.  A failed job is parked by the queue; the
        # drain runs on, so every other job lands and is stored first.
        tracer = get_tracer()
        pool = make_pool(
            self.pool,
            self.workers,
            plan_cache=self.plan_cache,
            trace=tracer is not None,
        )
        try:
            drain(queue, pool, on_result=on_result, tracer=tracer)
        finally:
            pool.close()
        for spec in specs:
            dead = queue.dead.get(spec.fingerprint)
            if dead is not None:
                raise JobFailedError(
                    f"job {spec.label or spec.fingerprint} failed: {dead['error']}"
                )

        views = []
        seen: set[str] = set()
        for index, spec in enumerate(specs):
            fingerprint = spec.fingerprint
            result = queue.result(fingerprint)
            views.append(
                JobView(
                    index=index,
                    label=spec.label,
                    kind=spec.kind,
                    fingerprint=fingerprint,
                    instance_fingerprint=spec.instance_fingerprint,
                    source="dedup" if fingerprint in seen else result.source,
                    result=result,
                    assignment=result.assignment_for(spec),
                )
            )
            seen.add(fingerprint)
        return BatchReport(
            num_jobs=len(specs),
            num_unique=len(seen),
            num_instances=len({spec.instance_fingerprint for spec in specs}),
            store_hits=sum(view.source == "store" for view in views),
            store_misses=len(pending) if self.store is not None else 0,
            computed=len(pending),
            reduction_reuses=reduction_reuses,
            reduction_cross_hits=cross_hits,
            plan_hits=self.plan_cache.hits - plan_hits0,
            plan_misses=self.plan_cache.misses - plan_misses0,
            seconds=time.perf_counter() - start,
            results=views,
            aggregates=_aggregates(views),
            store=None if self.store is None else {
                "path": str(self.store.path),
                "results": len(self.store),
                "hits": self.store.hits,
                "misses": self.store.misses,
                "dead_letters": len(self.store.dead_letters()),
            },
        )


def _aggregates(views: list[JobView]) -> dict:
    """Per-label (else per-kind) job count and mean expectation/best value."""
    groups: dict[str, list[JobView]] = {}
    for view in views:
        groups.setdefault(view.label or view.kind, []).append(view)
    aggregates = {}
    for label in sorted(groups):
        group = groups[label]
        expectations = [v.result.expectation for v in group]
        best_values = [
            v.result.best_value
            for v in group
            if v.result.best_value == v.result.best_value  # drop NaN
        ]
        aggregates[label] = {
            "count": len(group),
            "mean_expectation": sum(expectations) / len(expectations),
            "mean_best_value": (
                sum(best_values) / len(best_values) if best_values else None
            ),
        }
    return aggregates


def _reduction_from_bank(graph: nx.Graph, banked) -> ReductionResult:
    """Wrap a banked distilled graph as a reduction of the canonical ``graph``.

    The banked graph is not a subgraph of the instance (the paper's
    cross-instance transfer: only the landscape needs to match); the
    synthetic :class:`~repro.core.reduction.ReductionResult` carries it
    into the optimization step while solution finding still runs on the
    instance itself.
    """
    distilled = nx.Graph(banked.graph)
    ratio = and_ratio(average_node_strength(graph), banked.and_value)
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
        banked=True,
    )
