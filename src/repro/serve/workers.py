"""Deterministic worker pools: N workers, bit-for-bit one worker's answers.

A worker executes whole :class:`~repro.serve.queue.ShardClaim` batches.
Within a claim, jobs run in fingerprint order with one reduction per
instance fingerprint (made by the instance's first job, inside its
pipeline and after its engine dispatch, unless the claim carries a
precomputed one); each job is
:func:`~repro.service.jobs.run_job` -- a pure function of its fingerprint.
Consequently *every* pool below satisfies the purity contract: for any
worker count, any shard assignment, any interleaving, and any number of
crash-requeues, the per-job results are bit-identical to one worker and
to N sequential ``run_job`` calls.  Parallelism can only change *when* a
result lands, never *what* it is.

Two pools, one interface (``idle_workers`` / ``dispatch`` / ``poll`` /
``close``):

:class:`InlineWorkerPool`
    Executes claims synchronously in the calling process, sharing one
    compiled-plan cache.  The ``workers=1`` path of both batch and serve
    modes -- zero IPC, zero pickling.
:class:`ProcessWorkerPool`
    N persistent ``multiprocessing`` workers fed over pipes, each with a
    process-local plan cache, streaming per-job events back as they
    finish.  A worker that dies mid-claim (killed, segfaulted, or a
    deliberate :class:`CrashPoint`) surfaces as a ``worker_crashed``
    event and the pool respawns a replacement, so a kill costs at most
    the jobs that were in flight -- never a completed result, never a
    duplicate.

Both pools emit the :class:`WorkerEvent` stream :func:`execute_shard`
yields, the process pool over its pipe.  :func:`pump` is the one
scheduling step shared by ``red-qaoa batch`` and the serve daemon: claim
shards for idle workers, collect events, resolve them against the queue.
A job that raised and each unfinished job of a crashed worker take one
path: the queue charges an attempt, then requeues the job or parks it in
``queue.dead``; the pump never raises, so no shard-mate's result is
dropped.  :func:`drain` loops the pump until the queue is idle.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from collections import deque
from dataclasses import dataclass

from repro.obs.log import NullLog
from repro.obs.metrics import JOB_BUCKETS, REGISTRY, STAGE_BUCKETS, snapshot_delta
from repro.obs.trace import Tracer, get_tracer, install_tracer, using_tracer
from repro.qaoa.lightcone import PlanCache
from repro.qaoa.optimizer import hold_restarts_sequential
from repro.serve.queue import CRASH_ERROR, ShardClaim, ShardedJobQueue
from repro.service.jobs import JobResult, run_pipeline

_RESPAWNS = REGISTRY.counter(
    "redqaoa_worker_respawns_total", "replacement workers spawned after a crash"
)
_JOB_SECONDS = REGISTRY.histogram(
    "redqaoa_job_seconds",
    "submit-to-durable latency per completed job",
    buckets=JOB_BUCKETS,
)
_QUEUE_WAIT_SECONDS = REGISTRY.histogram(
    "redqaoa_queue_wait_seconds",
    "submit-to-claim wait per completed job",
    buckets=STAGE_BUCKETS,
)

_NULL_LOG = NullLog()

__all__ = [
    "CrashPoint",
    "InlineWorkerPool",
    "ProcessWorkerPool",
    "WorkerEvent",
    "drain",
    "execute_shard",
    "make_pool",
    "pool_kind",
    "pump",
]


@dataclass(frozen=True)
class CrashPoint:
    """Deterministic crash-once fault injection (tests and the CI smoke job).

    A process worker about to execute a fingerprint in ``fingerprints``
    first tries to delete ``token``; whichever worker wins the atomic
    unlink dies on the spot with ``os._exit``.  The token can only be
    deleted once, so the crash happens exactly once no matter how often
    the job is requeued -- which is what lets a test assert the recovery
    path converges.  Honored only inside process workers; the inline pool
    never sees faults.
    """

    fingerprints: frozenset
    token: str

    def trip(self, fingerprint: str) -> None:
        if fingerprint in self.fingerprints:
            try:
                os.unlink(self.token)
            except FileNotFoundError:
                return  # already tripped on an earlier attempt
            os._exit(17)


@dataclass(frozen=True)
class WorkerEvent:
    """One message out of a pool.

    ``kind`` is ``"result"`` (with ``result``), ``"job_failed"`` (with
    ``error``), ``"shard_done"``, or ``"worker_crashed"``.  ``spans``
    carries the worker-side span records of a traced result and
    ``metrics`` the worker's metrics delta on ``shard_done`` -- both pure
    observability side channels, never consulted by scheduling.
    """

    kind: str
    claim_id: int
    fingerprint: str | None = None
    result: JobResult | None = None
    error: str | None = None
    spans: list | None = None
    metrics: dict | None = None


def _run_one(spec, shared: dict, plan_cache) -> JobResult:
    """Execute one spec, handing its pipeline's reduction to the instance's
    later jobs; the pipeline reduces after its engine dispatch, so an
    unevaluable job fails on every attempt without spending a reduction."""
    instance_fp = spec.instance_fingerprint
    run = run_pipeline(spec, reduction=shared.get(instance_fp), plan_cache=plan_cache)
    shared.setdefault(instance_fp, run.reduction)
    return JobResult.from_run(spec, run)


def execute_shard(claim_id: int, specs, plan_cache=None, reductions=None, fault=None,
                  collect_spans=False, ship_metrics=False):
    """Run one claim's specs in fingerprint order; yield its events.

    Yields a ``"result"`` event for each success and a ``"job_failed"``
    event (with ``"<ExceptionType>: <message>"``) for each job whose
    execution raised -- a failure never stops the rest of the shard --
    then one ``"shard_done"``.  Reductions are shared per instance
    fingerprint within the shard (or taken from ``reductions`` when the
    claim carries precomputed ones); both paths are pure functions of the
    instance fingerprint, hence bit-identical.

    With ``collect_spans`` each job runs under a fresh collector
    :class:`~repro.obs.trace.Tracer` whose drained spans ride along with
    the result (root span: ``execute``).  Spans of a *failed* attempt are
    discarded -- only the attempt that lands ships a tree, so retries
    never leave orphans.  The tracer swap is confined to the work between
    yields, never held across one.  With ``ship_metrics`` (process
    workers) ``shard_done`` carries the claim's metrics delta.
    """
    baseline = REGISTRY.snapshot() if ship_metrics else None
    specs = sorted(specs, key=lambda spec: spec.fingerprint)
    shared = dict(reductions) if reductions else {}
    for spec in specs:
        if fault is not None:
            fault.trip(spec.fingerprint)
        collector = Tracer(None) if collect_spans else None
        try:
            if collector is not None:
                with using_tracer(collector), collector.bind(spec.fingerprint):
                    with collector.span("execute"):
                        result = _run_one(spec, shared, plan_cache)
            else:
                result = _run_one(spec, shared, plan_cache)
        except Exception as exc:  # noqa: BLE001 - reported, never wedges the shard
            error = f"{type(exc).__name__}: {exc}"
            yield WorkerEvent("job_failed", claim_id, spec.fingerprint, error=error)
            continue
        spans = collector.drain() if collector is not None else None
        yield WorkerEvent("result", claim_id, spec.fingerprint, result=result, spans=spans)
    # The fork-inherited baseline values cancel out of the delta, so the
    # pump merges without double counting; gauges never ship.
    metrics = snapshot_delta(REGISTRY.snapshot(), baseline) if ship_metrics else None
    yield WorkerEvent("shard_done", claim_id, metrics=metrics)


class InlineWorkerPool:
    """Synchronous single-worker pool running in the calling process.

    Shares ``plan_cache`` across every claim (the batch scheduler passes
    its own, so compiled lightcone plans keep amortizing exactly as in
    the pre-pool code path).
    """

    workers = 1
    respawns = 0  # nothing to respawn: the worker is the caller

    def __init__(self, plan_cache: PlanCache | None = None, trace: bool = False) -> None:
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.trace = trace
        self._events: deque[WorkerEvent] = deque()

    def idle_workers(self) -> int:
        return 1

    def worker_pids(self) -> list[int]:
        return [os.getpid()]

    def worker_states(self) -> list[dict]:
        return [{"id": 0, "pid": os.getpid(), "alive": True, "claim": None}]

    def kick(self, claim_id: int) -> bool:
        """Inline execution is synchronous; there is never a worker to kick."""
        return False

    def dispatch(self, claim: ShardClaim) -> None:
        # Collect spans whenever tracing is on so the pump stitches inline
        # jobs exactly like process-worker jobs.  Metrics need no delta:
        # inline execution increments the daemon's own registry directly.
        self._events.extend(
            execute_shard(
                claim.id,
                claim.specs,
                plan_cache=self.plan_cache,
                reductions=claim.reductions,
                collect_spans=self.trace or get_tracer() is not None,
            )
        )

    def poll(self, timeout: float = 0.0) -> list[WorkerEvent]:
        events = list(self._events)
        self._events.clear()
        return events

    def close(self) -> None:
        self._events.clear()


def _process_worker_main(
    conn, fault: CrashPoint | None, trace: bool, sequential: bool
) -> None:
    """Worker loop: receive claims, send their events back.

    ``sequential`` (set when sibling workers share the CPUs) keeps each
    job's restarts in this process.
    """
    # The daemon's Ctrl-C must not tear workers down mid-job; orderly
    # shutdown arrives as a "stop" message (or EOF when the parent died).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Fork inherits the daemon's global file tracer; a worker must never
    # write the trace file directly (interleaved appends, duplicate
    # trees) -- its spans ship over the pipe instead.
    install_tracer(None)
    if sequential:
        hold_restarts_sequential()
    plan_cache = PlanCache()
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        if message[0] == "stop":
            break
        _, claim_id, specs, reductions = message
        for event in execute_shard(
            claim_id,
            specs,
            plan_cache=plan_cache,
            reductions=reductions,
            fault=fault,
            collect_spans=trace,
            ship_metrics=True,
        ):
            conn.send(event)
    conn.close()


class _Worker:
    def __init__(
        self, worker_id: int, fault: CrashPoint | None, trace: bool, sequential: bool
    ) -> None:
        self.id = worker_id
        self.claim_id: int | None = None
        parent_conn, child_conn = multiprocessing.Pipe()
        self.conn = parent_conn
        self.process = multiprocessing.Process(
            target=_process_worker_main,
            args=(child_conn, fault, trace, sequential),
            name=f"repro-serve-worker-{worker_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()


class ProcessWorkerPool:
    """N persistent worker processes with crash detection and respawn.

    ``trace`` makes workers collect per-job spans (shipped back with each
    result); ``log`` receives respawn events.  Neither affects results.
    With more than one worker, the workers already share the CPUs, so each
    runs a job's restarts sequentially; a lone worker may fork restart
    children (:func:`~repro.qaoa.optimizer.restart_width`).
    """

    def __init__(
        self,
        workers: int,
        fault: CrashPoint | None = None,
        trace: bool = False,
        log=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.fault = fault
        self.trace = trace
        self.log = log if log is not None else _NULL_LOG
        self.respawns = 0
        self._ids = iter(range(1, 1_000_000))
        self._pool: list[_Worker] = [
            _Worker(next(self._ids), fault, trace, workers > 1) for _ in range(workers)
        ]
        self._pending: list[WorkerEvent] = []  # crashes detected at dispatch
        self._closed = False

    def idle_workers(self) -> int:
        return sum(1 for worker in self._pool if worker.claim_id is None)

    def worker_pids(self) -> list[int]:
        return [worker.process.pid for worker in self._pool]

    def worker_states(self) -> list[dict]:
        """Liveness and claim per worker (the health monitor's view)."""
        return [
            {
                "id": worker.id,
                "pid": worker.process.pid,
                "alive": worker.process.is_alive(),
                "claim": worker.claim_id,
            }
            for worker in self._pool
        ]

    def kick(self, claim_id: int) -> bool:
        """Kill the worker holding ``claim_id`` (the stuck-shard watchdog).

        The kill is deliberately the same signal a crash test sends: the
        very next :meth:`poll` sees the pipe EOF, surfaces one
        ``worker_crashed`` event, the queue requeues the claim's
        unfinished jobs through the normal attempt accounting, and the
        pool respawns a replacement.  No new recovery path to maintain --
        a stuck worker is handled exactly like a dead one.
        """
        for worker in self._pool:
            if worker.claim_id == claim_id and worker.process.is_alive():
                worker.process.kill()
                return True
        return False

    def dispatch(self, claim: ShardClaim) -> None:
        worker = min(
            (w for w in self._pool if w.claim_id is None), key=lambda w: w.id
        )
        worker.claim_id = claim.id
        try:
            worker.conn.send(("run", claim.id, claim.specs, claim.reductions))
        except (BrokenPipeError, OSError):
            # The worker died while idle (killed between claims): surface
            # it as a crash at the next poll and respawn, exactly as a
            # mid-claim death would -- the claim requeues, nothing is lost.
            self._pending.append(WorkerEvent("worker_crashed", claim.id))
            self._replace(worker)

    def poll(self, timeout: float = 0.05) -> list[WorkerEvent]:
        """Collect every available worker message; detect crashes.

        A worker whose pipe hits EOF (or whose process died) while holding
        a claim yields one ``worker_crashed`` event and is replaced, so
        the pool always converges back to its configured size.
        """
        events: list[WorkerEvent] = list(self._pending)
        self._pending.clear()
        busy = [worker for worker in self._pool if worker.claim_id is not None]
        if not busy:
            return events
        ready = multiprocessing.connection.wait(
            [worker.conn for worker in busy], timeout
        )
        for worker in busy:
            if worker.conn not in ready:
                continue
            try:
                while worker.conn.poll():
                    event = worker.conn.recv()
                    events.append(event)
                    if event.kind == "shard_done":
                        worker.claim_id = None
            except (EOFError, OSError):
                events.append(WorkerEvent("worker_crashed", worker.claim_id))
                self._replace(worker)
        return events

    def _replace(self, worker: _Worker) -> None:
        worker.conn.close()
        if worker.process.is_alive():  # pragma: no cover - EOF implies death
            worker.process.terminate()
        worker.process.join(timeout=5)
        self._pool.remove(worker)
        if not self._closed:
            self._pool.append(_Worker(next(self._ids), self.fault, self.trace, self.workers > 1))
            self.respawns += 1
            _RESPAWNS.inc()
            self.log.info(
                "worker_respawned", dead_worker=worker.id, pool_size=len(self._pool)
            )

    def close(self) -> None:
        self._closed = True
        for worker in self._pool:
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._pool:
            worker.process.join(timeout=5)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5)
            worker.conn.close()
        self._pool.clear()


def pool_kind(kind: str | None, workers: int) -> str:
    """The pool kind :func:`make_pool` builds for ``kind`` and ``workers``.

    ``kind`` is ``"inline"``, ``"process"``, or ``None`` to pick inline for
    one worker and processes otherwise.  Raises ``ValueError`` for a
    combination no pool can run, so callers can refuse it before spending
    any work.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if kind is None:
        return "inline" if workers == 1 else "process"
    if kind == "inline" and workers > 1:
        raise ValueError("the inline pool is single-worker; use pool='process'")
    if kind not in ("inline", "process"):
        raise ValueError(f"pool must be 'inline' or 'process', got {kind!r}")
    return kind


def make_pool(
    kind: str | None,
    workers: int,
    plan_cache: PlanCache | None = None,
    fault: CrashPoint | None = None,
    trace: bool = False,
    log=None,
):
    """Build the pool :func:`pool_kind` names for ``kind`` and ``workers``.

    ``trace`` turns on per-job span collection in either pool kind (the
    inline pool also follows the process-global tracer); ``log`` receives
    the process pool's respawn events.
    """
    if pool_kind(kind, workers) == "inline":
        return InlineWorkerPool(plan_cache=plan_cache, trace=trace)
    return ProcessWorkerPool(workers, fault=fault, trace=trace, log=log)


class _NullLock:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_LOCK = _NullLock()


def _record_dead_tree(tracer, job) -> None:
    """Synthesize a (degenerate) span tree for a dead-lettered job.

    A job that never completed still closed -- the invariant "every
    submitted job yields exactly one closed tree" holds for dead letters
    too, with ``source="dead"`` and a zero-length store phase.
    """
    now = time.perf_counter_ns()
    tracer.record_job(
        job.fingerprint,
        None,
        enqueued_ns=job.enqueued_ns or None,
        claimed_ns=job.claimed_ns or None,
        store_t0=now,
        store_t1=now,
        attempts=job.attempts,
        source="dead",
    )


def _settle_failure(job, outcome: str, error: str, tracer, log) -> None:
    """Log one charged failure; a parked job also closes its span tree.

    The one resolution of a failed attempt, whether the job raised
    (``job_failed``) or its worker died under it (``worker_crashed``).
    """
    log.warning(
        "job_failed",
        fingerprint=job.fingerprint,
        attempts=job.attempts,
        outcome=outcome,
        error=error,
    )
    if outcome == "dead":
        log.error(
            "dead_letter", fingerprint=job.fingerprint, attempts=job.attempts, error=error
        )
        if tracer is not None:
            _record_dead_tree(tracer, job)


def pump(
    queue: ShardedJobQueue,
    pool,
    claims: dict[int, ShardClaim],
    on_result=None,
    timeout: float = 0.05,
    lock=None,
    landed=None,
    tracer=None,
    log=None,
) -> bool:
    """One scheduling step: dispatch ready shards, resolve worker events.

    The single execution path under both ``red-qaoa batch`` and the serve
    daemon.  ``claims`` is the caller-owned map of outstanding claim ids;
    ``on_result(spec, result)`` fires per completed job (after the result
    is durable in the queue/store).  A failed attempt -- a
    ``job_failed`` event, or each unfinished job of a ``worker_crashed``
    claim -- is charged by the queue (requeued, or parked as a dead letter
    in ``queue.dead``) and logged through one helper; nothing is raised,
    so every other event of the poll still lands.  Returns whether
    anything happened, so callers can idle politely.

    ``lock`` (when given) guards every queue access -- the daemon shares
    its queue with connection threads; execution itself (``dispatch`` for
    the inline pool, ``poll`` always) runs outside it.  ``landed`` is an
    optional condition variable notified after events resolve, waking
    result streamers.

    ``tracer`` (a file-mode :class:`~repro.obs.trace.Tracer`) makes the
    pump stitch every landed job into a complete span tree -- worker
    spans plus synthesized queue/dispatch/drain gaps -- and ``log`` (an
    :class:`~repro.obs.log.EventLog`) receives claim/failure/crash
    events.  Both are pure side channels.
    """
    guard = lock if lock is not None else _NULL_LOCK
    log = log if log is not None else _NULL_LOG
    progressed = False
    while True:
        with guard:
            claim = queue.claim_next() if pool.idle_workers() > 0 else None
            if claim is not None:
                claims[claim.id] = claim
        if claim is None:
            break
        log.debug(
            "shard_claimed", claim=claim.id, shard=claim.shard, jobs=len(claim.jobs)
        )
        pool.dispatch(claim)
        progressed = True
    if not claims:
        return progressed
    events = pool.poll(timeout)
    if not events:
        return progressed
    with guard:
        for event in events:
            claim = claims.get(event.claim_id)
            if claim is None:  # stale message from a finished claim
                continue
            progressed = True
            if event.kind == "result":
                store_t0 = time.perf_counter_ns()
                queue.complete(claim, event.fingerprint, event.result)
                store_t1 = time.perf_counter_ns()
                job = claim.job_of(event.fingerprint)
                if job.enqueued_ns:
                    _JOB_SECONDS.observe((store_t1 - job.enqueued_ns) / 1e9)
                    if job.claimed_ns:
                        _QUEUE_WAIT_SECONDS.observe(
                            (job.claimed_ns - job.enqueued_ns) / 1e9
                        )
                if tracer is not None:
                    tracer.record_job(
                        event.fingerprint,
                        event.spans,
                        enqueued_ns=job.enqueued_ns or None,
                        claimed_ns=job.claimed_ns or None,
                        store_t0=store_t0,
                        store_t1=store_t1,
                        attempts=job.attempts + 1,
                    )
                if on_result is not None:
                    on_result(job.spec, event.result)
            elif event.kind == "job_failed":
                outcome = queue.fail(claim, event.fingerprint, event.error)
                job = claim.job_of(event.fingerprint)
                _settle_failure(job, outcome, event.error, tracer, log)
            elif event.kind == "shard_done":
                if event.metrics:
                    REGISTRY.merge(event.metrics)
                queue.finish_claim(claim)
                del claims[event.claim_id]
            elif event.kind == "worker_crashed":
                log.error(
                    "worker_crashed",
                    claim=claim.id,
                    shard=claim.shard,
                    unresolved=len(claim.unresolved()),
                )
                del claims[event.claim_id]
                for job, outcome in queue.release_crashed(claim):
                    _settle_failure(job, outcome, CRASH_ERROR, tracer, log)
        if landed is not None:
            landed.notify_all()
    return progressed


def drain(queue: ShardedJobQueue, pool, on_result=None, tracer=None) -> None:
    """Pump until the queue is idle; failed jobs end parked in ``queue.dead``."""
    claims: dict[int, ShardClaim] = {}
    while not queue.is_idle():
        pump(queue, pool, claims, on_result=on_result, tracer=tracer)
