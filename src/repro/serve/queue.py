"""Fingerprint-sharded job queue with dedup, priority, and backpressure.

The serve layer's scheduling heart, and the one place a job is admitted
(:meth:`ShardedJobQueue.admit`, for the daemon and ``red-qaoa batch``
alike) and its result or failure meets the store.  Jobs land in **shards** keyed by a
fingerprint prefix (``shard_prefix`` hex characters, so 16^k shards):
fingerprints are uniform hashes, so shards balance without any placement
policy, and a job's shard is a pure function of its fingerprint -- the
same job always lands in the same shard, on any daemon, on any day.
Workers claim *whole shards* (see :mod:`repro.serve.workers`), which keeps
every scheduling decision coarse and auditable, and -- because each job's
result is a pure function of its fingerprint (the purity contract in
:mod:`repro.service.jobs`) -- provably unable to change any answer.

Scheduling policy, all deterministic:

- **priority**: claims go cheapest-shard-first by the
  :func:`~repro.analysis.runtime.estimate_pipeline_cost` model (a shard's
  priority is its cheapest pending job; ties break on shard id), so small
  jobs stream results early no matter when they were submitted;
- **dedup-on-admission**: a fingerprint already pending, running,
  completed this session, or present in the
  :class:`~repro.service.store.ResultStore` (read once per session) is
  never enqueued twice -- the submitter is told which of those it was;
- **backpressure**: a manifest whose new jobs would pass ``high_water``
  pending jobs is rejected whole with a ``retry_after`` hint instead of
  being buffered without bound -- the client backs off, the daemon never
  swells.

Completed results are written through the store unless marked
``source="bank"`` (not their fingerprint's exact answer).  Failure
handling is bounded and never wedges the queue: a failed or crashed-out
job is requeued until its attempt budget (``max_attempts``) is spent,
then **parked** as a dead-letter record (written through the store when
one is attached) and the shard moves on.  Submitting a parked job again
queues it afresh and retires its session dead record.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.analysis.runtime import estimate_pipeline_cost
from repro.obs.metrics import REGISTRY
from repro.service.jobs import JobResult, JobSpec
from repro.service.store import ResultStore

_SUBMITTED = REGISTRY.counter(
    "redqaoa_queue_submitted_total", "job submissions offered to the queue"
)
_DEDUPED = REGISTRY.counter(
    "redqaoa_queue_deduped_total", "submissions answered from cache or in-flight work"
)
_REJECTED = REGISTRY.counter(
    "redqaoa_queue_rejected_total", "submissions rejected by backpressure"
)
_COMPLETED = REGISTRY.counter("redqaoa_jobs_completed_total", "jobs completed")
_REQUEUED = REGISTRY.counter(
    "redqaoa_jobs_requeued_total", "failed or crashed-out jobs returned to a shard"
)
_DEAD = REGISTRY.counter(
    "redqaoa_jobs_dead_total", "jobs parked as dead letters"
)
_CRASHES = REGISTRY.counter(
    "redqaoa_worker_crashes_total", "worker deaths observed while holding a claim"
)
_DEPTH = REGISTRY.gauge("redqaoa_queue_depth", "pending jobs across all shards")
_RUNNING = REGISTRY.gauge("redqaoa_queue_running", "jobs in claimed shards")

__all__ = [
    "CRASH_ERROR",
    "DEFAULT_HIGH_WATER",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_SHARD_PREFIX",
    "QueuedJob",
    "ShardClaim",
    "ShardedJobQueue",
    "SubmitOutcome",
]

DEFAULT_SHARD_PREFIX = 1
DEFAULT_HIGH_WATER = 1024
DEFAULT_MAX_ATTEMPTS = 3

#: Submission outcomes (``SubmitOutcome.status``).
QUEUED = "queued"  # accepted; will execute
INFLIGHT = "inflight"  # same fingerprint already pending or running
CACHED = "cached"  # result already known (this session or the store)
REJECTED = "rejected"  # backpressure: retry after ``retry_after`` seconds

#: The error a job is charged with when its worker dies mid-claim.
CRASH_ERROR = "worker crashed while executing this shard"


@dataclass(frozen=True)
class SubmitOutcome:
    """What happened to one submitted spec."""

    status: str
    fingerprint: str
    result: JobResult | None = None  # set when status == CACHED
    retry_after: float | None = None  # set when status == REJECTED

    @property
    def accepted(self) -> bool:
        return self.status != REJECTED


@dataclass
class QueuedJob:
    """One unique fingerprint waiting in (or crashed back into) a shard.

    ``enqueued_ns`` / ``claimed_ns`` are ``perf_counter_ns`` stamps for the
    observability layer (queue-wait spans and latency histograms); they
    never influence scheduling.
    """

    spec: JobSpec
    fingerprint: str
    shard: str
    cost: float
    attempts: int = 0
    enqueued_ns: int = 0
    claimed_ns: int = 0


@dataclass
class ShardClaim:
    """A whole shard's pending jobs, handed to one worker.

    ``jobs`` is sorted by fingerprint -- the worker executes and reports
    in that order, which is what makes N workers merge bit-for-bit like
    one.  ``reductions`` optionally carries precomputed per-instance
    reductions (the batch scheduler's phase 1); absent, workers compute
    them per shard -- identical either way, reductions are pure functions
    of the instance fingerprint.
    """

    id: int
    shard: str
    jobs: list[QueuedJob]
    reductions: dict | None = None
    done: set = field(default_factory=set)  # fingerprints resolved so far
    claimed_ns: int = 0  # perf_counter_ns at claim time
    progress_ns: int = 0  # last landed/failed result (the watchdog's heartbeat)

    @property
    def specs(self) -> list[JobSpec]:
        return [job.spec for job in self.jobs]

    def job_of(self, fingerprint: str) -> QueuedJob:
        return next(job for job in self.jobs if job.fingerprint == fingerprint)

    def unresolved(self) -> list[QueuedJob]:
        return [job for job in self.jobs if job.fingerprint not in self.done]


class ShardedJobQueue:
    """Deterministic sharded queue over unique job fingerprints.

    Parameters
    ----------
    store:
        Optional :class:`~repro.service.store.ResultStore`.  Read once per
        new fingerprint on admission, written through with every exact
        completed result, and the home of dead-letter records.
    shard_prefix:
        Fingerprint hex characters that name a shard (1 -> 16 shards).
    high_water:
        Pending-job bound; submissions past it are rejected with a
        ``retry_after`` hint.
    max_attempts:
        Execution attempts (failures *or* worker crashes) before a job is
        parked as a dead letter.
    reductions:
        Optional ``{instance_fingerprint: ReductionResult}`` map attached
        to claims, so pool workers skip recomputing shared reductions.
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        shard_prefix: int = DEFAULT_SHARD_PREFIX,
        high_water: int = DEFAULT_HIGH_WATER,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        reductions: dict | None = None,
    ) -> None:
        if shard_prefix < 1:
            raise ValueError(f"shard_prefix must be >= 1, got {shard_prefix}")
        if high_water < 1:
            raise ValueError(f"high_water must be >= 1, got {high_water}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.store = store
        self.shard_prefix = shard_prefix
        self.high_water = high_water
        self.max_attempts = max_attempts
        self.reductions = reductions
        self.completed: dict[str, JobResult] = {}
        self.dead: dict[str, dict] = {}
        # fingerprint -> the store's answer (a result, or None on a miss):
        # each fingerprint costs one store read per session
        self._store_reads: dict[str, JobResult | None] = {}
        self.submitted = 0
        self.deduped = 0
        self.rejected = 0
        self.crashes = 0
        self.requeues = 0
        self.parked = 0  # dead letters ever parked; ``dead`` shrinks on resubmission
        self._pending: dict[str, dict[str, QueuedJob]] = {}  # shard -> fp -> job
        self._running: dict[str, QueuedJob] = {}  # fp -> job (claimed)
        self._claimed_shards: set[str] = set()
        self._claim_ids = itertools.count(1)

    # -- shape ---------------------------------------------------------------

    def shard_of(self, fingerprint: str) -> str:
        return fingerprint[: self.shard_prefix]

    @property
    def depth(self) -> int:
        """Pending jobs across all shards (excludes running)."""
        return sum(len(jobs) for jobs in self._pending.values())

    @property
    def num_running(self) -> int:
        return len(self._running)

    def is_idle(self) -> bool:
        """Nothing pending and nothing claimed: safe to drain/stop."""
        return self.depth == 0 and not self._running

    def state_of(self, fingerprint: str) -> str:
        """``"completed"`` / ``"dead"`` / ``"running"`` / ``"pending"`` /
        ``"unknown"`` (never seen, or only known to the store)."""
        if fingerprint in self.completed:
            return "completed"
        if fingerprint in self.dead:
            return "dead"
        if fingerprint in self._running:
            return "running"
        if fingerprint in self._pending.get(self.shard_of(fingerprint), {}):
            return "pending"
        return "unknown"

    def retry_after(self) -> float:
        """Backoff hint for rejected submissions, monotone in the backlog."""
        backlog = self.depth + self.num_running
        return round(1.0 + 4.0 * backlog / self.high_water, 3)

    def stats(self) -> dict:
        return {
            "depth": self.depth,
            "running": self.num_running,
            "completed": len(self.completed),
            "dead": len(self.dead),
            "submitted": self.submitted,
            "deduped": self.deduped,
            "rejected": self.rejected,
            "crashes": self.crashes,
            "requeues": self.requeues,
            "shards": sorted(
                shard for shard, jobs in self._pending.items() if jobs
            ),
            "shard_depths": {
                shard: len(jobs)
                for shard, jobs in sorted(self._pending.items())
                if jobs
            },
            "high_water": self.high_water,
        }

    # -- submission ----------------------------------------------------------

    def result(self, fingerprint: str) -> JobResult | None:
        """A result this session knows: a completion, else a store hit."""
        found = self.completed.get(fingerprint)
        return found if found is not None else self._store_reads.get(fingerprint)

    def admit(self, specs) -> list[SubmitOutcome]:
        """Admit a manifest all or nothing; one outcome per entry, in order.

        Dedup first (this session's results, in-flight work, then one
        store read per fingerprint never seen), then backpressure: if the
        new jobs would pass ``high_water``, every entry is ``REJECTED``.
        """
        specs = list(specs)
        self.submitted += len(specs)
        _SUBMITTED.inc(len(specs))
        new: dict[str, JobSpec] = {}
        for spec in specs:
            fingerprint = spec.fingerprint
            if fingerprint in new or fingerprint in self.completed or fingerprint in self._running:
                continue
            if fingerprint in self._pending.get(self.shard_of(fingerprint), {}):
                continue
            if fingerprint not in self._store_reads and self.store is not None:
                self._store_reads[fingerprint] = self.store.get(fingerprint)
            if self._store_reads.get(fingerprint) is None:
                new[fingerprint] = spec
        if new and self.depth + len(new) > self.high_water:
            self.rejected += len(specs)
            _REJECTED.inc(len(specs))
            retry_after = self.retry_after()
            return [SubmitOutcome(REJECTED, s.fingerprint, retry_after=retry_after) for s in specs]
        outcomes = []
        for spec in specs:
            fingerprint = spec.fingerprint
            if new.pop(fingerprint, None) is None:
                self.deduped += 1
                _DEDUPED.inc()
                found = self.result(fingerprint)
                status = INFLIGHT if found is None else CACHED
                outcomes.append(SubmitOutcome(status, fingerprint, result=found))
                continue
            self.dead.pop(fingerprint, None)  # a resubmitted dead letter runs again
            shard = self.shard_of(fingerprint)
            self._pending.setdefault(shard, {})[fingerprint] = QueuedJob(
                spec=spec,
                fingerprint=fingerprint,
                shard=shard,
                cost=estimate_pipeline_cost(
                    spec.num_qubits,
                    p=spec.p,
                    restarts=spec.restarts,
                    maxiter=spec.maxiter,
                    finetune_maxiter=spec.finetune_maxiter,
                ),
                enqueued_ns=time.perf_counter_ns(),
            )
            outcomes.append(SubmitOutcome(QUEUED, fingerprint))
        _DEPTH.set(self.depth)
        return outcomes

    def restart_wait_clocks(self) -> None:
        """Stamp every pending job as enqueued now (the batch scheduler's
        phase-1 reductions run after admission and are not queue wait)."""
        now = time.perf_counter_ns()
        for jobs in self._pending.values():
            for job in jobs.values():
                job.enqueued_ns = now

    # -- claiming ------------------------------------------------------------

    def claim_next(self) -> ShardClaim | None:
        """Claim the best unclaimed shard, whole, for one worker.

        Cheapest-first by the shard's cheapest pending job (cost-ordered
        result streaming); a claimed shard accumulates new submissions for
        its *next* claim, so two workers never hold one shard at once.
        """
        candidates = [
            (min(job.cost for job in jobs.values()), shard)
            for shard, jobs in self._pending.items()
            if jobs and shard not in self._claimed_shards
        ]
        if not candidates:
            return None
        _, shard = min(candidates)
        jobs = sorted(self._pending[shard].values(), key=lambda job: job.fingerprint)
        self._pending[shard].clear()
        claimed_ns = time.perf_counter_ns()
        for job in jobs:
            job.claimed_ns = claimed_ns
            self._running[job.fingerprint] = job
        self._claimed_shards.add(shard)
        _DEPTH.set(self.depth)
        _RUNNING.set(self.num_running)
        reductions = None
        if self.reductions is not None:
            reductions = {
                key: self.reductions[key]
                for key in {job.spec.instance_fingerprint for job in jobs}
                if key in self.reductions
            }
        return ShardClaim(
            id=next(self._claim_ids),
            shard=shard,
            jobs=jobs,
            reductions=reductions,
            claimed_ns=claimed_ns,
            progress_ns=claimed_ns,
        )

    # -- resolution ----------------------------------------------------------

    def complete(self, claim: ShardClaim, fingerprint: str, result: JobResult) -> None:
        """One job of a claim finished; an exact result is durable (when a
        store is attached) before this returns."""
        self._running.pop(fingerprint, None)
        claim.done.add(fingerprint)
        claim.progress_ns = time.perf_counter_ns()
        self.completed[fingerprint] = result
        _COMPLETED.inc()
        _RUNNING.set(self.num_running)
        if self.store is not None and result.source != "bank":
            self.store.put(result)

    def fail(self, claim: ShardClaim, fingerprint: str, error: str) -> str:
        """One job of a claim raised; :meth:`_charge` it.

        Returns ``"requeued"`` or ``"dead"``.
        """
        claim.done.add(fingerprint)
        claim.progress_ns = time.perf_counter_ns()
        return self._charge(claim.job_of(fingerprint), error)

    def finish_claim(self, claim: ShardClaim) -> None:
        """The worker reported the whole shard done; make it claimable again."""
        self._claimed_shards.discard(claim.shard)

    def release_crashed(self, claim: ShardClaim) -> list[tuple[QueuedJob, str]]:
        """The claiming worker died; :meth:`_charge` each unfinished job.

        Completed jobs stay completed (their results were already recorded
        when they streamed back) -- nothing is lost, nothing re-runs.  Each
        unfinished job is charged one attempt with :data:`CRASH_ERROR`, so
        a poison pill that kills its worker every time still dead-letters
        after ``max_attempts`` rather than crash-looping forever.  Returns
        ``(job, outcome)`` per unfinished job, in fingerprint order.
        """
        self.crashes += 1
        _CRASHES.inc()
        outcomes = [(job, self._charge(job, CRASH_ERROR)) for job in claim.unresolved()]
        self.finish_claim(claim)
        return outcomes

    def _charge(self, job: QueuedJob, error: str) -> str:
        """Charge a running job one attempt, then requeue it or, with its
        budget spent, park it; returns ``"requeued"`` or ``"dead"``."""
        self._running.pop(job.fingerprint, None)
        _RUNNING.set(self.num_running)
        job.attempts += 1
        if job.attempts >= self.max_attempts:
            self._park(job, error)
            return "dead"
        self._pending.setdefault(job.shard, {})[job.fingerprint] = job
        self.requeues += 1
        _REQUEUED.inc()
        _DEPTH.set(self.depth)
        return "requeued"

    def _park(self, job: QueuedJob, error: str) -> None:
        record = {
            "error": str(error),
            "attempts": job.attempts,
            "instance": job.spec.instance_fingerprint,
        }
        self.dead[job.fingerprint] = record
        self.parked += 1
        _DEAD.inc()
        if self.store is not None:
            self.store.park(
                job.fingerprint, job.spec.instance_fingerprint, error, job.attempts
            )
