"""Tests for repro.serve.queue: sharding, dedup, backpressure, dead letters."""

import pytest

from repro.serve.queue import CRASH_ERROR, ShardedJobQueue
from repro.service.jobs import JobResult, JobSpec
from repro.service.store import ResultStore


def _spec(seed: int, nodes: int = 8) -> JobSpec:
    from repro.datasets import random_connected_gnp

    return JobSpec(
        graph=random_connected_gnp(nodes, 0.4, seed=seed),
        restarts=1,
        maxiter=6,
        label=f"g{nodes}-s{seed}",
    )


def _fake_result(spec: JobSpec) -> JobResult:
    """A result pinned to the spec's fingerprint, no execution needed."""
    return JobResult(
        fingerprint=spec.fingerprint,
        instance_fingerprint=spec.instance_fingerprint,
        gammas=[0.1],
        betas=[0.2],
        expectation=1.0,
        best_value=2.0,
        bits=[0] * spec.num_qubits,
        reduced_qubits=spec.num_qubits,
        and_ratio=0.9,
        reduced_evaluations=1,
        original_evaluations=0,
    )


class TestSharding:
    def test_shard_is_fingerprint_prefix(self):
        queue = ShardedJobQueue(shard_prefix=2)
        spec = _spec(0)
        assert queue.shard_of(spec.fingerprint) == spec.fingerprint[:2]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ShardedJobQueue(shard_prefix=0)
        with pytest.raises(ValueError):
            ShardedJobQueue(high_water=0)
        with pytest.raises(ValueError):
            ShardedJobQueue(max_attempts=0)

    def test_claims_are_whole_shards_in_fingerprint_order(self):
        queue = ShardedJobQueue(shard_prefix=1)
        specs = [_spec(seed) for seed in range(8)]
        for spec in specs:
            assert queue.admit([spec])[0].status == "queued"
        seen = {}
        while True:
            claim = queue.claim_next()
            if claim is None:
                break
            fingerprints = [job.fingerprint for job in claim.jobs]
            assert fingerprints == sorted(fingerprints)
            assert all(fp.startswith(claim.shard) for fp in fingerprints)
            seen[claim.shard] = fingerprints
        assert sum(len(v) for v in seen.values()) == len(specs)
        assert set().union(*seen.values()) == {spec.fingerprint for spec in specs}


class TestDedup:
    def test_inflight_duplicate_is_not_enqueued_twice(self):
        queue = ShardedJobQueue()
        spec = _spec(0)
        assert queue.admit([spec])[0].status == "queued"
        second = queue.admit([spec])[0]
        assert second.status == "inflight"
        assert queue.depth == 1
        assert queue.deduped == 1
        # still inflight while claimed/running
        claim = queue.claim_next()
        assert claim is not None
        assert queue.admit([spec])[0].status == "inflight"
        assert queue.state_of(spec.fingerprint) == "running"

    def test_stored_duplicate_is_served_from_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        spec = _spec(0)
        store.put(_fake_result(spec))
        queue = ShardedJobQueue(store=store)
        outcome = queue.admit([spec])[0]
        assert outcome.status == "cached"
        assert outcome.result is not None
        assert outcome.result.fingerprint == spec.fingerprint
        assert queue.depth == 0

    def test_session_completion_dedups_without_a_store(self):
        queue = ShardedJobQueue()
        spec = _spec(0)
        queue.admit([spec])
        claim = queue.claim_next()
        queue.complete(claim, spec.fingerprint, _fake_result(spec))
        queue.finish_claim(claim)
        outcome = queue.admit([spec])[0]
        assert outcome.status == "cached"
        assert queue.state_of(spec.fingerprint) == "completed"


class TestAdmission:
    def test_one_store_read_per_new_fingerprint(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        stored, fresh = _spec(0), _spec(1)
        store.put(_fake_result(stored))
        queue = ShardedJobQueue(store=store)
        manifest = [stored, fresh, stored, fresh]
        outcomes = queue.admit(manifest)
        assert [o.status for o in outcomes] == ["cached", "queued", "cached", "inflight"]
        assert outcomes[0].result.source == "store"
        assert (store.hits, store.misses) == (1, 1)
        assert (queue.submitted, queue.deduped) == (4, 3)  # a store hit dedups too
        # the session remembers both answers: a later ticket reads nothing
        assert [o.status for o in queue.admit(manifest)] == ["cached", "inflight"] * 2
        assert (store.hits, store.misses) == (1, 1)
        assert queue.result(stored.fingerprint).source == "store"
        assert queue.stats()["completed"] == 0  # store hits are not completions

    def test_all_or_nothing_backpressure(self):
        queue = ShardedJobQueue(high_water=2)
        outcomes = queue.admit([_spec(0), _spec(1), _spec(2)])
        assert [o.status for o in outcomes] == ["rejected"] * 3
        assert all(o.retry_after >= 1.0 for o in outcomes)
        assert queue.depth == 0 and queue.rejected == 3
        # repeats count once against the mark
        outcomes = queue.admit([_spec(0), _spec(1), _spec(0)])
        assert [o.status for o in outcomes] == ["queued", "queued", "inflight"]
        # a manifest adding no new work is never refused
        assert queue.admit([_spec(1)])[0].status == "inflight"

    def test_bank_served_results_are_not_written_through(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        queue = ShardedJobQueue(store=store)
        exact, banked = _spec(0), _spec(1)
        queue.admit([exact, banked])
        claims = [queue.claim_next() for _ in range(2)]
        for claim in filter(None, claims):
            for job in claim.jobs:
                result = _fake_result(job.spec)
                if job.spec is banked:
                    result.source = "bank"
                queue.complete(claim, job.fingerprint, result)
        assert store.fingerprints() == [exact.fingerprint]
        assert queue.result(banked.fingerprint).source == "bank"

    def test_restart_wait_clocks_restamps_pending_jobs(self):
        queue = ShardedJobQueue()
        queue.admit([_spec(0)])
        (job,) = queue._pending[queue.shard_of(_spec(0).fingerprint)].values()
        admitted = job.enqueued_ns
        queue.restart_wait_clocks()
        assert job.enqueued_ns > admitted


class TestBackpressure:
    def test_rejection_past_high_water_with_retry_after(self):
        queue = ShardedJobQueue(high_water=2)
        assert queue.admit([_spec(0)])[0].accepted
        assert queue.admit([_spec(1)])[0].accepted
        outcome = queue.admit([_spec(2)])[0]
        assert outcome.status == "rejected"
        assert not outcome.accepted
        assert outcome.retry_after is not None and outcome.retry_after > 1.0
        assert queue.rejected == 1
        assert queue.depth == 2

    def test_retry_after_grows_with_backlog(self):
        queue = ShardedJobQueue(high_water=4)
        empty = queue.retry_after()
        for seed in range(4):
            queue.admit([_spec(seed)])
        assert queue.retry_after() > empty

    def test_draining_the_queue_reopens_it(self):
        queue = ShardedJobQueue(high_water=1)
        first = _spec(0)
        queue.admit([first])
        assert queue.admit([_spec(1)])[0].status == "rejected"
        claim = queue.claim_next()
        queue.complete(claim, first.fingerprint, _fake_result(first))
        queue.finish_claim(claim)
        assert queue.admit([_spec(1)])[0].status == "queued"


class TestRetriesAndDeadLetters:
    def test_failure_requeues_until_attempts_exhausted(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        queue = ShardedJobQueue(store=store, max_attempts=3)
        spec = _spec(0)
        queue.admit([spec])
        for attempt in range(1, 3):
            claim = queue.claim_next()
            assert claim is not None
            assert queue.fail(claim, spec.fingerprint, "boom") == "requeued"
            queue.finish_claim(claim)
            assert queue.state_of(spec.fingerprint) == "pending"
        claim = queue.claim_next()
        assert queue.fail(claim, spec.fingerprint, "boom") == "dead"
        queue.finish_claim(claim)
        assert queue.state_of(spec.fingerprint) == "dead"
        assert queue.dead[spec.fingerprint]["attempts"] == 3
        # the dead letter is durable and visible to a fresh store
        assert spec.fingerprint in ResultStore(tmp_path / "store.jsonl").dead_letters()
        assert queue.is_idle()

    def test_crash_release_requeues_unfinished_only(self):
        queue = ShardedJobQueue(shard_prefix=1, max_attempts=3)
        specs = [_spec(seed) for seed in range(8)]
        for spec in specs:
            queue.admit([spec])
        claim = queue.claim_next()
        finished = claim.jobs[0]
        queue.complete(claim, finished.fingerprint, _fake_result(finished.spec))
        outcomes = queue.release_crashed(claim)
        requeued = [job for job, outcome in outcomes if outcome == "requeued"]
        assert [job for job, _ in outcomes] == claim.jobs[1:]
        assert queue.crashes == 1
        assert finished.fingerprint in queue.completed
        assert {job.fingerprint for job in requeued} == {
            job.fingerprint for job in claim.jobs[1:]
        }
        assert all(job.attempts == 1 for job in requeued)
        # the shard is claimable again and still holds the requeued jobs
        reshard = None
        while True:
            next_claim = queue.claim_next()
            if next_claim is None:
                break
            if next_claim.shard == claim.shard:
                reshard = next_claim
        if requeued:
            assert reshard is not None
            assert {job.fingerprint for job in reshard.jobs} >= {
                job.fingerprint for job in requeued
            }

    def test_repeated_crashes_dead_letter_the_poison_pill(self):
        queue = ShardedJobQueue(max_attempts=2)
        spec = _spec(0)
        queue.admit([spec])
        claim = queue.claim_next()
        assert [o for _, o in queue.release_crashed(claim)] == ["requeued"]  # first crash
        claim = queue.claim_next()
        assert [o for _, o in queue.release_crashed(claim)] == ["dead"]  # second crash: parked
        assert queue.state_of(spec.fingerprint) == "dead"
        assert queue.dead[spec.fingerprint]["error"] == CRASH_ERROR
        assert queue.is_idle()


    def test_a_resubmitted_dead_letter_reads_queued_then_completed(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        queue = ShardedJobQueue(store=store, max_attempts=1)
        spec = _spec(0)
        queue.admit([spec])
        claim = queue.claim_next()
        assert queue.fail(claim, spec.fingerprint, "boom") == "dead"
        queue.finish_claim(claim)
        assert queue.state_of(spec.fingerprint) == "dead"
        assert queue.admit([spec])[0].status == "queued"
        assert queue.depth == 1
        assert queue.state_of(spec.fingerprint) == "pending"
        assert queue.dead == {} and queue.stats()["dead"] == 0
        claim = queue.claim_next()
        assert queue.state_of(spec.fingerprint) == "running"
        queue.complete(claim, spec.fingerprint, _fake_result(spec))
        queue.finish_claim(claim)
        assert queue.state_of(spec.fingerprint) == "completed"
        # the later success retires the durable dead letter too
        assert ResultStore(tmp_path / "store.jsonl").dead_letters() == {}


class TestPriority:
    def test_cheapest_shard_claims_first(self):
        queue = ShardedJobQueue(shard_prefix=1)
        cheap = [_spec(seed, nodes=6) for seed in range(3)]
        costly = [_spec(seed, nodes=14) for seed in range(3)]
        for spec in cheap + costly:
            queue.admit([spec])
        cheap_shards = {queue.shard_of(s.fingerprint) for s in cheap}
        costly_shards = {queue.shard_of(s.fingerprint) for s in costly}
        only_costly = costly_shards - cheap_shards
        if not only_costly:  # all shards mixed: nothing to rank
            pytest.skip("fingerprints landed in overlapping shards")
        order = []
        while True:
            claim = queue.claim_next()
            if claim is None:
                break
            order.append(claim.shard)
        mixed_or_cheap = [s for s in order if s not in only_costly]
        assert order[: len(mixed_or_cheap)] == mixed_or_cheap

    def test_claimed_shard_is_exclusive_until_finished(self):
        queue = ShardedJobQueue(shard_prefix=1)
        spec = _spec(0)
        queue.admit([spec])
        claim = queue.claim_next()
        # a new job in the same shard must wait for the open claim
        sibling = next(
            _spec(seed)
            for seed in range(1, 200)
            if queue.shard_of(_spec(seed).fingerprint) == claim.shard
        )
        queue.admit([sibling])
        held = []
        while True:
            other = queue.claim_next()
            if other is None:
                break
            assert other.shard != claim.shard
            held.append(other)
        queue.complete(claim, spec.fingerprint, _fake_result(spec))
        queue.finish_claim(claim)
        reopened = queue.claim_next()
        assert reopened is not None and reopened.shard == claim.shard
        assert [job.fingerprint for job in reopened.jobs] == [sibling.fingerprint]

    def test_stats_shape(self):
        queue = ShardedJobQueue(high_water=7)
        queue.admit([_spec(0)])
        stats = queue.stats()
        assert stats["depth"] == 1
        assert stats["high_water"] == 7
        assert stats["submitted"] == 1
        assert stats["shards"]
