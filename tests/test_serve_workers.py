"""Tests for repro.serve.workers: pools, purity, crashes, dead letters.

The load-bearing assertions here are the bit-identity ones: any pool, any
worker count, and any crash/requeue schedule must produce byte-for-byte
the payloads of N sequential :func:`~repro.service.jobs.run_job` calls.
"""

import os

import pytest

from repro.serve.queue import ShardedJobQueue
from repro.serve.workers import (
    CrashPoint,
    InlineWorkerPool,
    ProcessWorkerPool,
    drain,
    execute_shard,
    make_pool,
)
from repro.service.jobs import JobSpec, run_job


def _specs(count: int, nodes: int = 8) -> list[JobSpec]:
    from repro.datasets import random_connected_gnp

    return [
        JobSpec(
            graph=random_connected_gnp(nodes, 0.4, seed=seed),
            restarts=1,
            maxiter=6,
            label=f"g{nodes}-s{seed}",
        )
        for seed in range(count)
    ]


def _poison_spec() -> JobSpec:
    """Fails fast and deterministically: 27 qubits with fields exceeds the
    exact-engine cap, so run_job raises EngineLimitError in milliseconds."""
    from repro.datasets import problem_instance

    return JobSpec(
        problem=problem_instance("mis", 27, seed=0),
        restarts=1,
        maxiter=4,
        label="poison",
    )


def _reference(specs) -> dict[str, dict]:
    return {spec.fingerprint: run_job(spec).to_payload() for spec in specs}


def _drain_with(pool, specs, max_attempts: int = 3) -> tuple[dict, dict, ShardedJobQueue]:
    queue = ShardedJobQueue(max_attempts=max_attempts)
    for spec in specs:
        assert queue.admit([spec])[0].accepted
    got = {}
    try:
        drain(
            queue,
            pool,
            on_result=lambda spec, r: got.__setitem__(r.fingerprint, r.to_payload()),
        )
    finally:
        pool.close()
    deads = {fingerprint: record["error"] for fingerprint, record in queue.dead.items()}
    return got, deads, queue


class TestInlinePool:
    def test_drain_matches_sequential_run_job(self):
        specs = _specs(6)
        got, deads, queue = _drain_with(InlineWorkerPool(), specs)
        assert deads == {}
        assert got == _reference(specs)
        assert queue.is_idle()

    def test_duplicate_submissions_execute_once(self):
        specs = _specs(4)
        queue = ShardedJobQueue()
        for spec in specs + specs:  # every job submitted twice
            assert queue.admit([spec])[0].accepted
        executed = []
        pool = InlineWorkerPool()
        drain(queue, pool, on_result=lambda spec, r: executed.append(r.fingerprint))
        pool.close()
        assert sorted(executed) == sorted(spec.fingerprint for spec in specs)

    def test_poison_pill_dead_letters_and_rest_completes(self):
        specs = _specs(3)
        pill = _poison_spec()
        got, deads, queue = _drain_with(InlineWorkerPool(), specs + [pill])
        assert set(got) == {spec.fingerprint for spec in specs}
        assert list(deads) == [pill.fingerprint]
        assert "EngineLimitError" in deads[pill.fingerprint]
        assert queue.dead[pill.fingerprint]["attempts"] == 3

    def test_unevaluable_job_fails_without_reducing(self, reduce_calls, unevaluable_spec):
        got, deads, queue = _drain_with(InlineWorkerPool(), [unevaluable_spec])
        fingerprint = unevaluable_spec.fingerprint
        assert got == {}
        assert "EngineLimitError" in deads[fingerprint]
        assert queue.dead[fingerprint]["attempts"] == 3
        assert reduce_calls == []  # dispatch fails first, on every attempt

    def test_shard_shares_the_pipeline_reduction(self, reduce_calls):
        graph = _specs(1)[0].graph
        specs = [JobSpec(graph=graph, restarts=1, maxiter=m) for m in (5, 6, 7)]
        assert len({spec.instance_fingerprint for spec in specs}) == 1
        events = list(execute_shard(7, specs))
        assert len(reduce_calls) == 1
        expected = _reference(specs)
        assert [event.kind for event in events] == ["result"] * 3 + ["shard_done"]
        assert all(event.claim_id == 7 for event in events)
        for event in events[:-1]:
            assert event.result.to_payload() == expected[event.fingerprint]


class TestProcessPool:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_n_workers_bit_identical_to_sequential(self, workers):
        # The 32-job manifest of the acceptance bar: 1, 2, and 4 workers
        # must all merge byte-for-byte with sequential execution.
        specs = _specs(32)
        got, deads, _ = _drain_with(ProcessWorkerPool(workers=workers), specs)
        assert deads == {}
        assert got == _reference(specs)

    def test_killed_worker_loses_nothing_duplicates_nothing(self, tmp_path):
        specs = _specs(12)
        victim = sorted(spec.fingerprint for spec in specs)[5]
        token = tmp_path / "crash-token"
        token.touch()
        fault = CrashPoint(fingerprints=frozenset({victim}), token=str(token))
        landed = []
        queue = ShardedJobQueue(max_attempts=3)
        for spec in specs:
            queue.admit([spec])
        pool = ProcessWorkerPool(workers=2, fault=fault)
        try:
            drain(queue, pool, on_result=lambda spec, r: landed.append(r))
            assert queue.crashes == 1
            assert pool.respawns == 1
            assert not token.exists()  # the crash actually tripped
        finally:
            pool.close()
        # exactly once each, bit-identical to sequential
        fingerprints = [r.fingerprint for r in landed]
        assert sorted(fingerprints) == sorted(s.fingerprint for s in specs)
        assert {r.fingerprint: r.to_payload() for r in landed} == _reference(specs)

    def test_worker_killing_pill_dead_letters_after_attempts(self, tmp_path):
        # a job that kills its worker on *every* attempt: each crash costs
        # one attempt, so the queue parks it instead of crash-looping
        specs = _specs(2)
        pill = _poison_spec()
        tokens = []
        for attempt in range(2):
            token = tmp_path / f"token-{attempt}"
            token.touch()
            tokens.append(str(token))
        queue = ShardedJobQueue(max_attempts=2)
        for spec in specs + [pill]:
            queue.admit([spec])
        # crash-once per token; chain two faults by swapping after respawn
        # is overkill -- a single CrashPoint plus the pill's own failure
        # exercises the same budget, so use crashes for attempt 1 and the
        # EngineLimitError for attempt 2.
        fault = CrashPoint(fingerprints=frozenset({pill.fingerprint}), token=tokens[0])
        pool = ProcessWorkerPool(workers=1, fault=fault)
        try:
            drain(queue, pool)
        finally:
            pool.close()
        assert queue.crashes == 1
        assert list(queue.dead) == [pill.fingerprint]
        assert queue.dead[pill.fingerprint]["attempts"] == 2
        assert set(queue.completed) == {spec.fingerprint for spec in specs}

    def test_worker_killed_while_idle_is_replaced_on_dispatch(self):
        # SIGKILL between claims: the death is only observable when the
        # pool next talks to the worker -- dispatch must turn it into a
        # crash/requeue instead of raising through the pump.
        import signal

        specs = _specs(4)
        pool = ProcessWorkerPool(workers=1)
        try:
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            pool._pool[0].process.join(timeout=10)  # death is now observable
            queue = ShardedJobQueue(max_attempts=3)
            for spec in specs:
                queue.admit([spec])
            got = {}
            drain(queue, pool, on_result=lambda s, r: got.__setitem__(r.fingerprint, r.to_payload()))
            assert pool.respawns >= 1
            assert queue.crashes >= 1
        finally:
            pool.close()
        assert got == _reference(specs)

    def test_worker_pids_are_live_children(self):
        pool = ProcessWorkerPool(workers=2)
        try:
            pids = pool.worker_pids()
            assert len(pids) == 2
            assert all(pid and pid != os.getpid() for pid in pids)
        finally:
            pool.close()


class TestMakePool:
    def test_defaults(self):
        pool = make_pool(None, 1)
        assert isinstance(pool, InlineWorkerPool)
        pool.close()
        pool = make_pool(None, 2)
        assert isinstance(pool, ProcessWorkerPool)
        pool.close()

    def test_inline_is_single_worker(self):
        with pytest.raises(ValueError):
            make_pool("inline", 2)
        with pytest.raises(ValueError):
            make_pool("bogus", 1)
        with pytest.raises(ValueError):
            ProcessWorkerPool(workers=0)
