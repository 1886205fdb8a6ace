"""Tests for the health monitor (repro.obs.health) and the ``health`` verb.

The acceptance scenario at the bottom drives a live daemon: SIGKILL a
worker mid-run with a tiny test-injected stuck-shard deadline, watch the
``health`` verb flip ok -> degraded with machine-readable reasons, then
recover to ok after respawn + requeue -- with the job results still
bit-identical to untraced sequential execution.
"""

import contextlib
import os
import signal
import threading
import time

import pytest

from repro.datasets import random_connected_gnp
from repro.obs.health import (
    HEALTH_DEGRADED,
    HEALTH_FAILING,
    HEALTH_OK,
    HealthMonitor,
)
from repro.serve.client import ServeClient, ServeError, wait_for_socket
from repro.serve.daemon import ServeDaemon
from repro.serve.queue import ShardClaim, ShardedJobQueue
from repro.service.campaign import manifest_specs
from repro.service.jobs import JobSpec, run_job


class FakePool:
    def __init__(self, states):
        self.states = states
        self.kicked = []

    def worker_states(self):
        return self.states

    def kick(self, claim_id):
        self.kicked.append(claim_id)
        return True


class FakeQueue:
    def __init__(self):
        self.depth = 0
        self.num_running = 0
        self.completed = {}
        self.dead = {}
        self.crashes = 0
        self.requeues = 0
        self.parked = 0


def _alive(worker_id=0, claim=None):
    return {"id": worker_id, "pid": 1000 + worker_id, "alive": True, "claim": claim}


def _dead(worker_id=0):
    return {"id": worker_id, "pid": 1000 + worker_id, "alive": False, "claim": None}


def _monitor(queue=None, pool=None, claims=None, **kwargs):
    return HealthMonitor(
        queue if queue is not None else FakeQueue(),
        pool if pool is not None else FakePool([_alive()]),
        claims if claims is not None else {},
        **kwargs,
    )


def _stalled_claim(claim_id=1, age_seconds=10.0):
    """A claim whose last progress stamp is ``age_seconds`` in the past."""
    stamp = time.perf_counter_ns() - int(age_seconds * 1e9)
    claim = ShardClaim(id=claim_id, shard="a", jobs=[], claimed_ns=stamp,
                       progress_ns=stamp)
    claim.unresolved = lambda: ["sentinel-job"]  # non-empty: work outstanding
    return claim


class TestHealthMonitor:
    def test_healthy_system_is_ok(self):
        report = _monitor().check()
        assert report.status == HEALTH_OK and report.ok
        assert report.reasons == []
        assert set(report.checks) == {
            "workers", "stuck_shards", "incidents", "dead_letters", "requeue_rate",
        }
        assert all(value == HEALTH_OK for value in report.checks.values())

    def test_report_to_dict_is_json_shaped(self):
        payload = _monitor().check().to_dict()
        assert payload["status"] == HEALTH_OK
        assert isinstance(payload["checks"], dict)
        assert isinstance(payload["reasons"], list)

    def test_dead_worker_degrades_with_pids(self):
        report = _monitor(pool=FakePool([_alive(0), _dead(1)])).check()
        assert report.status == HEALTH_DEGRADED
        [reason] = [r for r in report.reasons if r["check"] == "workers"]
        assert reason["severity"] == HEALTH_DEGRADED
        assert reason["dead_pids"] == [1001]

    def test_no_workers_with_backlog_is_failing(self):
        queue = FakeQueue()
        queue.depth = 4
        report = _monitor(queue=queue, pool=FakePool([_dead(0), _dead(1)])).check()
        assert report.status == HEALTH_FAILING
        assert report.checks["workers"] == HEALTH_FAILING

    def test_no_workers_without_work_is_not_failing(self):
        report = _monitor(pool=FakePool([_dead(0)])).check()
        assert report.checks["workers"] != HEALTH_FAILING

    def test_stuck_claim_degrades_and_counts_once(self):
        claims = {1: _stalled_claim(1, age_seconds=2.0)}
        monitor = _monitor(claims=claims, stuck_after=1.0)
        from repro.obs.health import _STUCK_TOTAL

        before = _STUCK_TOTAL.value
        report = monitor.check()
        assert report.status == HEALTH_DEGRADED
        [reason] = [r for r in report.reasons if r["check"] == "stuck_shards"]
        assert reason["claim"] == 1 and reason["shard"] == "a"
        assert reason["stalled_seconds"] >= 1.0
        monitor.check()  # same stuck claim: flagged, not re-counted
        assert _STUCK_TOTAL.value == before + 1

    def test_very_stale_claim_escalates_to_failing(self):
        claims = {1: _stalled_claim(1, age_seconds=10.0)}
        report = _monitor(claims=claims, stuck_after=1.0).check()
        assert report.checks["stuck_shards"] == HEALTH_FAILING  # 10x the deadline

    def test_fresh_claim_is_not_stuck(self):
        claims = {1: _stalled_claim(1, age_seconds=0.0)}
        report = _monitor(claims=claims, stuck_after=60.0).check()
        assert report.checks["stuck_shards"] == HEALTH_OK

    def test_watchdog_kick_is_opt_in(self):
        claims = {7: _stalled_claim(7, age_seconds=10.0)}
        pool = FakePool([_alive()])
        _monitor(pool=pool, claims=claims, stuck_after=1.0).check()
        assert pool.kicked == []
        pool = FakePool([_alive()])
        _monitor(pool=pool, claims={7: _stalled_claim(7, age_seconds=10.0)},
                 stuck_after=1.0, requeue_stuck=True).check()
        assert pool.kicked == [7]

    def test_incident_memory_degrades_then_expires(self):
        queue = FakeQueue()
        monitor = _monitor(queue=queue, incident_window=0.15)
        assert monitor.check().status == HEALTH_OK
        queue.crashes += 1  # the pump observed a worker death
        report = monitor.check()
        assert report.status == HEALTH_DEGRADED
        [reason] = [r for r in report.reasons if r["check"] == "incidents"]
        assert reason["crashes"] == 1
        time.sleep(0.2)  # past the window the verdict recovers
        assert monitor.check().status == HEALTH_OK

    def test_every_parking_is_an_incident_across_resubmission(self):
        queue = ShardedJobQueue(max_attempts=1)
        monitor = _monitor(queue=queue, incident_window=60.0)
        first, second = (
            JobSpec(graph=random_connected_gnp(8, 0.4, seed=seed), restarts=1, maxiter=6)
            for seed in (0, 1)
        )

        def park(spec):
            queue.admit([spec])
            claim = queue.claim_next()
            queue.fail(claim, spec.fingerprint, "boom")
            queue.finish_claim(claim)

        park(first)
        monitor.check()
        park(second)
        park(first)  # resubmitted: its dead record is retired, then parked again
        [reason] = [r for r in monitor.check().reasons if r["check"] == "incidents"]
        assert reason["dead"] == 3

    def test_dead_letter_rate_threshold(self):
        queue = FakeQueue()
        queue.completed = {f"f{i}": None for i in range(9)}
        queue.dead = {"poison": {}}
        monitor = _monitor(queue=queue, incident_window=0.01)
        monitor.check()
        time.sleep(0.05)  # let the dead-letter *incident* age out
        report = monitor.check()
        assert report.checks["dead_letters"] == HEALTH_DEGRADED
        [reason] = [r for r in report.reasons if r["check"] == "dead_letters"]
        assert reason["rate"] == pytest.approx(0.1)

    def test_requeue_rate_threshold(self):
        queue = FakeQueue()
        queue.completed = {f"f{i}": None for i in range(7)}
        queue.requeues = 3
        monitor = _monitor(queue=queue, incident_window=0.01)
        monitor.check()
        time.sleep(0.05)
        assert monitor.check().checks["requeue_rate"] == HEALTH_DEGRADED

    def test_rate_checks_wait_for_min_samples(self):
        # one early crash must not poison a daemon's lifetime verdict
        queue = FakeQueue()
        queue.completed = {"a": None, "b": None}
        queue.requeues = 2  # 50% of a tiny sample
        queue.dead = {"c": {}}
        monitor = _monitor(queue=queue, incident_window=0.01)
        monitor.check()
        time.sleep(0.05)
        report = monitor.check()
        assert report.checks["requeue_rate"] == HEALTH_OK
        assert report.checks["dead_letters"] == HEALTH_OK

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            _monitor(stuck_after=0)
        with pytest.raises(ValueError):
            _monitor(incident_window=0)


# -- live daemon acceptance ----------------------------------------------------


def _manifest(count=4, nodes=8):
    return {
        "schema": 1,
        "defaults": {"restarts": 1, "maxiter": 6},
        "jobs": [{"kind": "maxcut", "nodes": nodes, "seed": i} for i in range(count)],
    }


@contextlib.contextmanager
def _daemon(tmp_path, **kwargs):
    kwargs.setdefault("store_path", tmp_path / "store.jsonl")
    daemon = ServeDaemon(socket_path=tmp_path / "serve.sock", **kwargs)
    thread = threading.Thread(
        target=daemon.serve_forever,
        kwargs={"install_signal_handlers": False},
        daemon=True,
    )
    thread.start()
    wait_for_socket(daemon.socket_path)
    client = ServeClient(daemon.socket_path)
    try:
        yield daemon, client
    finally:
        if not daemon._stopped:
            with contextlib.suppress(OSError, ServeError):
                client.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive(), "daemon failed to stop"


def _wait_health(client, predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    reply = client.health()
    while not predicate(reply):
        if time.monotonic() >= deadline:
            return reply
        time.sleep(0.05)
        reply = client.health()
    return reply


class TestHealthVerbLive:
    def test_idle_daemon_reports_ok(self, tmp_path):
        with _daemon(tmp_path, workers=1) as (daemon, client):
            reply = client.health()
            assert reply["ok"]
            assert reply["health"]["status"] == HEALTH_OK
            assert reply["health"]["reasons"] == []
            assert reply["events"] == []

    def test_status_carries_daemon_identity(self, tmp_path):
        with _daemon(tmp_path, workers=1) as (daemon, client):
            status = client.status()
            assert status["pid"] == os.getpid()  # in-process daemon thread
            assert status["started_unix"] == pytest.approx(time.time(), abs=120)
            assert status["uptime"] >= 0
            states = status["workers"]["states"]
            assert len(states) == 1 and states[0]["alive"]

    def test_sigkill_degrades_then_recovers_bit_identical(self, tmp_path):
        """The ISSUE acceptance scenario, end to end."""
        manifest = _manifest(count=4)
        specs = manifest_specs(manifest)
        with _daemon(
            tmp_path,
            workers=2,
            pool="process",
            stuck_after=0.15,  # test-injected deadline: any working shard trips it
            health_window=1.0,
        ) as (daemon, client):
            assert client.health()["health"]["status"] == HEALTH_OK

            ticket = client.submit(manifest)["ticket"]
            victim = client.status()["workers"]["pids"][0]
            os.kill(victim, signal.SIGKILL)

            degraded = _wait_health(
                client, lambda r: r["health"]["status"] != HEALTH_OK
            )
            assert degraded["health"]["status"] in (HEALTH_DEGRADED, HEALTH_FAILING)
            checks = degraded["health"]["checks"]
            tripped = {
                name
                for name, verdict in checks.items()
                if verdict != HEALTH_OK
            }
            # the kill shows up as a crash incident, a dead worker, or a
            # stalled shard past the injected deadline -- all with reasons
            assert tripped & {"incidents", "workers", "stuck_shards", "requeue_rate"}
            assert all(
                reason["detail"] for reason in degraded["health"]["reasons"]
            )

            final = client.wait(ticket, timeout=300)
            assert final["counts"] == {"done": 4}

            recovered = _wait_health(
                client,
                lambda r: r["health"]["status"] == HEALTH_OK,
                timeout=60.0,
            )
            assert recovered["health"]["status"] == HEALTH_OK
            assert client.status()["workers"]["respawns"] >= 1

            # determinism: the crash-and-requeue path changed no result bit
            by_fp = {job["fingerprint"]: job["result"] for job in final["jobs"]}
            for spec in specs:
                expected = run_job(spec)
                got = by_fp[spec.fingerprint]
                assert got["gammas"] == expected.gammas
                assert got["betas"] == expected.betas
                assert got["expectation"] == expected.expectation

    def test_crash_events_surface_in_health_reply(self, tmp_path):
        import io

        from repro.obs.log import EventLog

        manifest = _manifest(count=4)
        with _daemon(
            tmp_path,
            workers=2,
            pool="process",
            health_window=30.0,
            log=EventLog(level="error", stream=io.StringIO()),
        ) as (daemon, client):
            ticket = client.submit(manifest)["ticket"]
            victim = client.status()["workers"]["pids"][0]
            os.kill(victim, signal.SIGKILL)
            client.wait(ticket, timeout=300)
            # worker_crashed when the victim held a claim; if the kill
            # raced a shard boundary, the respawn event still surfaces
            crash_events = {"worker_crashed", "worker_respawned"}
            reply = _wait_health(
                client,
                lambda r: any(
                    e["event"] in crash_events for e in r.get("events", [])
                ),
                timeout=30.0,
            )
            names = {event["event"] for event in reply["events"]}
            assert names & crash_events
