"""Tests for repro.serve daemon + protocol + client over a real unix socket."""

import contextlib
import json
import socket
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve.client import Backpressure, ServeClient, ServeError, wait_for_socket
from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import OPS, ProtocolError, decode_line, decode_reply, encode
from repro.serve.queue import CRASH_ERROR
from repro.service.campaign import manifest_specs
from repro.service.jobs import run_job
from repro.service.store import ResultStore


def _manifest(count: int = 3, nodes: int = 8, seed: int = 0) -> dict:
    return {
        "schema": 1,
        "defaults": {"restarts": 1, "maxiter": 6},
        "jobs": [
            {"kind": "maxcut", "nodes": nodes, "seed": seed + index}
            for index in range(count)
        ],
    }


_POISON_MANIFEST = {
    "schema": 1,
    "jobs": [{"kind": "mis", "nodes": 27, "seed": 0, "restarts": 1, "maxiter": 4}],
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


class TestProtocol:
    def test_encode_decode_round_trip(self):
        line = encode({"op": "status"})
        assert line.endswith(b"\n")
        assert decode_line(line) == {"op": "status"}

    def test_rejects_garbage_and_unknown_ops(self):
        with pytest.raises(ProtocolError):
            decode_line(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_line(b'{"op": "explode"}\n')
        with pytest.raises(ProtocolError):
            decode_line(b'{"op": "submit"}\n')  # missing manifest
        with pytest.raises(ProtocolError):
            decode_line(b'{"op": "poll"}\n')  # missing ticket


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=12,
)
# Mappings shaped like requests, so the property also reaches the op checks.
_REQUESTS = st.dictionaries(
    st.sampled_from(["op", "manifest", "ticket"]) | st.text(max_size=4),
    st.sampled_from(OPS) | _JSON,
)


@settings(max_examples=300, deadline=None)
@given(line=st.binary() | st.one_of(_JSON, _REQUESTS).map(json.dumps))
@example(line=b"[" * 100000)
@example(line="1" * 5000)
def test_property_any_line_decodes_to_a_request_or_refuses(line):
    """Every line either decodes to a request with a known op or raises
    ProtocolError -- never another exception, which would kill the
    connection without a reply."""
    try:
        message = decode_line(line)
    except ProtocolError:
        return
    assert isinstance(message, dict) and message["op"] in OPS


class TestLifecycle:
    def test_submit_poll_and_results_match_sequential(self, tmp_path):
        manifest = _manifest(count=3)
        specs = manifest_specs(manifest)
        with _daemon(tmp_path, workers=1) as (daemon, client):
            reply = client.submit(manifest)
            assert [job["status"] for job in reply["jobs"]] == ["queued"] * 3
            final = client.wait(reply["ticket"], timeout=120)
            assert final["done"] and final["counts"] == {"done": 3}
            by_fp = {job["fingerprint"]: job["result"] for job in final["jobs"]}
            for spec in specs:
                expected = run_job(spec)
                got = by_fp[spec.fingerprint]
                assert got["gammas"] == expected.gammas
                assert got["betas"] == expected.betas
                assert got["expectation"] == expected.expectation
        # completed results survived the daemon in the store
        survivor = ResultStore(tmp_path / "store.jsonl")
        assert len(survivor) == 3

    def test_four_workers_bit_identical_to_one(self, tmp_path):
        manifest = _manifest(count=8)

        def run_with(workers, directory):
            directory.mkdir()
            with _daemon(directory, workers=workers) as (daemon, client):
                ticket = client.submit(manifest)["ticket"]
                final = client.wait(ticket, timeout=300)
                assert final["counts"] == {"done": 8}
                return {job["fingerprint"]: job["result"] for job in final["jobs"]}

        assert run_with(1, tmp_path / "w1") == run_with(4, tmp_path / "w4")

    def test_resubmission_is_served_from_cache(self, tmp_path):
        manifest = _manifest(count=2)
        with _daemon(tmp_path) as (daemon, client):
            first = client.submit(manifest)
            client.wait(first["ticket"], timeout=120)
            again = client.submit(manifest)
            assert [job["status"] for job in again["jobs"]] == ["cached"] * 2
            final = client.poll(again["ticket"])
            assert final["done"] and final["counts"] == {"done": 2}

    def test_store_survives_restart(self, tmp_path):
        manifest = _manifest(count=2)
        with _daemon(tmp_path) as (daemon, client):
            client.wait(client.submit(manifest)["ticket"], timeout=120)
        # a fresh daemon on the same store recomputes nothing
        with _daemon(tmp_path) as (daemon, client):
            reply = client.submit(manifest)
            assert [job["status"] for job in reply["jobs"]] == ["cached"] * 2
            assert daemon.queue.stats()["completed"] == 0  # nothing executed

    def test_each_new_fingerprint_reads_the_store_once(self, tmp_path):
        """k new fingerprints (one entry repeated) move the store by (0, k)
        misses and the store counters by the same; a fresh daemon on the
        same store answers them with exactly k hits."""
        from repro.obs.metrics import REGISTRY

        def counts(daemon):
            return (
                daemon.store.hits,
                daemon.store.misses,
                REGISTRY.get("redqaoa_store_hits_total").value,
                REGISTRY.get("redqaoa_store_misses_total").value,
            )

        manifest = _manifest(count=3)
        manifest["jobs"].append(dict(manifest["jobs"][0]))  # an exact repeat
        with _daemon(tmp_path) as (daemon, client):
            h0, m0, mh0, mm0 = counts(daemon)
            ticket = client.submit(manifest)["ticket"]
            assert counts(daemon) == (h0, m0 + 3, mh0, mm0 + 3)
            assert daemon.queue.stats()["submitted"] == 4
            assert daemon.queue.stats()["deduped"] == 1
            client.wait(ticket, timeout=120)
            client.submit(manifest)  # this session's results: no store read
            assert counts(daemon) == (h0, m0 + 3, mh0, mm0 + 3)
        with _daemon(tmp_path) as (daemon, client):
            h0, m0, mh0, mm0 = counts(daemon)
            reply = client.submit(manifest)
            assert [job["status"] for job in reply["jobs"]] == ["cached"] * 4
            assert counts(daemon) == (h0 + 3, m0, mh0 + 3, mm0)
            final = client.poll(reply["ticket"])
            assert final["counts"] == {"done": 4}
            assert {job["result"]["source"] for job in final["jobs"]} == {"store"}

    def test_stream_pushes_every_result_then_done(self, tmp_path):
        manifest = _manifest(count=3)
        with _daemon(tmp_path) as (daemon, client):
            ticket = client.submit(manifest)["ticket"]
            events = list(client.stream(ticket))
            assert [e["event"] for e in events[:-1]] == ["result"] * 3
            assert events[-1] == {
                "event": "done",
                "ticket": ticket,
                "counts": {"done": 3},
            }

    def test_status_reports_queue_workers_and_store(self, tmp_path):
        with _daemon(tmp_path, workers=1) as (daemon, client):
            status = client.status()
            assert status["ok"]
            assert status["workers"]["count"] == 1
            assert status["workers"]["pids"]
            assert status["queue"]["high_water"] == daemon.queue.high_water
            assert status["store"]["results"] == 0


class TestRefusals:
    def test_backpressure_surfaces_as_retry_after(self, tmp_path):
        # high_water=1 and a 3-job manifest: atomic admission rejects it
        with _daemon(tmp_path, high_water=1) as (daemon, client):
            with pytest.raises(Backpressure) as excinfo:
                client.submit(_manifest(count=3))
            assert excinfo.value.retry_after >= 1.0
            assert daemon.queue.depth == 0  # all-or-nothing: nothing admitted
            # a manifest that fits still goes through
            reply = client.submit(_manifest(count=1))
            client.wait(reply["ticket"], timeout=120)

    def test_bad_manifest_and_unknown_ticket(self, tmp_path):
        with _daemon(tmp_path) as (daemon, client):
            with pytest.raises(ServeError, match="bad manifest"):
                client.submit({"jobs": []})
            with pytest.raises(ServeError, match="unknown ticket"):
                client.poll("t-999999")

    def test_bad_job_config_admits_nothing(self, tmp_path):
        with _daemon(tmp_path) as (daemon, client):
            for bad in ({"p": 0}, {"p": -1}, {"p": "2"}, {"restarts": "2"}, {"maxiter": 0},
                        {"shots": None}, {"warm_start": "yes"}, {"and_ratio_threshold": "x"}):
                manifest = _manifest(count=2)
                manifest["jobs"][1].update(bad)
                with pytest.raises(ServeError, match=f"bad manifest: job 1: {next(iter(bad))}"):
                    client.submit(manifest)
                assert daemon.queue.depth == 0
                assert daemon.tickets == {}

    def test_deeply_nested_line_gets_an_error_reply_and_the_connection_lives(self, tmp_path):
        with _daemon(tmp_path) as (daemon, client):
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
                conn.settimeout(30)
                conn.connect(str(daemon.socket_path))
                with conn.makefile("rwb") as stream:
                    stream.write(b"[" * 100000 + b"\n" + encode({"op": "status"}))
                    stream.flush()
                    refused = decode_reply(stream.readline())
                    status = decode_reply(stream.readline())
            assert refused["ok"] is False and "not valid JSON" in refused["error"]
            assert status["ok"] is True and status["queue"]["depth"] == 0

    def test_drain_refuses_new_submissions(self, tmp_path):
        with _daemon(tmp_path) as (daemon, client):
            ticket = client.submit(_manifest(count=2))["ticket"]
            assert client.drain()["draining"]
            with pytest.raises(ServeError, match="draining"):
                client.submit(_manifest(count=1, seed=50))
            # already-admitted work still finishes and remains pollable
            final = client.wait(ticket, timeout=120)
            assert final["counts"] == {"done": 2}

    def test_poison_job_reports_dead_with_error(self, tmp_path):
        with _daemon(tmp_path, max_attempts=2) as (daemon, client):
            ticket = client.submit(_POISON_MANIFEST)["ticket"]
            final = client.wait(ticket, timeout=120)
            assert final["counts"] == {"dead": 1}
            entry = final["jobs"][0]
            assert entry["status"] == "dead"
            assert "EngineLimitError" in entry["error"]
            assert entry["attempts"] == 2
        # parked durably: a fresh store shows the dead letter
        survivor = ResultStore(tmp_path / "store.jsonl")
        assert len(survivor.dead_letters()) == 1


    def test_a_resubmitted_dead_letter_is_tracked_again(self, tmp_path):
        """A job parked after a worker crash and then resubmitted reads
        queued, then done, on its new ticket; no dead record is left."""
        daemon = ServeDaemon(socket_path=tmp_path / "serve.sock", max_attempts=1)
        try:
            first = daemon.submit_manifest(_manifest(count=1))["ticket"]
            daemon.queue.release_crashed(daemon.queue.claim_next())
            entry = daemon.poll_ticket(first)["jobs"][0]
            assert (entry["status"], entry["error"]) == ("dead", CRASH_ERROR)
            second = daemon.submit_manifest(_manifest(count=1))
            assert second["jobs"][0]["status"] == "queued"
            assert daemon.poll_ticket(second["ticket"])["counts"] == {"queued": 1}
            assert daemon.status()["queue"]["dead"] == 0
            while not daemon.poll_ticket(second["ticket"])["done"]:
                daemon.run_pump_once()
            for ticket in (first, second["ticket"]):
                assert daemon.poll_ticket(ticket)["counts"] == {"done": 1}
        finally:
            daemon.pool.close()


class TestShutdown:
    def test_shutdown_drains_then_exits_and_removes_socket(self, tmp_path):
        manifest = _manifest(count=2)
        daemon = ServeDaemon(
            socket_path=tmp_path / "serve.sock", store_path=tmp_path / "store.jsonl"
        )
        thread = threading.Thread(
            target=daemon.serve_forever,
            kwargs={"install_signal_handlers": False},
            daemon=True,
        )
        thread.start()
        wait_for_socket(daemon.socket_path)
        client = ServeClient(daemon.socket_path)
        ticket = client.submit(manifest)["ticket"]
        reply = client.shutdown()
        assert reply["shutting_down"]
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert not daemon.socket_path.exists()
        # everything admitted before shutdown completed and is durable
        survivor = ResultStore(tmp_path / "store.jsonl")
        assert len(survivor) == 2
        for spec in manifest_specs(manifest):
            assert survivor.get(spec.fingerprint) is not None
