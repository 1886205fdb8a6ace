"""Tests for repro.obs.trace: span trees, stitching, and the purity contract.

The load-bearing assertions: every job that goes through the serve stack
-- including jobs whose worker was SIGKILLed mid-flight and jobs that
dead-letter -- lands as exactly one closed span tree, and tracing never
changes a single result byte.
"""

import contextlib
import threading

import pytest

from repro.obs.trace import (
    Tracer,
    configure_tracing,
    disable_tracing,
    format_summary,
    load_trace,
    span,
    span_trees,
    summarize_trace,
    trace_job,
    using_tracer,
    validate_trace,
)
from repro.serve.client import ServeClient, ServeError, wait_for_socket
from repro.serve.daemon import ServeDaemon
from repro.serve.queue import ShardedJobQueue
from repro.serve.workers import CrashPoint, InlineWorkerPool, ProcessWorkerPool, drain
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


def _drain_traced(pool, specs, trace_path, max_attempts: int = 3):
    tracer = Tracer(trace_path)
    queue = ShardedJobQueue(max_attempts=max_attempts)
    for spec in specs:
        assert queue.admit([spec])[0].accepted
    got = {}
    try:
        drain(
            queue,
            pool,
            on_result=lambda spec, r: got.__setitem__(r.fingerprint, r.to_payload()),
            tracer=tracer,
        )
    finally:
        pool.close()
    deads = {fingerprint: record["error"] for fingerprint, record in queue.dead.items()}
    return got, deads


class TestTracerPrimitives:
    def test_collector_buffers_and_drains_nested_spans(self):
        tracer = Tracer(None)
        with tracer.bind("job-1"):
            with tracer.span("outer", color="red"):
                with tracer.span("inner"):
                    pass
        records = tracer.drain()
        assert tracer.drain() == []  # drain clears
        by_name = {record["name"]: record for record in records}
        assert by_name["inner"]["parent"] == by_name["outer"]["span"]
        assert by_name["outer"]["parent"] is None
        assert all(record["job"] == "job-1" for record in records)
        assert by_name["outer"]["attrs"] == {"color": "red"}
        assert by_name["inner"]["t0"] >= by_name["outer"]["t0"]
        assert by_name["inner"]["t1"] <= by_name["outer"]["t1"]

    def test_file_mode_appends_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path)
        with tracer.bind("j"):
            with tracer.span("work"):
                pass
        tracer.write_metrics({"counters": {"redqaoa_store_hits_total": 1.0}})
        spans, metrics = load_trace(path)
        assert [s["name"] for s in spans] == ["work"]
        assert metrics[0]["snapshot"]["counters"]["redqaoa_store_hits_total"] == 1.0

    def test_span_after_torn_tail_survives(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(path).span("first"):
            pass
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 20])  # process killed mid-span
        with Tracer(path).span("second"):
            pass
        spans, _ = load_trace(path)
        assert [s["name"] for s in spans] == ["second"]

    def test_span_ids_unique_across_tracers_in_one_process(self):
        # one file tracer + many per-job collectors coexist in the inline
        # topology; their ids must never collide or trees go recursive
        ids = set()
        for _ in range(3):
            tracer = Tracer(None)
            with tracer.span("execute"):
                pass
            ids.add(tracer.drain()[0]["span"])
        assert len(ids) == 3

    def test_global_span_is_noop_when_disabled(self):
        disable_tracing()
        with span("anything"):
            pass  # nothing to assert beyond "does not raise"
        with trace_job("fp"):
            pass

    def test_using_tracer_restores_previous(self, tmp_path):
        from repro.obs.trace import get_tracer

        outer = configure_tracing(tmp_path / "outer.jsonl")
        try:
            with using_tracer(None):
                assert get_tracer() is None
            assert get_tracer() is outer
        finally:
            disable_tracing()


class TestRecordJobStitching:
    def test_gap_spans_tile_the_root_exactly(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path)
        collector = Tracer(None)
        base = 1_000_000
        with collector.span("execute"):
            with collector.span("reduce"):
                pass
        worker_spans = collector.drain()
        # pin worker timestamps inside the synthetic job window
        root = next(s for s in worker_spans if s["name"] == "execute")
        child = next(s for s in worker_spans if s["name"] == "reduce")
        root["t0"], root["t1"] = base + 200, base + 700
        child["t0"], child["t1"] = base + 250, base + 600
        tracer.record_job(
            "fp-1",
            worker_spans,
            enqueued_ns=base,
            claimed_ns=base + 100,
            store_t0=base + 800,
            store_t1=base + 900,
            attempts=2,
        )
        spans, _ = load_trace(path)
        assert validate_trace(spans) == []
        tree = span_trees(spans)["fp-1"]
        job_root = tree["root"]
        assert job_root["name"] == "job"
        assert job_root["attrs"] == {"attempts": 2, "source": "computed"}
        children = tree["children"][job_root["span"]]
        assert [c["name"] for c in children] == [
            "queue_wait",
            "dispatch",
            "execute",
            "drain_wait",
            "store_append",
        ]
        # the children tile the root without holes
        assert children[0]["t0"] == job_root["t0"]
        for left, right in zip(children, children[1:]):
            assert left["t1"] == right["t0"]
        assert children[-1]["t1"] == job_root["t1"]
        # worker spans were re-parented and re-bound to the job
        assert next(s for s in spans if s["name"] == "execute")["job"] == "fp-1"
        assert next(s for s in spans if s["name"] == "reduce")["job"] == "fp-1"

    def test_store_hit_without_worker_spans_still_closes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path)
        tracer.record_job(
            "fp-hit",
            None,
            enqueued_ns=500,
            claimed_ns=None,
            store_t0=600,
            store_t1=700,
            source="dead",
        )
        spans, _ = load_trace(path)
        assert validate_trace(spans) == []
        tree = span_trees(spans)["fp-hit"]
        assert tree["root"]["attrs"]["source"] == "dead"

    def test_backwards_clock_gaps_clamp_to_zero(self, tmp_path):
        # claimed before enqueued (clock skew paranoia): no negative spans
        path = tmp_path / "trace.jsonl"
        Tracer(path).record_job(
            "fp-skew",
            None,
            enqueued_ns=1000,
            claimed_ns=900,
            store_t0=800,
            store_t1=1200,
        )
        spans, _ = load_trace(path)
        assert validate_trace(spans) == []
        assert all(s["t1"] >= s["t0"] for s in spans)


class TestDrainProducesCompleteTrees:
    @pytest.mark.parametrize("make", [
        lambda: InlineWorkerPool(trace=True),
        lambda: ProcessWorkerPool(workers=2, trace=True),
    ])
    def test_one_closed_tree_per_job(self, tmp_path, make):
        specs = _specs(4)
        path = tmp_path / "trace.jsonl"
        got, deads = _drain_traced(make(), specs, path)
        assert deads == {}
        spans, _ = load_trace(path)
        assert validate_trace(spans) == []
        trees = span_trees(spans)
        assert set(trees) == {spec.fingerprint for spec in specs}
        for fingerprint, tree in trees.items():
            stages = [c["name"] for c in tree["children"][tree["root"]["span"]]]
            assert stages[-1] == "store_append"
            assert "execute" in stages
            execute = next(
                s for s in tree["spans"] if s["name"] == "execute"
            )
            inner = {c["name"] for c in tree["children"].get(execute["span"], [])}
            assert "optimize" in inner  # worker pipeline spans came along

    def test_summary_coverage_meets_the_bar(self, tmp_path):
        specs = _specs(4)
        path = tmp_path / "trace.jsonl"
        _drain_traced(ProcessWorkerPool(workers=2, trace=True), specs, path)
        summary = summarize_trace(path)
        assert summary["problems"] == []
        assert summary["jobs"] == len(specs)
        assert summary["coverage"] >= 0.95  # the acceptance criterion
        assert summary["coverage"] == pytest.approx(1.0)  # by construction
        shares = sum(entry["share"] for entry in summary["stages"].values())
        assert shares == pytest.approx(summary["coverage"])
        text = format_summary(summary)
        assert "coverage: 100.0%" in text
        assert "store_append" in text

    def test_dead_letter_jobs_get_a_closed_tree_too(self, tmp_path):
        from repro.datasets import problem_instance

        pill = JobSpec(
            problem=problem_instance("mis", 27, seed=0),
            restarts=1,
            maxiter=4,
            label="poison",
        )
        specs = _specs(2)
        path = tmp_path / "trace.jsonl"
        got, deads = _drain_traced(
            InlineWorkerPool(trace=True), specs + [pill], path, max_attempts=2
        )
        assert list(deads) == [pill.fingerprint]
        spans, _ = load_trace(path)
        assert validate_trace(spans) == []
        trees = span_trees(spans)
        assert set(trees) == {s.fingerprint for s in specs} | {pill.fingerprint}
        dead_root = trees[pill.fingerprint]["root"]
        assert dead_root["attrs"]["source"] == "dead"
        assert dead_root["attrs"]["attempts"] == 2


class TestTracingIsPure:
    def test_traced_drain_bit_identical_to_untraced(self, tmp_path):
        specs = _specs(6)
        reference = {spec.fingerprint: run_job(spec).to_payload() for spec in specs}
        traced, deads = _drain_traced(
            ProcessWorkerPool(workers=2, trace=True), specs, tmp_path / "t.jsonl"
        )
        assert deads == {}
        assert traced == reference

    def test_traced_pipeline_bit_identical_to_untraced(self, tmp_path):
        spec = _specs(1)[0]
        untraced = run_job(spec).to_payload()
        tracer = configure_tracing(tmp_path / "pipe.jsonl")
        try:
            with trace_job(spec.fingerprint):
                traced = run_job(spec).to_payload()
        finally:
            disable_tracing()
        assert traced == untraced
        spans, _ = load_trace(tmp_path / "pipe.jsonl")
        assert validate_trace(spans) == []
        assert {"reduce", "optimize", "readout"} <= {s["name"] for s in spans}


@contextlib.contextmanager
def _daemon(tmp_path, **kwargs):
    kwargs.setdefault("store_path", tmp_path / "store.jsonl")
    kwargs.setdefault("trace_path", tmp_path / "trace.jsonl")
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


def _manifest(count: int, nodes: int = 8) -> dict:
    return {
        "schema": 1,
        "defaults": {"restarts": 1, "maxiter": 6},
        "jobs": [
            {"kind": "maxcut", "nodes": nodes, "seed": seed} for seed in range(count)
        ],
    }


class TestDaemonTraces:
    def test_every_submitted_job_yields_exactly_one_closed_tree(self, tmp_path):
        manifest = _manifest(4)
        with _daemon(tmp_path, workers=2) as (daemon, client):
            reply = client.submit(manifest)
            final = client.wait(reply["ticket"], timeout=300)
            assert final["counts"] == {"done": 4}
            fingerprints = {job["fingerprint"] for job in final["jobs"]}
        spans, metrics = load_trace(tmp_path / "trace.jsonl")
        assert validate_trace(spans) == []
        assert set(span_trees(spans)) == fingerprints
        # the daemon flushed a final metrics snapshot on shutdown
        # (REGISTRY is process-global, so assert a floor, not equality)
        counters = metrics[-1]["snapshot"]["counters"]
        assert counters["redqaoa_jobs_completed_total"] >= 4.0

    def test_sigkilled_worker_requeues_and_still_one_tree_per_job(self, tmp_path):
        # satellite (c): a worker SIGKILLed mid-job costs an attempt, the
        # shard requeues, and the landing attempt ships the only tree
        manifest = _manifest(6)
        from repro.service.campaign import manifest_specs

        victim = sorted(s.fingerprint for s in manifest_specs(manifest))[2]
        token = tmp_path / "crash-token"
        token.touch()
        fault = CrashPoint(fingerprints=frozenset({victim}), token=str(token))
        with _daemon(tmp_path, workers=2, fault=fault) as (daemon, client):
            reply = client.submit(manifest)
            final = client.wait(reply["ticket"], timeout=300)
            assert final["counts"] == {"done": 6}
            assert daemon.queue.crashes == 1
            assert not token.exists()  # the SIGKILL actually happened
            fingerprints = {job["fingerprint"] for job in final["jobs"]}
        spans, _ = load_trace(tmp_path / "trace.jsonl")
        assert validate_trace(spans) == []
        trees = span_trees(spans)
        assert set(trees) == fingerprints
        roots = [tree["root"] for tree in trees.values()]
        assert all(root is not None for root in roots)  # exactly one root each
        by_fp = {root["job"]: root for root in roots}
        assert by_fp[victim]["attrs"]["attempts"] == 2  # crash cost one attempt
        # shard-mates of the victim may have been requeued along with it;
        # everyone else landed first try
        assert all(root["attrs"]["attempts"] in (1, 2) for root in roots)

    def test_daemon_results_bit_identical_to_untraced_daemon(self, tmp_path):
        manifest = _manifest(3)

        def run_with(directory, **kwargs):
            directory.mkdir()
            with _daemon(directory, workers=2, **kwargs) as (daemon, client):
                ticket = client.submit(manifest)["ticket"]
                final = client.wait(ticket, timeout=300)
                assert final["counts"] == {"done": 3}
                return {job["fingerprint"]: job["result"] for job in final["jobs"]}

        traced = run_with(tmp_path / "traced")
        untraced = run_with(tmp_path / "untraced", trace_path=None)
        assert traced == untraced
