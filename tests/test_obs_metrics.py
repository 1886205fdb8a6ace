"""Tests for repro.obs.metrics: registry, snapshots, merge, exposition."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    JOB_BUCKETS,
    KERNEL_BUCKETS,
    STAGE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    get_registry,
    quantile_from_buckets,
    snapshot_delta,
)


class TestInstruments:
    def test_counter_increments_and_refuses_decrease(self):
        counter = Counter("events_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("depth")
        gauge.set(7)
        gauge.inc()
        gauge.dec(3)
        assert gauge.value == 5.0

    def test_histogram_bucket_placement(self):
        histogram = Histogram("latency", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.1, 0.5, 5.0, 100.0):
            histogram.observe(value)
        # bisect_left: an observation equal to a bound lands in that bucket
        assert histogram.counts == [2, 1, 1, 1]
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(105.65)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(1.0, 0.5))
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", buckets=())


class TestRegistry:
    def test_get_or_create_returns_same_handle(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")
        assert registry.names() == ["a_total", "b", "c"]
        assert registry.get("a_total").kind == "counter"
        assert registry.get("missing") is None

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_reset_zeroes_but_keeps_registrations(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(4)
        registry.gauge("b").set(2)
        registry.histogram("c", buckets=(1.0,)).observe(0.5)
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"a": 0.0}
        assert snapshot["gauges"] == {"b": 0.0}
        assert snapshot["histograms"]["c"]["count"] == 0
        assert snapshot["histograms"]["c"]["counts"] == [0, 0]
        assert registry.names() == ["a", "b", "c"]

    def test_default_registry_is_module_singleton(self):
        assert get_registry() is REGISTRY


class TestSnapshotsAndMerge:
    def _loaded(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("jobs_total").inc(3)
        registry.gauge("depth").set(5)
        histogram = registry.histogram("seconds", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        return registry

    def test_snapshot_is_json_safe_and_detached(self):
        import json

        registry = self._loaded()
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # plain data only
        registry.counter("jobs_total").inc()
        assert snapshot["counters"]["jobs_total"] == 3.0  # no aliasing

    def test_merge_accumulates_counters_and_histograms(self):
        source = self._loaded()
        target = self._loaded()
        target.merge(source.snapshot())
        snapshot = target.snapshot()
        assert snapshot["counters"]["jobs_total"] == 6.0
        assert snapshot["gauges"]["depth"] == 5.0  # gauges take, not add
        assert snapshot["histograms"]["seconds"]["count"] == 4
        assert snapshot["histograms"]["seconds"]["counts"] == [2, 2, 0]
        assert snapshot["histograms"]["seconds"]["sum"] == pytest.approx(1.1)

    def test_merge_registers_unknown_metrics(self):
        target = MetricsRegistry()
        target.merge(self._loaded().snapshot())
        assert target.names() == ["depth", "jobs_total", "seconds"]
        assert target.snapshot() == self._loaded().snapshot()

    def test_merge_drops_incompatible_histogram_shapes(self):
        target = MetricsRegistry()
        target.histogram("seconds", buckets=(5.0, 50.0)).observe(1.0)
        target.merge(self._loaded().snapshot())
        histogram = target.get("seconds")
        assert tuple(histogram.buckets) == (5.0, 50.0)
        assert histogram.count == 1  # the incompatible payload was dropped

    def test_snapshot_delta_subtracts_and_omits_unchanged(self):
        registry = self._loaded()
        before = registry.snapshot()
        registry.counter("jobs_total").inc(2)
        registry.counter("untouched_total")
        registry.gauge("depth").set(9)
        registry.histogram("seconds", buckets=(0.1, 1.0)).observe(10.0)
        delta = snapshot_delta(registry.snapshot(), before)
        assert delta["counters"] == {"jobs_total": 2.0}  # zero-change omitted
        assert "gauges" not in delta  # a gauge has no delta
        assert delta["histograms"]["seconds"]["counts"] == [0, 0, 1]
        assert delta["histograms"]["seconds"]["count"] == 1

    def test_delta_with_metric_only_in_current(self):
        # a worker registers a counter mid-shard: previous knows nothing
        # about it, so the whole value is new and must ship in the delta
        registry = self._loaded()
        before = registry.snapshot()
        registry.counter("late_total").inc(7)
        registry.histogram("late_seconds", buckets=(0.1, 1.0)).observe(0.5)
        delta = snapshot_delta(registry.snapshot(), before)
        assert delta["counters"]["late_total"] == 7.0
        assert delta["histograms"]["late_seconds"]["count"] == 1
        assert delta["histograms"]["late_seconds"]["counts"] == [0, 1, 0]

    def test_delta_with_metric_only_in_previous(self):
        # the mirror case: a metric the current snapshot no longer carries
        # (a reset registry) contributes nothing rather than a negative
        before = self._loaded().snapshot()
        delta = snapshot_delta(
            {"counters": {}, "gauges": {}, "histograms": {}}, before
        )
        assert delta == {"counters": {}, "histograms": {}}

    def test_merge_tolerates_one_sided_and_partial_snapshots(self):
        target = self._loaded()
        baseline = target.snapshot()
        target.merge({})  # no sections at all
        assert target.snapshot() == baseline
        target.merge({"counters": {"other_total": 4.0}})  # counters only
        snapshot = target.snapshot()
        assert snapshot["counters"]["other_total"] == 4.0
        assert snapshot["counters"]["jobs_total"] == baseline["counters"]["jobs_total"]
        assert snapshot["histograms"] == baseline["histograms"]

    def test_delta_then_merge_round_trips(self):
        # the worker->pump shipping contract: merging a delta never
        # double-counts what the previous shard already shipped
        worker = self._loaded()
        daemon = MetricsRegistry()
        baseline = {"counters": {}, "gauges": {}, "histograms": {}}
        for _ in range(3):  # three shards on one long-lived worker
            worker.counter("jobs_total").inc()
            current = worker.snapshot()
            daemon.merge(snapshot_delta(current, baseline))
            baseline = current
        assert daemon.snapshot()["counters"] == worker.snapshot()["counters"]


class TestPrometheusExposition:
    def test_render_counters_gauges_help_and_type(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "completed jobs").inc(3)
        registry.gauge("depth").set(2.5)
        text = registry.render_prometheus()
        assert "# HELP jobs_total completed jobs" in text
        assert "# TYPE jobs_total counter" in text
        assert "\njobs_total 3\n" in text  # integral floats print as ints
        assert "# TYPE depth gauge" in text
        assert "depth 2.5" in text
        assert text.endswith("\n")

    def test_render_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.7, 9.0):
            histogram.observe(value)
        text = registry.render_prometheus()
        assert 'seconds_bucket{le="0.1"} 1' in text
        assert 'seconds_bucket{le="1"} 3' in text
        assert 'seconds_bucket{le="+Inf"} 4' in text
        assert "seconds_count 4" in text

    def test_default_buckets_are_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestBucketPresets:
    """Per-metric bucket overrides sized to each metric's dynamic range."""

    def test_presets_are_strictly_ascending(self):
        for preset in (KERNEL_BUCKETS, STAGE_BUCKETS, JOB_BUCKETS):
            assert list(preset) == sorted(set(preset))

    def test_kernel_preset_resolves_sub_millisecond_work(self):
        # the default buckets dump all sub-ms observations into one slot;
        # the kernel preset keeps several bounds below 1ms so quantiles
        # of fast kernel calls are not step functions
        assert sum(1 for b in KERNEL_BUCKETS if b < 0.001) >= 4
        assert sum(1 for b in DEFAULT_BUCKETS if b < 0.001) == 0
        histogram = Histogram("k", buckets=KERNEL_BUCKETS)
        for value in (2e-5, 8e-5, 3e-4):
            histogram.observe(value)
        p50 = quantile_from_buckets(histogram.buckets, histogram.counts, 0.5)
        assert p50 is not None and p50 < 0.001

    def test_job_preset_reaches_minute_scale(self):
        assert max(JOB_BUCKETS) >= 600.0

    def test_wired_histograms_use_their_presets(self):
        job = REGISTRY.get("redqaoa_job_seconds")
        wait = REGISTRY.get("redqaoa_queue_wait_seconds")
        assert tuple(job.buckets) == JOB_BUCKETS
        assert tuple(wait.buckets) == STAGE_BUCKETS

    def test_first_registration_owns_the_buckets(self):
        # get-or-create: a later caller with different buckets gets the
        # existing instrument back (merge relies on this to detect and
        # drop incompatible shapes instead of corrupting counts)
        registry = MetricsRegistry()
        first = registry.histogram("seconds", buckets=STAGE_BUCKETS)
        second = registry.histogram("seconds", buckets=JOB_BUCKETS)
        assert second is first
        assert tuple(second.buckets) == STAGE_BUCKETS


class TestWiredCounters:
    """The satellite contract: store/cache traffic flows through REGISTRY."""

    def test_store_get_routes_hits_and_misses_through_registry(self, tmp_path):
        from repro.service.store import ResultStore

        hits = REGISTRY.counter("redqaoa_store_hits_total")
        misses = REGISTRY.counter("redqaoa_store_misses_total")
        h0, m0 = hits.value, misses.value
        store = ResultStore(tmp_path / "store.jsonl")
        assert store.get("absent") is None
        assert (hits.value, misses.value) == (h0, m0 + 1)
        assert store.get("absent") is None
        assert (hits.value, misses.value) == (h0, m0 + 2)
        assert store.hits == 0 and store.misses == 2  # legacy view intact

    def test_batch_report_carries_store_misses(self, tmp_path):
        from repro.datasets import random_connected_gnp
        from repro.service.jobs import JobSpec
        from repro.service.scheduler import BatchScheduler
        from repro.service.store import ResultStore

        specs = [
            JobSpec(graph=random_connected_gnp(8, 0.4, seed=seed), restarts=1, maxiter=4)
            for seed in range(2)
        ]
        store = ResultStore(tmp_path / "store.jsonl")
        report = BatchScheduler(store=store).run(specs).to_dict()
        assert report["store_misses"] == 2
        assert report["store"]["misses"] >= 2
        assert report["store"]["hits"] == 0
        # second run over the same store is all hits
        store = ResultStore(tmp_path / "store.jsonl")
        again = BatchScheduler(store=store).run(specs).to_dict()
        assert again["store_misses"] == 0
        assert again["store"]["hits"] == 2
