"""repro.obs -- observability: tracing, metrics, logging, history, health.

The instrument panel for the whole stack.  Layer one (PR 9):

- :mod:`repro.obs.trace` -- nested span tracing on ``perf_counter_ns``
  into append-only JSONL, with worker spans shipped over result pipes and
  stitched into one complete tree per job;
- :mod:`repro.obs.metrics` -- a process-local registry of
  counters/gauges/histograms with mergeable snapshots and Prometheus
  text exposition;
- :mod:`repro.obs.log` -- leveled NDJSON event logging for daemon
  incidents (crashes, requeues, dead letters), with a recent-events ring
  and an optional size-capped rotating file sink.

Layer two, built on those primitives:

- :mod:`repro.obs.history` -- the flight recorder: periodic registry
  snapshots in a rotating size-bounded JSONL ring, read back as time
  series (rates, gauge curves, quantile estimates) across restarts;
- :mod:`repro.obs.health` -- live ok/degraded/failing verdicts over
  queue/pool/claim state (stuck-shard watchdog, liveness, incident and
  failure-rate checks), served by the daemon's ``health`` protocol verb;
- :mod:`repro.obs.top` -- the ``red-qaoa top`` terminal dashboard over
  the ``status``/``health`` verbs;
- :mod:`repro.obs.regress` -- noise-aware benchmark regression gating
  (``red-qaoa bench record/compare``) over one bench schema, the
  untraced ``jobbench`` record, plus trajectory lines and flight-recorder
  history: floors are the bounds ``BENCHMARK.json`` declares, and a
  record is compared only with baselines from the same host.

Everything here is a pure side channel: enabling any of it changes no
fingerprint, seed, or result bit.
"""

from repro.obs.health import (
    HEALTH_DEGRADED,
    HEALTH_FAILING,
    HEALTH_OK,
    HealthMonitor,
    HealthReport,
)
from repro.obs.history import (
    FlightRecorder,
    HistorySeries,
    history_files,
    load_history,
)
from repro.obs.log import EventLog, NullLog
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    snapshot_delta,
)
from repro.obs.trace import (
    Tracer,
    configure_tracing,
    disable_tracing,
    format_summary,
    get_tracer,
    install_tracer,
    load_trace,
    span,
    span_trees,
    summarize_trace,
    trace_job,
    using_tracer,
    validate_trace,
)

__all__ = [
    "Counter",
    "EventLog",
    "FlightRecorder",
    "Gauge",
    "HEALTH_DEGRADED",
    "HEALTH_FAILING",
    "HEALTH_OK",
    "HealthMonitor",
    "HealthReport",
    "Histogram",
    "HistorySeries",
    "MetricsRegistry",
    "NullLog",
    "REGISTRY",
    "Tracer",
    "history_files",
    "load_history",
    "configure_tracing",
    "disable_tracing",
    "format_summary",
    "get_registry",
    "get_tracer",
    "install_tracer",
    "load_trace",
    "snapshot_delta",
    "span",
    "span_trees",
    "summarize_trace",
    "trace_job",
    "using_tracer",
    "validate_trace",
]
