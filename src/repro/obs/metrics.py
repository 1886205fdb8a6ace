"""Process-local metrics registry: counters, gauges, histograms.

The instrument panel of the serving stack.  Every layer (annealer,
lightcone engine, plan/reduction caches, result store, sharded queue,
worker pool) increments named metrics on a process-local
:class:`MetricsRegistry`; the default registry (:data:`REGISTRY`) is what
all built-in instrumentation uses.

Three design constraints shape the API:

- **cheap**: a counter increment is one float add behind an attribute
  lookup -- hot paths (one increment per lightcone batch, per SA run, per
  store access) pay nanoseconds, and instrumented code holds metric
  handles at module level so nothing is looked up per call;
- **mergeable**: :meth:`MetricsRegistry.snapshot` produces a plain dict
  and :meth:`MetricsRegistry.merge` folds one snapshot into another
  registry.  Worker processes ship :func:`snapshot_delta` diffs back over
  their result pipes and the drain pump merges them, so daemon-side
  metrics cover the whole worker pool without shared memory;
- **exposable**: :meth:`MetricsRegistry.render_prometheus` emits the
  Prometheus text format (``# HELP`` / ``# TYPE`` / samples, cumulative
  histogram buckets), so a daemon's ``metrics`` protocol verb can feed a
  scraper without any new dependency.

Metrics are a pure side channel: nothing here touches RNG streams,
fingerprints, or results, so instrumented runs are bit-identical to
uninstrumented ones (asserted in the observability test suite).
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "JOB_BUCKETS",
    "KERNEL_BUCKETS",
    "MetricsRegistry",
    "REGISTRY",
    "STAGE_BUCKETS",
    "get_registry",
    "quantile_from_buckets",
    "snapshot_delta",
]

#: Default histogram bucket upper bounds, in seconds: spans the range from
#: sub-millisecond kernel calls to minute-scale jobs.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Per-metric bucket presets.  One shared default squeezes sub-millisecond
#: kernel calls and multi-second jobs into one bucket each, which makes
#: quantile estimates step functions; sizing buckets to the metric keeps
#: roughly geometric resolution across its real dynamic range.
KERNEL_BUCKETS = (  # sub-millisecond kernel work: plan builds, SA proposals
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 0.001, 0.0025,
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)
STAGE_BUCKETS = (  # pipeline stages and queue waits: ~ms to tens of seconds
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)
JOB_BUCKETS = (  # whole jobs: tens of ms to many minutes
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0,
)


class Counter:
    """A monotonically increasing value (events, totals)."""

    kind = "counter"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """A point-in-time value that can move both ways (depths, sizes)."""

    kind = "gauge"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """A distribution over fixed buckets (latencies, durations).

    ``buckets`` holds ascending upper bounds; observations beyond the last
    bound land in the implicit ``+Inf`` bucket.  ``counts`` is per-bucket
    (not cumulative -- the Prometheus renderer accumulates on the way
    out, which keeps :func:`snapshot_delta` a plain elementwise subtract).
    """

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram {name} needs strictly ascending buckets")
        self.name = name
        self.help = help
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # final slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1


class MetricsRegistry:
    """Named metrics with get-or-create registration.

    Thread-safe for registration and snapshot/merge (one lock); metric
    mutation itself is a single float/int operation and needs no lock
    under CPython for the accuracy class of a monitoring counter.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    # -- registration --------------------------------------------------------

    def _register(self, factory, name: str, help: str, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory(name, help, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, factory):
                raise TypeError(
                    f"metric {name!r} is a {metric.kind}, not a {factory.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def histogram(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, buckets=buckets)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str):
        return self._metrics.get(name)

    def reset(self) -> None:
        """Zero every metric (tests); registrations are kept."""
        with self._lock:
            for metric in self._metrics.values():
                if isinstance(metric, Histogram):
                    metric.counts = [0] * (len(metric.buckets) + 1)
                    metric.sum = 0.0
                    metric.count = 0
                else:
                    metric.value = 0.0

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-dict view of every metric, mergeable and JSON-safe."""
        with self._lock:
            counters, gauges, histograms = {}, {}, {}
            for name, metric in self._metrics.items():
                if isinstance(metric, Counter):
                    counters[name] = metric.value
                elif isinstance(metric, Gauge):
                    gauges[name] = metric.value
                else:
                    histograms[name] = {
                        "buckets": list(metric.buckets),
                        "counts": list(metric.counts),
                        "sum": metric.sum,
                        "count": metric.count,
                    }
            return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge(self, snapshot: dict) -> None:
        """Fold one snapshot into this registry.

        Counters and histograms accumulate (the snapshot should therefore
        be a *delta* when the source keeps running, see
        :func:`snapshot_delta`); gauges take the incoming value, which is
        the freshest observation of a point-in-time quantity.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, data in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name, buckets=data["buckets"])
            if tuple(histogram.buckets) != tuple(data["buckets"]):
                continue  # incompatible shape: drop rather than corrupt
            for index, count in enumerate(data["counts"]):
                histogram.counts[index] += int(count)
            histogram.sum += float(data["sum"])
            histogram.count += int(data["count"])

    # -- exposition ----------------------------------------------------------

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format, one block per metric."""
        lines: list[str] = []
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                if metric.help:
                    lines.append(f"# HELP {name} {metric.help}")
                lines.append(f"# TYPE {name} {metric.kind}")
                if isinstance(metric, Histogram):
                    cumulative = 0
                    for bound, count in zip(metric.buckets, metric.counts):
                        cumulative += count
                        lines.append(f'{name}_bucket{{le="{_format(bound)}"}} {cumulative}')
                    cumulative += metric.counts[-1]
                    lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
                    lines.append(f"{name}_sum {_format(metric.sum)}")
                    lines.append(f"{name}_count {metric.count}")
                else:
                    lines.append(f"{name} {_format(metric.value)}")
        return "\n".join(lines) + "\n"


def _format(value: float) -> str:
    """Integral floats print as integers; everything else as repr."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def snapshot_delta(current: dict, previous: dict) -> dict:
    """The change from ``previous`` to ``current`` (both snapshots).

    Counters and histograms subtract elementwise; gauges are left out (a
    gauge delta is meaningless, and a forked process's gauges are stale
    copies of its parent's that must never clobber them).  The result is
    what a worker ships after each shard so the pump can ``merge`` it
    without double counting across shards.
    """
    counters = {}
    for name, value in current.get("counters", {}).items():
        change = value - previous.get("counters", {}).get(name, 0.0)
        if change:
            counters[name] = change
    histograms = {}
    for name, data in current.get("histograms", {}).items():
        prior = previous.get("histograms", {}).get(
            name, {"counts": [0] * len(data["counts"]), "sum": 0.0, "count": 0}
        )
        count = data["count"] - prior["count"]
        if not count:
            continue
        histograms[name] = {
            "buckets": list(data["buckets"]),
            "counts": [a - b for a, b in zip(data["counts"], prior["counts"])],
            "sum": data["sum"] - prior["sum"],
            "count": count,
        }
    return {"counters": counters, "histograms": histograms}


def quantile_from_buckets(buckets, counts, q: float) -> float | None:
    """Estimate the ``q`` quantile from per-bucket counts.

    Linear interpolation within the containing bucket (the Prometheus
    ``histogram_quantile`` convention); observations in the ``+Inf``
    bucket clamp to the last finite bound.  Returns ``None`` for an empty
    histogram.  Accepts per-bucket counts with or without the trailing
    ``+Inf`` slot.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    counts = list(counts)
    total = sum(counts)
    if total == 0:
        return None
    target = q * total
    cumulative = 0.0
    lower = 0.0
    for bound, count in zip(buckets, counts):
        if count and cumulative + count >= target:
            fraction = (target - cumulative) / count
            return lower + (float(bound) - lower) * fraction
        cumulative += count
        lower = float(bound)
    return float(buckets[-1])  # +Inf bucket: clamp to the last finite bound


#: The process-local default registry all built-in instrumentation uses.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY
