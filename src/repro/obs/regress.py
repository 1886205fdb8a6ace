"""Noise-aware benchmark regression gating (``red-qaoa bench compare``).

One bench schema: the ``jobbench`` record
(``.jobbench/records/<workload>-seed<s>-trace<t>.json``).

- :func:`extract_metrics` reads one untraced record: the metrics that the
  nearest ``BENCHMARK.json`` above it declares under ``end_to_end``, each
  named ``<workload>/<metric>`` with the declared ``better`` and
  ``bound``, plus the record's **host** key ``(stamp.cpu, stamp.nproc)``.
- :func:`compare` keeps a *last-seen baseline* per ``(host, metric)`` --
  a record is only ever compared with one from the same host -- and flags
  direction-adjusted relative drops beyond the **noise floor**: the
  declared ``bound`` (:data:`DEFAULT_FLOOR` without one), or
  ``max(5%, 2 * cv)`` for a baseline with at least three samples
  (flight-recorder history).

``red-qaoa bench record`` appends one run's records as one line of a
trajectory JSONL; ``red-qaoa bench compare`` exits nonzero on any
regression (zero with ``--advisory``).  Hostless trajectory lines (the
PR 3-6 history) and flight-recorder history compare only among themselves.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

__all__ = [
    "DEFAULT_FLOOR",
    "REGRESS_SCHEMA",
    "append_record",
    "compare",
    "extract_metrics",
    "load_records",
    "make_record",
    "metrics_from_history",
    "noise_floor",
]

REGRESS_SCHEMA = 2  # v2: jobbench metrics (better, bound) and a host per line

#: Relative noise floor of a metric that declares no bound.
DEFAULT_FLOOR = 0.25

DECLARATION = "BENCHMARK.json"


def _declaration(path: Path) -> dict:
    """The first ``BENCHMARK.json`` found walking up from ``path``'s directory."""
    for directory in path.resolve().parents:
        candidate = directory / DECLARATION
        if candidate.is_file():
            return json.loads(candidate.read_text(encoding="utf-8"))
    raise ValueError(f"{path}: no {DECLARATION} in any directory above it")


def extract_metrics(path: str | os.PathLike) -> tuple[tuple, dict[str, dict]]:
    """``(host, metrics)`` of one untraced jobbench record (see module docstring)."""
    path = Path(path)
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(record, dict) or not {"workload", "metrics"} <= record.keys():
        raise ValueError(f"{path}: not a jobbench record")
    if record.get("trace"):
        raise ValueError(f"{path}: a traced record has no end-to-end metric")
    problems = record.get("checks", {}).get("problems")
    if problems:
        raise ValueError(f"{path}: its checks failed, so it measured a broken program: {problems[0]}")
    declared = _declaration(path)["end_to_end"]
    workload, stamp = record["workload"], record.get("stamp", {})
    metrics: dict[str, dict] = {}
    for spec in declared:
        value = (record["metrics"].get(spec["name"]) or {}).get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"{path}: {spec['name']} has no finite value")
        metrics[f"{workload}/{spec['name']}"] = {
            "value": float(value),
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
        }
    return (stamp.get("cpu"), stamp.get("nproc")), metrics


def metrics_from_history(records: list[dict]) -> dict[str, dict]:
    """Serve throughput (with dispersion samples) from flight-recorder records."""
    from repro.obs.history import HistorySeries

    series = HistorySeries(records)
    points = series.counter_rate("redqaoa_jobs_completed_total")
    rates = [rate for _, rate in points if rate > 0]
    if not rates:
        return {}
    mean = sum(rates) / len(rates)
    return {"serve_jobs_per_sec": {"value": mean, "better": "higher", "samples": rates}}


# -- records ------------------------------------------------------------------


def make_record(label: str, paths, unix: float | None = None) -> dict:
    """One trajectory line from the jobbench records of one host."""
    hosts: set[tuple] = set()
    metrics: dict[str, dict] = {}
    for path in paths:
        host, extracted = extract_metrics(path)
        hosts.add(host)
        metrics.update(extracted)
    if len(hosts) > 1:
        raise ValueError(f"records from {len(hosts)} hosts in one line: {sorted(map(str, hosts))}")
    record = {
        "schema": REGRESS_SCHEMA,
        "kind": "bench",
        "label": label,
        "host": list(hosts.pop()) if hosts else None,
        "sources": [Path(path).name for path in paths],
        "metrics": metrics,
    }
    if unix is not None:
        record["unix"] = unix
    return record


def append_record(path: str | os.PathLike, record: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


def load_records(paths) -> list[dict]:
    """``{label, host, metrics}`` records from trajectory JSONL, flight-recorder
    history and jobbench records, in the given (chronological) order.

    A ``.jsonl`` file yields its ``kind: "bench"`` lines in file order;
    flight-recorder ``kind: "snapshot"`` lines in the same file are
    aggregated into one hostless throughput record.  Any other file is one
    jobbench record, read through :func:`extract_metrics`.
    """
    records: list[dict] = []
    for path in map(Path, paths):
        if path.suffix != ".jsonl":
            host, metrics = extract_metrics(path)
            records.append({"label": path.stem, "host": host, "metrics": metrics})
            continue
        snapshots: list[dict] = []
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue  # blank or truncated tail, tolerated like every reader here
            if not isinstance(payload, dict):
                continue
            if payload.get("kind") == "bench":
                host = payload.get("host")
                records.append({
                    "label": payload.get("label", path.stem),
                    "host": tuple(host) if host else None,
                    "metrics": payload.get("metrics", {}),
                })
            elif payload.get("kind") == "snapshot":
                snapshots.append(payload)
        metrics = metrics_from_history(snapshots) if snapshots else {}
        if metrics:
            records.append({"label": path.stem, "host": None, "metrics": metrics})
    return records


# -- comparison ---------------------------------------------------------------


def noise_floor(baseline: dict, default_floor: float | None = None) -> float:
    """The relative drop tolerated before a metric counts as regressed.

    ``max(5%, 2 * cv)`` when the baseline carries at least three samples,
    else its declared ``bound`` (:data:`DEFAULT_FLOOR` without one) --
    widened to ``default_floor`` when the caller set a larger one.
    """
    floor = float(baseline.get("bound", DEFAULT_FLOOR))
    samples = baseline.get("samples") or []
    if len(samples) >= 3:
        mean = sum(samples) / len(samples)
        if mean > 0:
            variance = sum((s - mean) ** 2 for s in samples) / (len(samples) - 1)
            floor = max(0.05, 2.0 * math.sqrt(variance) / mean)
    if default_floor is not None:
        floor = max(floor, float(default_floor))
    return floor


def compare(records: list[dict], default_floor: float | None = None) -> dict:
    """Gate a chronological record sequence against per-(host, metric) baselines.

    Records carry disjoint metric sets, so the baseline for each metric is
    the *last record from the same host that reported it*.  Returns
    ``{"ok", "rows", "regressions"}``; a row regresses when its
    direction-adjusted relative change drops below ``-noise_floor``.
    """
    baselines: dict[tuple, tuple[str, dict]] = {}
    rows: list[dict] = []
    for record in records:
        label = record.get("label", "?")
        host = record.get("host")
        for name, metric in sorted(record.get("metrics", {}).items()):
            value = float(metric["value"])
            seen = baselines.get((host, name))
            baselines[(host, name)] = (label, metric)
            if seen is None:
                continue
            base_label, base_metric = seen
            base_value = float(base_metric["value"])
            if base_value != 0:
                change = (value - base_value) / abs(base_value)
            else:
                change = 0.0 if value == base_value else math.copysign(1.0, value)
            better = metric.get("better", "higher")
            if better == "lower":
                change = -change
            floor = noise_floor(base_metric, default_floor)
            rows.append({
                "metric": name,
                "label": label,
                "baseline_label": base_label,
                "baseline": base_value,
                "value": value,
                "change": change,
                "floor": floor,
                "better": better,
                "regressed": change < -floor,
            })
    regressions = [row for row in rows if row["regressed"]]
    return {"ok": not regressions, "rows": rows, "regressions": regressions}
