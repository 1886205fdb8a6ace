#!/usr/bin/env python3
"""Dashboards & health study: flight recorder, watchdog, top, bench gate.

Walks layer two of ``repro.obs`` end to end, in one process:

1. start a :class:`ServeDaemon` with a flight recorder
   (``history_path=``) and an aggressive stuck-shard watchdog, and run a
   small campaign through it;
2. poll the new ``health`` protocol verb while work is in flight and
   print the verdict with its per-check detail;
3. SIGKILL a worker mid-run and watch the verdict flip ``ok`` ->
   ``degraded`` -> back to ``ok`` once the pool respawns -- while every
   result stays bit-identical to the sequential oracle;
4. render one ``red-qaoa top`` frame against the live daemon;
5. shut down, then read the flight-recorder ring back into time series
   (throughput from counter deltas, queue-depth curve);
6. feed the recorded history plus a synthetic "regressed" benchmark
   through the noise-aware ``bench compare`` gate.

Usage::

    python examples/health_study.py [--nodes 10] [--count 8] [--workers 2]
"""

import argparse
import contextlib
import os
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.datasets import suite_manifest
from repro.obs.history import HistorySeries
from repro.obs.regress import compare, metrics_from_history
from repro.obs.top import Top
from repro.serve import ServeClient, ServeDaemon, wait_for_socket
from repro.service.campaign import manifest_specs
from repro.service.jobs import run_job


def wait_for(predicate, timeout: float = 30.0, poll: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll)
    raise TimeoutError("condition not met in time")


def run_live_study(client, daemon, manifest: dict, args) -> None:
    """Everything that needs the daemon up: health, kill, top, purity."""
    print(f"=== campaign: {args.count} jobs, {args.workers} workers ===")
    ticket = client.submit(manifest)["ticket"]

    report = client.health()["health"]
    print(f"health while busy: {report['status']}")
    for name, status in sorted(report["checks"].items()):
        print(f"  {name}: {status}")

    print("\n=== SIGKILL a worker mid-run ===")
    victim = client.status()["workers"]["pids"][0]
    os.kill(victim, signal.SIGKILL)
    print(f"killed worker pid {victim}")
    degraded = wait_for(
        lambda: (r := client.health()["health"])["status"] != "ok" and r
    )
    tripped = [n for n, s in degraded["checks"].items() if s != "ok"]
    print(f"verdict: {degraded['status']}  tripped: {', '.join(tripped)}")
    for reason in degraded["reasons"]:
        print(f"  ! {reason['detail']}")

    final = client.wait(ticket, timeout=600)
    assert final["counts"] == {"done": args.count}, final["counts"]
    recovered = wait_for(
        lambda: (r := client.health()["health"])["status"] == "ok" and r
    )
    print(f"after respawn + drain: {recovered['status']}")

    print("\n=== one `red-qaoa top` frame against the live daemon ===")
    top = Top(daemon.socket_path, color=sys.stdout.isatty())
    top.frame()  # prime the rate window
    time.sleep(0.3)
    print(top.frame(), end="")

    print("\n=== purity: every result equals the sequential oracle ===")
    results = {job["fingerprint"]: job["result"] for job in final["jobs"]}
    for spec in manifest_specs(manifest):
        oracle = run_job(spec)
        got = results[spec.fingerprint]
        assert got["gammas"] == oracle.gammas, spec.label
        assert got["expectation"] == oracle.expectation, spec.label
    print("bit-identical: True")


def post_mortem(history_path: Path) -> None:
    """Read the flight-recorder ring back and run the bench gate on it."""
    print("\n=== flight-recorder ring -> time series ===")
    series = HistorySeries.load(history_path)
    print(f"snapshots: {len(series.records)}  restarts: {series.restarts}")
    rates = series.counter_rate("redqaoa_jobs_completed_total")
    if rates:
        peak = max(rate for _, rate in rates)
        print(f"peak throughput: {peak:.2f} jobs/s over {len(rates)} intervals")
    depth = series.gauge_series("redqaoa_queue_depth")
    if depth:
        print(f"queue depth curve: {[int(v) for _, v in depth[:12]]} ...")

    print("\n=== bench gate: recorded history vs a synthetic regression ===")
    baseline = {
        "label": "recorded",
        "metrics": metrics_from_history(series.records),
    }
    jobs_per_sec = baseline["metrics"]["serve_jobs_per_sec"]["value"]
    regressed = {
        "label": "regressed",
        "metrics": {
            "serve_jobs_per_sec": {"value": jobs_per_sec * 0.3, "better": "higher"}
        },
    }
    outcome = compare([baseline, regressed])
    for row in outcome["rows"]:
        flag = "REGRESSED" if row["regressed"] else "ok"
        print(
            f"  {row['metric']}: {row['baseline']:.2f} -> {row['value']:.2f} "
            f"({row['change'] * 100:+.1f}% vs floor {row['floor'] * 100:.0f}%) {flag}"
        )
    assert not outcome["ok"], "a -70% throughput drop must trip the gate"
    print("gate verdict: regression caught")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=10)
    parser.add_argument("--count", type=int, default=8)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    manifest = suite_manifest(
        "maxcut",
        count=args.count,
        num_qubits=args.nodes,
        seed=args.seed,
        restarts=2,
        maxiter=20,
    )

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        history_path = tmp / "history.jsonl"
        daemon = ServeDaemon(
            socket_path=tmp / "serve.sock",
            store_path=tmp / "results.jsonl",
            workers=args.workers,
            pool="process",
            history_path=history_path,
            history_interval=0.2,
            stuck_after=30.0,
            health_window=5.0,
        )
        thread = threading.Thread(
            target=daemon.serve_forever,
            kwargs={"install_signal_handlers": False},
            daemon=True,
        )
        thread.start()
        wait_for_socket(daemon.socket_path)
        client = ServeClient(daemon.socket_path, timeout=600)

        try:
            run_live_study(client, daemon, manifest, args)
        finally:
            with contextlib.suppress(Exception):
                client.shutdown()
            thread.join(timeout=60)

        post_mortem(history_path)


if __name__ == "__main__":
    main()
