"""PR 6 serving tracking: daemon throughput and latency across worker counts.

One dedup-free manifest (16 unique weighted-MaxCut jobs, no duplicate or
isomorphic traffic -- so every measured second is real execution, not
dedup wins) is pushed through a live :class:`~repro.serve.daemon.ServeDaemon`
over its unix socket at 1, 2, and 4 process workers, measuring:

- **throughput**: submit -> all results landed (jobs/sec over the wall);
- **latency**: submit -> first streamed result, the async-serving win --
  a client sees its first answer while the rest of the manifest is still
  executing.

Emits ``.benchmarks/BENCH_pr6.json``.  Correctness asserted unconditionally: every
worker count returns bit-identical per-job results, equal to sequential
``run_job`` oracles.  The >= 1.8x 4-worker throughput floor is asserted
only when ``BENCH_STRICT`` is on *and* the machine has >= 4 CPUs --
process workers cannot beat one worker on a 1-core box, so the JSON
records ``cpu_count`` and whether the floor was checked.
"""

import os
import tempfile
import threading
import time

from _common import BENCH_DIR, header, row, run_once, write_bench
from repro.datasets import attach_weights, random_connected_gnp
from repro.serve import ServeClient, ServeDaemon, wait_for_socket
from repro.service import JobSpec, run_job

OUTPUT = BENCH_DIR / "BENCH_pr6.json"

NUM_JOBS = 16
NODES = 14
CONFIG = dict(restarts=2, maxiter=20)
WORKER_COUNTS = (1, 2, 4)


def build_specs() -> list[JobSpec]:
    """16 unique jobs: distinct instances, so nothing dedups."""
    specs = [
        JobSpec(
            graph=attach_weights(
                random_connected_gnp(NODES, 0.35, seed=seed), "uniform", seed=seed
            ),
            label=f"maxcut-s{seed}",
            seed=seed,  # the manifest path pins each job's seed too
            **CONFIG,
        )
        for seed in range(NUM_JOBS)
    ]
    assert len({spec.fingerprint for spec in specs}) == NUM_JOBS
    return specs


def _manifest() -> dict:
    # The daemon speaks manifests; regenerate the same 16 instances by seed.
    return {
        "schema": 1,
        "defaults": {"weight_dist": "uniform", **CONFIG},
        "jobs": [
            {"kind": "maxcut", "nodes": NODES, "seed": seed, "label": f"maxcut-s{seed}"}
            for seed in range(NUM_JOBS)
        ],
    }


def _run_daemon(workers: int) -> dict:
    """One fresh daemon: submit the manifest, stream, record the clock."""
    with tempfile.TemporaryDirectory() as tmp:
        daemon = ServeDaemon(
            socket_path=os.path.join(tmp, "serve.sock"),
            store_path=os.path.join(tmp, "store.jsonl"),
            workers=workers,
            pool="process",  # same pool kind at every count: honest scaling
        )
        thread = threading.Thread(
            target=daemon.serve_forever,
            kwargs={"install_signal_handlers": False},
            daemon=True,
        )
        thread.start()
        wait_for_socket(daemon.socket_path)
        client = ServeClient(daemon.socket_path, timeout=600)

        start = time.perf_counter()
        ticket = client.submit(_manifest())["ticket"]
        submitted = time.perf_counter() - start
        first_result = None
        results = {}
        for event in client.stream(ticket):
            if event["event"] == "result":
                if first_result is None:
                    first_result = time.perf_counter() - start
                results[event["fingerprint"]] = event["result"]
        seconds = time.perf_counter() - start
        client.shutdown()
        thread.join(timeout=60)
        assert len(results) == NUM_JOBS
        return {
            "workers": workers,
            "seconds": seconds,
            "jobs_per_sec": NUM_JOBS / seconds,
            "submit_seconds": submitted,
            "first_result_seconds": first_result,
            "results": results,
        }


def _result_key(fields: dict):
    return (
        tuple(fields["gammas"]),
        tuple(fields["betas"]),
        fields["expectation"],
        fields["best_value"],
        tuple(fields["bits"]),
    )


def _experiment():
    start = time.perf_counter()
    oracle = {spec.fingerprint: run_job(spec) for spec in build_specs()}
    sequential_seconds = time.perf_counter() - start

    runs = [_run_daemon(workers) for workers in WORKER_COUNTS]

    oracle_keys = {
        fp: (
            tuple(r.gammas),
            tuple(r.betas),
            r.expectation,
            None if r.best_value != r.best_value else r.best_value,
            tuple(r.bits),
        )
        for fp, r in oracle.items()
    }
    identical = all(
        {fp: _result_key(fields) for fp, fields in run["results"].items()}
        == oracle_keys
        for run in runs
    )
    cpu_count = os.cpu_count() or 1
    for run in runs:
        del run["results"]  # measured, compared, not worth persisting
        # More workers than cores measures contention, not scaling; flag
        # the row so nobody reads an oversubscribed number as a speedup.
        run["oversubscribed"] = run["workers"] > cpu_count
    honest = [run for run in runs if not run["oversubscribed"]]
    return {
        "jobs": NUM_JOBS,
        "nodes": NODES,
        "cpu_count": cpu_count,
        "sequential_seconds": sequential_seconds,
        "daemon": runs,
        # Only meaningful when the 4-worker row ran with real parallelism;
        # oversubscribed rows are excluded rather than reported as a
        # (dishonest) sub-1x "speedup".
        "speedup_4_vs_1": (
            runs[0]["seconds"] / honest[-1]["seconds"]
            if len(honest) > 1 and honest[-1]["workers"] == WORKER_COUNTS[-1]
            else None
        ),
        "bit_identical_all_worker_counts_vs_sequential": identical,
    }


def test_bench_pr6_emit(benchmark):
    results = run_once(benchmark, _experiment)
    strict = os.environ.get("BENCH_STRICT", "1") != "0"
    floor_checked = strict and (results["cpu_count"] or 1) >= 4
    results["floor_checked"] = floor_checked
    write_bench(OUTPUT, results)

    header(
        "PR6 serve daemon: 16-job dedup-free manifest over the socket",
        jobs=results["jobs"],
        nodes=results["nodes"],
        cpus=results["cpu_count"],
        output=OUTPUT.name,
    )
    row("sequential oracle", seconds=results["sequential_seconds"])
    for run in results["daemon"]:
        row(
            f"daemon {run['workers']} worker(s)"
            + (" [oversubscribed]" if run["oversubscribed"] else ""),
            seconds=run["seconds"],
            jobs_per_sec=run["jobs_per_sec"],
            first_result=run["first_result_seconds"],
        )
    if results["speedup_4_vs_1"] is not None:
        row("4w vs 1w", speedup=results["speedup_4_vs_1"])
    else:
        print(f"  note: speedup_4_vs_1 omitted -- "
              f"{results['cpu_count']} CPU(s) oversubscribe 4 workers")

    # Correctness is unconditional: worker count may change only timing.
    assert results["bit_identical_all_worker_counts_vs_sequential"]
    # Async serving means the first answer lands well before the batch is
    # done -- on every worker count, even one.
    for run in results["daemon"]:
        assert run["first_result_seconds"] < run["seconds"]
    # Issue acceptance floor: >= 1.8x at 4 workers -- only meaningful with
    # >= 4 CPUs and a quiet machine (CI sets BENCH_STRICT=0; a 1-core box
    # cannot scale process workers, so the gate prints instead of failing).
    if floor_checked:
        assert results["speedup_4_vs_1"] >= 1.8, results
    else:
        print(f"  note: 1.8x floor not enforced "
              f"(BENCH_STRICT={'on' if strict else 'off'}, "
              f"cpus={results['cpu_count']})")
