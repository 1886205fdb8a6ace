"""Command-line interface mirroring the paper artifact's experiment scripts.

The artifact appendix (paper Sec. A) ships three entry points; this module
reproduces them as subcommands of ``red-qaoa`` (or ``python -m repro.cli``):

- ``mse-noisy``  -- Sec. 6.1 / ``mse_noisy.py``: noisy-landscape MSE of the
  baseline and Red-QAOA against the ideal baseline, for an n-node graph;
- ``mse-ideal``  -- Secs. 6.2-6.3 / ``mse_ideal.py``: reduction ratios and
  ideal MSE over a benchmark dataset;
- ``end-to-end`` -- Sec. 6.4.1 / ``end_to_end.py``: Red-QAOA vs baseline
  optimization quality across restarts.

Each subcommand prints the numbers that map onto the corresponding figures.

``sweep`` goes beyond the artifact: it prices a dense random parameter
sweep on a large sparse graph through the cached
:class:`~repro.qaoa.lightcone.LightconePlan` (structure discovered once,
every point batched), printing the class/dedup statistics and the
points-per-second the plan achieves.

``solve`` runs the full reduce -> optimize -> transfer -> sample pipeline
on any workload of the Ising/QUBO problem layer
(:mod:`repro.problems`): ``--problem {maxcut,mis,vertex-cover,partition,
sk,qubo}``, with a ``--qubo-file`` escape hatch for user-supplied
matrices.

``batch`` runs a whole YAML/JSON job manifest (or a generated dataset
suite) through the :mod:`repro.service` scheduler: duplicates and
isomorphic instances are deduplicated, reductions and compiled lightcone
plans are shared, and a ``--store`` file makes the campaign resumable
across process restarts with zero recomputation.

``serve`` keeps a :mod:`repro.serve` daemon alive on a unix socket:
clients submit manifests asynchronously and poll tickets while a
deterministic worker pool (``--workers N``) executes fingerprint-sharded
jobs behind the store.  ``submit`` is the matching client: it sends a
manifest (or generated suite) to a running daemon and waits for -- or
just tickets -- the results.  ``batch --workers N`` runs the same worker
pool in-process, without a daemon.

``solve``/``sweep``/``batch`` accept ``--json`` for machine-readable
output, and ``red-qaoa --version`` reports the package version -- the
hooks batch tooling builds on.

Observability (:mod:`repro.obs`) rides along everywhere: ``--trace FILE``
on ``solve``/``sweep``/``batch``/``serve`` appends per-stage span trees
(plus a final metrics snapshot) to a JSONL trace file, ``red-qaoa trace
summarize FILE`` breaks a trace down per stage with coverage, critical
path, and cache hit rates, ``red-qaoa status --socket S`` asks a running
daemon for its queue/worker/metrics state (``--prometheus`` prints the
scrapable text format), and ``serve --log-level/--log-json`` streams
structured daemon events to stderr.  All of it is a pure side channel:
traced runs are bit-identical to untraced ones.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from contextlib import contextmanager

import numpy as np

__all__ = ["main"]


@contextmanager
def _tracing(path):
    """Enable span tracing to ``path`` for the block (no-op when None).

    On exit the process-wide metrics snapshot is appended to the trace so
    ``red-qaoa trace summarize`` can render its cache table, and the
    global tracer is uninstalled.
    """
    if path is None:
        yield None
        return
    from repro.obs.metrics import REGISTRY
    from repro.obs.trace import configure_tracing, disable_tracing

    tracer = configure_tracing(path)
    try:
        yield tracer
    finally:
        tracer.write_metrics(REGISTRY.snapshot())
        disable_tracing()


def _add_weight_options(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--weighted", action="store_true",
        help="attach random edge weights to every instance (weighted MaxCut)",
    )
    command.add_argument(
        "--weight-dist", default="uniform",
        choices=("uniform", "gaussian", "spin"),
        help="weight distribution used with --weighted (spin = +/-1 Ising)",
    )


def _maybe_weight(graph, args: argparse.Namespace, seed: int):
    """Apply --weighted/--weight-dist to one generated or loaded graph."""
    if not getattr(args, "weighted", False):
        return graph
    from repro.datasets import attach_weights

    return attach_weights(graph, args.weight_dist, seed=seed)


def _add_manifest_options(command: argparse.ArgumentParser) -> None:
    """The manifest options of ``batch`` and ``submit``, read by :func:`_manifest_from_args`."""
    from repro.datasets.problems import PROBLEM_KINDS

    command.add_argument("manifest", nargs="?", default=None,
                         help="manifest file (YAML or JSON); omit with --suite")
    command.add_argument("--suite", default=None, choices=PROBLEM_KINDS,
                         help="generate the manifest: a dataset suite of this workload")
    command.add_argument("--count", type=int, default=8,
                         help="suite size (with --suite)")
    command.add_argument("-n", "--nodes", type=int, default=12,
                         help="suite instance size (with --suite)")
    command.add_argument("--edge-prob", type=float, default=0.35,
                         help="G(n, p) density for graph-structured suites")
    command.add_argument("--weight-dist", default=None,
                         choices=("uniform", "gaussian", "spin"),
                         help="edge-weight / coupling distribution for maxcut or sk suites")
    command.add_argument("--penalty", type=float, default=2.0,
                         help="constraint penalty for mis / vertex-cover suites")
    command.add_argument("--qubo-density", type=float, default=0.5,
                         help="off-diagonal fill for qubo suites")
    command.add_argument("--p", type=int, default=1, help="QAOA layers (suite default)")
    command.add_argument("--restarts", type=int, default=3)
    command.add_argument("--maxiter", type=int, default=40)
    command.add_argument("--finetune-maxiter", type=int, default=0)
    command.add_argument("--shots", type=int, default=1024)
    command.add_argument("--seed", type=int, default=0,
                         help="first suite seed (job i uses seed + i)")


def _build_parser() -> argparse.ArgumentParser:
    from repro import __version__
    from repro.quantum import list_backends

    parser = argparse.ArgumentParser(
        prog="red-qaoa",
        description="Red-QAOA reproduction experiments (ASPLOS 2024)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    noisy = sub.add_parser("mse-noisy", help="Sec. 6.1: noisy landscape MSE")
    noisy.add_argument("-n", "--nodes", type=int, default=10,
                       help="number of nodes (paper uses 7-14)")
    noisy.add_argument("--width", type=int, default=12,
                       help="landscape grid width (paper default 32)")
    noisy.add_argument("--shots", type=int, default=2048,
                       help="shots per landscape point (paper default 8192)")
    noisy.add_argument("--device", default="toronto", choices=list_backends(),
                       help="fake backend name")
    noisy.add_argument("--trajectories", type=int, default=4)
    noisy.add_argument("--seed", type=int, default=0)
    _add_weight_options(noisy)

    ideal = sub.add_parser("mse-ideal", help="Secs. 6.2-6.3: ideal MSE per dataset")
    ideal.add_argument("--graph-set", default="aids",
                       choices=("aids", "linux", "imdb", "random",
                                "weighted-uniform", "weighted-gaussian", "spinglass"))
    ideal.add_argument("--num-graphs", type=int, default=10)
    ideal.add_argument("--p", type=int, default=1, help="QAOA layers")
    ideal.add_argument("--num-points", type=int, default=512,
                       help="random parameter sets (paper default 1024)")
    ideal.add_argument("--min-nodes", type=int, default=0)
    ideal.add_argument("--max-nodes", type=int, default=10)
    ideal.add_argument("--seed", type=int, default=0)
    _add_weight_options(ideal)

    e2e = sub.add_parser("end-to-end", help="Sec. 6.4.1: optimization quality")
    e2e.add_argument("--p", type=int, default=1, help="QAOA layers")
    e2e.add_argument("--num-graphs", type=int, default=5,
                     help="test graphs (paper default 100)")
    e2e.add_argument("--num-nodes", type=int, default=10,
                     help="graph size (paper default 30; 10 suggested for CPUs)")
    e2e.add_argument("--restarts", type=int, default=5)
    e2e.add_argument("--maxiter", type=int, default=40)
    e2e.add_argument("--seed", type=int, default=0)
    _add_weight_options(e2e)

    sweep = sub.add_parser(
        "sweep",
        help="dense parameter sweep on a large sparse graph via the lightcone plan",
    )
    sweep.add_argument("-n", "--nodes", type=int, default=64,
                       help="number of nodes (lightcone handles hundreds)")
    sweep.add_argument("--degree", type=int, default=3,
                       help="regular-graph degree (keeps lightcones small)")
    sweep.add_argument("--p", type=int, default=2, help="QAOA layers")
    sweep.add_argument("--num-points", type=int, default=384,
                       help="random parameter sets to evaluate")
    sweep.add_argument("--max-qubits", type=int, default=20,
                       help="per-lightcone qubit cap")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--json", action="store_true",
                       help="emit one JSON object instead of text")
    sweep.add_argument("--trace", default=None, metavar="FILE",
                       help="append span traces (JSONL) to FILE; results are "
                            "bit-identical with or without")
    _add_weight_options(sweep)

    solve = sub.add_parser(
        "solve",
        help="reduce -> optimize -> transfer -> sample on any Ising/QUBO workload",
    )
    solve.add_argument("--problem", default="maxcut",
                       choices=("maxcut", "mis", "vertex-cover", "partition",
                                "sk", "qubo"),
                       help="workload encoding from repro.problems")
    solve.add_argument("-n", "--nodes", type=int, default=18,
                       help="problem size (qubits; readout and exact best-value "
                            "need n <= repro.problems.MAX_DENSE_QUBITS)")
    solve.add_argument("--p", type=int, default=1, help="QAOA layers")
    solve.add_argument("--edge-prob", type=float, default=0.35,
                       help="G(n, p) density for graph-structured problems")
    solve.add_argument("--penalty", type=float, default=2.0,
                       help="constraint penalty for mis / vertex-cover (> 1)")
    solve.add_argument("--qubo-density", type=float, default=0.5,
                       help="off-diagonal fill of the random QUBO")
    solve.add_argument("--qubo-file", default=None,
                       help="load the QUBO matrix from a text file "
                            "(numpy.loadtxt format) instead of sampling one")
    solve.add_argument("--restarts", type=int, default=3)
    solve.add_argument("--maxiter", type=int, default=40)
    solve.add_argument("--finetune-maxiter", type=int, default=0,
                       help="iterations on the full problem (0 = pure transfer)")
    solve.add_argument("--shots", type=int, default=1024,
                       help="readout samples from the final state")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--json", action="store_true",
                       help="emit one JSON object instead of text")
    solve.add_argument("--trace", default=None, metavar="FILE",
                       help="append span traces (JSONL) to FILE; results are "
                            "bit-identical with or without")
    _add_weight_options(solve)

    batch = sub.add_parser(
        "batch",
        help="run a YAML/JSON job manifest through the batch scheduler",
    )
    _add_manifest_options(batch)
    batch.add_argument("--store", default=None,
                       help="persistent JSONL result store; re-running against it "
                            "recomputes nothing")
    batch.add_argument("--report", default=None,
                       help="write the full JSON report to this file")
    batch.add_argument("--reuse", default="exact",
                       choices=("exact", "cross-instance"),
                       help="reduction sharing: exact (bit-identical) or "
                            "cross-instance (AND-matched bank, approximate)")
    batch.add_argument("--workers", type=int, default=1,
                       help="worker processes for execution (results are "
                            "bit-identical for any worker count)")
    batch.add_argument("--pool", default=None, choices=("inline", "process"),
                       help="force the worker pool kind (default: inline for "
                            "--workers 1, process otherwise)")
    batch.add_argument("--json", action="store_true",
                       help="emit the full JSON report instead of text")
    batch.add_argument("--trace", default=None, metavar="FILE",
                       help="append span traces (JSONL) to FILE; results are "
                            "bit-identical with or without")

    serve = sub.add_parser(
        "serve",
        help="run the sharded job daemon on a unix socket",
    )
    serve.add_argument("--socket", required=True,
                       help="unix socket path to listen on")
    serve.add_argument("--store", default=None,
                       help="persistent JSONL result store shared by all submissions")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 executes inline in the daemon)")
    serve.add_argument("--high-water", type=int, default=1024,
                       help="queue depth beyond which submissions are rejected "
                            "with a retry-after hint")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="attempts (failures or worker crashes) before a job "
                            "is parked as a dead letter")
    serve.add_argument("--shard-prefix", type=int, default=1,
                       help="fingerprint hex-prefix length defining the shards "
                            "(1 = 16 shards)")
    serve.add_argument("--trace", default=None, metavar="FILE",
                       help="append one span tree per completed job (JSONL) to "
                            "FILE; a pure side channel")
    serve.add_argument("--log-level", default="warning",
                       choices=("debug", "info", "warning", "error"),
                       help="stderr event-log threshold (default: warning)")
    serve.add_argument("--log-json", action="store_true",
                       help="emit log events as NDJSON instead of text lines")
    serve.add_argument("--log-file", default=None, metavar="FILE",
                       help="write log events (NDJSON) to FILE with size-capped "
                            "rotation instead of stderr")
    serve.add_argument("--log-max-bytes", type=int, default=10_000_000,
                       help="rotate --log-file past this size (default: 10MB)")
    serve.add_argument("--history", default=None, metavar="FILE",
                       help="flight recorder: append periodic metrics snapshots "
                            "to a rotating JSONL ring at FILE")
    serve.add_argument("--history-interval", type=float, default=5.0,
                       help="seconds between flight-recorder snapshots")
    serve.add_argument("--stuck-after", type=float, default=300.0,
                       help="health watchdog: a claimed shard with no result for "
                            "this many seconds is flagged stuck")
    serve.add_argument("--stuck-requeue", action="store_true",
                       help="let the watchdog kill the worker holding a stuck "
                            "shard so the crash path requeues it")
    serve.add_argument("--health-window", type=float, default=60.0,
                       help="seconds a crash/requeue/dead-letter keeps the "
                            "health verdict degraded")

    submit = sub.add_parser(
        "submit",
        help="submit a manifest to a running serve daemon",
    )
    submit.add_argument("--socket", required=True,
                        help="unix socket path of the daemon")
    _add_manifest_options(submit)
    submit.add_argument("--no-wait", action="store_true",
                        help="print the ticket and return without waiting "
                             "for results")
    submit.add_argument("--timeout", type=float, default=None,
                        help="give up waiting after this many seconds")
    submit.add_argument("--json", action="store_true",
                        help="emit the final poll reply as JSON")

    status = sub.add_parser(
        "status",
        help="query a running serve daemon: queue, workers, metrics",
    )
    status.add_argument("--socket", required=True,
                        help="unix socket path of the daemon")
    status.add_argument("--prometheus", action="store_true",
                        help="print the daemon's metrics in Prometheus text "
                             "format instead of a status summary")
    status.add_argument("--json", action="store_true",
                        help="emit the raw status reply as JSON")

    top = sub.add_parser(
        "top",
        help="live terminal dashboard for a running serve daemon",
    )
    top.add_argument("--socket", required=True,
                     help="unix socket path of the daemon")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between dashboard refreshes")
    top.add_argument("--once", action="store_true",
                     help="print a single frame and exit (for scripts/CI)")
    top.add_argument("--no-color", action="store_true",
                     help="disable ANSI colors (default off non-TTY)")

    bench = sub.add_parser(
        "bench",
        help="record and gate jobbench records against same-host history",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_compare = bench_sub.add_parser(
        "compare",
        help="compare jobbench records, trajectory lines and flight-recorder "
             "history chronologically, each metric against the last one from "
             "the same host; nonzero exit on a drop beyond its BENCHMARK.json "
             "bound",
    )
    bench_compare.add_argument(
        "files", nargs="+",
        help="untraced jobbench records (.jobbench/records/*-trace0.json), "
             "trajectory .jsonl, or flight-recorder history files, oldest first")
    bench_compare.add_argument("--floor", type=float, default=None,
                               help="widen every noise floor to at least this "
                                    "fraction (e.g. 0.4)")
    bench_compare.add_argument("--advisory", action="store_true",
                               help="report regressions but exit zero (CI on "
                                    "shared hardware)")
    bench_compare.add_argument("--json", action="store_true",
                               help="emit the comparison as JSON")
    bench_record = bench_sub.add_parser(
        "record",
        help="turn one host's jobbench records into one trajectory line",
    )
    bench_record.add_argument("files", nargs="+",
                              help="untraced jobbench records from one host "
                                   "(.jobbench/records/*-trace0.json)")
    bench_record.add_argument("--label", required=True,
                              help="record label (e.g. pr18, ci-2026-08-08)")
    bench_record.add_argument("--out", default=None, metavar="FILE",
                              help="append the record to this trajectory JSONL "
                                   "(default: print it)")

    trace = sub.add_parser(
        "trace",
        help="inspect JSONL trace files written by --trace",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="per-stage breakdown, coverage, critical path, cache table",
    )
    summarize.add_argument("tracefile", help="JSONL trace file to summarize")
    summarize.add_argument("--json", action="store_true",
                           help="emit the summary as JSON")
    return parser


def _cmd_mse_noisy(args: argparse.Namespace) -> int:
    from repro.core.reduction import GraphReducer
    from repro.datasets import random_connected_gnp
    from repro.qaoa.fast_sim import FastNoiseSpec
    from repro.qaoa.landscape import (
        compute_landscape,
        compute_noisy_landscape,
        landscape_mse,
    )
    from repro.quantum import get_backend

    backend = get_backend(args.device)
    graph = _maybe_weight(random_connected_gnp(args.nodes, 0.4, seed=args.seed),
                          args, args.seed)
    try:
        noise_base = FastNoiseSpec.for_graph(backend, graph)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    reduction = GraphReducer(seed=args.seed).reduce(graph)
    reduced = reduction.reduced_graph
    flavor = f" ({args.weight_dist}-weighted)" if args.weighted else ""
    print(f"graph: {args.nodes} nodes, {graph.number_of_edges()} edges{flavor}; "
          f"reduced: {reduced.number_of_nodes()} nodes "
          f"({reduction.node_reduction:.0%} node reduction); device: {backend.name}")

    ideal = compute_landscape(graph, width=args.width).values
    noisy_base = compute_noisy_landscape(
        graph, noise_base, width=args.width, trajectories=args.trajectories,
        shots=args.shots, seed=args.seed,
    ).values
    noisy_red = compute_noisy_landscape(
        reduced, FastNoiseSpec.for_graph(backend, reduced),
        width=args.width, trajectories=args.trajectories,
        shots=args.shots, seed=args.seed,
    ).values
    mse_base = landscape_mse(ideal, noisy_base)
    mse_red = landscape_mse(ideal, noisy_red)
    print(f"MSE noisy baseline vs ideal baseline: {mse_base:.4f}")
    print(f"MSE noisy Red-QAOA vs ideal baseline: {mse_red:.4f}")
    print(f"relative improvement: {(mse_base - mse_red) / mse_base:+.1%}")
    return 0


def _cmd_mse_ideal(args: argparse.Namespace) -> int:
    from repro.core.reduction import GraphReducer
    from repro.datasets import load_dataset
    from repro.qaoa.landscape import (
        evaluate_parameter_sets,
        landscape_mse,
        sample_parameter_sets,
    )

    graphs = load_dataset(
        args.graph_set, count=args.num_graphs,
        min_nodes=max(args.min_nodes, 3), max_nodes=args.max_nodes, seed=args.seed,
    )
    graphs = [_maybe_weight(g, args, args.seed + i) for i, g in enumerate(graphs)]
    reducer = GraphReducer(seed=args.seed)
    gammas, betas = sample_parameter_sets(args.p, args.num_points, seed=args.seed)
    node_reds, edge_reds, mses = [], [], []
    for graph in graphs:
        reduction = reducer.reduce(graph)
        reference = evaluate_parameter_sets(graph, gammas, betas)
        candidate = evaluate_parameter_sets(reduction.reduced_graph, gammas, betas)
        node_reds.append(reduction.node_reduction)
        edge_reds.append(reduction.edge_reduction)
        mses.append(landscape_mse(reference, candidate))
    print(f"dataset {args.graph_set}: {len(graphs)} graphs, p={args.p}, "
          f"{args.num_points} parameter sets")
    print(f"node reduction: {np.mean(node_reds):.1%}")
    print(f"edge reduction: {np.mean(edge_reds):.1%}")
    print(f"mean MSE:       {np.mean(mses):.4f}")
    return 0


def _cmd_end_to_end(args: argparse.Namespace) -> int:
    from repro.core.pipeline import RedQAOA
    from repro.datasets import random_connected_gnp
    from repro.qaoa.expectation import maxcut_expectation
    from repro.qaoa.optimizer import multi_restart_optimize
    from repro.utils.graphs import relabel_to_range

    best_ratios, avg_ratios = [], []
    for index in range(args.num_graphs):
        graph = _maybe_weight(
            random_connected_gnp(args.num_nodes, 0.4, seed=args.seed + index),
            args, args.seed + index,
        )
        relabeled = relabel_to_range(graph)
        fn = lambda g, b: maxcut_expectation(relabeled, g, b)
        baseline = multi_restart_optimize(
            fn, args.p, restarts=args.restarts, maxiter=args.maxiter,
            seed=args.seed + index,
        )
        base_values = [t.best_value for t in baseline]

        red = RedQAOA(p=args.p, restarts=args.restarts, maxiter=args.maxiter,
                      finetune_maxiter=10, seed=args.seed + index)
        reduction = red.reduce(graph)
        red_values = []
        for trace in red.optimize_reduced(reduction):
            g, b = trace.best_parameters
            red_values.append(maxcut_expectation(relabeled, g, b))
        best_ratios.append(max(red_values) / max(base_values))
        avg_ratios.append(np.mean(red_values) / np.mean(base_values))
    print(f"end-to-end over {args.num_graphs} graphs of {args.num_nodes} nodes, "
          f"p={args.p}, {args.restarts} restarts")
    print(f"Red-QAOA / baseline, best result:    {np.mean(best_ratios):.3f}")
    print(f"Red-QAOA / baseline, average result: {np.mean(avg_ratios):.3f}")
    print("(paper: ~1.00 best, >= 0.97 average)")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json
    import time

    import networkx as nx

    from repro.qaoa.landscape import sample_parameter_sets
    from repro.qaoa.lightcone import LightconePlan
    from repro.utils.graphs import relabel_to_range

    graph = nx.random_regular_graph(args.degree, args.nodes, seed=args.seed)
    graph = relabel_to_range(_maybe_weight(graph, args, args.seed))
    flavor = f" ({args.weight_dist}-weighted)" if args.weighted else ""
    gammas, betas = sample_parameter_sets(args.p, args.num_points, seed=args.seed)

    from repro.obs.trace import span, trace_job

    with _tracing(args.trace):
        with trace_job(f"sweep:n{args.nodes}-p{args.p}", command="sweep"):
            start = time.perf_counter()
            plan = LightconePlan.build(graph, args.p, max_qubits=args.max_qubits)
            build_seconds = time.perf_counter() - start
            start = time.perf_counter()
            with span("evaluate", points=args.num_points):
                values = plan.evaluate_batch(gammas, betas)
            eval_seconds = time.perf_counter() - start

    stats = plan.stats
    if args.json:
        print(json.dumps({
            "graph": {
                "nodes": args.nodes,
                "edges": graph.number_of_edges(),
                "degree": args.degree,
                "weighted": bool(args.weighted),
                "weight_dist": args.weight_dist if args.weighted else None,
            },
            "p": args.p,
            "num_points": args.num_points,
            "plan": dict(stats),
            "build_seconds": build_seconds,
            "evaluate_seconds": eval_seconds,
            "points_per_sec": args.num_points / max(eval_seconds, 1e-9),
            "energy": {
                "min": float(values.min()),
                "mean": float(values.mean()),
                "max": float(values.max()),
            },
        }, indent=2))
        return 0
    print(f"graph: {args.nodes} nodes, {graph.number_of_edges()} edges{flavor}, "
          f"{args.degree}-regular; p={args.p}, {args.num_points} parameter sets")
    print(f"plan: {stats['evaluations']} lightcone classes for {stats['edges']} edges "
          f"({stats['hits']} cache hits, "
          f"{stats['hits'] / max(stats['edges'], 1):.0%} dedup)")
    print(f"build: {build_seconds:.3f} s (paid once); evaluate: {eval_seconds:.3f} s "
          f"({args.num_points / max(eval_seconds, 1e-9):.1f} points/sec)")
    print(f"energy: min {values.min():.4f}, mean {values.mean():.4f}, "
          f"max {values.max():.4f}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    import time

    from repro.core.pipeline import RedQAOA
    from repro.datasets import problem_instance
    from repro.problems import qubo_problem

    weighted = getattr(args, "weighted", False)
    if not weighted and args.weight_dist != "uniform":
        raise SystemExit(
            f"--weight-dist {args.weight_dist} has no effect without --weighted"
        )
    if weighted and args.problem not in ("maxcut", "sk"):
        raise SystemExit(
            f"--weighted does not apply to --problem {args.problem}; it selects "
            "maxcut edge weights or the sk coupling distribution"
        )
    if weighted and args.problem == "sk" and args.weight_dist not in ("gaussian", "spin"):
        raise SystemExit(
            "--problem sk draws couplings, not edge weights; pass "
            "--weight-dist gaussian or --weight-dist spin"
        )
    if args.qubo_file is not None:
        if args.problem != "qubo":
            raise SystemExit("--qubo-file requires --problem qubo")
        try:
            problem = qubo_problem(np.atleast_2d(np.loadtxt(args.qubo_file)))
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error reading QUBO matrix {args.qubo_file!r}: {exc}")
    else:
        try:
            problem = problem_instance(
                args.problem,
                args.nodes,
                seed=args.seed,
                edge_probability=args.edge_prob,
                penalty=args.penalty,
                weight_distribution=args.weight_dist if weighted else None,
                qubo_density=args.qubo_density,
            )
        except ValueError as exc:
            raise SystemExit(f"error building the {args.problem} instance: {exc}")
    def say(line: str) -> None:
        if not args.json:
            print(line)

    say(f"problem: {problem.name}, {problem.num_qubits} qubits, "
        f"{problem.num_couplings} couplings, {len(problem.fields)} fields")

    start = time.perf_counter()
    # EngineLimitError: no exact engine for this size; plain ValueError:
    # degenerate instances (e.g. a QUBO with no couplings or fields) or
    # bad pipeline settings -- all user-input problems, not bugs.
    from repro.obs.trace import trace_job

    try:
        pipeline = RedQAOA(
            p=args.p, restarts=args.restarts, maxiter=args.maxiter,
            finetune_maxiter=args.finetune_maxiter, shots=args.shots, seed=args.seed,
        )
        with _tracing(args.trace):
            with trace_job(f"solve:{problem.name}", command="solve"):
                result = pipeline.run(problem=problem)
    except ValueError as exc:  # EngineLimitError subclasses ValueError
        raise SystemExit(f"error: {exc}")
    elapsed = time.perf_counter() - start

    reduction = result.reduction
    say(f"reduced: {reduction.subproblem.num_qubits} qubits "
        f"({reduction.node_reduction:.0%} node reduction, "
        f"AND ratio {reduction.and_ratio:.2f})")
    say(f"evaluations: {result.num_reduced_evaluations} on the subproblem, "
        f"{result.num_original_evaluations} on the full problem")
    say(f"parameters: gamma={np.round(result.gammas, 3)}, "
        f"beta={np.round(result.betas, 3)}")
    say(f"expectation on the full problem: {result.expectation:.4f}")
    if np.isfinite(result.cut_value):
        say(f"best sampled value ({args.shots} shots): {result.cut_value:.4f}")
    else:
        say("readout skipped (problem exceeds the dense sampling cap)")
    # Seeded so large instances (local-search fallback) stay reproducible.
    # Below the dense cap the pipeline's readout already cached the
    # diagonal, so best_value is the exact optimum there.
    from repro.problems import MAX_DENSE_QUBITS

    best = problem.best_value(seed=args.seed)
    exact = problem.num_qubits <= MAX_DENSE_QUBITS
    say(f"classical best value{'' if exact else ' (local-search bound)'}: {best:.4f}")
    ratio = None
    if best > 0 and np.isfinite(result.cut_value):
        ratio = result.cut_value / best
        say(f"approximation ratio (sampled / best): {ratio:.3f}")
    say(f"wall time: {elapsed:.2f} s")
    if args.json:
        import json

        print(json.dumps({
            "problem": {
                "name": problem.name,
                "num_qubits": problem.num_qubits,
                "num_couplings": problem.num_couplings,
                "num_fields": len(problem.fields),
            },
            "reduction": {
                "qubits": reduction.subproblem.num_qubits,
                "node_reduction": reduction.node_reduction,
                "and_ratio": reduction.and_ratio,
            },
            "evaluations": {
                "reduced": result.num_reduced_evaluations,
                "original": result.num_original_evaluations,
            },
            "gammas": [float(g) for g in result.gammas],
            "betas": [float(b) for b in result.betas],
            "expectation": result.expectation,
            "sampled_best": (
                float(result.cut_value) if np.isfinite(result.cut_value) else None
            ),
            "shots": args.shots,
            "classical_best": best,
            "classical_exact": exact,
            "approximation_ratio": ratio,
            "seconds": elapsed,
        }, indent=2))
    return 0


def _manifest_from_args(args: argparse.Namespace) -> dict:
    """Resolve ``batch``/``submit`` arguments into one manifest mapping."""
    from repro.datasets import suite_manifest
    from repro.service import load_manifest

    if (args.manifest is None) == (args.suite is None):
        raise SystemExit("pass exactly one of a manifest file or --suite KIND")
    if args.manifest is not None:
        try:
            return load_manifest(args.manifest)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error reading manifest {args.manifest!r}: {exc}")
    generator = {}
    if args.suite in ("maxcut", "mis", "vertex-cover"):
        generator["edge_probability"] = args.edge_prob
    if args.weight_dist is not None:
        generator["weight_dist"] = args.weight_dist
    if args.suite in ("mis", "vertex-cover"):
        generator["penalty"] = args.penalty
    if args.suite == "qubo":
        generator["qubo_density"] = args.qubo_density
    return suite_manifest(
        args.suite,
        count=args.count,
        num_qubits=args.nodes,
        seed=args.seed,
        generator=generator,
        p=args.p,
        restarts=args.restarts,
        maxiter=args.maxiter,
        finetune_maxiter=args.finetune_maxiter,
        shots=args.shots,
    )


def _cmd_batch(args: argparse.Namespace) -> int:
    import json

    from repro.core.cache import ReductionCache
    from repro.service import BatchScheduler, JobFailedError, ResultStore, manifest_specs

    manifest = _manifest_from_args(args)

    def progress(spec, result):
        if not args.json:
            best = (
                f"{result.best_value:.4f}"
                if result.best_value == result.best_value
                else "n/a"
            )
            print(f"  done {spec.label}: expectation={result.expectation:.4f}, "
                  f"best={best}")

    try:
        specs = manifest_specs(manifest)
        scheduler = BatchScheduler(
            store=ResultStore(args.store) if args.store is not None else None,
            reduction_cache=ReductionCache() if args.reuse == "cross-instance" else None,
            workers=args.workers,
            pool=args.pool,
        )
    except ValueError as exc:
        raise SystemExit(f"error building the batch: {exc}")
    with _tracing(args.trace):
        try:
            batch = scheduler.run(specs, on_result=progress)
        except JobFailedError as exc:
            raise SystemExit(f"error: {exc}")
    payload = batch.to_dict()
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=2) + "\n")
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    store_note = f" (store: {args.store})" if args.store else ""
    print(f"manifest: {batch.num_jobs} jobs, {batch.num_unique} unique, "
          f"{batch.num_instances} instances")
    print(f"executed: {batch.computed} computed, {batch.store_hits} store hits, "
          f"{batch.deduped} deduped{store_note}")
    print(f"reuse: {batch.reduction_reuses} shared reductions, "
          f"{batch.reduction_cross_hits} cross-instance, "
          f"{batch.plan_hits} plan hits")
    for label in sorted(batch.aggregates):
        agg = batch.aggregates[label]
        best = agg["mean_best_value"]
        best_text = f"{best:.4f}" if best is not None else "n/a"
        print(f"  {label:<28} count={agg['count']}  "
              f"expectation={agg['mean_expectation']:.4f}  best={best_text}")
    print(f"wall time: {batch.seconds:.2f} s")
    if args.report is not None:
        print(f"report written to {args.report}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.log import EventLog
    from repro.serve import ServeDaemon

    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    daemon = ServeDaemon(
        socket_path=args.socket,
        store_path=args.store,
        workers=args.workers,
        shard_prefix=args.shard_prefix,
        high_water=args.high_water,
        max_attempts=args.max_attempts,
        trace_path=args.trace,
        log=EventLog(
            level=args.log_level,
            json_mode=args.log_json,
            path=args.log_file,
            max_bytes=args.log_max_bytes,
        ),
        history_path=args.history,
        history_interval=args.history_interval,
        stuck_after=args.stuck_after,
        health_window=args.health_window,
        stuck_requeue=args.stuck_requeue,
    )
    store_note = f", store {args.store}" if args.store else ""
    trace_note = f", trace {args.trace}" if args.trace else ""
    print(f"serving on {args.socket} with {args.workers} worker(s)"
          f"{store_note}{trace_note}; SIGTERM drains and exits", flush=True)
    daemon.serve_forever()
    print("daemon stopped")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.serve import Backpressure, ServeClient, ServeError

    manifest = _manifest_from_args(args)
    client = ServeClient(args.socket)
    try:
        reply = client.submit_with_retry(manifest)
    except Backpressure as exc:
        raise SystemExit(
            f"daemon overloaded (retry after {exc.retry_after:.1f}s): {exc}"
        )
    except (ServeError, OSError) as exc:
        raise SystemExit(f"submit failed: {exc}")
    ticket = reply["ticket"]
    cached = sum(1 for job in reply["jobs"] if job["status"] == "cached")
    if not args.json:
        print(f"ticket {ticket}: {len(reply['jobs'])} jobs "
              f"({cached} already cached)")
    if args.no_wait:
        if args.json:
            print(json.dumps(reply, indent=2))
        return 0
    try:
        final = client.wait(ticket, timeout=args.timeout)
    except TimeoutError as exc:
        raise SystemExit(str(exc))
    except (ServeError, OSError) as exc:
        raise SystemExit(f"poll failed: {exc}")
    dead = final["counts"].get("dead", 0)
    if args.json:
        print(json.dumps(final, indent=2))
        return 0 if not dead else 1
    for entry in final["jobs"]:
        if entry["status"] == "done":
            result = entry["result"]
            best = result["best_value"]
            best_text = f"{best:.4f}" if best is not None else "n/a"
            print(f"  done {entry['label']}: "
                  f"expectation={result['expectation']:.4f}, best={best_text}")
        else:
            print(f"  DEAD {entry['label']}: {entry.get('error', 'unknown error')}")
    print(f"ticket {ticket}: {final['counts'].get('done', 0)} done, {dead} dead")
    return 0 if not dead else 1


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ServeClient, ServeError

    client = ServeClient(args.socket)
    try:
        if args.prometheus:
            print(client.metrics()["prometheus"], end="")
            return 0
        reply = client.status()
    except (ServeError, OSError) as exc:
        raise SystemExit(f"status failed: {exc}")
    if args.json:
        print(json.dumps(reply, indent=2))
        return 0
    queue = reply.get("queue", {})
    workers = reply.get("workers", {})
    print(f"daemon v{reply.get('version')} (protocol {reply.get('protocol')}), "
          f"uptime {reply.get('uptime', 0.0):.1f}s"
          f"{', draining' if reply.get('draining') else ''}")
    print(f"queue: depth={queue.get('depth')} running={queue.get('running')} "
          f"completed={queue.get('completed')} dead={queue.get('dead')} "
          f"rejected={queue.get('rejected')} crashes={queue.get('crashes')}")
    print(f"workers: {workers.get('count')} "
          f"(pids {workers.get('pids')}, respawns {workers.get('respawns')})")
    store = reply.get("store")
    if store:
        print(f"store: {store['results']} results, "
              f"{store['dead_letters']} dead letters ({store['path']})")
    counters = reply.get("metrics", {}).get("counters", {})
    if counters:
        shown = {
            name.removeprefix("redqaoa_"): int(value)
            for name, value in sorted(counters.items())
            if value
        }
        print("counters: " + ", ".join(f"{k}={v}" for k, v in shown.items()))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import run_top
    from repro.serve import ServeError

    try:
        return run_top(
            args.socket,
            interval=args.interval,
            once=args.once,
            color=False if args.no_color else None,
        )
    except (ServeError, OSError) as exc:
        raise SystemExit(f"top failed: {exc}")


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.obs.regress import append_record, compare, load_records, make_record

    if args.bench_command == "record":
        try:
            record = make_record(args.label, args.files)
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(f"error reading benchmark files: {exc}")
        if args.out is not None:
            append_record(args.out, record)
            print(f"recorded {len(record['metrics'])} metrics as "
                  f"{args.label!r} in {args.out}")
        else:
            print(json.dumps(record, indent=2, sort_keys=True))
        return 0

    try:
        records = load_records(args.files)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"error reading benchmark files: {exc}")
    outcome = compare(records, default_floor=args.floor)
    if args.json:
        print(json.dumps(outcome, indent=2, sort_keys=True))
    else:
        if not outcome["rows"]:
            print("no overlapping metrics to compare (baseline recorded)")
        for row in outcome["rows"]:
            mark = "REGRESSED" if row["regressed"] else "ok"
            print(f"  {mark:<9} {row['metric']:<28} "
                  f"{row['baseline_label']} {row['baseline']:.4g} -> "
                  f"{row['label']} {row['value']:.4g} "
                  f"({row['change']:+.1%}, floor {row['floor']:.0%})")
        regressed = len(outcome["regressions"])
        verdict = (
            f"{regressed} regression(s)" if regressed
            else f"no regressions across {len(outcome['rows'])} comparison(s)"
        )
        print(("ADVISORY: " if args.advisory and regressed else "") + verdict)
    if outcome["ok"] or args.advisory:
        return 0
    return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.trace import format_summary, summarize_trace

    try:
        summary = summarize_trace(args.tracefile)
    except OSError as exc:
        raise SystemExit(f"error reading trace {args.tracefile!r}: {exc}")
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(format_summary(summary), end="")
    return 0 if not summary["problems"] else 1


_COMMANDS = {
    "mse-noisy": _cmd_mse_noisy,
    "mse-ideal": _cmd_mse_ideal,
    "end-to-end": _cmd_end_to_end,
    "sweep": _cmd_sweep,
    "solve": _cmd_solve,
    "batch": _cmd_batch,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "top": _cmd_top,
    "bench": _cmd_bench,
    "trace": _cmd_trace,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
