"""Job-budget benchmark: one job's wall time, end to end and per layer.

Run from the repository root::

    python3 jobbench/run.py --workload small-mix --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that yields the per-layer
metrics (an untraced and a traced pass over the same fixed job list, so
``trace.overhead_ratio`` is their wall-time ratio and the two passes are
checked bit-identical).  Metric names, units, directions and bounds, and
the reason each workload exists, are declared in ``BENCHMARK.json`` at the
repository root; this script emits exactly the declared set.

End-to-end timings are reported at a reference machine speed.  Shared
hosts run in slow and fast phases lasting seconds to minutes (the same
job took 60 ms in one phase and 105 ms in the next), so a fixed
calibration kernel is timed before and after every job (every manifest
for serve-mix) and each wall time is scaled by the kernel's reference
time over the mean of its two brackets, raised to the workload's
measured sensitivity; see ``workloads.speed_scale``.  The wall-clock
values stay in each line's detail and in the record.  BLAS is pinned to
one thread.

Human-readable lines come first (provenance stamp, every metric by name
with its unit and sample count, the per-layer table, correctness checks);
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of
the run (seed, stamp, details) is written to
``.jobbench/records/<workload>-seed<seed>-trace<t>.json``.

Exit status: 0 on a correct run, 1 when any correctness check fails, 2
when the benchmark cannot run at all (no ``src/repro`` source tree, bad
arguments).  All scratch files live under ``.jobbench/`` and every
process the run starts is joined before it exits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = Path(".jobbench")
LATENCY_QUANTILE = 0.9
BEYOND = 10  # samples required beyond a reported percentile
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bootstrap() -> None:
    """Import the package under test from this checkout's ``src/``.

    BLAS is pinned to one thread (unless the caller chose a count): the
    pipeline's linear algebra is tiny, and idle OpenBLAS threads spinning
    on the second core would contend with the daemon's worker process.
    """
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"jobbench: no repro source tree under {source}", file=sys.stderr)
        sys.exit(2)
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
    os.chdir(ROOT)
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


# -- provenance -------------------------------------------------------------------


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_OPTIONAL_LOCKS": "0"},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(seed: int) -> dict:
    """Host, dependency and source provenance of one output record."""
    import networkx
    import numpy
    import scipy

    import repro

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "repro": repro.__version__,
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


# -- measurement helpers ------------------------------------------------------------


def peak_rss_mb(child_pids=()) -> float:
    """VmHWM of this process plus that of each live child, in MB."""

    def hwm(pid) -> float:
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            return 0.0
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
        return 0.0

    if not Path("/proc/self/status").exists():
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return hwm("self") + sum(hwm(pid) for pid in child_pids)


def latency_quantile(count: int) -> float:
    """The highest percentile (up to p90) with ``BEYOND`` samples past it."""
    if count <= 0:
        return 0.5
    return min(LATENCY_QUANTILE, max(0.5, 1.0 - BEYOND / count))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile; failed jobs enter as ``inf``."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    if math.isinf(ordered[high]):
        return ordered[high] if position > low else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def setup_samples(workload: str, seed: int, count: int) -> list[float]:
    """``count`` fresh-process set-ups (import + warm-up job): (normalized, wall) s."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-400:]}")
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((sample["setup_s"], sample["wall_s"]))
    return samples


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: time import of repro plus one warm-up job, print JSON."""
    t0 = time.perf_counter()
    import workloads as wl

    if workload == "serve-mix":
        work = scratch_dir()
        try:
            with wl.LiveDaemon(work, "setup") as live:
                serve_warmup(live, seed)
                elapsed = time.perf_counter() - t0
        finally:
            shutil.rmtree(work, ignore_errors=True)
    else:
        wl.run_job(wl.warmup_spec(workload, seed))
        elapsed = time.perf_counter() - t0
    cal = wl.calibration_ms()
    scale = wl.speed_scale(wl.PLANS[workload]["speed_exponent"], cal, cal)
    print(json.dumps({"setup_s": elapsed * scale, "wall_s": elapsed}))


def scratch_dir() -> Path:
    path = SCRATCH / f"tmp-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def serve_warmup(live, seed: int) -> None:
    import workloads as wl

    plan = wl.PLANS["serve-mix"]
    kind, p = plan["cycle"][0]
    entry = wl.job_entry(kind, plan["nodes"], p, wl.instance_seed("serve-mix", seed, "warmup", 0))
    ticket = live.client.submit({"schema": 1, "jobs": [entry]})["ticket"]
    for _ in live.client.stream(ticket):
        pass


# -- correctness -------------------------------------------------------------------


class Checks:
    """Correctness outcomes; failing job ids count against ``attempted``."""

    def __init__(self) -> None:
        self.failed_jobs: set = set()
        self.problems: list[str] = []
        self.passed: list[str] = []

    def job_failed(self, job, why: str) -> None:
        self.failed_jobs.add(job)
        if len(self.problems) < 20:
            self.problems.append(f"job {job}: {why}")

    def require(self, ok: bool, what: str) -> bool:
        (self.passed if ok else self.problems).append(what)
        return ok

    @property
    def ok(self) -> bool:
        return not self.problems


def check_quality(wl, checks: Checks, runs) -> list[float]:
    """Finite, bounded expectations; returns the energy ratio of each success."""
    ratios = []
    for index, run in enumerate(runs):
        if run.result is None:
            checks.job_failed(index, run.error or "no result")
            continue
        ref = wl.reference(run.spec)
        expectation = run.result.expectation
        if not math.isfinite(expectation):
            checks.job_failed(index, f"expectation {expectation!r} is not finite")
        elif ref.exact and expectation > ref.best + 1e-9:
            checks.job_failed(index, f"expectation {expectation} exceeds optimum {ref.best}")
        ratios.append(ref.ratio(expectation))
    return ratios


def relabeled(spec, rng):
    """The same instance under a random node relabeling."""
    import networkx as nx

    from repro.problems import DiagonalProblem
    from repro.service import JobSpec

    config = dict(p=spec.p, restarts=spec.restarts, maxiter=spec.maxiter, seed=spec.seed)
    n = spec.num_qubits
    perm = [int(x) for x in rng.permutation(n)]
    if spec.graph is not None:
        return JobSpec(graph=nx.relabel_nodes(spec.graph, dict(enumerate(perm))), **config)
    problem = spec.problem
    moved = DiagonalProblem(
        n,
        {(perm[u], perm[v]): j for (u, v), j in problem.couplings.items()},
        {perm[u]: h for u, h in problem.fields.items()},
        constant=problem.constant,
        name=problem.name,
    )
    return JobSpec(problem=moved, **config)


def check_relabelings(wl, checks: Checks, pairs, seed: int) -> None:
    """Relabeled twins fingerprint identically and return the original result."""
    import numpy as np

    rng = np.random.default_rng(seed)
    for spec, result in pairs:
        twin = relabeled(spec, rng)
        same = twin.fingerprint == spec.fingerprint
        same = same and wl.job_key(wl.run_job(twin)) == wl.job_key(result)
        checks.require(same, f"relabeling of {spec.label} returns the original result")


# -- workloads ---------------------------------------------------------------------


def inprocess_e2e(wl, workload: str, seed: int, seconds: float, checks: Checks) -> dict:
    plan = wl.PLANS[workload]
    cycle = len(plan["cycle"])
    count = max(wl.cycle_count(workload, seconds, wl.POOL_HEADROOM), plan["quality_jobs"])
    specs = wl.spec_pool(workload, seed, count)
    wl.warm_up(workload, seed)
    outcome = wl.inprocess_loop(specs, cycle, seconds=seconds, exponent=plan["speed_exponent"])
    rss = peak_rss_mb()
    runs = outcome.runs
    check_quality(wl, checks, runs)
    # energy_ratio covers a fixed instance prefix, so it repeats exactly per
    # seed however fast the loop ran; instances it missed run untimed here.
    quality = runs[: plan["quality_jobs"]] + [
        wl.JobRun(spec, 0.0, 0.0, wl.run_job(spec))
        for spec in specs[len(runs): plan["quality_jobs"]]
    ]
    ratios = check_quality(wl, Checks(), quality)
    done = [run for run in runs if run.result is not None]
    checks.require(
        len({run.spec.fingerprint for run in done}) == len(done),
        f"all {len(done)} completed instances are unique",
    )
    if workload == "small-mix":
        # MIS instances are unweighted, where canonical labels may split an
        # isomorphism class (see repro.service.jobs); MaxCut and SK are not.
        pairs = [(run.spec, run.result) for run in done[:3] if not run.spec.label.startswith("mis")]
        check_relabelings(wl, checks, pairs[:2], seed)
    return {
        "attempted": len(runs),
        "latencies": [run.norm_ms if run.result is not None else math.inf for run in runs],
        "raw_latencies": [run.ms if run.result is not None else math.inf for run in runs],
        "completed": len(done),
        "norm_s": sum(run.norm_ms for run in runs) / 1e3,
        "busy_s": sum(run.ms for run in runs) / 1e3,
        "ratios": ratios,
        "rss_mb": rss,
    }


def serve_oracle(wl, inputs, events, checks: Checks, store_results: dict, execute):
    """Daemon results vs in-process ``run_job`` and vs their own first answers."""
    first: dict[str, tuple] = {}
    oracle = dict(store_results)
    specs: dict[str, object] = {}
    ratios = []
    for position, event in enumerate(events):
        if event.status != "done":
            checks.job_failed(position, f"daemon status {event.status}")
            continue
        key = wl.event_key(event)
        if event.fingerprint in first and first[event.fingerprint] != key:
            checks.job_failed(position, f"{event.role} differs from the first answer")
        first.setdefault(event.fingerprint, key)
        entry = inputs.manifests[event.manifest]["jobs"][event.index]
        spec = wl.entry_spec(entry)
        if spec.fingerprint != event.fingerprint:
            checks.job_failed(position, "fingerprint differs from the in-process spec")
            continue
        if event.fingerprint not in oracle:
            # A fresh spec: its fingerprint is not cached yet, so a traced
            # oracle times canonicalization like any other job.
            oracle[event.fingerprint] = execute(wl.entry_spec(entry))
            specs[event.fingerprint] = spec
        if wl.job_key(oracle[event.fingerprint]) != key:
            checks.job_failed(position, "result differs from in-process run_job")
        ref = wl.reference(spec)
        if ref.exact and event.fields["expectation"] > ref.best + 1e-9:
            checks.job_failed(position, "expectation exceeds the exact optimum")
        ratios.append(ref.ratio(event.fields["expectation"]))
    checks.require(
        not checks.failed_jobs, f"{len(first)} daemon results bit-identical to in-process run_job"
    )
    return ratios, [(specs[fp], oracle[fp]) for fp in list(specs)[:2]]


def serve_prepare(wl, seed: int, manifests: int):
    inputs = wl.serve_inputs(seed, manifests)
    store_results = {}
    for entry in inputs.store_entries:
        result = wl.run_job(wl.entry_spec(entry))
        store_results[result.fingerprint] = result
    return inputs, store_results


def serve_e2e(wl, seed: int, seconds: float, checks: Checks) -> dict:
    count = math.ceil(wl.cycle_count("serve-mix", seconds, wl.POOL_HEADROOM) / wl.MANIFEST_JOBS)
    inputs, store_results = serve_prepare(wl, seed, count)
    work = scratch_dir()
    with wl.LiveDaemon(work, "serve", store_results.values()) as live:
        serve_warmup(live, seed)
        outcome = wl.serve_loop(live, inputs, seconds=seconds, rss=peak_rss_mb)
    ratios, pairs = serve_oracle(
        wl, inputs, outcome.events, checks, store_results, wl.run_job
    )
    ratios = ratios[: wl.PLANS["serve-mix"]["quality_jobs"]]
    check_relabelings(wl, checks, pairs, seed)
    for error in outcome.errors:
        checks.problems.append(error)
    done = [e for e in outcome.events if e.status == "done"]
    missing = [math.inf] * (outcome.attempted - len(done))
    return {
        "attempted": outcome.attempted,
        "latencies": [e.norm_ms for e in done] + missing,
        "raw_latencies": [e.latency_ms for e in done] + missing,
        "completed": len(done),
        "norm_s": outcome.norm_s,
        "busy_s": outcome.wall_s,
        "ratios": ratios,
        "rss_mb": outcome.rss_mb,
        "failed": outcome.failed,
    }


def end_to_end(args, checks: Checks) -> tuple[dict, dict, int, int, dict]:
    """Run the untraced workload: (values, details, attempted, failed, wall clock)."""
    setup = setup_samples(args.workload, args.seed, args.setup_samples)
    import workloads as wl

    if args.workload == "serve-mix":
        run = serve_e2e(wl, args.seed, args.seconds, checks)
    else:
        run = inprocess_e2e(wl, args.workload, args.seed, args.seconds, checks)
    attempted = run["attempted"]
    failed = max(len(checks.failed_jobs), run.get("failed", 0))
    latencies, raw = run["latencies"], run["raw_latencies"]
    q = latency_quantile(len(latencies))
    values = {
        "jobs_per_s": run["completed"] / run["norm_s"],
        "job_ms_p50": percentile(latencies, 0.5),
        "job_ms_p90": percentile(latencies, q),
        "setup_s": statistics.median(norm for norm, _ in setup),
        "success_ratio": (attempted - failed) / attempted,
        "energy_ratio": statistics.fmean(run["ratios"]) if run["ratios"] else math.nan,
        "peak_rss_mb": run["rss_mb"],
    }
    wall_clock = {
        "jobs_per_s": run["completed"] / run["busy_s"],
        "job_ms_p50": percentile(raw, 0.5),
        "job_ms_p90": percentile(raw, q),
        "setup_s": statistics.median(w for _, w in setup),
    }
    wall = "wall {:.4g} {} (at host speed)"
    details = {
        "jobs_per_s": f"{run['completed']} jobs, closed loop, 1 client; "
        + wall.format(run["completed"] / run["busy_s"], "jobs/s"),
        "job_ms_p50": f"median of {len(latencies)} jobs; "
        + wall.format(percentile(raw, 0.5), "ms"),
        "job_ms_p90": f"p{100 * q:.4g} of {len(latencies)} jobs (highest with >= {BEYOND} "
        f"beyond, up to p90; p50 below 20 jobs); " + wall.format(percentile(raw, q), "ms"),
        "setup_s": f"median of {len(setup)} fresh processes; "
        + wall.format(statistics.median(w for _, w in setup), "s"),
        "success_ratio": f"{attempted - failed} of {attempted} attempted",
        "energy_ratio": f"mean of the first {len(run['ratios'])} jobs, (E - min) / (ref - min)",
        "peak_rss_mb": "VmHWM" + (" + worker" if args.workload == "serve-mix" else ""),
    }
    return values, details, attempted, failed, wall_clock


REQUIRED_HITS = {
    "small-mix": ["repro.core.pipeline.maxcut_evaluator", "repro.core.pipeline.qaoa_probabilities",
                  "repro.problems.expectation.problem_evaluator",
                  "repro.qaoa.hamiltonian.cut_values"],
    "dense-20": ["repro.core.pipeline.maxcut_evaluator", "repro.core.pipeline.qaoa_probabilities",
                 "repro.qaoa.hamiltonian.cut_values"],
    "sparse-40": ["repro.problems.expectation.problem_evaluator", "LightconePlan.build"],
    "serve-mix": ["repro.core.pipeline.maxcut_evaluator", "repro.core.pipeline.qaoa_probabilities",
                  "ResultStore.put", "ResultStore.get"],
}
COMMON_HITS = ["repro.core.reduction.simulated_annealing", "GraphReducer.reduce",
               "repro.core.pipeline.multi_restart_optimize"]


def overhead(layers, traced_s: float, plain_s: float):
    return layers.Layer(
        traced_s / plain_s, f"{traced_s:.2f} s traced / {plain_s:.2f} s untraced"
    )


def traced_inprocess(wl, layers, workload: str, seed: int, seconds: float, checks: Checks):
    """Untraced and traced runs of the same fixed job list, interleaved per job.

    Interleaving exposes both passes to the same machine state, so their
    wall-time ratio is the tracing overhead rather than warm-up drift.
    """
    count = wl.cycle_count(workload, seconds)
    wl.warm_up(workload, seed)
    probe = layers.LayerProbe()
    plain_cache, traced_cache = wl.PlanCache(), wl.PlanCache()
    plain_s = traced_s = 0.0
    pairs = zip(wl.spec_pool(workload, seed, count), wl.spec_pool(workload, seed, count))
    for index, (plain_spec, traced_spec) in enumerate(pairs):
        try:
            t0 = time.perf_counter()
            plain = wl.run_job(plain_spec, plan_cache=plain_cache)
            t1 = time.perf_counter()
            with probe:
                traced = probe.run_job(traced_spec, traced_cache)
            t2 = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - counted as a failed job
            checks.job_failed(index, f"{type(exc).__name__}: {exc}")
            continue
        plain_s += t1 - t0
        traced_s += t2 - t1
        if wl.job_key(plain) != wl.job_key(traced):
            checks.job_failed(index, "traced result differs from untraced")
    checks.require(not checks.failed_jobs, f"{count} traced results bit-identical to untraced")
    missing = probe.check_hits(COMMON_HITS + REQUIRED_HITS[workload])
    checks.require(not missing, f"every wrapped binding fired (missing: {missing or 'none'})")
    metrics = layers.job_layers(probe, traced_cache.hits, traced_cache.hits + traced_cache.misses)
    metrics.update(layers.store_layers(layers.LayerProbe()))
    metrics.update(layers.idle_serve_layers())
    metrics["trace.overhead_ratio"] = overhead(layers, traced_s, plain_s)
    return metrics, layers.stress_shares(probe), 2 * count


def traced_serve(wl, layers, seed: int, seconds: float, checks: Checks):
    """An untraced, then a traced daemon, fed the same manifests.

    One daemon lives at a time: two in one process slow each other's
    serve path, which would be measured as tracing overhead.  The store
    wrappers are installed only while the traced daemon serves; the
    in-process layers come from a wrapped ``run_job`` oracle over the same
    unique jobs, which also checks the daemon's answers.
    """
    count = math.ceil(wl.cycle_count("serve-mix", seconds) / wl.MANIFEST_JOBS)
    inputs, store_results = serve_prepare(wl, seed, count)
    work = scratch_dir()
    trace_path = work / "trace.jsonl"
    store_probe = layers.LayerProbe()
    outcomes = []
    for tag, path in (("plain", None), ("traced", trace_path)):
        outcome = wl.ServeOutcome()
        with wl.LiveDaemon(work, tag, store_results.values(), trace_path=path) as live:
            serve_warmup(live, seed)
            baseline = wl.queue_counts(live)
            for k in range(count):
                if path is None:
                    wl.serve_manifest(live, inputs, k, outcome)
                else:
                    with store_probe:
                        wl.serve_manifest(live, inputs, k, outcome)
            outcomes.append(wl.finish(live, outcome, baseline))
    plain, traced = outcomes
    same = [wl.event_key(a) == wl.event_key(b) for a, b in zip(plain.events, traced.events)]
    checks.require(
        len(plain.events) == len(traced.events) == plain.attempted and all(same),
        f"{len(traced.events)} traced daemon results bit-identical to untraced",
    )
    probe = layers.LayerProbe()
    cache = wl.PlanCache()

    def execute(spec):
        with probe:
            return probe.run_job(spec, cache)

    serve_oracle(wl, inputs, traced.events, checks, store_results, execute)
    missing = (probe.check_hits(COMMON_HITS + REQUIRED_HITS["serve-mix"][:2])
               + store_probe.check_hits(REQUIRED_HITS["serve-mix"][2:]))
    checks.require(not missing, f"every wrapped binding fired (missing: {missing or 'none'})")
    metrics = layers.job_layers(probe, cache.hits, cache.hits + cache.misses)
    metrics.update(layers.store_layers(store_probe))
    metrics.update(layers.serve_layers(trace_path, traced))
    metrics["trace.overhead_ratio"] = overhead(layers, traced.wall_s, plain.wall_s)
    return metrics, layers.stress_shares(probe), plain.attempted + traced.attempted


#: the share each workload must show to count as stressing its layer
STRESS = {
    "small-mix": ("reduce+optimize.self", 0.5),
    "dense-20": ("evaluate+readout", 0.75),
    "sparse-40": ("plan.build+evaluate", 0.5),
}


def per_layer(args, checks: Checks) -> tuple[dict, dict, int, int, list[str]]:
    import layers
    import workloads as wl

    if args.workload == "serve-mix":
        metrics, shares, attempted = traced_serve(wl, layers, args.seed, args.seconds, checks)
    else:
        metrics, shares, attempted = traced_inprocess(
            wl, layers, args.workload, args.seed, args.seconds, checks
        )
    notes = [f"share of traced job wall in {name}: {share:.1%}" for name, share in shares.items()]
    if args.workload in STRESS:
        name, floor = STRESS[args.workload]
        verdict = "holds" if shares[name] > floor else "DOES NOT HOLD"
        notes.append(f"stress claim {name} > {floor:.0%} on {args.workload}: {verdict}")
    else:
        overhead = metrics["serve.overhead_ms"]
        notes.append(f"stress claim serve.overhead_ms reported: {overhead.value:.3f} ms")
    values = {name: layer.value for name, layer in metrics.items()}
    details = {name: layer.detail for name, layer in metrics.items()}
    return values, details, attempted, len(checks.failed_jobs), notes


# -- output ------------------------------------------------------------------------


def main(argv=None) -> int:
    declaration = load_declaration()
    names = [w["name"] for w in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(declaration["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-samples", type=int, default=3)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    bootstrap()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    checks = Checks()
    group = "per_layer" if args.trace else "end_to_end"
    declared = {metric["name"]: metric for metric in declaration[group]}
    try:
        if args.trace:
            values, details, attempted, failed, notes = per_layer(args, checks)
            wall_clock = {}
        else:
            values, details, attempted, failed, wall_clock = end_to_end(args, checks)
            notes = []
    finally:
        shutil.rmtree(SCRATCH / f"tmp-{os.getpid()}", ignore_errors=True)
    undeclared = sorted(set(values) - set(declared))
    missing = sorted(set(declared) - set(values))
    checks.require(
        not undeclared and not missing,
        f"metrics match BENCHMARK.json (undeclared {undeclared}, missing {missing})",
    )

    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in declaration["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp(args.seed),
        "metrics": {
            name: {
                "value": values.get(name),
                "unit": declared[name]["unit"],
                "better": declared[name]["better"],
                "detail": details.get(name, ""),
            }
            for name in declared
        },
        "wall_clock": wall_clock,
        "notes": notes,
        "checks": {"passed": checks.passed, "problems": checks.problems},
    }
    SCRATCH.joinpath("records").mkdir(parents=True, exist_ok=True)
    out = SCRATCH / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"jobbench {args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    print("  stamp: " + " ".join(f"{k}={v}" for k, v in record["stamp"].items()))
    for name, metric in record["metrics"].items():
        line = f"  {name:<27}{metric['value']:>13.6g} {metric['unit']:<13}{metric['detail']}"
        if args.trace:
            import layers

            module, moves = layers.MOVES[name]
            line += f"  [{module}; moves {moves}]"
        print(line)
    for note in notes:
        print(f"  {note}")
    for line in checks.passed:
        print(f"  check ok: {line}")
    for line in checks.problems:
        print(f"  CHECK FAILED: {line}")
    print(f"  record: {out}")

    correct = checks.ok
    metrics_out = {
        name: {
            "value": value if isinstance(value, (int, float)) and math.isfinite(value) else None,
            "unit": declared[name]["unit"],
        }
        for name, value in ((n, record["metrics"][n]["value"]) for n in declared)
    }
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics_out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
