"""Per-layer timing for the traced benchmark run.

:class:`LayerProbe` installs timing wrappers, from the benchmark's own
files, at the exact names the pipeline's callers look up -- nothing under
``src/`` is instrumented.  Each binding is checked before it is wrapped:
the caller's name must still point at the function defined where the
benchmark expects it, or the probe refuses to install (a moved binding
would otherwise be silently untimed).  After a traced pass,
:meth:`LayerProbe.check_hits` confirms every mandatory wrapper fired.

The daemon's layers come from the span trees its ``trace_path=`` already
writes (:func:`serve_layers`).
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field

import repro.core.pipeline as pipeline_mod
import repro.core.reduction as reduction_mod
import repro.problems.expectation as problem_expectation_mod
import repro.qaoa.expectation as qaoa_expectation_mod
import repro.qaoa.fast_sim as fast_sim_mod
import repro.qaoa.hamiltonian as hamiltonian_mod
import repro.qaoa.optimizer as optimizer_mod
from repro.core.reduction import GraphReducer
from repro.obs.trace import load_trace, span_trees
from repro.qaoa.lightcone import LightconePlan
from repro.service import ResultStore, run_job

#: (caller module, name, module that must define the bound object)
MODULE_BINDINGS = (
    (reduction_mod, "simulated_annealing", "repro.core.annealer"),
    (pipeline_mod, "cobyla_optimize", optimizer_mod.__name__),
    (pipeline_mod, "multi_restart_optimize", optimizer_mod.__name__),
    (pipeline_mod, "maxcut_evaluator", qaoa_expectation_mod.__name__),
    (pipeline_mod, "qaoa_probabilities", fast_sim_mod.__name__),
    (problem_expectation_mod, "problem_evaluator", problem_expectation_mod.__name__),
    (hamiltonian_mod, "cut_values", hamiltonian_mod.__name__),
)

NS = 1e-6  # ns -> ms


@dataclass
class JobLayers:
    """Per-job accumulators (nanoseconds and counts)."""

    wall: int = 0
    canonical: int = 0
    reduce: int = 0
    reduce_depth: int = 0
    nodes: int = 0
    kept_nodes: int = 0
    edges: int = 0
    kept_edges: int = 0
    anneal: int = 0
    anneal_steps: int = 0
    optimize: int = 0
    optimize_depth: int = 0
    optimize_evals: int = 0
    optimize_eval_time: int = 0
    evaluator_build: int = 0
    evaluate: int = 0
    evaluate_calls: int = 0
    readout: list = field(default_factory=list)
    diagonal: list = field(default_factory=list)
    plan_builds: list = field(default_factory=list)  # (ns, classes)


class LayerProbe:
    """Timing wrappers over the pipeline's layer entry points."""

    def __init__(self) -> None:
        self.jobs: list[JobLayers] = []
        self.current = JobLayers()
        self.store_puts: list[int] = []
        self.store_gets: list[tuple[int, bool]] = []
        self._undo: list = []
        self.hits: dict[str, int] = {}

    # -- install / remove ------------------------------------------------------

    def install(self) -> None:
        for module, name, home in MODULE_BINDINGS:
            bound = getattr(module, name)
            if getattr(bound, "__module__", None) != home:
                raise RuntimeError(
                    f"{module.__name__}.{name} is bound to {bound!r}, not the function "
                    f"defined in {home}; update the benchmark's wrapper table"
                )
        self._patch_module(reduction_mod, "simulated_annealing", self._wrap_anneal)
        self._patch_module(pipeline_mod, "cobyla_optimize", self._wrap_optimize)
        self._patch_module(pipeline_mod, "multi_restart_optimize", self._wrap_optimize)
        self._patch_module(pipeline_mod, "maxcut_evaluator", self._wrap_evaluator)
        self._patch_module(problem_expectation_mod, "problem_evaluator", self._wrap_evaluator)
        self._patch_module(pipeline_mod, "qaoa_probabilities", self._wrap_readout)
        self._patch_module(hamiltonian_mod, "cut_values", self._wrap_diagonal)
        self._patch_attr(GraphReducer, "reduce", self._wrap_reduce)
        self._patch_attr(GraphReducer, "reduce_problem", self._wrap_reduce)
        self._patch_plan_build()
        self._patch_attr(ResultStore, "put", self._wrap_store_put)
        self._patch_attr(ResultStore, "get", self._wrap_store_get)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerProbe":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch_module(self, module, name: str, make) -> None:
        original = getattr(module, name)
        self._undo.append((module, name, original))
        setattr(module, name, make(original, f"{module.__name__}.{name}"))

    def _patch_attr(self, owner, name: str, make) -> None:
        original = owner.__dict__[name]
        if not callable(original):
            raise RuntimeError(f"{owner.__name__}.{name} is not a plain method")
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original, f"{owner.__name__}.{name}"))

    def _patch_plan_build(self) -> None:
        original = LightconePlan.__dict__["build"]
        if not isinstance(original, classmethod):
            raise RuntimeError("LightconePlan.build is no longer a classmethod")
        function = original.__func__
        probe = self

        @functools.wraps(function)
        def build(cls, *args, **kwargs):
            probe._hit("LightconePlan.build")
            t0 = time.perf_counter_ns()
            plan = function(cls, *args, **kwargs)
            probe.current.plan_builds.append(
                (time.perf_counter_ns() - t0, plan.stats["evaluations"])
            )
            return plan

        self._undo.append((LightconePlan, "build", original))
        LightconePlan.build = classmethod(build)

    def _hit(self, name: str) -> None:
        self.hits[name] = self.hits.get(name, 0) + 1

    def check_hits(self, required) -> list[str]:
        """Names of ``required`` wrappers that never fired."""
        return [name for name in required if not self.hits.get(name)]

    # -- wrappers ----------------------------------------------------------------

    def _wrap_reduce(self, original, label):
        probe = self

        @functools.wraps(original)
        def reduce(self_, *args, **kwargs):
            probe._hit(label)
            job = probe.current
            job.reduce_depth += 1
            t0 = time.perf_counter_ns()
            try:
                result = original(self_, *args, **kwargs)
            finally:
                job.reduce_depth -= 1
            if job.reduce_depth == 0:
                job.reduce += time.perf_counter_ns() - t0
                graph_reduction = getattr(result, "graph_reduction", result)
                job.nodes += graph_reduction.original_graph.number_of_nodes()
                job.kept_nodes += len(graph_reduction.nodes)
                job.edges += graph_reduction.original_graph.number_of_edges()
                job.kept_edges += graph_reduction.reduced_graph.number_of_edges()
            return result

        return reduce

    def _wrap_anneal(self, original, label):
        probe = self

        @functools.wraps(original)
        def anneal(*args, **kwargs):
            probe._hit(label)
            t0 = time.perf_counter_ns()
            result = original(*args, **kwargs)
            probe.current.anneal += time.perf_counter_ns() - t0
            probe.current.anneal_steps += result.steps
            return result

        return anneal

    def _wrap_optimize(self, original, label):
        probe = self

        @functools.wraps(original)
        def optimize(*args, **kwargs):
            probe._hit(label)
            job = probe.current
            job.optimize_depth += 1
            t0 = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                job.optimize_depth -= 1
                if job.optimize_depth == 0:
                    job.optimize += time.perf_counter_ns() - t0

        return optimize

    def _wrap_evaluator(self, original, label):
        probe = self

        @functools.wraps(original)
        def build(*args, **kwargs):
            probe._hit(label)
            t0 = time.perf_counter_ns()
            evaluate = original(*args, **kwargs)
            probe.current.evaluator_build += time.perf_counter_ns() - t0

            def timed(gammas, betas):
                job = probe.current
                t0 = time.perf_counter_ns()
                value = evaluate(gammas, betas)
                elapsed = time.perf_counter_ns() - t0
                job.evaluate += elapsed
                job.evaluate_calls += 1
                if job.optimize_depth:
                    job.optimize_evals += 1
                    job.optimize_eval_time += elapsed
                return value

            return timed

        return build

    def _wrap_readout(self, original, label):
        probe = self

        @functools.wraps(original)
        def readout(*args, **kwargs):
            probe._hit(label)
            t0 = time.perf_counter_ns()
            probs = original(*args, **kwargs)
            probe.current.readout.append(time.perf_counter_ns() - t0)
            return probs

        return readout

    def _wrap_diagonal(self, original, label):
        probe = self

        @functools.wraps(original)
        def cut_values(*args, **kwargs):
            probe._hit(label)
            t0 = time.perf_counter_ns()
            values = original(*args, **kwargs)
            probe.current.diagonal.append(time.perf_counter_ns() - t0)
            return values

        return cut_values

    def _wrap_store_put(self, original, label):
        probe = self

        @functools.wraps(original)
        def put(self_, result):
            probe._hit(label)
            t0 = time.perf_counter_ns()
            original(self_, result)
            probe.store_puts.append(time.perf_counter_ns() - t0)

        return put

    def _wrap_store_get(self, original, label):
        probe = self

        @functools.wraps(original)
        def get(self_, fingerprint):
            probe._hit(label)
            t0 = time.perf_counter_ns()
            found = original(self_, fingerprint)
            probe.store_gets.append((time.perf_counter_ns() - t0, found is not None))
            return found

        return get

    # -- a traced job --------------------------------------------------------------

    def run_job(self, spec, plan_cache):
        """``run_job`` with the first fingerprint access timed on its own."""
        job = self.current = JobLayers()
        t0 = time.perf_counter_ns()
        spec.fingerprint  # noqa: B018 - canonicalization + hashing, cached on the spec
        job.canonical = time.perf_counter_ns() - t0
        result = run_job(spec, plan_cache=plan_cache)
        job.wall = time.perf_counter_ns() - t0
        self.jobs.append(job)
        self.current = JobLayers()
        return result


# -- metric assembly ---------------------------------------------------------------


@dataclass
class Layer:
    """One per-layer number with its sample count (timings) or base (ratios)."""

    value: float
    detail: str


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def job_layers(probe: LayerProbe, plan_hits: int, plan_lookups: int) -> dict[str, Layer]:
    """In-process layer metrics from a traced pass."""
    jobs = probe.jobs
    n = len(jobs)
    wall = sum(job.wall for job in jobs)
    reduce = sum(job.reduce for job in jobs)
    anneal = sum(job.anneal for job in jobs)
    steps = sum(job.anneal_steps for job in jobs)
    evals = sum(job.optimize_evals for job in jobs)
    calls = sum(job.evaluate_calls for job in jobs)
    self_times = [job.optimize - job.optimize_eval_time for job in jobs]
    builds = [build for job in jobs for build in job.plan_builds]
    readouts = [t for job in jobs for t in job.readout]
    diagonals = [t for job in jobs for t in job.diagonal]
    nodes = sum(job.nodes for job in jobs)
    edges = sum(job.edges for job in jobs)
    per_job = f"median of {n} jobs"
    total = f"total over {n} jobs"
    return {
        "jobs.canonical_ms": Layer(_median(j.canonical * NS for j in jobs), per_job),
        "reduce.ms": Layer(_median(j.reduce * NS for j in jobs), per_job),
        "reduce.share": Layer(_ratio(reduce, wall), f"of {wall * NS:.1f} ms job wall"),
        "anneal.steps": Layer(steps, total),
        "anneal.steps_per_s": Layer(_ratio(steps, anneal * 1e-9), f"{steps} steps"),
        "reduce.node_reduction": Layer(
            _ratio(nodes - sum(j.kept_nodes for j in jobs), nodes), f"of {nodes} nodes"
        ),
        "reduce.edge_reduction": Layer(
            _ratio(edges - sum(j.kept_edges for j in jobs), edges), f"of {edges} edges"
        ),
        "optimize.ms": Layer(_median(j.optimize * NS for j in jobs), per_job),
        "optimize.evals": Layer(evals, total),
        "optimize.self_ms": Layer(_median(t * NS for t in self_times), per_job),
        "optimize.self_us_per_eval": Layer(
            _ratio(sum(self_times) * 1e-3, evals), f"over {evals} evals"
        ),
        "evaluator.build_ms": Layer(_median(j.evaluator_build * NS for j in jobs), per_job),
        "evaluate.calls": Layer(calls, total),
        "evaluate.ms": Layer(_median(j.evaluate * NS for j in jobs), per_job),
        "evaluate.us_per_call": Layer(
            _ratio(sum(j.evaluate for j in jobs) * 1e-3, calls), f"over {calls} calls"
        ),
        "plan.builds": Layer(len(builds), total),
        "plan.build_ms": Layer(
            _median(t * NS for t, _ in builds), f"median of {len(builds)} builds"
        ),
        "plan.classes": Layer(_median(c for _, c in builds), f"median of {len(builds)} builds"),
        "plan_cache.hit_ratio": Layer(
            _ratio(plan_hits, plan_lookups), f"of {plan_lookups} lookups"
        ),
        "readout.ms": Layer(_median(t * NS for t in readouts), f"median of {len(readouts)} calls"),
        "diagonal.builds": Layer(len(diagonals), total),
        "diagonal.ms": Layer(
            _median(t * NS for t in diagonals), f"median of {len(diagonals)} builds"
        ),
    }


def stress_shares(probe: LayerProbe) -> dict[str, float]:
    """Shares of traced job wall time spent in the layers each workload targets."""
    jobs = probe.jobs
    wall = sum(job.wall for job in jobs)

    def total(attr) -> float:
        return sum(attr(job) for job in jobs)

    return {
        "reduce+optimize.self": _ratio(
            total(lambda j: j.reduce + j.optimize - j.optimize_eval_time), wall
        ),
        "evaluate+readout": _ratio(total(lambda j: j.evaluate + sum(j.readout)), wall),
        "plan.build+evaluate": _ratio(
            total(lambda j: j.evaluate + sum(t for t, _ in j.plan_builds)), wall
        ),
    }


def store_layers(probe: LayerProbe) -> dict[str, Layer]:
    gets = probe.store_gets
    hits = sum(1 for _, found in gets if found)
    return {
        "store.put_ms": Layer(
            _median(t * NS for t in probe.store_puts), f"median of {len(probe.store_puts)} puts"
        ),
        "store.get_ms": Layer(_median(t * NS for t, _ in gets), f"median of {len(gets)} gets"),
        "store.hit_ratio": Layer(_ratio(hits, len(gets)), f"of {len(gets)} gets"),
    }


SERVE_METRICS = (
    "serve.submit_ms",
    "serve.queue_wait_ms",
    "serve.dispatch_ms",
    "serve.drain_wait_ms",
    "serve.overhead_ms",
    "queue.dedup_ratio",
)


def idle_serve_layers() -> dict[str, Layer]:
    """Serve layers on an in-process workload: not exercised, reported as 0."""
    return {name: Layer(0.0, "not exercised in-process") for name in SERVE_METRICS}


def serve_layers(trace_path, outcome) -> dict[str, Layer]:
    """Serve-layer metrics from the daemon's span trees plus client timings.

    ``serve.overhead_ms`` is, per manifest, the client's submit -> last
    result time minus the worker ``execute`` spans of the jobs it
    computed, per computed job; the median is over manifests that
    computed at least one job.
    """
    spans, _ = load_trace(trace_path)
    trees = span_trees(spans)
    gaps = {"queue_wait": [], "dispatch": [], "drain_wait": []}
    execute_ns: dict[str, int] = {}
    for job, tree in trees.items():
        root = tree["root"]
        if root is None or root["name"] != "job":
            continue
        children = {record["name"]: record for record in tree["children"].get(root["span"], [])}
        for name, values in gaps.items():
            record = children.get(name)
            values.append((record["t1"] - record["t0"]) if record else 0)
        execute = children.get("execute")
        if execute is not None:
            execute_ns[job] = execute["t1"] - execute["t0"]
    by_manifest: dict[int, list] = {}
    for event in outcome.events:
        by_manifest.setdefault(event.manifest, []).append(event)
    overheads = []
    for k, events in by_manifest.items():
        computed = {
            e.fingerprint for e in events if e.fingerprint in execute_ns and e.role == "fresh"
        }
        if computed:
            busy = sum(execute_ns[fp] for fp in computed) * NS
            overheads.append((outcome.manifest_ms[k] - busy) / len(computed))
    queue = outcome.queue_stats
    jobs = len(gaps["queue_wait"])

    def gap(name: str) -> Layer:
        return Layer(_median(t * NS for t in gaps[name]), f"median of {jobs} jobs")

    return {
        "serve.submit_ms": Layer(
            _median(outcome.submit_ms), f"median of {len(outcome.submit_ms)} submits"
        ),
        "serve.queue_wait_ms": gap("queue_wait"),
        "serve.dispatch_ms": gap("dispatch"),
        "serve.drain_wait_ms": gap("drain_wait"),
        "serve.overhead_ms": Layer(_median(overheads), f"median of {len(overheads)} manifests"),
        "queue.dedup_ratio": Layer(
            _ratio(queue.get("deduped", 0), queue.get("submitted", 0)),
            f"of {queue.get('submitted', 0)} submitted",
        ),
    }


#: metric -> (layer module, the end-to-end metric and workload it should move)
MOVES = {
    "jobs.canonical_ms": ("service.jobs", "job_ms_p50 on sparse-40; ~0 on small-mix"),
    "reduce.ms": ("core.reduction", "jobs_per_s on small-mix; no change on dense-20"),
    "reduce.share": ("core.reduction", "jobs_per_s on small-mix; no change on dense-20"),
    "anneal.steps": ("core.annealer", "jobs_per_s on small-mix; no change on dense-20"),
    "anneal.steps_per_s": ("core.annealer", "jobs_per_s on small-mix; no change on dense-20"),
    "reduce.node_reduction": ("core.reduction", "fixed under bit-identical changes"),
    "reduce.edge_reduction": ("core.reduction", "fixed under bit-identical changes"),
    "optimize.ms": ("qaoa.optimizer", "jobs_per_s on small-mix and sparse-40"),
    "optimize.evals": ("qaoa.optimizer", "jobs_per_s on small-mix and sparse-40"),
    "optimize.self_ms": ("qaoa.optimizer", "jobs_per_s on small-mix and sparse-40"),
    "optimize.self_us_per_eval": ("qaoa.optimizer", "jobs_per_s on small-mix and sparse-40"),
    "evaluator.build_ms": ("qaoa/problems.expectation", "jobs_per_s on dense-20 and sparse-40"),
    "evaluate.calls": ("qaoa/problems.expectation", "jobs_per_s on dense-20 and sparse-40"),
    "evaluate.ms": ("qaoa/problems.expectation", "jobs_per_s on dense-20 and sparse-40"),
    "evaluate.us_per_call": ("qaoa/problems.expectation", "jobs_per_s on dense-20 and sparse-40"),
    "plan.builds": ("qaoa.lightcone", "jobs_per_s, job_ms_p50 on sparse-40"),
    "plan.build_ms": ("qaoa.lightcone", "jobs_per_s, job_ms_p50 on sparse-40"),
    "plan.classes": ("qaoa.lightcone", "jobs_per_s, job_ms_p50 on sparse-40"),
    "plan_cache.hit_ratio": ("qaoa.lightcone", "jobs_per_s, job_ms_p50 on sparse-40"),
    "readout.ms": ("qaoa.fast_sim", "jobs_per_s, peak_rss_mb on dense-20; none on sparse-40"),
    "diagonal.builds": ("qaoa.hamiltonian", "jobs_per_s, peak_rss_mb on dense-20"),
    "diagonal.ms": ("qaoa.hamiltonian", "jobs_per_s, peak_rss_mb on dense-20"),
    "store.put_ms": ("service.store", "job_ms_p50 on serve-mix"),
    "store.get_ms": ("service.store", "job_ms_p50 on serve-mix"),
    "store.hit_ratio": ("service.store", "job_ms_p50 on serve-mix"),
    "serve.submit_ms": ("serve.daemon", "job_ms_p50, job_ms_p90 on serve-mix"),
    "serve.queue_wait_ms": ("serve.queue", "job_ms_p50, job_ms_p90 on serve-mix"),
    "serve.dispatch_ms": ("serve.workers", "job_ms_p50, job_ms_p90 on serve-mix"),
    "serve.drain_wait_ms": ("serve.workers", "job_ms_p50, job_ms_p90 on serve-mix"),
    "serve.overhead_ms": ("serve.daemon", "job_ms_p50, job_ms_p90 on serve-mix"),
    "queue.dedup_ratio": ("serve.queue", "job_ms_p50, job_ms_p90 on serve-mix"),
    "trace.overhead_ratio": ("obs.trace", "tracing cost; no end-to-end metric"),
}
