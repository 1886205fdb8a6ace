"""Concurrent COBYLA restarts: forked runs are bit-identical to sequential ones.

:func:`repro.qaoa.optimizer.multi_restart_optimize` with ``width > 1``
draws every start point up front and runs the restarts round-robin over
the caller and ``width - 1`` forked children.  These tests pin:

- traces equal to the sequential loop bit for bit, over restart counts,
  depths, graph and problem instances, and the dense and lightcone engines,
  and whole golden-corpus jobs equal to their sequential runs;
- the width rule (one process per CPU of the affinity mask, at most one
  per restart), and that only a lone serve pool worker forks;
- noisy runs never fork and keep their pinned results;
- child failures surface cleanly and no child outlives its caller;
- metrics and ``restart`` spans come back from the children.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import asdict
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import _golden_cases as golden
import repro.core.pipeline as pipeline_mod
import repro.qaoa.optimizer as optimizer_mod
from repro.core.pipeline import RedQAOA
from repro.core.reduction import GraphReducer
from repro.obs.metrics import REGISTRY, snapshot_delta
from repro.obs.trace import (
    Tracer,
    format_summary,
    install_tracer,
    load_trace,
    summarize_trace,
    trace_job,
    validate_trace,
)
from repro.problems import maxcut_problem, sk_problem
from repro.problems.expectation import problem_lightcone_plan
from repro.qaoa.expectation import EngineLimitError
from repro.qaoa.fast_sim import qaoa_expectation_fast
from repro.qaoa.hamiltonian import MaxCutHamiltonian
from repro.qaoa.lightcone import LightconePlan
from repro.qaoa.optimizer import multi_restart_optimize, restart_width
from repro.serve.queue import ShardedJobQueue
from repro.serve.workers import ProcessWorkerPool, drain
from repro.service import JobSpec, run_job

SRC = Path(__file__).resolve().parent.parent / "src"
needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="restart concurrency needs fork and affinity masks",
)
pytestmark = needs_fork

GRAPH = nx.random_regular_graph(3, 8, seed=7)
PROBLEM = sk_problem(8, seed=3)


def _engine(instance, p, method):
    """The ``"graph"`` or ``"problem"`` instance priced on one engine, called directly."""
    target = MaxCutHamiltonian(GRAPH) if instance == "graph" else PROBLEM
    if method == "statevector":
        return lambda gammas, betas: qaoa_expectation_fast(target, gammas, betas)
    if instance == "graph":
        return LightconePlan.build(GRAPH, p).evaluate
    plan, offset = problem_lightcone_plan(PROBLEM, p)
    return lambda gammas, betas: plan.evaluate(gammas, betas) + offset


@pytest.fixture
def forks(monkeypatch):
    """Count (and keep the pids of) every ``os.fork`` in this process."""
    pids: list[int] = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def fake_cpus(monkeypatch, count: int) -> None:
    """Pretend the affinity mask holds ``count`` CPUs (the width rule reads it)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def pipeline_cpus(monkeypatch, count: int) -> None:
    """Give the pipeline the width rule of a ``count``-CPU mask.

    The real mask stays untouched: the forked path may pin to its CPUs.
    """
    monkeypatch.setattr(
        pipeline_mod, "restart_width", lambda restarts: max(1, min(restarts, count))
    )


def blas_threads(monkeypatch, **values) -> None:
    """Set exactly the given BLAS thread variables (the width rule reads them)."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in values.items():
        monkeypatch.setenv(name, value)


def single_threaded_blas(monkeypatch) -> None:
    blas_threads(monkeypatch, OMP_NUM_THREADS="1")


def assert_same_bits(left, right) -> None:
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.values == b.values
        assert len(a.parameters) == len(b.parameters)
        for (ga, ba), (gb, bb) in zip(a.parameters, b.parameters):
            assert ga.tobytes() == gb.tobytes()
            assert ba.tobytes() == bb.tobytes()


def assert_reaped(pids) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# -- bit-identity ---------------------------------------------------------------


@pytest.mark.parametrize("method", ["statevector", "lightcone"])
@pytest.mark.parametrize("instance", ["graph", "problem"])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("restarts", [1, 2, 3, 5])
def test_concurrent_traces_equal_sequential_bit_for_bit(forks, restarts, p, instance, method):
    fn = _engine(instance, p, method)
    sequential = multi_restart_optimize(fn, p, restarts, maxiter=8, seed=restarts + p)
    assert forks == []
    width = min(3, restarts)
    concurrent = multi_restart_optimize(fn, p, restarts, maxiter=8, seed=restarts + p, width=width)
    assert len(forks) == width - 1
    assert_same_bits(sequential, concurrent)
    assert_reaped(forks)


def test_shared_generator_ends_in_the_same_state():
    """Drawing the starts up front leaves the caller's stream where the loop did."""
    fn = _engine("graph", 1, "statevector")
    rngs = [np.random.default_rng(4), np.random.default_rng(4)]
    multi_restart_optimize(fn, 1, 3, maxiter=6, seed=rngs[0])
    multi_restart_optimize(fn, 1, 3, maxiter=6, seed=rngs[1], width=2)
    assert rngs[0].random() == rngs[1].random()


@pytest.mark.parametrize("name", sorted(golden.job_specs()))
def test_whole_jobs_equal_across_widths(monkeypatch, forks, name):
    """Every golden case -- dense and lightcone, graph and problem, fine-tuned --
    gives the same job result sequentially and with concurrent restarts.

    (``tests/test_golden.py`` pins the sequential results to the corpus; the
    corpus holds for the BLAS thread count it was generated with.)
    """
    spec = golden.job_specs()[name]
    pipeline_cpus(monkeypatch, 1)
    sequential = run_job(spec)
    assert forks == []
    pipeline_cpus(monkeypatch, spec.restarts)
    concurrent = run_job(spec)
    assert len(forks) == spec.restarts - 1
    assert repr(asdict(concurrent)) == repr(asdict(sequential))  # NaN-safe


# -- the width rule -------------------------------------------------------------


def test_width_is_cpus_capped_by_restarts(monkeypatch):
    single_threaded_blas(monkeypatch)
    fake_cpus(monkeypatch, 2)
    assert [restart_width(r) for r in (0, 1, 2, 5)] == [1, 1, 2, 2]
    fake_cpus(monkeypatch, 8)
    assert restart_width(5) == 5


@pytest.mark.parametrize(
    "env",
    [{}, {"OMP_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"},
     {"OPENBLAS_NUM_THREADS": "1"}],
    ids=["unset", "omp-2", "openblas-2", "mkl-unset"],
)
def test_no_fork_unless_blas_is_single_threaded(monkeypatch, env):
    blas_threads(monkeypatch, **env)
    fake_cpus(monkeypatch, 4)
    assert restart_width(4) == 1
    monkeypatch.setenv("MKL_NUM_THREADS", "1")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert restart_width(4) == 4


def test_no_fork_while_other_threads_run(monkeypatch):
    single_threaded_blas(monkeypatch)
    fake_cpus(monkeypatch, 4)
    monkeypatch.setattr(optimizer_mod.threading, "active_count", lambda: 2)
    assert restart_width(4) == 1


def test_one_cpu_affinity_runs_sequentially_in_a_subprocess():
    cpu = min(os.sched_getaffinity(0))
    script = textwrap.dedent(
        f"""
        import os
        import networkx as nx
        os.sched_setaffinity(0, {{{cpu}}})
        forks = []
        real_fork = os.fork
        os.fork = lambda: forks.append(1) or real_fork()
        from repro.core.pipeline import RedQAOA
        from repro.qaoa.optimizer import restart_width
        RedQAOA(p=1, restarts=3, maxiter=6, seed=0).run(nx.cycle_graph(8))
        print(restart_width(3), len(forks))
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC), "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout.split()
    assert out == ["1", "0"]


def test_noisy_runs_never_fork_and_keep_their_pinned_result(monkeypatch, forks):
    pipeline_cpus(monkeypatch, 4)
    pinned = json.loads(golden.GOLDEN_PATH.read_text())["noisy-maxcut-n10-p1"]
    assert golden.noisy_run() == pinned
    assert forks == []
    # The same pipeline without noise does fork, so the count above means something.
    RedQAOA(p=1, reducer=GraphReducer(seed=11), restarts=2, maxiter=6, seed=12).run(
        nx.cycle_graph(10)
    )
    assert len(forks) == 1


def test_each_process_runs_pinned_and_the_mask_is_restored(monkeypatch):
    single_threaded_blas(monkeypatch)  # pinning is for single-threaded BLAS only
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)

    def where(gammas, betas):
        return float(min(os.sched_getaffinity(0)))  # the one CPU this process may use

    traces = multi_restart_optimize(where, 1, 3, maxiter=4, seed=0, width=3)
    assert os.sched_getaffinity(0) == mask
    assert [set(t.values) for t in traces] == [{float(cpus[k % len(cpus)])} for k in range(3)]


def restart_pids_per_job(pool, tmp_path) -> list[set[int]]:
    """Drain two traced 2-restart jobs through ``pool``: each job's restart pids."""
    specs = [
        JobSpec(graph=nx.random_regular_graph(3, 10, seed=s), p=1, restarts=2, maxiter=6, seed=s)
        for s in range(2)
    ]
    queue = ShardedJobQueue()
    for spec in specs:
        assert queue.admit([spec])[0].accepted
    path = tmp_path / "trace.jsonl"
    try:
        drain(queue, pool, on_result=lambda spec, r: None, tracer=Tracer(path))
    finally:
        pool.close()
    spans, _ = load_trace(path)
    return [
        {s["attrs"]["pid"] for s in spans if s["name"] == "restart" and s["job"] == spec.fingerprint}
        for spec in specs
    ]


def test_multi_worker_pool_workers_stay_unpinned_and_sequential(monkeypatch, tmp_path):
    single_threaded_blas(monkeypatch)
    pool = ProcessWorkerPool(2, trace=True)
    workers = set(pool.worker_pids())
    assert [os.sched_getaffinity(pid) for pid in workers] == [os.sched_getaffinity(0)] * 2
    per_job = restart_pids_per_job(pool, tmp_path)
    assert all(len(pids) == 1 and pids <= workers for pids in per_job)


def test_a_lone_pool_worker_forks_its_restarts(monkeypatch, tmp_path):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: the lone worker runs its restarts sequentially")
    single_threaded_blas(monkeypatch)
    pool = ProcessWorkerPool(1, trace=True)
    worker = set(pool.worker_pids())
    per_job = restart_pids_per_job(pool, tmp_path)
    assert all(len(pids) == 2 and worker <= pids for pids in per_job)


# -- failures and child lifetime ------------------------------------------------


class ChildOnlyError(RuntimeError):
    pass


class TwoArgError(Exception):
    """Unpicklable round trip: ``__init__`` needs two arguments."""

    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def in_child(parent: int, action):
    def fn(gammas, betas):
        if os.getpid() != parent:
            action()
        return float(np.cos(gammas[0]) * np.sin(betas[0]))

    return fn


@pytest.mark.parametrize(
    "error, expected, message",
    [
        (ChildOnlyError("boom in child"), ChildOnlyError, "boom in child"),
        (EngineLimitError("too large for any engine"), EngineLimitError, "too large"),
        (TwoArgError(7, "odd"), RuntimeError, "TwoArgError: 7: odd"),
    ],
)
def test_child_exception_resurfaces_with_its_type(forks, error, expected, message):
    def fail():
        raise error

    with pytest.raises(expected, match=message):
        multi_restart_optimize(in_child(os.getpid(), fail), 1, 3, maxiter=6, seed=0, width=3)
    assert len(forks) == 2
    assert_reaped(forks)


def test_killed_child_gives_one_line_error_and_no_zombie(forks):
    def die():
        os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(RuntimeError, match=r"restart worker \d+ died from SIGKILL"):
        multi_restart_optimize(in_child(os.getpid(), die), 1, 2, maxiter=6, seed=0, width=2)
    assert len(forks) == 1
    assert_reaped(forks)


@pytest.mark.parametrize("failing", ["pipe", "fork"])
def test_failed_pipe_or_fork_runs_the_share_in_the_caller(monkeypatch, failing):
    """``EAGAIN`` from the second pipe or fork: that share runs here, no fd leaks."""
    fn = _engine("graph", 1, "statevector")
    sequential = multi_restart_optimize(fn, 1, 5, maxiter=6, seed=2)
    real = getattr(os, failing)
    calls = []

    def second_fails():
        calls.append(1)
        if len(calls) == 2:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real()

    monkeypatch.setattr(os, failing, second_fails)
    fds = set(os.listdir("/proc/self/fd")) if Path("/proc/self/fd").is_dir() else None
    concurrent = multi_restart_optimize(fn, 1, 5, maxiter=6, seed=2, width=3)
    assert len(calls) == 2
    assert_same_bits(sequential, concurrent)
    if fds is not None:
        assert set(os.listdir("/proc/self/fd")) == fds


def test_callers_own_failure_kills_and_reaps_children(forks):
    parent = os.getpid()

    def fn(gammas, betas):
        if os.getpid() == parent:
            raise ChildOnlyError("caller failed first")
        time.sleep(10)  # a child that would outlive the test if not killed
        return 0.0

    t0 = time.monotonic()
    with pytest.raises(ChildOnlyError, match="caller failed first"):
        multi_restart_optimize(fn, 1, 2, maxiter=6, seed=0, width=2)
    assert time.monotonic() - t0 < 5
    assert_reaped(forks)


def _gone(pid: int) -> bool:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return True
    return "\nState:\tZ" in status  # dead, awaiting its new parent's reap


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="reads /proc")
def test_children_die_with_a_killed_caller(tmp_path):
    """A SIGKILLed serve worker takes its restart children with it."""
    pid_file = tmp_path / "child.pid"
    script = textwrap.dedent(
        f"""
        import os, pathlib, time
        from repro.qaoa.optimizer import multi_restart_optimize
        parent = os.getpid()
        def fn(gammas, betas):
            if os.getpid() != parent:
                pathlib.Path({str(pid_file)!r}).write_text(str(os.getpid()))
            time.sleep(60)
            return 0.0
        multi_restart_optimize(fn, 1, 2, maxiter=6, seed=0, width=2)
        """
    )
    caller = subprocess.Popen(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC)}
    )
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists() or not pid_file.read_text():
            assert time.monotonic() < deadline, "the child never started"
            time.sleep(0.05)
        child = int(pid_file.read_text())
    finally:
        caller.kill()
        caller.wait(timeout=30)
    deadline = time.monotonic() + 10
    while not _gone(child):
        assert time.monotonic() < deadline, f"restart child {child} outlived its caller"
        time.sleep(0.05)


# -- metrics and spans ----------------------------------------------------------


def counter_and_count_delta(before: dict, after: dict) -> dict:
    """Counters (timings excluded) and histogram counts moved between snapshots."""
    delta = snapshot_delta(after, before)
    counters = {k: v for k, v in delta["counters"].items() if not k.endswith("_seconds_total")}
    counts = {k: v["count"] for k, v in delta["histograms"].items()}
    return {"counters": counters, "histogram_counts": counts}


def test_metrics_from_children_are_merged(monkeypatch):
    # A p=1 problem (the analytic engine is for graphs): lightcone evaluations.
    spec = JobSpec(problem=maxcut_problem(nx.random_regular_graph(3, 40, seed=9)), p=1,
                   restarts=3, maxiter=8, seed=3)
    run_job(spec)  # warm every cache both measured runs then share

    def measured(cpus):
        pipeline_cpus(monkeypatch, cpus)
        before = REGISTRY.snapshot()
        run_job(spec)
        return counter_and_count_delta(before, REGISTRY.snapshot())

    sequential = measured(1)
    assert sequential["counters"]["redqaoa_lightcone_points_total"] > 0
    assert measured(3) == sequential


def test_traced_two_restart_job_shows_both_restarts(monkeypatch, tmp_path):
    pipeline_cpus(monkeypatch, 2)
    path = tmp_path / "trace.jsonl"
    previous = install_tracer(Tracer(path))
    try:
        with trace_job("job-1"):
            RedQAOA(p=1, restarts=2, maxiter=6, seed=0).run(nx.cycle_graph(10))
    finally:
        install_tracer(previous)
    spans, _ = load_trace(path)
    assert validate_trace(spans) == []
    optimize = [s for s in spans if s["name"] == "optimize"]
    assert len(optimize) == 1
    assert optimize[0]["attrs"] == {"restarts": 2, "width": 2}
    restarts = sorted((s for s in spans if s["name"] == "restart"),
                      key=lambda s: s["attrs"]["index"])
    assert [s["attrs"]["index"] for s in restarts] == [0, 1]
    assert all(s["parent"] == optimize[0]["span"] for s in restarts)
    assert all(s["job"] == "job-1" and s["attrs"]["evals"] > 0 for s in restarts)
    pids = [s["attrs"]["pid"] for s in restarts]
    assert pids[0] == os.getpid() != pids[1]
    summary = summarize_trace(path)
    assert summary["span_counts"]["restart"] == 2
    assert any(
        line.split()[:1] == ["restart"] and line.rstrip().endswith("x2")
        for line in format_summary(summary).splitlines()
    )
