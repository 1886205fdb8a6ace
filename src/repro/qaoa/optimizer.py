"""Classical parameter optimization: COBYLA with restarts, grid search.

The paper optimizes with SciPy's COBYLA (ref. [52]) and multiple random
restarts, recording the parameters at every iteration so noisy runs can be
re-evaluated on an ideal simulator (Fig. 20).  :class:`OptimizationTrace`
captures exactly that record.

Restarts are independent once their start points are drawn, so
:func:`multi_restart_optimize` can run them on forked processes, one per
CPU of the process's affinity mask (:func:`restart_width`), with results
bit-identical to the sequential loop.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize as sciopt

from repro.obs.metrics import REGISTRY, snapshot_delta
from repro.obs.trace import Tracer, get_tracer, install_tracer
from repro.qaoa.landscape import BETA_RANGE, GAMMA_RANGE, grid_axes
from repro.utils.rng import as_generator

__all__ = [
    "OptimizationTrace",
    "blas_single_threaded",
    "cobyla_optimize",
    "grid_search",
    "hold_restarts_sequential",
    "multi_restart_optimize",
    "random_initial_point",
    "restart_width",
]

EnergyFunction = Callable[[np.ndarray, np.ndarray], float]
"""Signature: f(gammas, betas) -> expectation (to be MAXIMIZED)."""


@dataclass
class OptimizationTrace:
    """Record of one optimization run.

    ``parameters[i]`` is the (gammas, betas) pair evaluated at step ``i``
    and ``values[i]`` the objective seen by the optimizer (possibly noisy);
    ``best_value``/``best_parameters`` track the incumbent.
    """

    parameters: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, gammas: np.ndarray, betas: np.ndarray, value: float) -> None:
        self.parameters.append((gammas.copy(), betas.copy()))
        self.values.append(float(value))

    @property
    def num_evaluations(self) -> int:
        return len(self.values)

    @property
    def best_value(self) -> float:
        if not self.values:
            raise ValueError("trace is empty")
        return max(self.values)

    @property
    def best_parameters(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.values:
            raise ValueError("trace is empty")
        index = int(np.argmax(self.values))
        return self.parameters[index]

    def reevaluate(self, fn: EnergyFunction) -> np.ndarray:
        """Evaluate every visited parameter set under another objective.

        Fig. 20's protocol: record noisy-optimizer iterates, then recompute
        their *ideal* energies to compare convergence trajectories.
        """
        return np.array([fn(g, b) for g, b in self.parameters])


def random_initial_point(p: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random starting vector [gammas..., betas...] of length 2p."""
    gammas = rng.uniform(GAMMA_RANGE[0], GAMMA_RANGE[1], size=p)
    betas = rng.uniform(BETA_RANGE[0], BETA_RANGE[1], size=p)
    return np.concatenate([gammas, betas])


def cobyla_optimize(
    fn: EnergyFunction,
    p: int,
    initial: np.ndarray | None = None,
    maxiter: int = 100,
    rhobeg: float = 0.5,
    seed: int | np.random.Generator | None = None,
) -> OptimizationTrace:
    """Maximize ``fn`` with COBYLA from ``initial`` (random if omitted)."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if maxiter < 1:
        raise ValueError(f"maxiter must be >= 1, got {maxiter}")
    rng = as_generator(seed)
    if initial is None:
        initial = random_initial_point(p, rng)
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (2 * p,):
        raise ValueError(f"initial point must have shape ({2 * p},), got {initial.shape}")
    trace = OptimizationTrace()

    def objective(x: np.ndarray) -> float:
        gammas, betas = x[:p], x[p:]
        value = fn(gammas, betas)
        trace.record(gammas, betas, value)
        return -value  # COBYLA minimizes.

    # COBYLA needs at least dim + 2 evaluations to build its first simplex.
    effective_maxiter = max(maxiter, 2 * p + 2)
    sciopt.minimize(
        objective,
        initial,
        method="COBYLA",
        options={"maxiter": effective_maxiter, "rhobeg": rhobeg},
    )
    return trace


def multi_restart_optimize(
    fn: EnergyFunction,
    p: int,
    restarts: int,
    maxiter: int = 100,
    seed: int | np.random.Generator | None = None,
    *,
    width: int = 1,
) -> list[OptimizationTrace]:
    """Independent COBYLA runs from random starts (paper Sec. 6.4/6.5).

    ``width > 1`` runs the restarts on that many processes, each pinned
    to one CPU -- pass :func:`restart_width`'s answer: every start point
    is drawn up front, in restart order, then this process takes restarts
    ``0, width, ...`` and ``width - 1`` forked children take the rest;
    traces come back in restart order.  For an objective that draws nothing from ``seed``'s
    stream, that is bit-identical to ``width=1``, where each start is
    drawn just before its run.  A noisy objective sharing the stream must
    stay at ``width=1``: its draws interleave with the start draws, and
    in a child they would be lost to the caller's stream.

    Each COBYLA run records one ``restart`` span (attributes ``index``,
    ``evals``, ``pid``) under the caller's current span.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    rng = as_generator(seed)
    if min(width, restarts) <= 1:
        return [_restart(fn, p, index, maxiter, seed=rng) for index in range(restarts)]
    starts = [random_initial_point(p, rng) for _ in range(restarts)]
    return _forked_restarts(fn, p, starts, maxiter, min(width, restarts))


_sequential = False  # set by hold_restarts_sequential()


def hold_restarts_sequential() -> None:
    """Make :func:`restart_width` answer 1 in this process from now on.

    For processes that already share the CPUs with siblings, such as the
    workers of a multi-worker serve pool: forking there would oversubscribe
    the CPUs, and every process would pin its share to the same first CPUs.
    """
    global _sequential
    _sequential = True


def restart_width(restarts: int) -> int:
    """Processes :func:`multi_restart_optimize` may use for ``restarts`` runs.

    One per CPU in this process's affinity mask, at most one per restart.
    The answer is 1 -- the sequential loop -- where ``fork`` or affinity
    masks are unavailable, after :func:`hold_restarts_sequential`, while
    another thread is running (a forked child inherits no threads, only
    the locks they may hold), and unless BLAS is held to one thread: a
    multi-threaded BLAS already spreads each evaluation over the CPUs,
    and a process pinned to one CPU would starve its own BLAS threads.
    """
    if _sequential or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1 or not blas_single_threaded():
        return 1
    return max(1, min(restarts, len(os.sched_getaffinity(0))))


def blas_single_threaded() -> bool:
    """Whether the standard variables hold OpenBLAS and MKL to one thread.

    Each library reads its own variable first and ``OMP_NUM_THREADS``
    after it; unset means one thread per CPU.
    """
    omp = os.environ.get("OMP_NUM_THREADS")
    return all(
        os.environ.get(name, omp) == "1" for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    )


def _restart(fn, p, index, maxiter, start=None, seed=None) -> OptimizationTrace:
    """One COBYLA run (from ``start``, else drawn from ``seed``) as a ``restart`` span."""
    t0 = time.perf_counter_ns()
    trace = cobyla_optimize(fn, p, initial=start, maxiter=maxiter, seed=seed)
    t1 = time.perf_counter_ns()
    tracer = get_tracer()
    if tracer is not None:
        tracer.write_span(
            "restart", t0, t1,
            parent=tracer.current_span, job=tracer.current_job,
            attrs={"index": index, "evals": trace.num_evaluations, "pid": os.getpid()},
        )
    return trace


def _forked_restarts(fn, p, starts, maxiter, width) -> list[OptimizationTrace]:
    """Round-robin ``starts`` over this process and ``width - 1`` forked children.

    Each child runs its share and writes back one pickle -- its traces
    (or the exception that stopped it), its metrics delta and its spans --
    then leaves through ``os._exit``.  The caller merges metrics, grafts
    spans under its current span, and always reaps every child: one it
    did not collect (its own share or a collection raised) is killed.  A
    share whose pipe or fork fails (``EAGAIN``, ``ENOMEM``) runs in the
    caller instead; the traces are the same either way.

    Under a single-threaded BLAS, process ``k`` is pinned to the ``k``-th
    CPU of the caller's mask (the caller's own mask is restored after):
    left to itself, the scheduler can keep a fresh child on its parent's
    CPU for hundreds of milliseconds, the whole length of a restart.  A
    multi-threaded BLAS is left unpinned, because the threads it starts
    in a pinned process would all share that one CPU.
    """
    traces: list[OptimizationTrace | None] = [None] * len(starts)
    children: dict[int, int] = {}  # pid -> read end of its pipe, until collected
    parent = os.getpid()
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask) if blas_single_threaded() else [None]
    failure = None
    try:
        for first in range(1, width):
            try:
                read_fd, write_fd = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:  # e.g. EAGAIN under RLIMIT_NPROC
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:  # child: never returns
                os.close(read_fd)
                for fd in children.values():
                    os.close(fd)
                _child_main(fn, p, starts, range(first, len(starts), width), maxiter,
                            write_fd, parent, cpus[first % len(cpus)])
            os.close(write_fd)
            children[pid] = read_fd
        _pin(cpus[0])
        forked = len(children)  # shares 1..forked; the caller runs the others
        for index in range(len(starts)):
            if index % width == 0 or index % width > forked:
                traces[index] = _restart(fn, p, index, maxiter, start=starts[index])
        for first, pid in enumerate(list(children), start=1):
            with os.fdopen(children.pop(pid), "rb") as pipe:
                try:
                    payload = pipe.read()
                finally:
                    status = os.waitpid(pid, 0)[1]
            if os.WIFSIGNALED(status):
                name = signal.Signals(os.WTERMSIG(status)).name
                failure = failure or RuntimeError(f"restart worker {pid} died from {name}")
                continue
            if not payload:
                code = os.waitstatus_to_exitcode(status)
                failure = failure or RuntimeError(f"restart worker {pid} exited with {code}")
                continue
            (outcome, result), metrics, spans = pickle.loads(payload)
            del payload
            REGISTRY.merge(metrics)
            _graft(spans)
            if outcome == "error":
                failure = failure or result
            else:
                traces[first::width] = result
    finally:
        os.sched_setaffinity(0, mask)
        for pid, read_fd in children.items():
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failure is not None:
        raise failure
    return traces


def _child_main(fn, p, starts, indices, maxiter, write_fd, parent, cpu) -> None:
    """A forked child's whole life: run ``indices`` (on ``cpu``, unless ``None``),
    write one pickle, ``os._exit``.

    It inherits the caller's open sockets, stores and trace sinks, so it
    touches none of them: spans go to a collector tracer, and ``os._exit``
    skips ``atexit`` handlers and stdio flushes.
    """
    status = 1
    try:
        _exit_with(parent)
        _pin(cpu)
        # Swap the inherited tracer (and its sink) for a private collector.
        collector = Tracer(None) if get_tracer() is not None else None
        install_tracer(collector)
        baseline = REGISTRY.snapshot()
        try:
            outcome = ("ok", [_restart(fn, p, i, maxiter, start=starts[i]) for i in indices])
        except Exception as exc:  # noqa: BLE001 - shipped to the caller, re-raised there
            outcome = ("error", _portable(exc))
        metrics = snapshot_delta(REGISTRY.snapshot(), baseline)
        spans = collector.drain() if collector is not None else []
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps((outcome, metrics, spans)))
        status = 0
    finally:
        os._exit(status)


def _pin(cpu: int | None) -> None:
    """Run the calling process on ``cpu`` only (``None`` leaves its mask alone);
    scheduling is a hint, so a refused request leaves the mask as it was."""
    if cpu is None:
        return
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives a pickle round trip, else a ``RuntimeError`` naming it."""
    try:
        return pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any pickling failure takes the fallback
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _graft(spans: list[dict]) -> None:
    """Emit a child's spans, its roots under the caller's current span and job."""
    tracer = get_tracer()
    if tracer is None:
        return
    ids = {record["span"] for record in spans}
    for record in spans:
        if record["parent"] not in ids:
            record["parent"] = tracer.current_span
        record["job"] = tracer.current_job
        tracer.emit(record)


_PR_SET_PDEATHSIG = 1


def _exit_with(parent: int) -> None:
    """Have the kernel SIGKILL this child when ``parent`` dies (Linux only).

    A killed serve worker then takes its restart children with it instead
    of leaving them to finish restarts nobody will read.
    """
    import ctypes

    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != parent:  # the parent died before the request took effect
        os._exit(1)


def grid_search(
    fn: EnergyFunction,
    width: int = 30,
) -> tuple[tuple[float, float], float, np.ndarray]:
    """Exhaustive p=1 grid search over the standard parameter ranges.

    Returns ``((gamma, beta), best_value, grid_values)`` where
    ``grid_values[i, j]`` is the objective at ``(gammas[i], betas[j])``.
    """
    gammas, betas = grid_axes(width)
    values = np.empty((width, width))
    for i, gamma in enumerate(gammas):
        for j, beta in enumerate(betas):
            values[i, j] = fn(np.array([gamma]), np.array([beta]))
    i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    return (float(gammas[i]), float(betas[j])), float(values[i, j]), values
