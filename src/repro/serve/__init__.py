"""Serving: a long-running sharded job daemon over the batch engine.

Where :mod:`repro.service` executes one manifest per process,
``repro.serve`` keeps a daemon alive: clients submit manifests over a
unix socket and poll (or stream) results while a deterministic worker
pool executes fingerprint-sharded jobs behind a persistent store.  The
pieces:

``queue``
    :class:`ShardedJobQueue` -- the one admission path for the daemon and
    ``red-qaoa batch`` alike, and the only code that reads, writes or
    parks in the store: fingerprint-prefix shards, cheapest-first
    priority, dedup on admission against this session's results,
    in-flight work and the store (one store read per new fingerprint),
    all-or-nothing retry-after backpressure, bounded retries with
    dead-letter parking.
``workers``
    :class:`InlineWorkerPool` / :class:`ProcessWorkerPool` plus the
    :func:`pump`/:func:`drain` driver shared with ``red-qaoa batch`` --
    N workers are bit-for-bit identical to 1 (jobs are pure functions of
    their fingerprints; shards merge in fingerprint order), and a killed
    worker costs only its in-flight jobs, which requeue.
``protocol`` / ``daemon`` / ``client``
    Newline-delimited JSON over a unix socket: submit -> ticket, poll,
    stream, status, drain, shutdown (``red-qaoa serve`` and
    ``red-qaoa submit``).
"""

from repro.serve.client import Backpressure, ServeClient, ServeError, wait_for_socket
from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError
from repro.serve.queue import ShardClaim, ShardedJobQueue, SubmitOutcome
from repro.serve.workers import (
    CrashPoint,
    InlineWorkerPool,
    ProcessWorkerPool,
    drain,
    execute_shard,
    make_pool,
    pump,
)

__all__ = [
    "PROTOCOL_VERSION",
    "Backpressure",
    "CrashPoint",
    "InlineWorkerPool",
    "ProcessWorkerPool",
    "ProtocolError",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "ShardClaim",
    "ShardedJobQueue",
    "SubmitOutcome",
    "drain",
    "execute_shard",
    "make_pool",
    "pump",
    "wait_for_socket",
]
