"""Structured NDJSON event logging for the serve daemon.

Daemon incidents -- worker crashes, shard requeues, dead letters -- were
previously invisible without a debugger.  :class:`EventLog` writes one
JSON object per line to stderr (or any stream): machine-parseable, cheap,
and ordered.  ``red-qaoa serve --log-json --log-level debug`` turns it
on; the default is a quiet human-readable one-liner per event at
``warning`` and above, so a healthy daemon stays silent.

Two additions over the PR 9 sink:

- a **recent-events ring**: the last ``ring`` events at ``info`` and
  above are kept in memory regardless of the emit threshold, so the
  ``health`` protocol verb and ``red-qaoa top`` can show what just
  happened even on a quietly-configured daemon (:meth:`EventLog.recent`);
- an optional **file sink with rotation** (``path`` / ``max_bytes`` /
  ``backups``): lines go to a file instead of a stream, and when the
  live file would exceed ``max_bytes`` it rotates to ``path.1`` (older
  files shift up, the oldest past ``backups`` is dropped) -- a
  long-running daemon's log is disk-bounded like its flight recorder.
  Like every JSONL file (:mod:`repro.utils.jsonl`), each append heals a
  torn tail under the file lock, so the next event keeps its own line.

This is deliberately not the stdlib ``logging`` module: the daemon needs
exactly one sink, one format, and zero global configuration leakage into
library users' own logging setups.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from pathlib import Path

from repro.utils import jsonl

__all__ = ["LEVELS", "EventLog", "NullLog"]

LEVELS = ("debug", "info", "warning", "error")
_RANK = {name: rank for rank, name in enumerate(LEVELS)}


class EventLog:
    """Leveled event sink: NDJSON or plain text, one line per event."""

    def __init__(
        self,
        level: str = "warning",
        json_mode: bool = False,
        stream=None,
        path: str | Path | None = None,
        max_bytes: int = 10_000_000,
        backups: int = 1,
        ring: int = 256,
    ) -> None:
        if level not in _RANK:
            raise ValueError(f"unknown log level {level!r} (choose from {LEVELS})")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if backups < 0:
            raise ValueError(f"backups must be >= 0, got {backups}")
        self.level = level
        self.json_mode = json_mode
        self.stream = stream if stream is not None else sys.stderr
        self.path = Path(path) if path is not None else None
        self.max_bytes = int(max_bytes)
        self.backups = int(backups)
        self._lock = threading.Lock()
        self._t0 = time.monotonic()
        self._ring: deque = deque(maxlen=max(1, int(ring)))

    def enabled(self, level: str) -> bool:
        return _RANK[level] >= _RANK[self.level]

    def event(self, level: str, event: str, **fields) -> None:
        """Record one event; dropped silently when below the threshold.

        Events at ``info`` and above land in the in-memory ring even when
        below the emit threshold -- recent history must survive a quiet
        configuration.
        """
        uptime = round(time.monotonic() - self._t0, 3)
        record = {"level": level, "event": event, "uptime": uptime, **fields}
        if _RANK[level] >= _RANK["info"]:
            with self._lock:
                self._ring.append(record)
        if not self.enabled(level):
            return
        if self.path is not None:
            with self._lock:
                jsonl.append(self.path, record, max_bytes=self.max_bytes, backups=self.backups)
            return
        if self.json_mode:
            line = jsonl.dumps(record)
        else:
            detail = " ".join(f"{key}={value}" for key, value in sorted(fields.items()))
            line = f"[{uptime:9.3f}] {level:<7} {event}" + (f" {detail}" if detail else "")
        with self._lock:
            print(line, file=self.stream, flush=True)

    def recent(self, count: int = 20) -> list[dict]:
        """The newest ``count`` ring events, oldest first."""
        with self._lock:
            events = list(self._ring)
        return events[-count:] if count >= 0 else events

    def debug(self, event: str, **fields) -> None:
        self.event("debug", event, **fields)

    def info(self, event: str, **fields) -> None:
        self.event("info", event, **fields)

    def warning(self, event: str, **fields) -> None:
        self.event("warning", event, **fields)

    def error(self, event: str, **fields) -> None:
        self.event("error", event, **fields)


class NullLog(EventLog):
    """An EventLog that drops everything; the default for library callers."""

    def __init__(self) -> None:
        super().__init__(level="error", json_mode=False, stream=None)

    def enabled(self, level: str) -> bool:
        return False

    def event(self, level: str, event: str, **fields) -> None:
        return

    def recent(self, count: int = 20) -> list[dict]:
        return []
