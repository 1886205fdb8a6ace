"""Thin client for the serve daemon (used by ``red-qaoa submit``).

One request per connection keeps the client stateless and trivially
retry-safe; ``stream`` holds its connection open and yields events as the
daemon pushes them.  Everything returns the daemon's reply mapping
verbatim -- the two failure modes a caller must handle get exceptions:

- :class:`Backpressure`: the queue is past its high-water mark; the
  exception carries the daemon's ``retry_after`` hint in seconds;
- :class:`ServeError`: any other refused request (bad manifest, unknown
  ticket, draining daemon, ...).
"""

from __future__ import annotations

import socket
import time
from pathlib import Path

from repro.serve.protocol import decode_reply, encode

__all__ = ["Backpressure", "ServeClient", "ServeError", "wait_for_socket"]


class ServeError(RuntimeError):
    """The daemon refused a request."""

    def __init__(self, reply: dict) -> None:
        super().__init__(reply.get("error", "request refused"))
        self.reply = reply


class Backpressure(ServeError):
    """Submission rejected past the high-water mark; back off and retry."""

    def __init__(self, reply: dict) -> None:
        super().__init__(reply)
        self.retry_after = float(reply.get("retry_after") or 1.0)


def wait_for_socket(path: str | Path, timeout: float = 10.0) -> None:
    """Block until a daemon listens on ``path`` (startup synchronization)."""
    deadline = time.monotonic() + timeout
    path = str(path)
    while True:
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.connect(path)
            return
        except OSError:
            if time.monotonic() >= deadline:
                raise TimeoutError(f"no daemon listening on {path} after {timeout}s")
            time.sleep(0.05)
        finally:
            probe.close()


class ServeClient:
    """Speak the :mod:`repro.serve.protocol` to a daemon socket."""

    def __init__(self, socket_path: str | Path, timeout: float = 60.0) -> None:
        self.socket_path = str(socket_path)
        self.timeout = timeout

    def _connect(self) -> socket.socket:
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.settimeout(self.timeout)
        conn.connect(self.socket_path)
        return conn

    def request(self, message: dict) -> dict:
        """One request line, one reply line, connection closed."""
        conn = self._connect()
        try:
            stream = conn.makefile("rwb")
            stream.write(encode(message))
            stream.flush()
            line = stream.readline()
            if not line:
                raise ServeError({"error": "daemon closed the connection"})
            return decode_reply(line)
        finally:
            conn.close()

    # -- operations ----------------------------------------------------------

    def submit(self, manifest: dict) -> dict:
        """Submit a manifest; returns the ticket reply.

        Raises :class:`Backpressure` on a high-water rejection (carrying
        ``retry_after``) and :class:`ServeError` on any other refusal.
        """
        reply = self.request({"op": "submit", "manifest": manifest})
        if not reply.get("ok"):
            if reply.get("retry_after") is not None:
                raise Backpressure(reply)
            raise ServeError(reply)
        return reply

    def submit_with_retry(
        self, manifest: dict, attempts: int = 8, max_wait: float = 30.0
    ) -> dict:
        """Submit, honoring backpressure: sleep ``retry_after`` and retry."""
        for attempt in range(attempts):
            try:
                return self.submit(manifest)
            except Backpressure as exc:
                if attempt == attempts - 1:
                    raise
                time.sleep(min(exc.retry_after, max_wait))
        raise AssertionError("unreachable")

    def poll(self, ticket: str) -> dict:
        reply = self.request({"op": "poll", "ticket": ticket})
        if not reply.get("ok"):
            raise ServeError(reply)
        return reply

    def stream(self, ticket: str):
        """Yield the ticket's per-job events as the daemon pushes them.

        Ends after the ``{"event": "done"}`` (or ``"aborted"``) summary,
        which is yielded too.
        """
        conn = self._connect()
        try:
            stream = conn.makefile("rwb")
            stream.write(encode({"op": "stream", "ticket": ticket}))
            stream.flush()
            for line in stream:
                message = decode_reply(line)
                if message.get("ok") is False:
                    raise ServeError(message)
                yield message
                if message.get("event") in ("done", "aborted"):
                    return
        finally:
            conn.close()

    def wait(self, ticket: str, timeout: float | None = None, interval: float = 0.05) -> dict:
        """Poll until every job of the ticket is done or dead."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            reply = self.poll(ticket)
            if reply["done"]:
                return reply
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"ticket {ticket} unfinished after {timeout}s")
            time.sleep(interval)

    def status(self) -> dict:
        return self.request({"op": "status"})

    def metrics(self) -> dict:
        """Snapshot + Prometheus text from the daemon's ``metrics`` op."""
        reply = self.request({"op": "metrics"})
        if not reply.get("ok"):
            raise ServeError(reply)
        return reply

    def health(self) -> dict:
        """Verdict + reasons + recent events from the daemon's ``health`` op."""
        reply = self.request({"op": "health"})
        if not reply.get("ok"):
            raise ServeError(reply)
        return reply

    def drain(self) -> dict:
        return self.request({"op": "drain"})

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})
