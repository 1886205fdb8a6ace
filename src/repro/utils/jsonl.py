"""The one JSONL file layer: every JSONL file the package writes and reads.

The result store, trace files, the event log, the flight-recorder ring and
the bench trajectory all go through here.  A line is one
``json.dumps(record, sort_keys=True, separators=(",", ":"))`` object plus
``\\n``.  The one crash rule: :func:`append` takes an advisory ``flock``
(where ``fcntl`` exists) and, under it, terminates a torn final line left
by a writer killed mid-append before writing, so the new record never glues
onto the broken one.  Healing needs the lock: a sibling's line mid-write
also lacks its newline.  :func:`read` skips and counts undecodable lines.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

try:  # advisory locking is POSIX-only; appends degrade to unlocked elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = ["append", "dumps", "read", "rotate", "segments"]


def dumps(record: dict) -> str:
    """One record in the line format, without its newline."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def append(path, record: dict, *, fsync=False, max_bytes=None, backups=0) -> None:
    """Append ``record`` as one line; ``fsync`` makes it durable on return.

    With ``max_bytes``, first :func:`rotate` (keeping ``backups``) if the
    line would take the file past that size.  Creates parent directories.
    """
    path = Path(path)
    line = (dumps(record) + "\n").encode("utf-8")
    if max_bytes is not None:
        rotate(path, max_bytes, backups, incoming=len(line))
    try:
        handle = path.open("a+b")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = path.open("a+b")
    with handle:  # closing the handle releases the lock
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        end = handle.seek(0, os.SEEK_END)
        if end:
            handle.seek(end - 1)
            if handle.read(1) != b"\n":  # a torn tail: terminate it first
                line = b"\n" + line
        handle.write(line)  # O_APPEND: lands at the end wherever we read
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())


def rotate(path, max_bytes: int, backups: int, incoming: int = 0) -> None:
    """Ring ``path -> path.1 -> ... -> path.<backups>`` (the oldest falls off)
    if ``incoming`` more bytes would take a non-empty ``path`` past
    ``max_bytes``; with ``backups == 0`` the live file is deleted."""
    path = Path(path)
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        return
    if size == 0 or size + incoming <= max_bytes:
        return
    numbered = [path] + [path.with_name(f"{path.name}.{i}") for i in range(1, backups + 1)]
    numbered[-1].unlink(missing_ok=True)
    for index in range(backups - 1, -1, -1):
        if numbered[index].exists():
            numbered[index].replace(numbered[index + 1])


def segments(path) -> list[Path]:
    """A ring's existing files, oldest first: ``path.N`` ... ``path.1``, ``path``."""
    path = Path(path)
    rotated = []
    for sibling in path.parent.glob(f"{path.name}.*"):
        suffix = sibling.name[len(path.name) + 1 :]
        if suffix.isdigit():
            rotated.append((int(suffix), sibling))
    files = [sibling for _, sibling in sorted(rotated, reverse=True)]
    return files + [path] if path.exists() else files


def read(path) -> tuple[list[dict], int]:
    """``(records, skipped)``: the JSON objects of one file in file order.

    Blank lines are ignored; a line that is not a JSON object (a torn tail,
    garbage, a bare scalar) is skipped and counted.  A missing file raises.
    """
    records: list[dict] = []
    skipped = 0
    with Path(path).open("rb") as handle:
        for line in handle:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:  # JSONDecodeError, or bytes that are not UTF-8
                record = None
            if isinstance(record, dict):
                records.append(record)
            else:
                skipped += 1
    return records, skipped
