"""Filesystem helpers: JSON-lines data files and atomic writes.

The paper's deployments use Parquet on S3/HDFS; our durable format is
JSON-lines (human-readable, like the paper's write-ahead log, §1) with
atomic rename-based commits, preserving the properties the engine relies
on: durability, atomic visibility of a completed file, and idempotent
re-writes.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from contextlib import contextmanager

from repro.observability import metrics
from repro.testing.faults import fault_point

#: Thread-local fsync deferral (see :func:`deferred_fsync`): when a
#: :class:`SyncGroup` is installed on the current thread, atomic writes
#: skip their per-file fsync and register their parent directory with
#: the group instead.  Durability then arrives at ``group.sync()``.
_deferral = threading.local()


def fsync_dir(path: str) -> None:
    """fsync a directory, making its completed renames durable.

    On POSIX filesystems an ``os.replace`` into a directory is durable
    once the *directory* is synced; one directory fsync therefore covers
    every rename batched into it since the last sync — the group-commit
    protocol the pipelined engine uses (§6.1 latency optimizations).
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class SyncGroup:
    """Batches the durability step of many atomic-visibility writes.

    Writers rename files into place immediately (readers see completed
    files, exactly as with :func:`atomic_write_text`) and register each
    destination directory here; :meth:`sync` then fsyncs every distinct
    pending directory once.  Crash semantics are unchanged in kind —
    only the in-flight temp file of the *current* write can be torn, and
    it is always the newest entry of its log, so ``repair_torn_tail``
    applies identically — but the window of renamed-yet-unsynced files
    is bounded by the caller's sync cadence instead of being empty.

    Thread-safe: the pipelined engine's background flusher and the
    engine thread may note paths into one group concurrently.
    """

    def __init__(self):
        self._dirs = set()
        self._lock = threading.Lock()

    def note(self, path: str) -> None:
        """Record that ``path`` was renamed into place and awaits sync."""
        with self._lock:
            self._dirs.add(os.path.dirname(path) or ".")

    def sync(self) -> int:
        """fsync every pending directory once; returns how many."""
        with self._lock:
            dirs = sorted(self._dirs)
            self._dirs.clear()
        for directory in dirs:
            fsync_dir(directory)
        if dirs:
            metrics.count("storage.fsyncs", len(dirs))
            metrics.count("storage.group_syncs")
        return len(dirs)


@contextmanager
def deferred_fsync(group: SyncGroup):
    """Defer this thread's atomic-write fsyncs into ``group``.

    Within the block, :func:`atomic_write_stream` (and everything built
    on it) skips the per-file fsync and notes the destination directory
    with ``group``; the caller owns the later ``group.sync()``.  Used by
    the pipelined engine for state-checkpoint and sink writes whose
    durability may lag their visibility (the recovery contract replays
    them from the WAL).
    """
    previous = getattr(_deferral, "group", None)
    _deferral.group = group
    try:
        yield group
    finally:
        _deferral.group = previous


def group_write_text(path: str, text: str, group: SyncGroup,
                     extra_point: str = None, **ctx) -> None:
    """Atomic-visibility write whose durability is deferred to ``group``.

    Same temp-file + rename protocol (and the same ``storage.*`` fault
    points) as :func:`atomic_write_text`, but the file fsync is replaced
    by registering the parent directory with ``group`` — one directory
    fsync at ``group.sync()`` then covers every write batched since the
    previous sync.  ``extra_point`` names an additional fault point fired
    while the temp file is in flight (the WAL's group-commit window).
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
            f.flush()
        fault_point("storage.write", path=path, tmp_path=tmp_path)
        if extra_point is not None:
            fault_point(extra_point, path=path, tmp_path=tmp_path, **ctx)
        # No file fsync here (that is the point), but the crash window it
        # marks still exists — fire the same point so every schedule that
        # tears or drops a sequential write can hit the grouped one too.
        fault_point("storage.fsync", path=path, tmp_path=tmp_path)
        os.replace(tmp_path, path)
        fault_point("storage.rename", path=path)
        group.note(path)
        metrics.count("storage.atomic_writes")
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write a file so readers never observe a partial write.

    Writes to a temp file in the same directory, fsyncs, then renames —
    the same recipe the real Structured Streaming HDFS log uses.  The
    three fault points bracket the protocol's crash windows: content
    written but unsynced, synced but invisible, and visible.
    """
    atomic_write_stream(path, (text,))


def atomic_write_stream(path: str, chunks) -> None:
    """Atomic write from an iterable of chunks, each text (written as
    UTF-8) or bytes (written as they are).

    Same protocol and fault points as :func:`atomic_write_text`, but the
    content streams through a bounded buffer — the tiered state store's
    sorted runs can be far larger than its memtable budget, so they must
    never exist as one in-memory string.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    # A thread-local SyncGroup (see deferred_fsync) replaces the
    # per-file fsync with one later directory fsync; the rename-based
    # visibility protocol and its fault points are unchanged.
    group = getattr(_deferral, "group", None)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk if type(chunk) is bytes
                        else chunk.encode("utf-8"))
            f.flush()
            fault_point("storage.write", path=path, tmp_path=tmp_path)
            if group is None:
                os.fsync(f.fileno())
                metrics.count("storage.fsyncs")
        fault_point("storage.fsync", path=path, tmp_path=tmp_path)
        os.replace(tmp_path, path)
        fault_point("storage.rename", path=path)
        if group is not None:
            group.note(path)
        metrics.count("storage.atomic_writes")
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def atomic_write_json(path: str, payload) -> None:
    """Atomically write a JSON document (pretty-printed, human-readable)."""
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True))


def read_json(path: str):
    """Read one JSON document."""
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def bind_encoder(encode):
    """``encode`` — the bound ``encode`` of an ASCII-only, non-indenting
    :class:`json.JSONEncoder` — for the values of one file, its C
    encoder built once instead of on every call (``JSONEncoder.encode``
    rebuilds it per value: ~2.0 vs ~1.3 µs for a one-entry record).  A
    fresh ``markers`` dict per file keeps the circular-reference check,
    and a value that fails part-way through one file leaves no stale
    marker in the next."""
    make = json.encoder.c_make_encoder
    if make is None:
        return encode
    e = encode.__self__
    c_encode = make({}, e.default, json.encoder.encode_basestring_ascii,
                    e.indent, e.key_separator, e.item_separator,
                    e.sort_keys, e.skipkeys, e.allow_nan)
    return lambda value: "".join(c_encode(value, 0))


def write_jsonl(path: str, rows) -> None:
    """Atomically write rows as JSON-lines."""
    atomic_write_text(path, "".join(json.dumps(row) + "\n" for row in rows))


def read_jsonl(path: str) -> list:
    """Read a JSON-lines file into a list of dicts.

    The whole file is one ``json.loads`` call, so the decoder's key memo
    gives every row of the file the same key strings: 235 B per
    four-column row held, against 402 B when each line is its own call
    (every row then owns private copies of its keys).  A file the joined
    decode does not take line for line — blank lines, or a line holding
    anything but one value — is read a line at a time, which raises on
    the malformed line as it always did."""
    with open(path, encoding="utf-8") as f:
        text = f.read().strip()
    if not text:
        return []
    try:
        rows = json.loads("[" + text.replace("\n", ",") + "]")
    except ValueError:
        rows = None
    if rows is None or len(rows) != text.count("\n") + 1:
        rows = [json.loads(line) for line in text.split("\n") if line.strip()]
    return rows


def repair_torn_tail(directory: str, suffix=".json", check=read_json) -> list:
    """Remove the newest file in ``directory`` if it is unreadable.

    Under the atomic-write protocol only the file in flight at a crash
    can be torn, and it is always the newest entry of its log; a torn
    *older* entry is real corruption, so only the tail is quarantined —
    recovery then treats the write as never having happened.  ``check``
    raises ``ValueError``/``OSError`` on a torn file (JSON documents by
    default; state directories pass their codec's frame check, with a
    tuple of suffixes).  Returns the paths removed (0 or 1).
    """
    names = list_files(directory, suffix)
    if not names:
        return []
    path = os.path.join(directory, names[-1])
    try:
        check(path)
    except (ValueError, OSError):
        os.unlink(path)
        return [path]
    return []


def list_files(directory: str, suffix="") -> list:
    """Sorted non-hidden files in a directory (empty if missing) whose
    names end with ``suffix`` (a string, or a tuple of alternatives)."""
    if not os.path.isdir(directory):
        return []
    names = [
        n for n in os.listdir(directory)
        if not n.startswith(".") and n.endswith(suffix)
    ]
    return sorted(names)
