"""Source interfaces.

A :class:`Source` exposes a partially ordered stream as per-partition
offset ranges (§4.2: records are totally ordered within a partition,
unordered across partitions).  The engine's contract with sources is:

* ``latest_offsets`` — what data exists right now (end of each partition);
* ``get_partition_batch(partition, start, end, schema=None)`` — the one
  read a source implements, *replayable*: the same range must return the
  same records until ``commit`` allows their disposal.  ``schema`` is a
  subset of the source's fields, in source order — the columns the query
  references, which the engine works out at plan time — and the batch
  carries exactly those (None: every field).  A columnar source never
  touches the others; a row-decoding source drops them after the decode;
* ``get_batch(start, end, schema=None)`` — an epoch's read, in the base
  class only: the partitions' reads as one chunked batch;
* ``commit(end)`` — all data before ``end`` has been durably committed to
  the sink; the source may release it (e.g. retention trimming);
* ``wait_for_data(partition, offset, timeout)`` / ``wake(partition)`` —
  how a long-lived reader idles: a source whose producer can notify
  (the bus, the retained log) blocks until data arrives or ``wake``;
  the default sleeps :data:`POLL_INTERVAL` and lets the reader look
  again.

Offsets are ``{partition_name: int}`` dicts so they serialize directly
into the human-readable JSON write-ahead log (§1, §6.1).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, bisect_right
from operator import itemgetter

from repro.bus.broker import TopicPartition
from repro.sql.batch import RecordBatch
from repro.sql.types import StructType

PARTITION = "0"
_UPTO = itemgetter(0)
#: Seconds :meth:`Source.wait_for_data` sleeps for a source with no
#: notifier (files, the rate source).
POLL_INTERVAL = 0.0002


def ingest_floor_from_segments(segments, start: int, end: int):
    """Oldest ingest timestamp among rows with offsets in ``[start, end)``.

    ``segments`` is the append-time record the single-partition sources
    keep: ``[(row_count_after_append, ingest_timestamp), ...]`` — one
    entry per producer append, so segment ``i`` covers offsets
    ``[segments[i-1][0], segments[i][0])``.  Returns None when the range
    is empty or predates segment tracking.  Bisected: O(log history).
    """
    if end <= start:
        return None
    first = bisect_right(segments, start, key=_UPTO)
    last = bisect_left(segments, end, key=_UPTO)
    return min((ingest_time for _, ingest_time in segments[first:last + 1]
                if ingest_time is not None), default=None)


class Source:
    """Base class for replayable streaming sources.

    Sources may additionally implement ``ingest_floor(start, end) ->
    float | None`` — the oldest wall-clock ingest timestamp in the
    offset range — which the engine uses (getattr-probed, optional) to
    report end-to-end event-time lag through cascades of stream tables.
    """

    schema: StructType

    def partitions(self) -> list:
        """Stable partition names."""
        raise NotImplementedError

    def initial_offsets(self) -> dict:
        """Offsets representing "before any data"."""
        raise NotImplementedError

    def latest_offsets(self) -> dict:
        """End offsets of all data currently available."""
        raise NotImplementedError

    def get_batch(self, start: dict, end: dict, schema: StructType = None) -> RecordBatch:
        """Each non-empty partition's ``[start, end)``, in sorted partition
        order, as the parts of one chunked batch."""
        schema = schema or self.schema
        parts = [
            self.get_partition_batch(p, start.get(p, 0), end[p], schema)
            for p in sorted(end) if end[p] > start.get(p, 0)
        ]
        if len(parts) < 2:
            return parts[0] if parts else RecordBatch.empty(schema)
        return RecordBatch.chunked(parts, schema)

    def get_partition_batch(self, partition: str, start: int, end: int,
                            schema: StructType = None) -> RecordBatch:
        """One partition's records in ``[start, end)`` with the fields of
        ``schema`` (None: all); the same for any retained range."""
        raise NotImplementedError

    def commit(self, end: dict) -> None:
        """Notify that data before ``end`` is durably processed (optional)."""

    def wait_for_data(self, partition: str, offset: int, timeout: float) -> None:
        """Return once ``partition`` may hold a record at ``offset`` or
        later, within ``timeout`` seconds.  This default has nothing to
        wait on and sleeps :data:`POLL_INTERVAL`."""
        time.sleep(min(timeout, POLL_INTERVAL))

    def wake(self, partition: str) -> None:
        """End every :meth:`wait_for_data` on ``partition`` now (the
        default's sleep ends on its own)."""

    def offsets_delta(self, start: dict, end: dict) -> int:
        """Number of records in ``[start, end)`` across partitions."""
        return sum(end[p] - start.get(p, 0) for p in end)


class SourceDescriptor:
    """A serializable-ish recipe for (re)attaching to a source.

    Logical plans hold descriptors rather than live sources so the same
    plan can be executed as a fresh application after a restart; the
    engine calls :meth:`create` once per run.
    """

    name = "source"

    def create(self) -> Source:
        """Instantiate (or re-attach to) the source."""
        raise NotImplementedError


class RetainedLogSource(Source, SourceDescriptor):
    """A single-partition, fully retained in-memory source: the one log
    behind ``MemoryStream``, ``ChangeStream`` and ``StreamTable``.

    Appends are columnar chunks of an in-process ``TopicPartition`` (rows
    become columns once, when appended); an epoch's range is read back
    as slices of them, and a stamped append records its ingest timestamp
    (``ingest_floor``).  Nothing is trimmed, so any epoch can be
    replayed, and the object is its own descriptor: shared by producer
    and engine, it survives engine restarts as an external bus would.
    """

    def __init__(self):
        self._log = TopicPartition(self.name, 0)
        #: [(end offset after the append, ingest timestamp)], ascending.
        self._ingest = []
        #: Re-entrant: ``StreamTable.add_batch`` appends while holding it.
        self._lock = threading.RLock()

    def _append(self, batch: RecordBatch, ingest_time) -> None:
        """Append one chunk; ``ingest_time`` None leaves it unstamped."""
        if batch.num_rows == 0:
            return
        with self._lock:
            end = self._log.append_batch(batch)
            if ingest_time is not None:
                self._ingest.append((end, float(ingest_time)))

    def ingest_floor(self, start: dict, end: dict):
        """Oldest ingest timestamp in ``[start, end)``, or None."""
        with self._lock:
            return ingest_floor_from_segments(
                self._ingest, start.get(PARTITION, 0), end.get(PARTITION, 0))

    def create(self):
        return self

    def partitions(self) -> list:
        return [PARTITION]

    def initial_offsets(self) -> dict:
        return {PARTITION: 0}

    def latest_offsets(self) -> dict:
        with self._lock:
            return {PARTITION: self._log.end_offset}

    def get_partition_batch(self, partition: str, start: int, end: int,
                            schema: StructType = None) -> RecordBatch:
        return self._log.read_columnar(start, end, schema or self.schema)

    def wait_for_data(self, partition: str, offset: int, timeout: float) -> None:
        self._log.wait_past(offset, timeout)

    def wake(self, partition: str) -> None:
        self._log.wake()
