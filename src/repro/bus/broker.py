"""In-process partitioned log broker.

Semantics follow the subset of Kafka the paper depends on (§4.2's partial
order, §6.1's offset-based epochs):

* each topic has a fixed number of partitions;
* each partition is an append-only ordered log; records within a partition
  are totally ordered, records across partitions are not;
* consumers address data by ``(partition, offset)`` and can re-read any
  retained range — this is what makes sources replayable;
* ``trim(before)`` models retention: rollbacks are possible only while the
  log still holds the data (§7.2).

Storage is *chunked*, as in real Kafka (producers send record batches):
a chunk is either a list of record dicts or a columnar
:class:`~repro.sql.batch.RecordBatch` segment.  Consumers choose their
decode path — ``read`` materializes per-record objects (what a
record-at-a-time engine does with a fetched batch), while
``read_columnar`` slices columns directly (what a vectorized reader
does).  The decode asymmetry between the engines in the evaluation is
therefore architectural, not an artifact of the bus.

Thread safety: appends and reads take a per-partition lock so the
continuous-mode workers, the microbatch master and producers can share a
broker.  Every append notifies a condition on that lock, so a consumer
that has read everything blocks in ``wait_past`` until a producer adds
more, instead of polling.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from operator import attrgetter

from repro.sql.batch import shard_of_key

_END_OFFSET = attrgetter("end_offset")


class _Chunk:
    """One appended batch: row dicts or a columnar segment."""

    __slots__ = ("base_offset", "end_offset", "rows", "batch")

    def __init__(self, base_offset: int, rows=None, batch=None):
        self.base_offset = base_offset
        self.end_offset = base_offset + (
            len(rows) if rows is not None else batch.num_rows)
        self.rows = rows
        self.batch = batch

    def slice_rows(self, lo: int, hi: int) -> list:
        """Records at chunk-relative positions [lo, hi) as dicts.

        For columnar segments this materializes one object per record —
        the per-record decode a row-at-a-time consumer performs on a
        fetched batch (kept as tight as Python allows so the baseline
        engines aren't penalized beyond their architecture).
        """
        if self.rows is not None:
            return self.rows[lo:hi]
        batch = self.batch.slice(lo, hi)
        names = batch.schema.names
        columns = [batch.columns[n].tolist() for n in names]
        return [dict(zip(names, values)) for values in zip(*columns)]

    def slice_batch(self, lo: int, hi: int, schema):
        """Records at chunk-relative positions [lo, hi) as a RecordBatch."""
        from repro.sql.batch import RecordBatch

        if self.batch is not None:
            batch = self.batch if (lo == 0 and hi == self.batch.num_rows) \
                else self.batch.slice(lo, hi)
            if schema is not None and batch.schema.names != schema.names:
                batch = batch.select(schema.names)
            return batch
        return RecordBatch.from_rows(self.rows[lo:hi], schema)


class TopicPartition:
    """One append-only log: the unit of ordering and parallelism."""

    def __init__(self, topic: str, index: int):
        self.topic = topic
        self.index = index
        self._chunks = []
        self._base_offset = 0  # oldest retained offset
        self._next_offset = 0
        self._lock = threading.Lock()
        #: Notified by every append and by :meth:`wake`.
        self._appended = threading.Condition(self._lock)

    @property
    def end_offset(self) -> int:
        """Offset one past the last record (the next offset to be written)."""
        with self._lock:
            return self._next_offset

    @property
    def begin_offset(self) -> int:
        """Oldest retained offset."""
        with self._lock:
            return self._base_offset

    # ------------------------------------------------------------------
    # Produce
    # ------------------------------------------------------------------
    def append(self, record) -> int:
        """Append one record; returns its offset."""
        with self._lock:
            offset = self._next_offset
            self._chunks.append(_Chunk(offset, rows=[record]))
            self._next_offset = offset + 1
            self._appended.notify_all()
            return offset

    def append_many(self, records) -> int:
        """Append a batch of record dicts; returns the new end offset."""
        records = list(records)
        if not records:
            return self.end_offset
        with self._lock:
            self._chunks.append(_Chunk(self._next_offset, rows=records))
            self._next_offset += len(records)
            self._appended.notify_all()
            return self._next_offset

    def append_batch(self, batch) -> int:
        """Append a columnar segment; returns the new end offset."""
        if batch.num_rows == 0:
            return self.end_offset
        with self._lock:
            self._chunks.append(_Chunk(self._next_offset, batch=batch))
            self._next_offset += batch.num_rows
            self._appended.notify_all()
            return self._next_offset

    # ------------------------------------------------------------------
    # Consume
    # ------------------------------------------------------------------
    def wait_past(self, offset: int, timeout: float) -> bool:
        """Block until the log holds a record at ``offset`` or later, at
        most ``timeout`` seconds; True if it does.  Any append or
        :meth:`wake` ends the wait, so a caller re-checks what it waits
        for."""
        with self._lock:
            if self._next_offset <= offset:
                self._appended.wait(timeout)
            return self._next_offset > offset

    def wake(self) -> None:
        """End every :meth:`wait_past` now, data or not (a consumer is
        stopping)."""
        with self._lock:
            self._appended.notify_all()

    def _chunk_ranges(self, start: int, end: int):
        """Yield (chunk, lo, hi) covering offsets [start, end); the first
        chunk is bisected to, so a read costs its own chunks however
        many the log retains before them."""
        if start < self._base_offset:
            raise LookupError(
                f"offsets [{start}, {end}) of {self.topic}/{self.index} "
                f"trimmed (oldest retained: {self._base_offset})"
            )
        chunks = self._chunks
        for i in range(bisect_right(chunks, start, key=_END_OFFSET),
                       len(chunks)):
            chunk = chunks[i]
            if chunk.base_offset >= end:
                break
            lo = max(start, chunk.base_offset) - chunk.base_offset
            hi = min(end, chunk.end_offset) - chunk.base_offset
            yield chunk, lo, hi

    def read(self, start: int, end: int) -> list:
        """Records in ``[start, end)`` as dicts (object decode path).

        Raises ``LookupError`` if part of the range has been trimmed —
        the engine treats this as "cannot roll back that far" (§7.2).
        """
        with self._lock:
            parts = list(self._chunk_ranges(start, end))
        rows = []
        for chunk, lo, hi in parts:
            rows.extend(chunk.slice_rows(lo, hi))
        return rows

    def read_columnar(self, start: int, end: int, schema):
        """Records in ``[start, end)`` as one RecordBatch (vectorized
        decode path: columnar segments are sliced, not re-parsed)."""
        from repro.sql.batch import RecordBatch

        with self._lock:
            parts = list(self._chunk_ranges(start, end))
        batches = [chunk.slice_batch(lo, hi, schema) for chunk, lo, hi in parts]
        if not batches:
            return RecordBatch.empty(schema)
        return RecordBatch.concat(batches, schema)

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def trim(self, before: int) -> None:
        """Discard records with offsets below ``before`` (retention).

        Trimming happens at chunk granularity, like Kafka's segment
        deletion: a chunk is dropped only when entirely below the mark.
        """
        with self._lock:
            keep = []
            new_base = self._base_offset
            for chunk in self._chunks:
                if chunk.end_offset <= before:
                    new_base = max(new_base, chunk.end_offset)
                else:
                    keep.append(chunk)
            self._chunks = keep
            self._base_offset = max(self._base_offset, min(before, new_base))


class Topic:
    """A named set of partitions."""

    def __init__(self, name: str, num_partitions: int):
        if num_partitions < 1:
            raise ValueError("a topic needs at least one partition")
        self.name = name
        self.partitions = [TopicPartition(name, i) for i in range(num_partitions)]

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def publish(self, record, key=None) -> int:
        """Publish one record, hash-partitioned by key (round-robin-ish
        by object identity when no key is given).  A key is placed by
        the engine's stable key hash, as ``KafkaSink`` places rows:
        ``hash`` of a str is salted per process, so a restarted producer
        would scatter a key across partitions."""
        index = shard_of_key(key, len(self.partitions)) if key is not None \
            else id(record) % len(self.partitions)
        return self.partitions[index].append(record)

    def publish_to(self, partition: int, records) -> int:
        """Append record dicts directly to one partition; returns the new
        end offset."""
        return self.partitions[partition].append_many(records)

    def publish_batch_to(self, partition: int, batch) -> int:
        """Append a columnar segment to one partition."""
        return self.partitions[partition].append_batch(batch)

    def end_offsets(self) -> dict:
        """Current end offset per partition, keyed by stringified index
        (JSON-friendly, matching the WAL format)."""
        return {str(p.index): p.end_offset for p in self.partitions}

    def total_records(self) -> int:
        """Number of retained records across partitions."""
        return sum(p.end_offset - p.begin_offset for p in self.partitions)


class Broker:
    """Registry of topics; the "cluster" handle applications share."""

    def __init__(self):
        self._topics = {}
        self._lock = threading.Lock()

    def create_topic(self, name: str, num_partitions: int = 1) -> Topic:
        """Create a topic (error if it exists)."""
        with self._lock:
            if name in self._topics:
                raise ValueError(f"topic {name!r} already exists")
            topic = Topic(name, num_partitions)
            self._topics[name] = topic
            return topic

    def topic(self, name: str) -> Topic:
        """Look up an existing topic."""
        with self._lock:
            try:
                return self._topics[name]
            except KeyError:
                raise LookupError(f"no such topic: {name!r}") from None

    def get_or_create(self, name: str, num_partitions: int = 1) -> Topic:
        """Look up a topic, creating it if missing."""
        with self._lock:
            if name not in self._topics:
                self._topics[name] = Topic(name, num_partitions)
            return self._topics[name]
