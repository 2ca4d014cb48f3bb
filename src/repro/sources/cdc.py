"""CDC-style in-memory change stream: inserts, updates and deletes.

The weighted twin of :class:`repro.sources.memory.MemoryStream`: every
record carries a ``__weight__`` of ``+1`` (insert) or ``-1`` (delete);
an update is a delete/insert pair appended atomically.  Downstream, the
incrementalizer treats any plan fed by such a stream as a Z-set
pipeline (see :mod:`repro.streaming.zset`), maintaining aggregates,
distinct tables and joins under retraction.

Like MemoryStream, the object is its own descriptor, fully retained
(any epoch can be replayed after a crash), single-partition and columnar.
"""

from __future__ import annotations

import time

import numpy as np

from repro.sql.batch import RecordBatch
from repro.sql.types import StructType
from repro.sources.base import RetainedLogSource
from repro.streaming.zset import WEIGHT_COLUMN, weighted_schema


class ChangeStream(RetainedLogSource):
    """A single-partition, fully retained stream of weighted changes."""

    name = "cdc"

    def __init__(self, schema):
        super().__init__()
        #: Schema of the user's rows, without the weight column.
        self.data_schema = (
            schema if isinstance(schema, StructType) else StructType(tuple(schema))
        )
        if WEIGHT_COLUMN in self.data_schema:
            raise ValueError(
                f"the change stream schema must not contain {WEIGHT_COLUMN!r}; "
                "weights are attached by insert()/delete()/update()"
            )
        #: Schema the engine sees: user columns + ``__weight__``.
        self.schema = weighted_schema(self.data_schema)

    # ------------------------------------------------------------------
    # Producer API
    # ------------------------------------------------------------------
    def _stamp(self, rows, weight: int) -> RecordBatch:
        """The rows' data columns plus a constant weight column."""
        rows = list(rows)
        if any(WEIGHT_COLUMN in row for row in rows):
            raise ValueError(
                f"rows must not carry {WEIGHT_COLUMN!r} explicitly")
        columns = RecordBatch.from_rows(rows, self.data_schema).columns
        columns[WEIGHT_COLUMN] = np.full(len(rows), weight, dtype=np.int64)
        return RecordBatch(columns, self.schema)

    def _publish(self, batch: RecordBatch, ingest_time) -> None:
        self._append(batch, time.time() if ingest_time is None else ingest_time)

    def insert(self, rows, ingest_time: float = None) -> None:
        """Append rows (list of dicts) with weight +1."""
        self._publish(self._stamp(rows, 1), ingest_time)

    def delete(self, rows, ingest_time: float = None) -> None:
        """Retract rows previously inserted (matched by value), weight -1."""
        self._publish(self._stamp(rows, -1), ingest_time)

    def update(self, old_rows, new_rows, ingest_time: float = None) -> None:
        """Replace ``old_rows`` with ``new_rows`` atomically: the -1/+1
        halves are one chunk with one ingest stamp, so no epoch ever
        observes the delete without its replacement."""
        halves = [self._stamp(old_rows, -1), self._stamp(new_rows, 1)]
        self._publish(RecordBatch.concat(halves), ingest_time)
