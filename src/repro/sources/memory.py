"""In-memory test source, equivalent to Spark's ``MemoryStream``.

Tests and examples push rows with :meth:`MemoryStream.add_data`; the
engine reads them back by offset.  The stream retains everything, so any
epoch can be replayed — convenient for crash-recovery tests.
"""

from __future__ import annotations

import time

from repro.sql.batch import RecordBatch
from repro.sql.types import StructType
from repro.sources.base import RetainedLogSource


class MemoryStream(RetainedLogSource):
    """A single-partition, fully retained in-memory stream.

    Acts as its own descriptor: the object is shared between the test
    (producer) and the engine (consumer), surviving engine restarts the
    way an external message bus would.  Rows become the schema's columns
    when appended: a row that does not fit raises there, and later
    changes to the caller's dicts do not reach the stream.  Each append
    records its ingest timestamp; tests may pin ``ingest_time``.
    """

    name = "memory"

    def __init__(self, schema):
        super().__init__()
        self.schema = schema if isinstance(schema, StructType) else StructType(tuple(schema))

    def add_data(self, rows, ingest_time: float = None) -> None:
        """Append rows (list of dicts) to the stream."""
        self._append(
            RecordBatch.from_rows(rows, self.schema),
            time.time() if ingest_time is None else ingest_time)
