"""Stream tables: one query's result table feeding another query.

``writer.to_table("silver")`` makes a query publish its epoch outputs to
a named :class:`StreamTable`; ``session.read_stream_table("silver")``
reads that table back as a streaming source.  The table is a durable
changelog — in ``retract`` mode rows keep their ``__weight__`` column,
so a downstream query sees the upstream's Z-set deltas and maintains its
own result incrementally (a cascade of materialized views, each stage
with its own checkpoint, watermark, and exactly-once commit).

The table behaves like an in-process message bus topic: the sink side
appends each committed epoch's rows exactly once (idempotent in
``epoch_id``), and the source side addresses rows by integer offset with
full retention, satisfying the replayability contract (§3, §6.1) that
downstream recovery depends on.
"""

from __future__ import annotations

from repro.sinks.base import Sink
from repro.sql.batch import RecordBatch
from repro.sql.types import StructType
from repro.sources.base import RetainedLogSource
from repro.testing.faults import fault_point


class StreamTable(Sink, RetainedLogSource):
    """A named changelog bridging two streaming queries.

    One instance is shared by the writing query (as its sink) and any
    number of reading queries (as their source), surviving restarts of
    either side the way an external bus would.  The schema is bound when
    the writing query starts — weighted (with ``__weight__``) when it
    writes in ``retract`` mode, plain when it appends.
    """

    name = "stream_table"
    supported_modes = ("append", "retract")

    def __init__(self, table_name: str):
        super().__init__()
        self.table_name = table_name
        self.schema = None  # bound by the writing query's start()
        self._epochs = set()
        self.key_names = []
        #: Ingest-floor propagation (end-to-end event-time lag, §7.4):
        #: the writing engine announces each epoch's oldest source-ingest
        #: timestamp via ``note_epoch_ingest`` before delivering the
        #: batch; the appended row range inherits it, so a downstream
        #: query's ``ingest_floor`` sees the *original* bronze ingest
        #: time, not this stage's write time.
        self._pending_ingest = {}

    # -- sink side ------------------------------------------------------
    def bind_schema(self, schema: StructType, mode: str) -> None:
        """Fix the table's row schema from the writing query's output."""
        with self._lock:
            if self.schema is None:
                self.schema = schema
            elif self.schema != schema:
                raise ValueError(
                    f"stream table {self.table_name!r} already bound to "
                    f"{self.schema!r}; a restarted writer must produce "
                    f"the same schema, got {schema!r}"
                )

    def note_epoch_ingest(self, epoch_id: int, ingest_time) -> None:
        """Optional sink hook: the writing engine's ingest floor for the
        epoch it is about to deliver (engine falls back to the epoch's
        trigger time when its sources don't track ingest)."""
        with self._lock:
            self._pending_ingest[epoch_id] = ingest_time

    def add_batch(self, epoch_id: int, batch: RecordBatch, mode: str) -> None:
        fault_point("sink.add_batch", epoch=epoch_id, sink="stream_table")
        with self._lock:
            pending = self._pending_ingest.pop(epoch_id, None)
            if epoch_id in self._epochs:
                return  # idempotent re-delivery after recovery
            # The epoch's columns become one chunk of the log as they are.
            self._append(batch, pending)
            self._epochs.add(epoch_id)
            self._count_commit(batch.num_rows)

    def last_committed_epoch(self):
        with self._lock:
            return max(self._epochs) if self._epochs else None
