"""Sink interface.

The engine calls ``add_batch(epoch_id, batch, mode)`` once per epoch with
the epoch's output rows under the query's output mode:

* ``append`` — the rows are new and final; add them;
* ``update`` — the rows are upserts keyed by ``key_names``;
* ``complete`` — the rows are the entire result table; replace everything;
* ``retract`` — the rows are a Z-set delta: each carries ``__weight__``
  (+1 add one occurrence, -1 remove one); applying the delta yields the
  new result table (see :mod:`repro.streaming.zset`).

``last_committed_epoch`` lets a recovering engine skip re-delivery of
epochs the sink already has — this plus idempotent ``add_batch`` yields
exactly-once output end to end (§6.1 step 4).

The continuous engine (§6.3) writes outside epochs through
``append_batch(batch)``.  A sink takes continuous writes by defining
``append_rows(rows)``, which the default ``append_batch`` feeds; one
that can use the columns overrides ``append_batch`` as well.
"""

from __future__ import annotations

from repro.observability import metrics
from repro.sql.batch import RecordBatch


class Sink:
    """Base class for output sinks."""

    #: Output modes this sink supports; checked when the query starts.
    supported_modes = ("append", "update", "complete")

    def _count_commit(self, num_rows: int) -> None:
        """Count one *applied* (non-duplicate) epoch commit.

        Sinks call this after their idempotence check, so re-delivery
        during recovery never double-counts — the counters match what
        actually reached the sink exactly once.
        """
        metrics.count("sink.batches_committed")
        metrics.count("sink.rows_delivered", num_rows)

    def set_key_names(self, key_names) -> None:
        """Told by the engine which output columns identify a row (for
        update mode).  Default: remember them."""
        self.key_names = list(key_names) if key_names else []

    def add_batch(self, epoch_id: int, batch: RecordBatch, mode: str) -> None:
        """Write one epoch's output.  MUST be idempotent in ``epoch_id``."""
        raise NotImplementedError

    def append_batch(self, batch: RecordBatch) -> None:
        """Continuous-mode write of one chunk's output (§6.3).  Default:
        ``append_rows`` of its rows, for sinks whose contract is rows."""
        self.append_rows(batch.to_rows())

    def last_committed_epoch(self):
        """Highest epoch id durably written, or None."""
        return None
