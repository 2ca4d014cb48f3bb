"""Sink publishing results back to the message bus.

Models Kafka output with transactional producers: the broker-side epoch
registry records which (query, epoch) pairs have been published, so a
recovering query re-delivering its last epoch produces no duplicates —
the "stream to stream ETL" pattern of §6.3.
"""

from __future__ import annotations

import threading

from repro.bus import Broker
from repro.observability import metrics
from repro.sinks.base import Sink
from repro.sql.batch import (
    RecordBatch,
    partition_by_assignment,
    shard_assignments,
)

# Broker-side registries, keyed by (topic, query). Living outside the sink
# instance models state kept by the external bus (transaction markers),
# which survives application restarts.
_registry_lock = threading.Lock()
_committed_epochs: dict = {}


class KafkaSink(Sink):
    """Publish each epoch's rows to a topic, exactly once per epoch.

    With ``partition_key`` on a multi-partition topic, a row goes to the
    partition :func:`repro.sql.batch.shard_of_key` gives its key — stable
    across processes, like Kafka's key partitioner."""

    supported_modes = ("append", "update")

    def __init__(self, broker: Broker, topic_name: str, query_id: str,
                 partition_key: str = None):
        self._topic = broker.get_or_create(topic_name)
        self._query_id = query_id
        self._registry_key = (topic_name, query_id)
        self._partition_key = partition_key
        self.key_names = []

    def add_batch(self, epoch_id: int, batch: RecordBatch, mode: str) -> None:
        with _registry_lock:
            seen = _committed_epochs.setdefault(self._registry_key, set())
            if epoch_id in seen:
                return
        partitions = self._topic.num_partitions
        if self._partition_key is None or partitions == 1:
            self._topic.publish_to(0, batch.to_rows())
        else:
            # The engine's stable key hash, so a key lands in the same
            # partition in every process (``hash`` of a str is salted per
            # process: a restarted query would scatter a key's records).
            assign = shard_assignments(
                [batch.columns[self._partition_key]], partitions)
            parts, _ = partition_by_assignment(batch, assign, partitions)
            for index, part in enumerate(parts):
                if part.num_rows:
                    self._topic.publish_to(index, part.to_rows())
        with _registry_lock:
            _committed_epochs[self._registry_key].add(epoch_id)
        self._count_commit(batch.num_rows)

    def append_rows(self, rows) -> None:
        """Continuous-mode write path: publish rows immediately (§6.3)."""
        rows = list(rows)
        self._topic.publish_to(0, rows)
        metrics.count("sink.rows_appended", len(rows))

    def last_committed_epoch(self):
        with _registry_lock:
            seen = _committed_epochs.get(self._registry_key)
            return max(seen) if seen else None


def reset_transaction_registry() -> None:
    """Test helper: forget all broker-side transaction markers."""
    with _registry_lock:
        _committed_epochs.clear()
