"""Source reading from the in-process message bus (:mod:`repro.bus`).

Plays the role of the Kafka source in the paper's evaluation: topics are
presented as a series of partitions, each a log addressable by offset
(§6.1 step 1).  Records on the bus are plain dict rows; with
``records_are_json=True`` they are JSON strings and the source pays a
parse cost per record (used to model raw-JSON ingestion).
"""

from __future__ import annotations

import json

from repro.bus import Broker
from repro.sql.batch import RecordBatch
from repro.sql.types import StructType
from repro.sources.base import Source, SourceDescriptor


class KafkaSource(Source):
    """Replayable reader over one bus topic."""

    def __init__(self, broker: Broker, topic_name: str, schema: StructType,
                 records_are_json: bool = False):
        self._topic = broker.topic(topic_name)
        self.schema = schema
        self._records_are_json = records_are_json

    def partitions(self) -> list:
        return [str(p.index) for p in self._topic.partitions]

    def initial_offsets(self) -> dict:
        return {str(p.index): p.begin_offset for p in self._topic.partitions}

    def latest_offsets(self) -> dict:
        return self._topic.end_offsets()

    def get_partition_batch(self, partition: str, start: int, end: int,
                            schema: StructType = None) -> RecordBatch:
        """Vectorized decode: columnar bus segments are sliced directly
        (only ``schema``'s columns); row chunks are converted (the decode
        cost a columnar reader pays once per fetch, not per operator)."""
        schema = schema or self.schema
        tp = self._topic.partitions[int(partition)]
        if self._records_are_json:
            rows = [json.loads(r) for r in tp.read(start, end)]
            return RecordBatch.from_rows(rows, schema)
        return tp.read_columnar(start, end, schema)

    def commit(self, end: dict) -> None:
        """No-op: retention is managed by the broker, as with real Kafka."""

    def wait_for_data(self, partition: str, offset: int, timeout: float) -> None:
        self._topic.partitions[int(partition)].wait_past(offset, timeout)

    def wake(self, partition: str) -> None:
        self._topic.partitions[int(partition)].wake()


class KafkaSourceDescriptor(SourceDescriptor):
    """Recipe for attaching to a bus topic."""

    name = "kafka"

    def __init__(self, broker: Broker, topic_name: str, schema: StructType,
                 records_are_json: bool = False):
        self.broker = broker
        self.topic_name = topic_name
        self.schema = schema
        self.records_are_json = records_are_json

    def create(self) -> KafkaSource:
        return KafkaSource(
            self.broker, self.topic_name, self.schema, self.records_are_json
        )
