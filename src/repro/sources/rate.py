"""Synthetic rate source: generates rows at a configurable rate.

Deterministically replayable by construction — row ``i`` always has
``value == i`` and ``timestamp == start + i / rows_per_second`` — making it
useful for load tests and the continuous-mode latency benchmark (§9.3).
"""

from __future__ import annotations

import time

import numpy as np

from repro.sql.batch import RecordBatch
from repro.sql.types import StructType
from repro.sources.base import Source, SourceDescriptor

PARTITION = "0"

RATE_SCHEMA = StructType((("timestamp", "timestamp"), ("value", "long")))


class RateSource(Source):
    """Generates ``rows_per_second`` rows per second from creation time."""

    def __init__(self, rows_per_second: float, clock=time.monotonic):
        self.schema = RATE_SCHEMA
        self._rate = float(rows_per_second)
        self._clock = clock
        self._start = clock()

    def partitions(self) -> list:
        return [PARTITION]

    def initial_offsets(self) -> dict:
        return {PARTITION: 0}

    def latest_offsets(self) -> dict:
        elapsed = self._clock() - self._start
        return {PARTITION: int(elapsed * self._rate)}

    def get_partition_batch(self, partition: str, start: int, end: int,
                            schema: StructType = None) -> RecordBatch:
        values = np.arange(start, end, dtype=np.int64)
        timestamps = self._start + values / self._rate
        batch = RecordBatch.from_columns(
            self.schema, timestamp=timestamps, value=values
        )
        return batch if schema is None else batch.select(schema.names)


class RateSourceDescriptor(SourceDescriptor):
    """Recipe for a rate source (a fresh run restarts the clock)."""

    name = "rate"

    def __init__(self, rows_per_second: float):
        self.rows_per_second = rows_per_second
        self.schema = RATE_SCHEMA

    def create(self) -> RateSource:
        return RateSource(self.rows_per_second)
