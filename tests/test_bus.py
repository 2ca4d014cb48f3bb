"""Tests for the message-bus substrate (repro.bus)."""

import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.bus import Broker
from repro.sql.batch import RecordBatch, shard_of_key
from repro.sql.types import StructType

SCHEMA = StructType((("v", "long"),))


@pytest.fixture
def broker():
    return Broker()


class TestBroker:
    def test_create_and_lookup(self, broker):
        topic = broker.create_topic("t", 3)
        assert broker.topic("t") is topic
        assert topic.num_partitions == 3

    def test_duplicate_create_rejected(self, broker):
        broker.create_topic("t")
        with pytest.raises(ValueError):
            broker.create_topic("t")

    def test_missing_topic_raises(self, broker):
        with pytest.raises(LookupError):
            broker.topic("missing")

    def test_get_or_create_idempotent(self, broker):
        a = broker.get_or_create("t", 2)
        b = broker.get_or_create("t", 5)
        assert a is b
        assert a.num_partitions == 2

    def test_zero_partitions_rejected(self, broker):
        with pytest.raises(ValueError):
            broker.create_topic("t", 0)


class TestPartitionLog:
    def test_offsets_count_records(self, broker):
        topic = broker.create_topic("t")
        end = topic.publish_to(0, [{"v": 1}, {"v": 2}])
        assert end == 2
        assert topic.partitions[0].end_offset == 2
        assert topic.partitions[0].begin_offset == 0

    def test_read_range(self, broker):
        topic = broker.create_topic("t")
        topic.publish_to(0, [{"v": i} for i in range(5)])
        assert topic.partitions[0].read(1, 3) == [{"v": 1}, {"v": 2}]

    def test_read_across_chunks(self, broker):
        topic = broker.create_topic("t")
        topic.publish_to(0, [{"v": 0}, {"v": 1}])
        topic.publish_to(0, [{"v": 2}, {"v": 3}])
        assert [r["v"] for r in topic.partitions[0].read(1, 4)] == [1, 2, 3]

    def test_replayable_same_range_same_records(self, broker):
        topic = broker.create_topic("t")
        topic.publish_to(0, [{"v": i} for i in range(10)])
        first = topic.partitions[0].read(2, 7)
        second = topic.partitions[0].read(2, 7)
        assert first == second

    def test_single_append(self, broker):
        topic = broker.create_topic("t")
        assert topic.partitions[0].append({"v": 9}) == 0

    def test_hash_partitioning_by_key(self, broker):
        """A key's partition is the engine's stable key hash, the same in
        every process: ``hash`` of a str is salted per process, so a
        restarted producer would scatter a key across partitions."""
        topic = broker.create_topic("t", 4)
        for i in range(40):
            topic.publish({"v": i}, key=i)
        assert topic.total_records() == 40
        target = shard_of_key(7, 4)
        assert {"v": 7} in topic.partitions[target].read(
            0, topic.partitions[target].end_offset)
        code = (
            "import json\n"
            "from repro.bus import Broker\n"
            "topic = Broker().create_topic('t', 4)\n"
            "for i in range(24):\n"
            "    topic.publish({'v': i}, key='key-%d' % i)\n"
            "print(json.dumps([[r['v'] for r in p.read(0, p.end_offset)]\n"
            "                  for p in topic.partitions]))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        placements = {
            subprocess.run(
                [sys.executable, "-c", code], check=True, capture_output=True,
                text=True, env={**os.environ, "PYTHONHASHSEED": salt,
                                "PYTHONPATH": src}).stdout
            for salt in ("1", "2", "3")}
        assert len(placements) == 1
        by_partition = json.loads(placements.pop())
        assert by_partition == [
            [i for i in range(24) if shard_of_key(f"key-{i}", 4) == p]
            for p in range(4)]

    def test_end_offsets_json_keys(self, broker):
        topic = broker.create_topic("t", 2)
        topic.publish_to(1, [{"v": 1}])
        assert topic.end_offsets() == {"0": 0, "1": 1}


class TestColumnarSegments:
    def test_append_batch_counts_offsets(self, broker):
        topic = broker.create_topic("t")
        batch = RecordBatch.from_columns(SCHEMA, v=np.arange(5))
        assert topic.publish_batch_to(0, batch) == 5

    def test_read_columnar_slices_segments(self, broker):
        topic = broker.create_topic("t")
        topic.publish_batch_to(0, RecordBatch.from_columns(SCHEMA, v=np.arange(5)))
        out = topic.partitions[0].read_columnar(1, 4, SCHEMA)
        assert out.column("v").tolist() == [1, 2, 3]

    def test_read_rows_from_segment(self, broker):
        topic = broker.create_topic("t")
        topic.publish_batch_to(0, RecordBatch.from_columns(SCHEMA, v=np.arange(3)))
        assert topic.partitions[0].read(0, 2) == [{"v": 0}, {"v": 1}]

    def test_mixed_chunks(self, broker):
        topic = broker.create_topic("t")
        topic.publish_to(0, [{"v": 0}])
        topic.publish_batch_to(0, RecordBatch.from_columns(SCHEMA, v=np.array([1, 2])))
        topic.publish_to(0, [{"v": 3}])
        assert [r["v"] for r in topic.partitions[0].read(0, 4)] == [0, 1, 2, 3]
        columnar = topic.partitions[0].read_columnar(0, 4, SCHEMA)
        assert columnar.column("v").tolist() == [0, 1, 2, 3]

    def test_empty_columnar_read(self, broker):
        topic = broker.create_topic("t")
        out = topic.partitions[0].read_columnar(0, 0, SCHEMA)
        assert out.num_rows == 0


class TestWaitPast:
    """``wait_past`` checks the log under the lock it waits on, so an
    append that lands before the wait starts is never missed."""

    def test_data_already_there_returns_at_once(self, broker):
        tp = broker.create_topic("t").partitions[0]
        tp.append({"v": 1})
        started = time.monotonic()
        assert tp.wait_past(0, 5.0) is True
        assert time.monotonic() - started < 1.0

    def test_times_out_without_data(self, broker):
        tp = broker.create_topic("t").partitions[0]
        assert tp.wait_past(0, 0.01) is False

    def test_append_and_wake_end_the_wait(self, broker):
        tp = broker.create_topic("t").partitions[0]
        for act, expect in ((lambda: tp.append_many([{"v": 1}]), True),
                            (tp.wake, False)):
            timer = threading.Timer(0.05, act)
            timer.start()
            started = time.monotonic()
            assert tp.wait_past(tp.end_offset, 5.0) is expect
            assert time.monotonic() - started < 1.0
            timer.join(timeout=5)
            assert not timer.is_alive()


class TestRetention:
    def test_trim_whole_chunks(self, broker):
        topic = broker.create_topic("t")
        topic.publish_to(0, [{"v": 0}, {"v": 1}])
        topic.publish_to(0, [{"v": 2}, {"v": 3}])
        topic.partitions[0].trim(2)
        assert topic.partitions[0].begin_offset == 2
        assert topic.partitions[0].read(2, 4) == [{"v": 2}, {"v": 3}]

    def test_trim_is_chunk_granular(self, broker):
        topic = broker.create_topic("t")
        topic.publish_to(0, [{"v": 0}, {"v": 1}, {"v": 2}])
        topic.partitions[0].trim(1)  # mid-chunk: nothing dropped
        assert topic.partitions[0].begin_offset == 0

    def test_read_trimmed_range_raises(self, broker):
        topic = broker.create_topic("t")
        topic.publish_to(0, [{"v": 0}, {"v": 1}])
        topic.publish_to(0, [{"v": 2}])
        topic.partitions[0].trim(2)
        with pytest.raises(LookupError, match="trimmed"):
            topic.partitions[0].read(0, 2)

    def test_total_records_reflects_retention(self, broker):
        topic = broker.create_topic("t")
        topic.publish_to(0, [{"v": 0}, {"v": 1}])
        topic.publish_to(0, [{"v": 2}, {"v": 3}])
        topic.partitions[0].trim(2)
        assert topic.total_records() == 2
