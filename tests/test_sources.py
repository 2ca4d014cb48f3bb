"""Tests for streaming sources: the replayability contract (§3, §6.1)."""

import json

import pytest

from repro.bus import Broker
from repro.sources.base import RetainedLogSource, Source
from repro.sources.cdc import ChangeStream
from repro.sources.file import FileSourceDescriptor, FileStreamSource
from repro.sources.kafka import KafkaSource, KafkaSourceDescriptor
from repro.sources.memory import MemoryStream
from repro.sources.rate import RateSource
from repro.sql.types import StructType
from repro.storage import write_jsonl
from repro.streaming.stream_table import StreamTable

SCHEMA = StructType((("v", "long"),))


class TestKafkaSource:
    @pytest.fixture
    def source(self):
        broker = Broker()
        topic = broker.create_topic("t", 2)
        topic.publish_to(0, [{"v": 1}, {"v": 2}])
        topic.publish_to(1, [{"v": 10}])
        return KafkaSourceDescriptor(broker, "t", SCHEMA).create()

    def test_partitions(self, source):
        assert source.partitions() == ["0", "1"]

    def test_offsets(self, source):
        assert source.initial_offsets() == {"0": 0, "1": 0}
        assert source.latest_offsets() == {"0": 2, "1": 1}

    def test_get_batch_merges_partitions(self, source):
        batch = source.get_batch({"0": 0, "1": 0}, {"0": 2, "1": 1})
        assert sorted(batch.column("v").tolist()) == [1, 2, 10]

    def test_partial_range(self, source):
        batch = source.get_batch({"0": 1, "1": 0}, {"0": 2, "1": 0})
        assert batch.column("v").tolist() == [2]

    def test_replayable(self, source):
        a = source.get_batch({"0": 0, "1": 0}, {"0": 2, "1": 1})
        b = source.get_batch({"0": 0, "1": 0}, {"0": 2, "1": 1})
        assert a.to_rows() == b.to_rows()

    def test_json_records_mode(self):
        broker = Broker()
        topic = broker.create_topic("j")
        topic.publish_to(0, ['{"v": 5}'])
        source = KafkaSourceDescriptor(broker, "j", SCHEMA, records_are_json=True).create()
        assert source.get_batch({"0": 0}, {"0": 1}).to_rows() == [{"v": 5}]

    def test_offsets_delta(self, source):
        assert source.offsets_delta({"0": 0, "1": 0}, {"0": 2, "1": 1}) == 3


class TestFileSource:
    @pytest.fixture
    def directory(self, tmp_path):
        return str(tmp_path / "in")

    def test_empty_directory(self, directory):
        source = FileStreamSource(directory, SCHEMA)
        assert source.latest_offsets() == {"files": 0}

    def test_files_become_offsets(self, directory):
        source = FileStreamSource(directory, SCHEMA)
        write_jsonl(f"{directory}/a.jsonl", [{"v": 1}])
        write_jsonl(f"{directory}/b.jsonl", [{"v": 2}, {"v": 3}])
        assert source.latest_offsets() == {"files": 2}
        batch = source.get_batch({"files": 0}, {"files": 2})
        assert batch.column("v").tolist() == [1, 2, 3]

    def test_incremental_reads_only_new_files(self, directory):
        source = FileStreamSource(directory, SCHEMA)
        write_jsonl(f"{directory}/a.jsonl", [{"v": 1}])
        first_end = source.latest_offsets()
        write_jsonl(f"{directory}/b.jsonl", [{"v": 2}])
        batch = source.get_batch(first_end, source.latest_offsets())
        assert batch.column("v").tolist() == [2]

    def test_sorted_listing_gives_stable_offsets(self, directory):
        source = FileStreamSource(directory, SCHEMA)
        write_jsonl(f"{directory}/2.jsonl", [{"v": 2}])
        write_jsonl(f"{directory}/1.jsonl", [{"v": 1}])
        batch = source.get_batch({"files": 0}, {"files": 2})
        assert batch.column("v").tolist() == [1, 2]

    def test_non_matching_suffix_ignored(self, directory):
        source = FileStreamSource(directory, SCHEMA)
        write_jsonl(f"{directory}/a.jsonl", [{"v": 1}])
        write_jsonl(f"{directory}/junk.txt", [{"v": 9}])
        assert source.latest_offsets() == {"files": 1}

    def test_descriptor_roundtrip(self, directory):
        descriptor = FileSourceDescriptor(directory, SCHEMA)
        write_jsonl(f"{directory}/a.jsonl", [{"v": 7}])
        assert descriptor.create().latest_offsets() == {"files": 1}


class TestRateSource:
    def test_deterministic_replay(self):
        clock_value = [0.0]
        source = RateSource(100.0, clock=lambda: clock_value[0])
        clock_value[0] = 1.0
        assert source.latest_offsets() == {"0": 100}
        a = source.get_batch({"0": 0}, {"0": 100})
        b = source.get_batch({"0": 0}, {"0": 100})
        assert a.column("value").tolist() == b.column("value").tolist()

    def test_timestamps_spaced_by_rate(self):
        clock_value = [0.0]
        source = RateSource(10.0, clock=lambda: clock_value[0])
        batch = source.get_batch({"0": 0}, {"0": 3})
        t = batch.column("timestamp")
        assert (t[1] - t[0]) == pytest.approx(0.1)

    def test_values_are_sequence_numbers(self):
        source = RateSource(10.0, clock=lambda: 0.0)
        assert source.get_batch({"0": 2}, {"0": 5}).column("value").tolist() == [2, 3, 4]


class TestMemoryStream:
    def test_add_and_read(self):
        stream = MemoryStream(SCHEMA)
        stream.add_data([{"v": 1}, {"v": 2}])
        assert stream.latest_offsets() == {"0": 2}
        assert stream.get_batch({"0": 0}, {"0": 2}).column("v").tolist() == [1, 2]

    def test_fully_retained_for_replay(self):
        stream = MemoryStream(SCHEMA)
        stream.add_data([{"v": 1}])
        stream.add_data([{"v": 2}])
        assert stream.get_batch({"0": 0}, {"0": 1}).column("v").tolist() == [1]

    def test_is_its_own_descriptor(self):
        stream = MemoryStream(SCHEMA)
        assert stream.create() is stream

    def test_tuple_schema_accepted(self):
        stream = MemoryStream((("a", "string"),))
        stream.add_data([{"a": "x"}])
        assert stream.get_batch({"0": 0}, {"0": 1}).to_rows() == [{"a": "x"}]


class TestOnePartitionRead:
    """Every source implements one read, ``get_partition_batch``; the
    epoch's ``get_batch`` is the base class's."""

    SOURCES = (KafkaSource, FileStreamSource, RateSource, RetainedLogSource,
               MemoryStream, ChangeStream, StreamTable)

    def test_no_source_defines_its_own_epoch_read(self):
        for cls in self.SOURCES:
            assert "get_batch" not in vars(cls), cls.__name__
            assert cls.get_partition_batch is not Source.get_partition_batch

    @pytest.mark.parametrize("json_records", [False, True])
    def test_kafka_partition_read_holds_the_schema_fields(self, json_records):
        broker = Broker()
        topic = broker.create_topic("t")
        rows = [{"v": 1, "w": "a"}, {"v": 2, "w": "b"}]
        topic.publish_to(0, [json.dumps(r) for r in rows] if json_records
                         else rows)
        wide = StructType((("v", "long"), ("w", "string")))
        source = KafkaSourceDescriptor(broker, "t", wide, json_records).create()
        batch = source.get_partition_batch("0", 0, 2, StructType((("w", "string"),)))
        assert batch.to_rows() == [{"w": "a"}, {"w": "b"}]
        assert source.get_partition_batch("0", 1, 2).to_rows() == rows[1:]

    def test_file_rate_and_retained_partition_reads_hold_the_schema_fields(
            self, tmp_path):
        wide = StructType((("v", "long"), ("w", "string")))
        narrow = StructType((("w", "string"),))
        write_jsonl(f"{tmp_path}/a.jsonl", [{"v": 1, "w": "x"}])
        files = FileStreamSource(str(tmp_path), wide)
        assert files.get_partition_batch("files", 0, 1, narrow).to_rows() == \
            [{"w": "x"}]
        rate = RateSource(10.0, clock=lambda: 0.0)
        assert rate.get_partition_batch(
            "0", 2, 4, StructType((("value", "long"),))).to_rows() == \
            [{"value": 2}, {"value": 3}]
        stream = MemoryStream(wide)
        stream.add_data([{"v": 1, "w": "x"}, {"v": 2, "w": "y"}])
        assert stream.get_partition_batch("0", 1, 2, narrow).to_rows() == \
            [{"w": "y"}]
        changes = ChangeStream(wide)
        changes.insert([{"v": 1, "w": "x"}])
        assert changes.get_partition_batch("0", 0, 1).schema == changes.schema

    @pytest.fixture
    def four_partitions(self):
        broker = Broker()
        topic = broker.create_topic("t", 4)
        for p in (3, 1, 0):  # partition 2 stays empty
            topic.publish_to(p, [{"v": 100 * p + i} for i in range(8)])
        return KafkaSourceDescriptor(broker, "t", SCHEMA).create()

    def test_get_batch_is_chunked_by_non_empty_partition(self, four_partitions):
        start = four_partitions.initial_offsets()
        batch = four_partitions.get_batch(start, four_partitions.latest_offsets())
        # Parts in sorted partition order; the empty partition is no part.
        assert [c.columns["v"][0] for c in batch.chunks()] == [0, 100, 300]
        assert batch.num_rows == 24
        assert batch.columns["v"].tolist() == \
            [100 * p + i for p in (0, 1, 3) for i in range(8)]

    def test_one_partition_or_none(self, four_partitions):
        start = four_partitions.initial_offsets()
        one = four_partitions.get_batch(start, {**start, "1": 8})
        assert one.chunks() == [one] and one.num_rows == 8
        assert four_partitions.get_batch(start, start).num_rows == 0
