"""Continuous processing mode (§6.3): latency path, epochs, restrictions."""

import time

import pytest

from repro.bus import Broker
from repro.sql import functions as F
from repro.streaming.continuous import UnsupportedContinuousQueryError

from tests.conftest import make_stream


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


@pytest.fixture
def broker():
    return Broker()


def start_continuous(session, broker, topic="in", partitions=2, interval="50ms"):
    broker.get_or_create(topic, partitions)
    df = (session.read_stream.kafka(broker, topic, (("v", "long"),))
          .select((F.col("v") * 2).alias("v2")))
    return (df.write_stream.format("memory").query_name("cont")
            .trigger(continuous=interval).start())


class TestContinuousExecution:
    def test_records_flow_without_manual_epochs(self, session, broker):
        query = start_continuous(session, broker)
        topic = broker.topic("in")
        topic.publish_to(0, [{"v": 1}])
        topic.publish_to(1, [{"v": 2}])
        sink = query.engine.sink
        assert wait_until(lambda: len(sink.rows()) == 2)
        assert sorted(r["v2"] for r in sink.rows()) == [2, 4]
        query.stop()

    def test_epochs_committed_in_background(self, session, broker):
        query = start_continuous(session, broker, interval="20ms")
        broker.topic("in").publish_to(0, [{"v": 1}])
        assert wait_until(lambda: query.engine.wal.latest_committed_epoch() is not None)
        query.stop()
        entry = query.engine.wal.read_offsets(query.engine.wal.latest_committed_epoch())
        assert "sources" in entry

    def test_stop_commits_final_epoch(self, session, broker):
        query = start_continuous(session, broker, interval="10h")  # master idle
        broker.topic("in").publish_to(0, [{"v": 1}])
        sink = query.engine.sink
        assert wait_until(lambda: len(sink.rows()) == 1)
        query.stop()
        assert query.engine.wal.latest_committed_epoch() == 0

    def test_chunks_reach_the_sink_as_batches(self, session, broker):
        """The engine hands each chunk's output to ``append_batch``; a
        sink that overrides it gets the columns, never rows."""
        from repro.sinks.base import Sink

        class ColumnSink(Sink):
            def __init__(self):
                self.key_names = []
                self.batches = []

            def append_rows(self, rows):
                raise AssertionError("rows built for a column sink")

            def append_batch(self, batch):
                self.batches.append(batch)

        broker.get_or_create("in", 1)
        sink = ColumnSink()
        query = (session.read_stream.kafka(broker, "in", (("v", "long"),))
                 .select((F.col("v") * 2).alias("v2"))
                 .write_stream.sink(sink).trigger(continuous="50ms").start())
        broker.topic("in").publish_to(0, [{"v": 1}, {"v": 2}])
        assert wait_until(lambda: sum(b.num_rows for b in sink.batches) == 2)
        query.stop()
        assert [v for b in sink.batches for v in b.column("v2").tolist()] \
            == [2, 4]

    def test_restart_resumes_from_committed_offsets(self, session, broker, checkpoint):
        topic = broker.get_or_create("in", 1)
        df = session.read_stream.kafka(broker, "in", (("v", "long"),))
        q0 = (df.write_stream.format("memory").query_name("c0")
              .trigger(continuous="20ms").start(checkpoint))
        topic.publish_to(0, [{"v": 1}])
        sink0 = q0.engine.sink
        assert wait_until(lambda: len(sink0.rows()) == 1)
        q0.stop()

        q1 = (df.write_stream.format("memory").query_name("c1")
              .trigger(continuous="20ms").start(checkpoint))
        topic.publish_to(0, [{"v": 2}])
        sink1 = q1.engine.sink
        assert wait_until(lambda: len(sink1.rows()) == 1)
        q1.stop()
        assert sink1.rows() == [{"v": 2}]  # v=1 not reprocessed

    def test_latency_is_sub_epoch(self, session, broker):
        """Records reach the sink far faster than the epoch interval —
        the point of continuous mode (§6.3)."""
        query = start_continuous(session, broker, interval="10h")
        topic = broker.topic("in")
        start = time.monotonic()
        topic.publish_to(0, [{"v": 7}])
        sink = query.engine.sink
        assert wait_until(lambda: len(sink.rows()) == 1, timeout=2.0)
        latency = time.monotonic() - start
        query.stop()
        assert latency < 1.0  # epoch interval is 10h; delivery is immediate


class TestWorkerErrorSurfacing:
    def test_failing_udf_reaches_the_caller(self, session, broker):
        broker.get_or_create("in", 1)

        def explode(v):
            raise ValueError("poison record")

        boom = F.udf(explode, "long")
        df = (session.read_stream.kafka(broker, "in", (("v", "long"),))
              .select(boom(F.col("v")).alias("x")))
        query = (df.write_stream.format("memory").query_name("err")
                 .trigger(continuous="20ms").start())
        broker.topic("in").publish_to(0, [{"v": 1}])
        assert wait_until(lambda: query.engine._worker_error is not None)
        with pytest.raises(ValueError, match="poison record"):
            query.stop()


class TestContinuousRestrictions:
    def test_aggregation_rejected(self, session, broker):
        broker.get_or_create("in", 1)
        df = (session.read_stream.kafka(broker, "in", (("v", "long"),))
              .group_by("v").count())
        with pytest.raises(Exception):
            (df.write_stream.format("memory").query_name("x")
             .trigger(continuous="50ms").output_mode("complete").start())

    def test_non_append_mode_rejected(self, session, broker):
        broker.get_or_create("in", 1)
        df = session.read_stream.kafka(broker, "in", (("v", "long"),))
        with pytest.raises(UnsupportedContinuousQueryError, match="append"):
            (df.write_stream.format("memory").query_name("x")
             .trigger(continuous="50ms").output_mode("update").start())

    def test_two_sources_rejected(self, session, broker):
        broker.get_or_create("in", 1)
        broker.get_or_create("in2", 1)
        a = session.read_stream.kafka(broker, "in", (("v", "long"),))
        b = session.read_stream.kafka(broker, "in2", (("v", "long"),))
        with pytest.raises(UnsupportedContinuousQueryError, match="one input"):
            (a.union(b).write_stream.format("memory").query_name("x")
             .trigger(continuous="50ms").start())

    def test_sink_without_continuous_support_rejected(self, session, broker, tmp_path):
        broker.get_or_create("in", 1)
        df = session.read_stream.kafka(broker, "in", (("v", "long"),))
        with pytest.raises(UnsupportedContinuousQueryError, match="append_rows"):
            (df.write_stream.format("file").option("path", str(tmp_path / "o"))
             .trigger(continuous="50ms").start())

    def test_stream_static_join_allowed(self, session, broker):
        """Map-like includes joins against static tables."""
        broker.get_or_create("in", 1)
        static = session.create_dataframe(
            [{"v": 1, "name": "one"}], (("v", "long"), ("name", "string")))
        df = session.read_stream.kafka(broker, "in", (("v", "long"),)).join(static, on="v")
        query = (df.write_stream.format("memory").query_name("j")
                 .trigger(continuous="50ms").start())
        broker.topic("in").publish_to(0, [{"v": 1}, {"v": 2}])
        sink = query.engine.sink
        assert wait_until(lambda: len(sink.rows()) == 1)
        query.stop()
        assert sink.rows() == [{"v": 1, "name": "one"}]
